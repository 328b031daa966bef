"""Norm engine: exact oracles, quadrature, Monte Carlo, mixed norms."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from berglab import norms
from berglab.corpus import random_polynomials
from berglab.measures import McSampler
from berglab.norms import (
    _GRID_BYTES_BUDGET,
    _MIXED_DEFAULTS,
    _grid_bytes,
    _grid_rule,
    _quadrature_norm,
    _uses_fft,
    bergman_norm,
    bergman_norm_mc,
    exact_norm_even_p,
    exact_norm_p2,
    hardy_norm,
    mixed_norm,
    monomial_norm_sq,
)
from berglab.poly import ComplexPolynomial, _pair_product, parse_polynomial

z = ComplexPolynomial.variable()
one = ComplexPolynomial.constant(1.0)


def test_monomial_norm_values():
    assert monomial_norm_sq(0, 2.0) == 1.0
    assert monomial_norm_sq(1, 2.0) == pytest.approx(0.5, rel=1e-15)
    assert monomial_norm_sq(2, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_monomial_norm_log_domain_consistency():
    # product form and log-gamma form must agree where both are sane
    for alpha in (1.3, 2.0, 6.0):
        for k in (10, 40, 80, 150):
            direct = math.exp(
                math.lgamma(k + 1) + math.lgamma(alpha) - math.lgamma(alpha + k)
            )
            assert monomial_norm_sq(k, alpha) == pytest.approx(direct, rel=1e-12)


def test_exact_p2_frozen_values():
    assert exact_norm_p2(one + z, 2.0).value == pytest.approx(
        math.sqrt(1.5), rel=1e-15
    )
    P = ComplexPolynomial.from_terms(2, {(1, 1): 1.0})
    assert exact_norm_p2(P, 2.0).value == pytest.approx(0.5, rel=1e-15)
    c = ComplexPolynomial.constant(2.0 - 1.0j)
    assert exact_norm_p2(c, 3.3).value == pytest.approx(abs(2.0 - 1.0j), rel=1e-15)


def test_exact_even_p_frozen_values():
    assert exact_norm_even_p(one + z, 2.0, 4.0).value == pytest.approx(
        (10.0 / 3.0) ** 0.25, rel=1e-15
    )
    assert exact_norm_even_p(z, 2.0, 4.0).value == pytest.approx(
        (1.0 / 3.0) ** 0.25, rel=1e-15
    )
    assert exact_norm_even_p(one, 5.0, 6.0).value == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        exact_norm_even_p(one + z, 2.0, 3.0)


def test_exact_even_p_checks_alpha_before_expanding(monkeypatch):
    def refuse(self, k):
        raise AssertionError("P ** s expanded before alpha was checked")

    monkeypatch.setattr(ComplexPolynomial, "__pow__", refuse)
    with pytest.raises(ValueError, match="alpha"):
        exact_norm_even_p(one + z, 0.5, 4.0)


def test_exact_even_p_high_degree_monomials():
    c = 0.6 - 0.8j
    P = ComplexPolynomial.from_terms(1, {(1500,): c})
    want = abs(c) * monomial_norm_sq(3000, 2.0) ** 0.25
    assert exact_norm_even_p(P, 2.0, 4.0).value == pytest.approx(want, rel=1e-14)
    Q = ComplexPolynomial.from_terms(2, {(300, 200): c})
    want = abs(c) * (monomial_norm_sq(600, 3.0) * monomial_norm_sq(400, 3.0)) ** 0.25
    assert exact_norm_even_p(Q, 3.0, 4.0).value == pytest.approx(want, rel=1e-14)


def test_exact_even_p_high_degree_matches_pair_loop_square():
    rng = np.random.default_rng(400)
    P = ComplexPolynomial.from_coeffs(
        rng.standard_normal(401) + 1j * rng.standard_normal(401)
    )
    squared = _pair_product(P, P)
    want = (exact_norm_p2(squared, 2.0).value ** 2) ** (1.0 / 4.0)
    assert exact_norm_even_p(P, 2.0, 4.0).value == want


def test_quadrature_matches_oracles():
    assert bergman_norm(one + z, 2.0, 2.0).value == pytest.approx(
        math.sqrt(1.5), abs=1e-12
    )
    assert bergman_norm(one + z, 2.0, 4.0).value == pytest.approx(
        (10.0 / 3.0) ** 0.25, abs=1e-12
    )
    assert bergman_norm(one, 3.7, 0.4).value == pytest.approx(1.0, abs=1e-12)


def test_quadrature_trivariate_smoke():
    P = ComplexPolynomial.from_terms(3, {(1, 0, 0): 1.0, (0, 1, 1): 0.5, (0, 0, 0): 1.0})
    got = bergman_norm(P, 2.0, 2.0).value
    want = exact_norm_p2(P, 2.0).value
    assert got == pytest.approx(want, rel=1e-12)


def test_hardy_frozen_values():
    w = ComplexPolynomial.variable()
    assert hardy_norm(one + w, 2.0).value == pytest.approx(math.sqrt(2.0), rel=1e-13)
    assert hardy_norm(one + w, 4.0).value == pytest.approx(6.0 ** 0.25, rel=1e-13)
    assert hardy_norm(w ** 5, 3.3).value == pytest.approx(1.0, rel=1e-13)


def test_mixed_norm_frozen_values():
    Q = (one + z).homogenize(1)
    assert mixed_norm(Q, 2.0, 2.0).value == pytest.approx(math.sqrt(1.5), rel=1e-12)
    Zw = ComplexPolynomial.from_terms(2, {(1, 1): 1.0})
    assert mixed_norm(Zw, 2.0, 2.0).value == pytest.approx(math.sqrt(0.5), rel=1e-12)
    C = ComplexPolynomial.constant(3.0, nvars=2)
    assert mixed_norm(C, 2.0, 2.0).value == pytest.approx(3.0, rel=1e-12)


@given(
    st.floats(0.1, 3.0),
    st.floats(0.0, 2 * math.pi),
    st.sampled_from([2.0, 3.5, 4.0]),
)
def test_positive_homogeneity(mag, phase, p):
    c = mag * complex(math.cos(phase), math.sin(phase))
    P = one + z * (0.5 + 0.25j) + (z * z) * 0.1
    base = bergman_norm(P, 2.0, p).value
    scaled = bergman_norm(P * c, 2.0, p).value
    assert scaled == pytest.approx(abs(c) * base, rel=1e-12)


def test_dilation_monotone_in_radius():
    for P in random_polynomials(5, 1, 6, seed=2):
        vals = [
            bergman_norm(P.dilate(r), 2.0, 4.0).value
            for r in np.linspace(0.0, 1.0, 11)
        ]
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-12 * max(vals))


def test_hardy_bergman_trend():
    f = one + z
    target = hardy_norm(f, 2.0).value
    vals = [bergman_norm(f, a, 2.0).value for a in (1.5, 1.25, 1.1, 1.05)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v < target for v in vals)
    # ||1+z||_{A^2_alpha} = sqrt(1 + 1/alpha), so the terminal gap is known
    assert vals[-1] == pytest.approx(math.sqrt(1.0 + 1.0 / 1.05), rel=1e-12)
    assert target - vals[-1] < 0.02


def test_quadrature_doubling_stability():
    # doubling both node counts moves a converged value by < 1e-11
    P = random_polynomials(1, 1, 8, seed=4, kind="zero-free")[0]
    [(_, _, m)] = _grid_rule((P.degree,), 2.0, 3.5)
    a = bergman_norm(P, 2.0, 3.5, nodes=64, angles=m).value
    b = bergman_norm(P, 2.0, 3.5, nodes=128, angles=2 * m + 1).value
    assert abs(a - b) <= 1e-11 * abs(b)


def test_mc_within_four_sigma_of_exact():
    P = ComplexPolynomial.from_terms(2, {(1, 0): 1.0, (0, 1): 1.0})
    s = McSampler(2.0, 2, seed=17)
    res = bergman_norm_mc(P, 2.0, s, 100_000)
    assert res.method == "monte-carlo"
    assert abs(res.value - 1.0) <= 4.0 * res.est_error


def test_mc_constant_is_exact():
    s = McSampler(2.0, 1, seed=1)
    res = bergman_norm_mc(one, 2.0, s, 2_000)
    assert res.value == pytest.approx(1.0, rel=1e-15)
    assert res.est_error == pytest.approx(0.0, abs=1e-12)


def test_mc_zero_polynomial_and_degenerate_path():
    s = McSampler(2.0, 1, seed=1)
    assert bergman_norm_mc(ComplexPolynomial.zero(), 2.0, s, 2_000).value == 0.0
    dead = lambda pts: np.zeros(len(pts), dtype=complex)
    with pytest.raises(RuntimeError):
        bergman_norm_mc(dead, 2.0, s, 2_000)


def test_exact_even_p_at_two_is_the_p2_route():
    for P in random_polynomials(5, 2, 6, 3) + [one + z, ComplexPolynomial.zero()]:
        for alpha in (1.3, 2.0, 4.0):
            assert exact_norm_even_p(P, alpha, 2.0) == exact_norm_p2(P, alpha)


GRID_CALLS = {
    "bergman": lambda **kw: bergman_norm(one + z, 2.0, 3.0, **kw),
    "hardy": lambda **kw: hardy_norm(one + z, 3.0, **kw),
}


@pytest.mark.parametrize("count", [0, -3])
@pytest.mark.parametrize("kind", sorted(GRID_CALLS))
def test_grid_counts_below_one_are_refused(kind, count):
    with pytest.raises(ValueError, match=f"angles must be at least 1, got {count}"):
        GRID_CALLS[kind](angles=count)
    if kind == "bergman":
        with pytest.raises(ValueError, match=f"nodes must be at least 1, got {count}"):
            GRID_CALLS[kind](nodes=count)


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes tracemalloc sees while fn runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oversized_grid_is_refused_before_anything_is_allocated(monkeypatch):
    # (32, 4001) per axis, summed by FFT: the first lead step holds the
    # coefficients beside the lead array of 32 * 4001 * 1001 values, 1.9 GiB
    P = parse_polynomial("(1000,1000):1")
    triples = _grid_rule((1000, 1000), 2.0, 4.0)
    assert [(len(t), m) for t, _, m in triples] == [(32, 4001)] * 2
    assert _grid_bytes((1001, 1001), triples) == 16 * (1001 + 32 * 4001) * 1001
    assert _grid_bytes((1001, 1001), triples) > 3 * _GRID_BYTES_BUDGET

    def no_coefficients(self):
        raise AssertionError("coefficient array built before the refusal")

    monkeypatch.setattr(ComplexPolynomial, "coeff_array", no_coefficients)

    def refused():
        with pytest.raises(ValueError, match="quadrature grid too large"):
            bergman_norm(P, 2.0, 4.0)

    assert traced_peak(refused) < 1 << 20


@pytest.mark.parametrize("text, p", [("(40,40):1 (0,0):1", 2.0), ("(6,6,6):1", 3.0)])
def test_grid_bytes_never_exceeds_the_traced_peak(text, p):
    # the count is a lower bound of what the kernel holds, so a refusal
    # never overstates the need
    P = parse_polynomial(text)
    triples = _grid_rule(P.variable_degrees(), 2.0, p)
    counted = _grid_bytes(tuple(d + 1 for d in P.variable_degrees()), triples)
    assert counted <= traced_peak(bergman_norm, P, 2.0, p)


@pytest.mark.parametrize(
    "coeffs, angles", [((1, 1), 100_001), ((1,) * 300, 150_001), ((1,) * 20, 31)]
)
def test_univariate_grid_bytes_count_the_fourier_matrix_and_tile(coeffs, angles):
    # one variable has no lead step: the count is the streamed axis's Fourier
    # matrix (none where an FFT sums it) and tile, still within the traced peak
    P, g = ComplexPolynomial.from_coeffs(coeffs), len(coeffs)
    triples = _grid_rule((P.degree,), 2.0, 3.0, nodes=2, angles=angles)
    counted = _grid_bytes((g,), triples)
    assert counted >= max(0 if _uses_fft(g, angles) else 40 * g * angles, 16 * angles)
    assert counted <= traced_peak(bergman_norm, P, 2.0, 3.0, nodes=2, angles=angles)


def test_huge_angle_count_for_one_variable_is_refused(monkeypatch):
    # a (2 x 10^9) Fourier matrix would take 30 GiB, the first tile 15 GiB
    def no_kernel(*args):
        raise AssertionError("kernel reached before the refusal")

    monkeypatch.setattr(norms, "_power_mean", no_kernel)

    def refused():
        with pytest.raises(ValueError, match="quadrature grid too large"):
            bergman_norm(one + z, 2.0, 2.0, angles=10**9)

    assert traced_peak(refused) < 1 << 20


def test_grid_rule_default_sizes():
    # (radial nodes, angles) per axis.  At other than even p: the tensor and
    # mixed tables, and the univariate floor for circle variables
    def sizes(rule):
        return [(len(t), m) for t, _, m in rule]

    assert sizes(_grid_rule((5,), 2.0, 3.0)) == [(64, 257)]
    assert sizes(_grid_rule((100,), 2.0, 3.0)) == [(64, 801)]
    assert sizes(_grid_rule((5, 3), 2.0, 3.0)) == [(32, 65), (32, 65)]
    assert sizes(_grid_rule((5, 3), 2.0, 3.0, defaults=_MIXED_DEFAULTS)) == [
        (24, 41), (24, 33)
    ]
    assert sizes(_grid_rule((1, 1, 1), 2.0, 0.5)) == [(16, 33)] * 3
    assert sizes(_grid_rule((7,), None, 3.0)) == [(1, 257)]
    # a single variable at p < 1 (disk, circle or the disk of a mixed norm)
    # has 1025 angles unless they are given
    assert sizes(_grid_rule((5,), 2.0, 0.5)) == [(64, 1025)]
    assert sizes(_grid_rule((5,), None, 0.5)) == [(1, 1025)]
    assert sizes(_grid_rule((5,), 2.0, 0.5, defaults=_MIXED_DEFAULTS)) == [(64, 1025)]
    assert sizes(_grid_rule((5,), 2.0, 0.5, angles=257)) == [(64, 257)]
    assert sizes(_grid_rule((5, 3), 2.0, 0.5)) == [(32, 65), (32, 65)]
    # at p = 2s each axis of degree d: ceil((d*s + 1)/2) nodes, capped at the
    # table's count, and 2*d*s + 1 angles
    assert sizes(_grid_rule((4,), 2.0, 2.0)) == [(3, 9)]
    assert sizes(_grid_rule((5,), 2.0, 4.0)) == [(6, 21)]
    assert sizes(_grid_rule((1500,), 2.0, 4.0)) == [(64, 6001)]
    assert sizes(_grid_rule((5, 3), 2.0, 4.0)) == [(6, 21), (4, 13)]
    assert sizes(_grid_rule((40, 0), 2.0, 4.0)) == [(32, 161), (1, 1)]
    assert sizes(_grid_rule((40, 1), 2.0, 4.0, defaults=_MIXED_DEFAULTS)) == [
        (24, 161), (2, 5)
    ]
    assert sizes(_grid_rule((3,), None, 6.0)) == [(1, 19)]
    assert sizes(_grid_rule((5, 3), 2.0, 4.0, nodes=3, angles=9)) == [(3, 9)] * 2
    with pytest.raises(ValueError, match="at most 3 disk variables, got 4"):
        _grid_rule((1, 1, 1, 1), 2.0, 2.0)


def test_grid_rule_angle_floor_and_growth():
    # at p other than an even integer an axis of degree d has
    # 4*d*ceil(p/2) + 1 angles (p taken as at least 2), at least the floor
    def angles(degrees, p):
        return [m for _, _, m in _grid_rule(degrees, 2.0, p)]

    assert angles((0,), 3.0) == [257]
    assert angles((12,), 5.5) == [257]
    assert angles((30,), 5.5) == [4 * 30 * 3 + 1]
    assert angles((100,), 1.5) == [4 * 100 + 1]
    assert angles((300,), 0.5) == [4 * 300 + 1]
    assert angles((20, 3), 3.0) == [4 * 20 * 2 + 1, 65]
    assert angles((5, 5, 5), 2.5) == [4 * 5 * 2 + 1] * 3


def _box_polynomial(degrees, seed):
    """Random complex coefficients on every monomial with exponents <= degrees."""
    rng = np.random.default_rng(seed)
    terms = {
        gamma: complex(*rng.uniform(-1.0, 1.0, 2))
        for gamma in np.ndindex(*(d + 1 for d in degrees))
    }
    return ComplexPolynomial.from_terms(len(degrees), terms)


@pytest.mark.parametrize("p", [2.0, 4.0, 6.0])
@pytest.mark.parametrize("degrees", [(7,), (1, 5), (5, 1), (1, 5, 2)])
def test_even_p_default_grid_is_exact(degrees, p):
    # every axis is sized from its own degree: a skewed axis on another
    # axis's rule under-resolves
    P = _box_polynomial(degrees, seed=sum(degrees))
    for alpha in (1.5, 2.0, 4.0):
        quad = bergman_norm(P, alpha, p).value
        assert quad == pytest.approx(exact_norm_even_p(P, alpha, p).value, rel=1e-13)


def test_mixed_norm_circle_axis_sized_from_its_own_degree():
    # Q = 1 + z + w^4 at p = 4: |Q|^4 = |Q^2|^2 has angular degree 8 in w.
    # Deriving the circle axis from the disk axis, max(5 - 1, 8) = 8 angles,
    # aliases it
    Q = parse_polynomial("(0,0):1;(1,0):1;(0,4):1")
    disk = _grid_rule((1,), 2.0, 4.0, defaults=_MIXED_DEFAULTS)

    def on_circle_angles(count):
        circle = _grid_rule((4,), None, 4.0, angles=count)
        return _quadrature_norm(Q, disk + circle, 4.0)

    reference = on_circle_angles(101).value
    assert mixed_norm(Q, 2.0, 4.0).value == pytest.approx(reference, rel=1e-13)
    assert abs(on_circle_angles(8).value / reference - 1) > 1e-2


def test_quadrature_reports_zero_est_error():
    res = bergman_norm(one + z, 2.0, 2.0)
    assert res.est_error == 0.0
    assert res.method == "quadrature"


def test_zero_polynomial_all_methods():
    Z = ComplexPolynomial.zero()
    assert exact_norm_p2(Z, 2.0).value == 0.0
    assert exact_norm_even_p(Z, 2.0, 4.0).value == 0.0
    assert bergman_norm(Z, 2.0, 2.0).value == 0.0


def test_norm_parse_integration():
    P = parse_polynomial("1,1")
    assert bergman_norm(P, 2.0, 2.0).value == pytest.approx(
        math.sqrt(1.5), abs=1e-12
    )
