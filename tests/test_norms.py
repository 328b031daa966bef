"""Norm engine: exact oracles, quadrature, Monte Carlo, mixed norms."""
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from berglab import checks, inequalities, norms
from berglab.acceptance import run_criterion
from berglab.corpus import random_polynomials
from berglab.measures import McSampler, stream_for
from berglab.norms import (
    _GRID_BYTES_BUDGET,
    _MIXED_GAP_TOL,
    _climbed_norms,
    _gap_settled,
    _grid_bytes,
    _grid_rule,
    _ladder,
    _mc_norm,
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


def loop_moment(k: int, alpha: float) -> float:
    """The moment of |z|^(2k), a running product up to k = 64 and by lgamma above."""
    if k <= 64:
        out = 1.0
        for j in range(1, k + 1):
            out *= j / (alpha - 1.0 + j)
        return out
    return math.exp(math.lgamma(k + 1) + math.lgamma(alpha) - math.lgamma(alpha + k))


def loop_norm_p2(P: ComplexPolynomial, alpha: float) -> float:
    """The A^2_alpha norm by a plain loop over terms and variables."""
    total = 0.0
    for gamma, c in P.terms:
        mom = 1.0
        for e in gamma:
            mom *= loop_moment(e, alpha)
        total += (c.real * c.real + c.imag * c.imag) * mom
    return math.sqrt(total)


ALPHAS = st.sampled_from([1.000001, 1.3, 2.0, 6.0, 37.5])


@st.composite
def moment_polynomials(draw):
    # exponents up to 90 reach the lgamma branch of monomial_norm_sq
    n = draw(st.integers(1, 3))
    top = draw(st.sampled_from([4, 90]))
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, top)] * n),
        st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        max_size=30,
    ))
    return ComplexPolynomial.from_terms(n, terms)


@given(moment_polynomials(), ALPHAS)
def test_exact_p2_same_bits_as_the_term_loop(P, alpha):
    assert exact_norm_p2(P, alpha).value == loop_norm_p2(P, alpha)


@pytest.mark.parametrize("alpha", [1.3, 2.0, 6.0])
def test_exact_p2_same_bits_as_the_term_loop_dense_and_sparse(alpha):
    rng = np.random.default_rng(17)
    unit = lambda i: tuple(int(j == i) for j in range(16))
    sparse = ComplexPolynomial.from_terms(
        16, {unit(i): 0.25 + 0.1j * i for i in range(16)}
    )
    dense = rng.standard_normal(301) + 1j * rng.standard_normal(301)
    cases = [
        ComplexPolynomial.from_coeffs(dense),  # degree 300: the lgamma branch
        _pair_product(sparse, sparse),  # 136 terms, top exponent 2
        ComplexPolynomial.from_terms(16, {unit(3): 1.5, (0,) * 15 + (200,): -2j}),
        ComplexPolynomial.from_terms(1, {(2,): 0.5, (10**20,): 1 + 1j}),  # > int64
        ComplexPolynomial.from_terms(2, {(64, 65): 1.0}),  # either side of the branch
        ComplexPolynomial.zero(3),
    ]
    for P in cases:
        assert exact_norm_p2(P, alpha).value == loop_norm_p2(P, alpha)


# sha256 of the repr of the list of the exact norms of perfbench's highdeg
# cases, (degree, p) below, at alpha = 2 on random_polynomials(1, 1, d, 1729)
HIGHDEG_EXACT_CASES = (
    (100, 6.0), (200, 4.0), (400, 4.0), (800, 2.0), (800, 4.0), (1500, 2.0), (1500, 4.0)
)
HIGHDEG_EXACT_SHA256 = (
    "6c750423063684183f2463c6c5b4e8e21541281e6a1648a4195fc0c15fb45b04"
)


def test_the_highdeg_oracle_values_keep_their_bits():
    values = []
    for degree, p in HIGHDEG_EXACT_CASES:
        P = random_polynomials(1, 1, degree, 1729)[0]
        exact = exact_norm_p2(P, 2.0) if p == 2.0 else exact_norm_even_p(P, 2.0, p)
        values.append(exact.value)
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    assert digest == HIGHDEG_EXACT_SHA256


# sha256 of the repr of the list of the bergman_norm values of the same
# cases on their default grids, the quadrature side of perfbench's highdeg
HIGHDEG_QUADRATURE_SHA256 = (
    "dad87a8a01d11a12d9b1abc6cfdb514eca10ae1677deb2d7d96287dc6a10cc32"
)


def test_the_highdeg_quadrature_values_keep_their_bits():
    values = [
        bergman_norm(random_polynomials(1, 1, degree, 1729)[0], 2.0, p).value
        for degree, p in HIGHDEG_EXACT_CASES
    ]
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    assert digest == HIGHDEG_QUADRATURE_SHA256


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
        _mc_norm(dead, 2.0, s, 2_000)


# A bivariate degree-5 polynomial of the corpus: the control variate's tests
CV_POLY = random_polynomials(1, 2, 5, 3)[0]


def _cv_samples(sampler, count, p):
    """x = |P|^p and y = |P|^2 at the sampler's first count points."""
    y = np.abs(CV_POLY.evaluate_many(sampler.sample_block(0, count))) ** 2
    return y ** (0.5 * p), y


def test_mc_control_variate_within_four_sigma_over_20_seeds():
    exact = exact_norm_even_p(CV_POLY, 2.0, 4.0).value
    hits = 0
    for seed in range(20):
        sampler = McSampler(2.0, 2, seed)
        res = bergman_norm_mc(CV_POLY, 4.0, sampler, 20_000)
        hits += abs(res.value - exact) <= 4.0 * res.est_error
        # the same samples without the control: about twice the 1-sigma
        plain = _mc_norm(CV_POLY.evaluate_many, 4.0, sampler, 20_000)
        assert res.est_error < 0.7 * plain.est_error
    assert hits >= 19


def test_mc_control_variate_with_a_shifted_mean_misses():
    # negative control: a control mean 1% off moves the estimate by > 4 sigma
    sampler = McSampler(2.0, 2, 1729)
    control = exact_norm_p2(CV_POLY, 2.0).value ** 2
    right = _mc_norm(CV_POLY.evaluate_many, 4.0, sampler, 200_000, control)
    wrong = _mc_norm(CV_POLY.evaluate_many, 4.0, sampler, 200_000, 1.01 * control)
    assert abs(wrong.value - right.value) > 4.0 * right.est_error
    exact = exact_norm_even_p(CV_POLY, 2.0, 4.0).value
    assert abs(wrong.value - exact) > 4.0 * wrong.est_error


@pytest.mark.parametrize("p", [0.5, 3.0, 4.0])
def test_mc_control_variate_bias_is_below_a_tenth_sigma(p):
    # Fitting b on the samples it corrects biases the mean by O(1/N).  An
    # estimate with b fixed in advance is unbiased, so the mean over seeds of
    # the difference of the two is that bias.  The difference varies far
    # less than either estimate, so 20 seeds resolve it to about 0.01 sigma.
    control = exact_norm_p2(CV_POLY, 2.0).value ** 2
    x, y = _cv_samples(McSampler(2.0, 2, 0, stream_for("fixed-b")), 200_000, p)
    fixed_b = np.cov(x, y)[0, 1] / np.var(y, ddof=1)
    diffs, sigmas = [], []
    for seed in range(20):
        sampler = McSampler(2.0, 2, seed)
        res = bergman_norm_mc(CV_POLY, p, sampler, 20_000)
        mean = res.value ** p
        x, y = _cv_samples(sampler, 20_000, p)
        diffs.append(mean - (x.mean() - fixed_b * (y.mean() - control)))
        sigmas.append(res.est_error * p * mean / res.value)
    bias, spread = np.mean(diffs), np.std(diffs, ddof=1) / math.sqrt(len(diffs))
    assert abs(bias) + 4.0 * spread < 0.1 * min(sigmas)


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
    """Peak bytes tracemalloc sees while fn runs from cold kernel caches."""
    norms._TABLES.clear()
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oversized_grid_is_refused_before_anything_is_allocated(monkeypatch):
    # (32, 2025) per axis, summed by FFT: the first lead step holds the
    # coefficients beside the lead array of 32 * 2025 * 1001 values, 0.97 GiB,
    # with its radial power table and its first tile of 1 row x 32 nodes:
    # values and shells, and the cast buffer of np.getbufsize() values
    P = parse_polynomial("(1000,1000):1")
    grid = _grid_rule((1000, 1000), 2.0, 4.0)
    assert grid == ((2.0, 32, 2025),) * 2
    assert _grid_bytes((1001, 1001), grid, 4.0) == (
        16 * (1001 + 32 * 2025) * 1001
        + 8 * 32 * 1001
        + 16 * 32 * (1001 + 2025)
        + 16 * 8192
    )
    assert _grid_bytes((1001, 1001), grid, 4.0) > 1.9 * _GRID_BYTES_BUDGET

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
    grid = _grid_rule(P.variable_degrees(), 2.0, p)
    counted = _grid_bytes(tuple(d + 1 for d in P.variable_degrees()), grid, p)
    assert counted <= traced_peak(bergman_norm, P, 2.0, p)


@pytest.mark.parametrize(
    "coeffs, angles", [((1, 1), 100_001), ((1,) * 300, 150_001), ((1,) * 20, 31)]
)
def test_univariate_grid_bytes_count_the_fourier_matrix_and_tile(coeffs, angles):
    # one variable has no lead step: where an FFT sums the streamed axis the
    # count is its tile of values, elsewhere the Fourier matrix with the
    # roots and phase table it is indexed from while it is built, beside the
    # s buffer of at least one circle; still within the traced peak
    P, g = ComplexPolynomial.from_coeffs(coeffs), len(coeffs)
    counted = _grid_bytes((g,), ((2.0, 2, angles),), 3.0)
    if _uses_fft(g, angles):
        assert counted >= 16 * angles
    else:
        assert counted >= (24 * g + 16) * angles + 8 * angles
    assert counted <= traced_peak(bergman_norm, P, 2.0, 3.0, nodes=2, angles=angles)


@pytest.mark.parametrize(
    "P, nodes, angles",
    [
        (ComplexPolynomial.from_coeffs(np.linspace(-1.0, 1.0, 4001)), 1, 9),
        (parse_polynomial("(30,30):1 (1,0):1"), 2, 31),
        (parse_polynomial("(6,6,6):1"), 16, 49),
    ],
    ids=["aliased-4000", "many-rows-one-buffer", "trivariate-lead-steps"],
)
def test_grid_bytes_track_the_traced_peak(P, nodes, angles):
    # 4001 coefficients on 9 angles alias through the Fourier matmul, and
    # 62 lead rows of 31 coefficients on 2 nodes stream one tile whose shells
    # fit in one numpy buffer, so numpy's buffers for forming them are as
    # large as the shells; the trivariate default grid peaks in its second
    # lead step, which holds 7 x 784 rows beside 7 x 784 x 784 values: on
    # each the count is close to the traced peak, so a refusal is not far
    # off what the grid would take
    grid = ((2.0, nodes, angles),) * P.nvars
    counted = _grid_bytes(tuple(d + 1 for d in P.variable_degrees()), grid, 3.0)
    peak = traced_peak(bergman_norm, P, 2.0, 3.0, nodes=nodes, angles=angles)
    assert counted <= peak <= 1.25 * counted


@pytest.mark.parametrize(
    "profile, streams", [(norms.circle_means, 1), (norms.circle_curvature, 2)]
)
@pytest.mark.parametrize("degree, q, circles", [(50, 3.0, 2000), (6, 4.0, 3000)])
def test_the_profile_bytes_track_the_traced_peak(profile, streams, degree, q, circles):
    # the curvature evaluates P and z P' as two streams, each building its
    # own tables where they are too large for the table cache (2,000 radii
    # of degree 50) and sharing them where it keeps them (degree 6), where
    # the count, taking them per stream, is a little above the peak
    P = random_polynomials(1, 1, degree, 1729)[0]
    grid = _grid_rule((degree,), None, q, nodes=circles)
    counted = _grid_bytes((degree + 1,), grid, q, streams)
    peak = traced_peak(profile, P, q, np.linspace(0.01, 0.95, circles))
    assert 0.9 * counted <= peak <= 1.25 * counted


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_an_fft_axis_holds_no_values_buffer(p):
    # perfbench highdeg's degree-1,500 norm: its streamed axis, 64 nodes x
    # 1501 or 3001 angles, is summed by FFT into the one values buffer; a
    # fresh FFT output per tile, held beside the last tile's, would take the
    # traced peak to about 1.2 (p = 2) and 1.3 (p = 4) times the count
    P = random_polynomials(1, 1, 1500, 1729)[0]
    grid = _grid_rule((1500,), 2.0, p)
    assert _uses_fft(1501, grid[0][2])
    counted = _grid_bytes((1501,), grid, p)
    assert counted <= traced_peak(bergman_norm, P, 2.0, p) <= 1.1 * counted


def test_huge_angle_count_for_one_variable_is_refused(monkeypatch):
    # the (2 x 10^9) Fourier matrix would take 30 GiB, 60 GiB while it is
    # built, and the first tile of values 15 GiB
    def no_kernel(*args):
        raise AssertionError("kernel reached before the refusal")

    monkeypatch.setattr(norms, "_power_mean", no_kernel)

    def refused():
        with pytest.raises(ValueError, match="quadrature grid too large"):
            bergman_norm(one + z, 2.0, 2.0, angles=10**9)

    assert traced_peak(refused) < 1 << 20


def test_grid_rule_default_sizes():
    # (radial nodes, angles) per axis.  At other than even p: the tensor
    # table, the mixed table where circles sit beside disks (each circle one
    # angle below the first disk), and the univariate floor for one circle
    def sizes(grid):
        return [(nodes, m) for _, nodes, m in grid]

    assert sizes(_grid_rule((5,), 2.0, 3.0)) == [(64, 257)]
    assert sizes(_grid_rule((100,), 2.0, 3.0)) == [(64, 801)]
    assert sizes(_grid_rule((5, 3), 2.0, 3.0)) == [(32, 65), (32, 65)]
    assert sizes(_grid_rule((5, 3, 0), (2.0, 2.0, None), 3.0)) == [
        (24, 41), (24, 33), (1, 40)
    ]
    assert sizes(_grid_rule((1, 1, 1), 2.0, 0.5)) == [(16, 33)] * 3
    assert sizes(_grid_rule((7,), None, 3.0)) == [(1, 257)]
    # a single variable at p < 1 (disk, circle or the disk of a mixed norm)
    # has 1025 angles unless they are given
    assert sizes(_grid_rule((5,), 2.0, 0.5)) == [(64, 1025)]
    assert sizes(_grid_rule((5,), None, 0.5)) == [(1, 1025)]
    assert sizes(_grid_rule((5, 0), (2.0, None), 0.5)) == [(64, 1025), (1, 1024)]
    assert sizes(_grid_rule((5,), 2.0, 0.5, angles=257)) == [(64, 257)]
    assert sizes(_grid_rule((5, 3), 2.0, 0.5)) == [(32, 65), (32, 65)]
    # at p = 2s each axis of degree d: ceil((d*s + 1)/2) nodes, capped at the
    # table's count, and d*s + 1 angles
    assert sizes(_grid_rule((4,), 2.0, 2.0)) == [(3, 5)]
    assert sizes(_grid_rule((5,), 2.0, 4.0)) == [(6, 11)]
    # an axis summed by FFT (``_uses_fft``) rounds d*s + 1 up to a 5-smooth count
    assert sizes(_grid_rule((1500,), 2.0, 4.0)) == [(64, 3072)]
    assert sizes(_grid_rule((5, 3), 2.0, 4.0)) == [(6, 11), (4, 7)]
    assert sizes(_grid_rule((40, 0), 2.0, 4.0)) == [(32, 81), (1, 1)]
    # beside disks a circle is sized from its own degree at even p
    assert sizes(_grid_rule((40, 1, 3), (2.0, 2.0, None), 4.0)) == [
        (24, 81), (2, 3), (1, 7)
    ]
    assert sizes(_grid_rule((3,), None, 6.0)) == [(1, 10)]
    assert sizes(_grid_rule((5, 3), 2.0, 4.0, nodes=3, angles=9)) == [(3, 9)] * 2
    with pytest.raises(ValueError, match="at most 3 disk variables, got 4"):
        _grid_rule((1, 1, 1, 1), 2.0, 2.0)
    # a circle beside disks keys the mixed table by the disk count alone
    assert len(_grid_rule((1, 1, 1, 1), (2.0, 2.0, 2.0, None), 3.0)) == 4
    with pytest.raises(ValueError, match="at most 3 disk variables, got 4"):
        _grid_rule((1,) * 5, (2.0,) * 4 + (None,), 3.0)


@pytest.mark.parametrize("p", [0.5, 3.0, 4.0])
@pytest.mark.parametrize("degrees", [(7,), (5, 3), (1, 5, 2)])
def test_one_weight_is_that_weight_on_every_axis(degrees, p):
    n = len(degrees)
    assert _grid_rule(degrees, 2.0, p) == _grid_rule(degrees, (2.0,) * n, p)
    assert _grid_rule(degrees, None, p) == _grid_rule(degrees, (None,) * n, p)
    pinned = _grid_rule(degrees, (2.0,) * n, p, nodes=5, angles=9)
    assert pinned == _grid_rule(degrees, 2.0, p, nodes=5, angles=9)


@pytest.mark.parametrize("weights", [(2.0,), (2.0, 2.0, None), ()])
def test_a_weight_tuple_of_the_wrong_length_is_refused(weights):
    message = f"{len(weights)} weights for 2 variables"
    with pytest.raises(ValueError, match=message):
        _grid_rule((3, 1), weights, 3.0)
    with pytest.raises(ValueError, match="weights for"):
        bergman_norm(parse_polynomial("(3,1):1"), weights, 3.0)


def test_hardy_norm_refuses_a_bivariate_polynomial():
    with pytest.raises(ValueError, match="1 weights for 2 variables"):
        hardy_norm(parse_polynomial("(1,1):1"), 3.0)


@pytest.mark.parametrize(
    "call, grids",
    [
        (lambda: hardy_norm(one + 0.5 * z ** 3, 3.0), 1),
        (lambda: hardy_norm(one + 0.5 * z ** 3, 4.0, angles=20), 1),
        (lambda: mixed_norm((one + 0.5 * z ** 3).homogenize(3), 2.0, 4.0), 1),
        # zero-free: the companion and three doublings, where the climb settles
        (lambda: mixed_norm((one + 0.5 * z ** 3).homogenize(3), 2.0, 3.5), 4),
    ],
    ids=["hardy", "hardy-pinned", "mixed-even", "mixed-climbed"],
)
def test_a_repeated_quadrature_norm_is_computed_once_in_a_memo_scope(
    monkeypatch, call, grids
):
    # Hardy norms and every rung of a mixed norm are bergman_norm calls, so
    # inside one scope a repeat runs no kernel; outside a scope it does
    kernel = norms._power_mean
    calls = []

    def counting(*args):
        calls.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(norms, "_power_mean", counting)
    with norms.memo_scope():
        first = call()
        assert call() == first
    assert len(calls) == grids
    call()
    assert len(calls) == 2 * grids


def test_grid_rule_angle_floor_and_growth():
    # at p other than an even integer an axis of degree d has
    # 4*d*ceil(p/2) + 1 angles (p taken as at least 2), at least the floor
    def angles(degrees, p):
        return [m for _, _, m in _grid_rule(degrees, 2.0, p)]

    assert angles((0,), 3.0) == [257]
    assert angles((12,), 5.5) == [257]
    assert angles((30,), 5.5) == [4 * 30 * 3 + 1]
    assert angles((100,), 1.5) == [4 * 100 + 1]
    assert angles((300,), 0.5) == [1215]  # 4 * 300 + 1 by FFT, rounded 5-smooth
    assert angles((20, 3), 3.0) == [4 * 20 * 2 + 1, 65]
    assert angles((5, 5, 5), 2.5) == [4 * 5 * 2 + 1] * 3


def _is_five_smooth(m: int) -> bool:
    for prime in (2, 3, 5):
        while m % prime == 0:
            m //= prime
    return m == 1


@pytest.mark.parametrize("p", [0.5, 2.0, 3.0, 4.0, 6.0])
def test_default_fft_axes_take_the_least_five_smooth_angle_count(p):
    # the least count that is exact at even p (d*s + 1), or the count of
    # other p, goes up to the next count with no prime factor above 5 on an
    # axis it would have summed by FFT; a matmul axis keeps it
    for alpha in (2.0, None):
        for d in range(2001):
            s = p / 2.0
            if s.is_integer():
                least = int(d * s) + 1
            else:
                floor = 1025 if p < 1.0 else 257
                least = max(floor, 4 * d * math.ceil(max(p, 2.0) / 2.0) + 1)
            [(_, _, m)] = _grid_rule((d,), alpha, p)
            if _uses_fft(d + 1, least):
                assert _is_five_smooth(m) and m >= least, (d, least, m)
                assert not any(map(_is_five_smooth, range(least, m))), (d, least, m)
            else:
                assert m == least, (d, least, m)
            assert _is_five_smooth(m) or not _uses_fft(d + 1, m), (d, m)


def test_a_rounded_fft_axis_stays_exact_where_one_angle_fewer_misses():
    # degree 120 at p = 2: 121 angles sum by FFT and go up to 125, still
    # exact; the same grid on 120 angles aliases the top frequency onto the mean
    P = random_polynomials(1, 1, 120, 1729)[0]
    assert P.variable_degrees() == (120,)
    grid = _grid_rule((120,), 2.0, 2.0)
    assert grid == ((2.0, 61, 125),) and _uses_fft(121, 125)
    exact = exact_norm_p2(P, 2.0).value
    assert bergman_norm(P, 2.0, 2.0).value == pytest.approx(exact, rel=1e-14, abs=0.0)
    fewer = bergman_norm(P, 2.0, 2.0, nodes=61, angles=120).value
    assert abs(fewer - exact) > 1e-5 * exact


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


@pytest.mark.parametrize("d", [1, 3, 8])
def test_even_p_angle_count_is_the_least_exact_one(d):
    # at p = 4 (s = 2), |1 + z^d|^4 = |1 + 2 z^d + z^(2d)|^2 has trigonometric
    # degree d*s = 2d: the default d*s + 1 angles integrate it exactly, while
    # on d*s angles its top frequency aliases onto the mean, on the disk as
    # on the circle
    P = one + z**d
    on_disk = exact_norm_even_p(P, 2.0, 4.0).value
    on_circle = float(np.sum(np.abs((P**2).dense_coeffs()) ** 2)) ** 0.25
    for alpha in (2.0, None):  # disk and circle
        assert _grid_rule((d,), alpha, 4.0)[0][2] == 2 * d + 1
    assert bergman_norm(P, 2.0, 4.0).value == pytest.approx(on_disk, rel=1e-14)
    assert hardy_norm(P, 4.0).value == pytest.approx(on_circle, rel=1e-14)
    assert abs(bergman_norm(P, 2.0, 4.0, angles=2 * d).value / on_disk - 1) > 1e-2
    assert abs(hardy_norm(P, 4.0, angles=2 * d).value / on_circle - 1) > 1e-2


def test_mixed_norm_circle_axis_sized_from_its_own_degree():
    # Q = 1 + z + w^4 at p = 4: |Q|^4 = |Q^2|^2 has angular degree 8 in w.
    # Deriving the circle axis from the disk axis, max(3 - 1, 8) = 8 angles,
    # aliases it
    Q = parse_polynomial("(0,0):1;(1,0):1;(0,4):1")
    grid = _grid_rule((1, 4), (2.0, None), 4.0)
    assert grid[1] == (None, 1, 9)

    def on_circle_angles(count):
        circle = _grid_rule((4,), None, 4.0, angles=count)
        return _quadrature_norm(Q, grid[:1] + circle, 4.0)

    reference = on_circle_angles(101).value
    assert mixed_norm(Q, 2.0, 4.0).value == pytest.approx(reference, rel=1e-13)
    assert abs(on_circle_angles(8).value / reference - 1) > 1e-2


def _on_the_cap(Q, alpha, p):
    """The mixed norm of Q on the ladder's cap at p other than an even
    integer: the _MIXED_DEFAULTS grid, the circle one angle below the first
    disk axis."""
    grid = _grid_rule(Q.variable_degrees(), (alpha,) * (Q.nvars - 1) + (None,), p)
    assert grid[-1] == (None, 1, max(grid[0][2] - 1, 8))
    return _quadrature_norm(Q, grid, p).value


def test_mixed_gap_tol_is_a_hundredth_of_the_isometry_tol():
    assert _MIXED_GAP_TOL == checks.ISOMETRY_TOL / 100


# The truth for a mixed norm: the Bergman norm of P, which the isometry
# makes the mixed norm of its homogenization, on a grid far finer than the
# ladder's cap.  Per (corpus, p), a bivariate degree-5 polynomial at seed
# 1729 and its norm on 128 x 260, pinned because each takes 4-6 s (10^9
# grid points): bergman_norm(P, 2.0, p, nodes=128, angles=260).value.
BIVARIATE_TRUTHS = {
    ("zero-free", 0.5): 1.0000525652083767,
    ("zero-free", 3.0): 1.000235025118955,
    ("zero-free", 3.5): 1.0006082771096292,
    ("unit-box", 0.5): 1.1910038262403768,
    ("unit-box", 3.0): 2.1117502186025914,
    ("unit-box", 3.5): 2.4903179537967697,
}


def _truth_case(kind, nvars, p):
    """The polynomial of a truth case: one per p, in the order 0.5, 3, 3.5."""
    return random_polynomials(3, nvars, 5, 1729, kind)[(0.5, 3.0, 3.5).index(p)]


def test_a_pinned_truth_reproduces():
    P = _truth_case("zero-free", 2, 3.0)
    truth = bergman_norm(P, 2.0, 3.0, nodes=128, angles=260).value
    assert truth == pytest.approx(BIVARIATE_TRUTHS["zero-free", 3.0], rel=1e-13)


# The univariate case is at p = 0.5, where the cap has the 1,025 angles of
# the cusp floor; there 128 x 260 errs by up to 1.3e-5, more than the cap
# itself (64 x 1025), so its truth is computed on 512 x 16400.
TRUTH_CASES = [(kind, 2, p) for kind, p in BIVARIATE_TRUTHS] + [("unit-box", 1, 0.5)]


@pytest.mark.parametrize("kind, nvars, p", TRUTH_CASES)
def test_mixed_norm_est_error_bounds_its_error(kind, nvars, p):
    P = _truth_case(kind, nvars, p)
    Q = P.homogenize(P.degree)
    res = mixed_norm(Q, 2.0, p)
    if nvars == 2:
        truth = BIVARIATE_TRUTHS[kind, p]
    else:
        truth = bergman_norm(P, 2.0, p, nodes=512, angles=16400).value
    # up to the rounding of sums over 10^9 grid points
    assert abs(res.value - truth) <= res.est_error + 1e-13 * truth
    if kind == "unit-box":  # zeros on the polydisc: the ladder climbs to the cap
        assert res.value == _on_the_cap(Q, 2.0, p)
        assert res.est_error > _MIXED_GAP_TOL * res.value
    else:
        assert res.est_error <= _MIXED_GAP_TOL * res.value


def test_mixed_norm_ladder_is_not_fooled_by_aliasing():
    Q = (one + 0.5 * z ** 12).homogenize(12)
    assert abs(mixed_norm(Q, 2.0, 3.5).value / _on_the_cap(Q, 2.0, 3.5) - 1.0) <= 1e-10
    # A homogenization's disk integral is the same at every w on the circle,
    # so circle aliasing cannot show on one.  1 + w^24 / 2 is w alone: w^24
    # is 1 at each of 8 or 12 circle angles, so two rungs of fixed size (7
    # and 13 disk angles) or sized from the disk degree alone agree on 1.5.
    # Its norm is the H^3.5 norm of 1 + w / 2.
    Q = ComplexPolynomial.from_terms(2, {(0, 0): 1.0, (0, 24): 0.5})
    truth = hardy_norm(one + 0.5 * z, 3.5).value
    assert abs(mixed_norm(Q, 2.0, 3.5).value / truth - 1.0) <= 1e-10


@pytest.mark.parametrize(
    "degree, cap, rungs",
    [
        # bivariate bergman_norm at p = 3: companion, one doubling, the half
        (5, (32, 65), [(3, 11), (6, 21), (16, 33)]),
        # univariate at p = 0.5: the cusp floor's 1,025 angles
        (8, (64, 1025), [(5, 17), (10, 33), (20, 65), (32, 513)]),
        # a doubling of the angles alone would pass the half: the half next
        (3, (16, 33), [(2, 7), (4, 13), (8, 17)]),
        # a companion above the cap's half is clipped to it
        (100, (32, 65), [(16, 33)]),
    ],
)
def test_ladder_rungs_end_with_the_half_and_the_cap(degree, cap, rungs):
    assert list(_ladder(degree, cap)) == rungs + [(None, None)]


def test_ladder_does_not_repeat_a_half_it_doubled_into():
    assert list(_ladder(1, (8, 17))) == [(1, 3), (2, 5), (4, 9), (None, None)]


# _ladder(8, (64, 1025)): the companion, two doublings, the half, the cap
CLIMB_RUNGS = [(5, 17), (10, 33), (20, 65), (32, 513), (None, None)]


def _synthetic_climb(values, settled, monkeypatch):
    """_climbed_norms of one side per entry of values[i], each the same
    degree-8 P at p = 0.5 (cap (64, 1025)) with its own alpha, judged as
    they are, on a bergman_norm that gives values[i] on the i-th of
    CLIMB_RUNGS; returns its result, the rungs it evaluated and the
    arguments settled was given."""
    table = dict(zip(CLIMB_RUNGS, values))
    alphas = [2.0 + i for i in range(len(values[0]))]
    evaluated, judged = [], []

    def synthetic(P, alpha, p, nodes=None, angles=None):
        if alpha == alphas[0]:
            evaluated.append((nodes, angles))
        return norms.NormResult(table[nodes, angles][alphas.index(alpha)], "fake", 0.0)

    def judging(*args):
        judged.append(args)
        return settled(*args)

    monkeypatch.setattr(norms, "bergman_norm", synthetic)
    sides = [(one + z ** 8, alpha, 0.5) for alpha in alphas]
    return _climbed_norms(sides, lambda *norms: norms, judging), evaluated, judged


def test_climb_judges_each_rung_after_the_companion_against_the_one_before(monkeypatch):
    values = [(1.0, 4.0), (1.5, 3.75), (1.25, 3.5), (1.125, 3.5), (1.0, 3.5)]
    # settled first at the third rung: gap 0.25 + 0.25, not at the second's
    # 0.5 + 0.25; the companion is never judged alone
    result, evaluated, judged = _synthetic_climb(
        values, lambda a, b, gap: gap <= 0.5, monkeypatch
    )
    assert result == (1.25, 3.5, 0.5)
    assert evaluated == CLIMB_RUNGS[:3]
    assert judged == [(1.5, 3.75, 0.75), (1.25, 3.5, 0.5)]


def test_climb_that_never_settles_ends_on_the_cap(monkeypatch):
    values = [(1.0,), (2.0,), (4.0,), (8.0,), (8.5,)]
    result, evaluated, judged = _synthetic_climb(
        values, lambda value, gap: False, monkeypatch
    )
    assert result == (8.5, 0.5)  # the cap's value and its gap to the half
    assert evaluated == CLIMB_RUNGS
    assert [gap for _, gap in judged] == [1.0, 2.0, 4.0, 0.5]


def test_mixed_norm_stops_at_the_cap_s_half_like_every_climb(monkeypatch):
    # the first seed-1729 zero-free bivariate polynomial of degree 5 at
    # p = 0.5: below the (24, 33) cap its ladder is the companion (3, 11) and
    # the cap's half (12, 17), since a doubling (6, 21) would pass the half's
    # 17 angles.  The half agrees with the companion to _MIXED_GAP_TOL, so
    # the climb ends there, and the cap is never evaluated
    P = random_polynomials(1, 2, 5, 1729, "zero-free")[0]
    grids, values = [], []

    def recording(Q, grid, p):
        grids.append([(nodes, m) for _, nodes, m in grid])
        res = _quadrature_norm(Q, grid, p)
        values.append(res.value)
        return res

    monkeypatch.setattr(norms, "_quadrature_norm", recording)
    res = mixed_norm(P.homogenize(P.degree), 2.0, 0.5)
    assert grids == [[(3, 11), (3, 11), (1, 10)], [(12, 17), (12, 17), (1, 16)]]
    assert res.value == values[1]
    assert res.est_error == abs(values[1] - values[0]) > 0.0


# mixed_norm's (value, est_error) before its rungs moved to ``_ladder``: the
# homogenization of the first seed-1729 degree-5 polynomial of each corpus.
# At (2, "zero-free", 0.5) the climb now stops at the cap's half, whose value
# is the cap's bit for bit (their gap was the 0.0 of the climb that stopped
# at doublings only), so the value is the same and est_error is the gap from
# the companion to the half.  Each rung is one deterministic kernel call, so
# the comparison is exact.  The values are those of the numpy-built radial
# rule; scipy's roots_jacobi, used before, moved four of them in the last
# digits, and the exact quarter-turn twiddles of the one streamed route,
# which replaced the lag products, moved two values by 1 ulp and three
# est_errors, each the gap of two such values, by at most 2 ulp of them.
MIXED_BEFORE_THE_SHARED_LADDER = {
    (1, "unit-box", 0.5): (1.1366513036699335, 3.358705368716741e-06),
    (2, "unit-box", 3.0): (1.85645697842116, 1.0318464704894836e-07),
    (2, "zero-free", 3.5): (1.0003641916065475, 1.2592149545298525e-12),
    (2, "zero-free", 0.5): (1.000052565208371, 1.9673151996357774e-13),
    (1, "zero-free", 3.5): (1.002602542473541, 2.220446049250313e-16),
}


@pytest.mark.parametrize("case", MIXED_BEFORE_THE_SHARED_LADDER)
def test_mixed_norm_is_unchanged_on_the_shared_ladder(case):
    nvars, kind, p = case
    P = random_polynomials(1, nvars, 5, 1729, kind)[0]
    res = mixed_norm(P.homogenize(P.degree), 2.0, p)
    assert (res.value, res.est_error) == MIXED_BEFORE_THE_SHARED_LADDER[case]


# The (p, nodes, angles) of every bergman_norm call that _climbed_norms makes
# on c2's and c6's rows at seed 1729, run inline, in order: their count and
# the sha256 of their repr.  The suite digests show values only; this shows
# which rungs are evaluated.
CLIMBED_RUNGS = (1240, "0a87bf2a4db46152e3969c08b0983ed9740453edf1848e378dade39e3a9a1564")


def test_the_rungs_the_suite_climbs_are_pinned(monkeypatch):
    calls = []
    fn = norms.bergman_norm

    def recording(P, alpha, p, nodes=None, angles=None):
        calls.append((p, nodes, angles))
        return fn(P, alpha, p, nodes, angles)

    monkeypatch.setattr(norms, "bergman_norm", recording)
    for cid in ("c2-sharp-radius-contraction", "c6-nikolskii-isometry"):
        assert run_criterion(cid, seed=1729).passed
    digest = hashlib.sha256(repr(calls).encode()).hexdigest()
    assert (len(calls), digest) == CLIMBED_RUNGS


def _gap_settled_norm(P, alpha, p):
    """(value, gap) of the isometry rows' Bergman side: one norm climbed
    with _gap_settled."""
    return _climbed_norms([(P, alpha, p)], lambda v: (v,), _gap_settled)


def test_laddered_bergman_norm_stops_early_only_without_zeros(monkeypatch):
    # zero-free: |P|^3.5 is analytic, and the cap's half (16, 33) agrees with
    # the doubling (6, 21) before it, so the cap is never evaluated
    P = random_polynomials(1, 2, 5, 1729, "zero-free")[0]
    rungs = []
    fn = norms.bergman_norm

    def recording(P, alpha, p, nodes=None, angles=None):
        rungs.append((nodes, angles))
        return fn(P, alpha, p, nodes, angles)

    monkeypatch.setattr(norms, "bergman_norm", recording)
    value, gap = _gap_settled_norm(P, 2.0, 3.5)
    monkeypatch.undo()
    assert rungs == [(3, 11), (6, 21), (16, 33)]
    assert gap <= _MIXED_GAP_TOL * value
    cap = bergman_norm(P, 2.0, 3.5).value
    assert abs(value - cap) <= _MIXED_GAP_TOL * cap
    # zeros on the bidisc: the ladder climbs to the cap, the default grid
    P = random_polynomials(1, 2, 5, 1729, "unit-box")[0]
    value, gap = _gap_settled_norm(P, 2.0, 3.5)
    assert value == bergman_norm(P, 2.0, 3.5).value
    assert gap > _MIXED_GAP_TOL * value
    # at even p the default grid is exact, and it is the only one
    assert _gap_settled_norm(P, 2.0, 4.0) == (bergman_norm(P, 2.0, 4.0).value, 0.0)


def test_climbed_norms_on_a_pinned_grid_take_each_side_once_there(monkeypatch):
    # a side at p = 0.5 and one at even p: on pinned counts each is one
    # bergman_norm there, with no rung climbed and gap 0.0, even with a rule
    P = random_polynomials(1, 1, 5, 1729, "unit-box")[0]
    sides = [(P, 2.0, 0.5), (P.dilate(0.5), 3.0, 4.0)]
    calls = []
    fn = norms.bergman_norm

    def recording(P, alpha, p, nodes=None, angles=None):
        calls.append((P, alpha, p, nodes, angles))
        return fn(P, alpha, p, nodes, angles)

    def no_ladder(*args):
        raise AssertionError("a ladder was built on a pinned grid")

    monkeypatch.setattr(norms, "bergman_norm", recording)
    monkeypatch.setattr(norms, "_ladder", no_ladder)
    *values, gap = _climbed_norms(sides, lambda a, b: (a, b), _gap_settled, 5, 33)
    monkeypatch.undo()
    assert calls == [(*side, 5, 33) for side in sides]
    assert gap == 0.0
    assert values == [bergman_norm(*side, 5, 33).value for side in sides]


def test_mixed_norm_at_even_p_is_the_exact_grid_alone(monkeypatch):
    seen = []

    def record(Q, grid, p):
        seen.append([(nodes, m) for _, nodes, m in grid])
        return _quadrature_norm(Q, grid, p)

    monkeypatch.setattr(norms, "_quadrature_norm", record)
    Q = random_polynomials(1, 2, 5, 1729, "zero-free")[0].homogenize(5)
    assert mixed_norm(Q, 2.0, 4.0).est_error == 0.0
    assert seen == [[(6, 11), (6, 11), (1, 11)]]


def test_mixed_norm_refuses_an_oversized_cap_before_any_rung(monkeypatch):
    def no_kernel(*args):
        raise AssertionError("a rung ran before the refusal")

    monkeypatch.setattr(norms, "_power_mean", no_kernel)
    Q = parse_polynomial("(100,100,0):1;(0,0,0):1")
    # the cap: 24 nodes and 4 * 100 * 2 + 1 angles per disk axis
    with pytest.raises(ValueError, match=r"\(nodes, angles\) \(24, 801\), \(24, 801\)"):
        mixed_norm(Q, 2.0, 3.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: bergman_norm(parse_polynomial("(1000,1000):1"), 2.0, 4.0),
        lambda: bergman_norm(one + z, 10_000.0, 3.0, nodes=4096, angles=10**8),
        lambda: hardy_norm(one + z, 2.0, angles=10**9),
        lambda: mixed_norm(parse_polynomial("(400,400,400):1"), 2.0, 3.0),
        lambda: inequalities.hyper_check(
            parse_polynomial("(400,400):1"), 2.0, 2.0, 3.0, 3.0, 0.5
        ),
    ],
    ids=["bivariate", "alpha-1e4", "hardy-angles", "mixed-cap", "climbed-hyper"],
)
def test_an_oversized_grid_is_refused_before_any_rule_is_built(monkeypatch, call):
    # a grid holds sizes only, so the refusal reads no radial rule: at
    # alpha = 10^4 the 4096-node Gauss rule would take seconds and then fail
    def no_rule(*args):
        raise AssertionError("a radial rule was built before the refusal")

    monkeypatch.setattr(norms, "radial_rule", no_rule)
    with pytest.raises(ValueError, match="quadrature grid too large"):
        call()


def test_grid_rule_raises_sizing_errors_in_order():
    # alpha, p, the counts, the variable table, then the node cap; a circle
    # checks p as a disk does
    with pytest.raises(ValueError, match="alpha must be"):
        _grid_rule((1,) * 4, 0.5, 100.0, nodes=0)
    with pytest.raises(ValueError, match="exponent p"):
        _grid_rule((1,) * 4, 2.0, 100.0, nodes=0)
    with pytest.raises(ValueError, match="nodes must be at least 1"):
        _grid_rule((1,) * 4, 2.0, 3.0, nodes=0)
    with pytest.raises(ValueError, match="at most 3 disk variables"):
        _grid_rule((1,) * 4, 2.0, 3.0, nodes=5000)
    with pytest.raises(ValueError, match="nodes must be at most 4096"):
        _grid_rule((1,), 2.0, 3.0, nodes=5000)
    with pytest.raises(ValueError, match="exponent p"):
        _grid_rule((1,), None, 100.0)


def test_quadrature_reports_zero_est_error():
    res = bergman_norm(one + z, 2.0, 2.0)
    assert res.est_error == 0.0
    assert res.method == "quadrature"


def test_zero_polynomial_all_methods(monkeypatch):
    Z = ComplexPolynomial.zero()
    assert exact_norm_p2(Z, 2.0).value == 0.0
    assert exact_norm_even_p(Z, 2.0, 4.0).value == 0.0
    assert bergman_norm(Z, 2.0, 2.0).value == 0.0
    # on the shared path: a zero polynomial's grid is the degree-0 grid,
    # never refused, and each rung's norm is 0.0
    rungs = []

    def record(P, grid, p):
        rungs.append(grid)
        return _quadrature_norm(P, grid, p)

    monkeypatch.setattr(norms, "_quadrature_norm", record)
    assert mixed_norm(ComplexPolynomial.zero(2), 2.0, 3.5) == norms.NormResult(
        0.0, "quadrature", 0.0
    )
    assert len(rungs) == 2
    assert inequalities.hyper_check(Z, 2.0, 2.0, 2.0, 3.0, 0.5) == (0.0, 0.0, 0.0)


def test_norm_parse_integration():
    P = parse_polynomial("1,1")
    assert bergman_norm(P, 2.0, 2.0).value == pytest.approx(
        math.sqrt(1.5), abs=1e-12
    )
