"""Extremal family, Gaussian moments, gamma-ratio and factorial bounds."""
import math

import numpy as np
import pytest

from berglab.checks import CHECKS
from berglab.extremal import (
    ExtremalSpec,
    exact_sum_power_norm,
    extremal_evaluator,
    extremal_ratio,
    gamma_ratio_limit_check,
    gaussian_moment,
    sharpness_exhibit,
    stirling_bounds_check,
)
from berglab.inequalities import _nikolskii_constant, nikolskii_check
from berglab.measures import McSampler
from berglab.norms import _mc_norm, exact_norm_even_p
from berglab.poly import ComplexPolynomial


def coordinate_sum(n: int) -> ComplexPolynomial:
    """(z_1 + ... + z_n) / sqrt(n), expanded."""
    unit = lambda i: tuple(int(j == i) for j in range(n))
    return ComplexPolynomial.from_terms(n, {unit(i): n ** -0.5 for i in range(n)})


@pytest.mark.parametrize("alpha,n", [(2.0, 1), (2.0, 4), (1.5, 9), (3.0, 16)])
def test_extremal_family_is_p2_normalized(alpha, n):
    # ||sum z_i / sqrt(n)||_{A^2_alpha}^2 = n * (1/n) * ||z||^2 = 1/alpha
    value = exact_sum_power_norm(n, 1, alpha, 2.0)
    assert math.sqrt(alpha) * value == pytest.approx(1.0, rel=1e-14)


def test_extremal_evaluator_matches_expansion():
    spec = ExtremalSpec(3, 2)
    P = coordinate_sum(3) ** 2
    ev = extremal_evaluator(spec)
    pts = McSampler(2.0, 3, seed=5).sample_block(0, 50)
    assert np.allclose(ev(pts), P.evaluate_many(pts), rtol=1e-12)


@pytest.mark.parametrize("alpha", [1.3, 2.0, 4.0])
def test_exact_sum_power_norm_matches_the_expanded_oracle(alpha):
    P = coordinate_sum(4) ** 3
    for p in (2.0, 4.0, 6.0):
        expanded = exact_norm_even_p(P, alpha, p).value
        assert exact_sum_power_norm(4, 3, alpha, p) == pytest.approx(expanded, rel=1e-14)


@pytest.mark.parametrize("n", [1, 2, 64, 1000])
def test_exact_sum_power_norm_closed_form_at_alpha_2(n):
    # E|z|^2 = 1/2 and E|z|^4 = 1/3 under dA_2, so
    # ||f||^4 = (n/3 + 2 n(n-1)/4) / n^2 = 1/(3n) + (n-1)/(2n)
    closed = 1.0 / (3 * n) + (n - 1) / (2 * n)
    assert exact_sum_power_norm(n, 1, 2.0, 4.0) ** 4 == pytest.approx(closed, rel=1e-14)


def test_exact_sum_power_norm_far_out_against_multiprecision():
    # m = 60, n = 16384 and p = 4 (K = 120): the unscaled coefficient is
    # about 1e-235 and (K!)^2 about 1e398, so both need the scaled form;
    # the reference sums the unscaled series in 30-digit arithmetic
    mpmath = pytest.importorskip("mpmath")
    n, m, alpha, p = 16384, 60, 2.0, 4
    K = m * p // 2
    mpmath.mp.dps = 30
    w = [1 / ((k + 1) * mpmath.factorial(k) ** 2) for k in range(K + 1)]

    def times(a, b):
        return [mpmath.fsum(a[i] * b[j - i] for i in range(j + 1)) for j in range(K + 1)]

    power, base, rest = [mpmath.mpf(1)] + [mpmath.mpf(0)] * K, w, n
    while rest:
        if rest & 1:
            power = times(power, base)
        rest >>= 1
        if rest:
            base = times(base, base)
    norm_p = mpmath.factorial(K) ** 2 * power[K] / mpmath.mpf(n) ** K
    reference = float(norm_p ** (mpmath.mpf(1) / p))
    value = exact_sum_power_norm(n, m, alpha, p)
    assert value == pytest.approx(reference, rel=1e-12)
    # below the Gaussian limit, as at m = 1 (1/(3n) + (n-1)/(2n) < 1/2)
    assert value < (1 / math.sqrt(alpha)) ** m * gaussian_moment(m, p)
    for big_p in (8.0, 64.0):
        assert 0.0 < exact_sum_power_norm(n, m, 100.0, big_p) < math.inf


def test_exact_sum_power_norm_validation():
    with pytest.raises(ValueError, match="even integer"):
        exact_sum_power_norm(4, 1, 2.0, 3.0)
    with pytest.raises(ValueError):
        exact_sum_power_norm(0, 1, 2.0, 2.0)
    with pytest.raises(ValueError):
        exact_sum_power_norm(4, 1, 1.0, 2.0)


def test_gaussian_moment_values():
    assert gaussian_moment(1, 2.0) == pytest.approx(1.0, rel=1e-15)
    assert gaussian_moment(2, 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert gaussian_moment(1, 4.0) == pytest.approx(2.0 ** 0.25, rel=1e-14)
    assert gaussian_moment(3, 4.0) == pytest.approx(720.0 ** 0.25, rel=1e-14)


def test_extremal_ratio_same_space_is_one():
    rep = extremal_ratio(
        ExtremalSpec(16, 1), 2.0, 2.0, 2.0, 2.0, n_samples=20_000, seed=3
    )
    assert rep.target == pytest.approx(1.0, rel=1e-14)
    assert abs(rep.ratio - 1.0) <= 4.0 * rep.ci


def test_mc_cross_check_against_expanded_polynomial():
    # the plain Monte Carlo evaluator must agree with the exact norm of the
    # expanded family, here from its closed form
    spec = ExtremalSpec(16, 2)
    exact = exact_sum_power_norm(16, 2, 2.0, 2.0)
    sampler = McSampler(2.0, 16, seed=9)
    est = _mc_norm(extremal_evaluator(spec), 2.0, sampler, 100_000)
    assert abs(est.value - exact) <= 4.0 * est.est_error


def test_extremal_ratio_p_side_is_exact():
    # with the denominator exact at p = 2, the ratio at q = 4 is one sampled
    # norm over 1/sqrt(alpha), and its ci that norm's 1-sigma times sqrt(alpha)
    spec = ExtremalSpec(8, 1)
    rep = extremal_ratio(spec, 2.0, 2.0, 2.0, 4.0, n_samples=20_000, seed=5)
    exact = exact_sum_power_norm(8, 1, 2.0, 4.0) * math.sqrt(2.0)
    assert 0.0 < rep.ci < 2e-3 * rep.ratio
    assert abs(rep.ratio - exact) <= 4.0 * rep.ci
    # at p = 3 the denominator is sampled too, and the ci grows
    odd = extremal_ratio(spec, 2.0, 2.0, 3.0, 4.0, n_samples=20_000, seed=5)
    assert odd.ci > rep.ci


def test_per_degree_attainment_grows_toward_limit():
    reports = [
        sharpness_exhibit(2.0, 2.0, 2.0, 4.0, m, n=64, n_samples=100_000, seed=11)
        for m in (1, 2, 3)
    ]
    pd = [r.per_degree_attainment for r in reports]
    # MC jitter on the per-degree reading scales like ci/(ratio*m)
    jitter = [r.ci / (r.ratio * r.m) * r.per_degree_attainment for r in reports]
    for a, b, ja, jb in zip(pd, pd[1:], jitter, jitter[1:]):
        assert b - a >= -2.0 * (ja + jb)
    assert all(v < 1.0 for v in pd)
    limits = [r.limit_per_degree for r in reports]
    assert all(b > a for a, b in zip(limits, limits[1:]))
    # whole-bound attainment shrinks with m even as the per-degree reading grows
    att = [r.attainment for r in reports]
    assert att[0] > att[1] > att[2]


def test_sharpness_and_nikolskii_share_one_constant():
    # the degree-growth base C = sqrt(alpha q / (beta p)), bit for bit, on a
    # space where 1 / C is not sharp_radius's sqrt(beta p / (alpha q))
    constant = math.sqrt(2.0 * 4.0 / (3.0 * 2.0))
    rep = sharpness_exhibit(2.0, 3.0, 2.0, 4.0, 1, n=4, n_samples=2_000, seed=1)
    _, bound, _ = nikolskii_check(ComplexPolynomial.from_coeffs((0, 1)), 2.0, 3.0, 2.0, 4.0)
    assert rep.constant == bound == _nikolskii_constant(2.0, 3.0, 2.0, 4.0) == constant


def test_stirling_bounds_frozen_point():
    rep = stirling_bounds_check((0.5,))
    assert CHECKS["stirling"].run(grid="0.5").status == "pass"
    base = 0.5 * math.log(2 * math.pi) + 1.0 * math.log(0.5) - 0.5
    lg = math.lgamma(1.5)
    assert math.exp(base) < math.gamma(1.5) < math.exp(base + 1.0 / 6.0)
    assert rep.lower_margins[0] == pytest.approx(lg - base, rel=1e-12)


def test_stirling_bounds_full_grid():
    rep = stirling_bounds_check((0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0, 400.0))
    assert min(rep.lower_margins) > 0.0
    assert min(rep.upper_margins) > 0.0
    # the registry's default grid is this one, and its row is the worst margin
    row = CHECKS["stirling"].run()
    assert row.status == "pass"
    assert row.computed == min(min(rep.lower_margins), min(rep.upper_margins))


def test_stirling_rejects_nonpositive():
    with pytest.raises(ValueError):
        stirling_bounds_check((0.0, 1.0))


def test_gamma_ratio_trend_and_limit():
    rep = gamma_ratio_limit_check(2.0, 4.0, (10, 50, 100, 200))
    row = CHECKS["gamma-ratio"].run(p=2.0, q=4.0, m_max=200)
    assert row.status == "pass"
    assert (row.computed, row.est_error) == (rep.values[-1], rep.rel_errors[-1])
    assert rep.limit == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert rep.rel_errors[-1] <= 0.02
    assert rep.rel_errors[-1] <= rep.rel_errors[0]


def test_gamma_ratio_validation():
    with pytest.raises(ValueError):
        gamma_ratio_limit_check(4.0, 2.0, (10, 20))
    with pytest.raises(ValueError):
        gamma_ratio_limit_check(2.0, 4.0, (20, 10))
