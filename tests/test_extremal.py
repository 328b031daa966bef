"""Extremal family, Gaussian moments, gamma-ratio and factorial bounds."""
import math

import numpy as np
import pytest

from berglab.checks import CHECKS
from berglab.extremal import (
    ExtremalSpec,
    extremal_evaluator,
    extremal_poly,
    extremal_ratio,
    gamma_ratio_limit_check,
    gaussian_moment,
    sharpness_exhibit,
    stirling_bounds_check,
)
from berglab.measures import McSampler
from berglab.norms import bergman_norm_mc, exact_norm_p2


def test_extremal_poly_expansion():
    # (z_1 + z_2) / sqrt(2) and its square (z_1^2 + 2 z_1 z_2 + z_2^2) / 2
    P = extremal_poly(ExtremalSpec(2, 1))
    assert P.coeff((1, 0)) == pytest.approx(math.sqrt(0.5))
    assert P.coeff((0, 1)) == pytest.approx(math.sqrt(0.5))
    Q = extremal_poly(ExtremalSpec(2, 2))
    assert Q.coeff((2, 0)) == pytest.approx(0.5)
    assert Q.coeff((1, 1)) == pytest.approx(1.0)
    assert Q.degree == 2


@pytest.mark.parametrize("alpha,n", [(2.0, 1), (2.0, 4), (1.5, 9), (3.0, 16)])
def test_extremal_family_is_p2_normalized(alpha, n):
    # ||sum z_i / sqrt(n)||_{A^2_alpha}^2 = n * (1/n) * ||z||^2 = 1/alpha
    P = extremal_poly(ExtremalSpec(n, 1))
    value = exact_norm_p2(P, alpha).value
    assert math.sqrt(alpha) * value == pytest.approx(1.0, rel=1e-13)


def test_extremal_expansion_cap():
    with pytest.raises(ValueError):
        extremal_poly(ExtremalSpec(17, 1))


def test_extremal_evaluator_matches_expansion():
    spec = ExtremalSpec(3, 2)
    P = extremal_poly(spec)
    ev = extremal_evaluator(spec)
    pts = McSampler(2.0, 3, seed=5).sample_block(0, 50)
    assert np.allclose(ev(pts), P.evaluate_many(pts), rtol=1e-12)


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
    # where the expansion is tractable the MC evaluator must agree with the
    # exact coefficient oracle on the same quantity
    spec = ExtremalSpec(16, 2)
    P = extremal_poly(spec)
    exact = exact_norm_p2(P, 2.0).value
    sampler = McSampler(2.0, 16, seed=9)
    est = bergman_norm_mc(extremal_evaluator(spec), 2.0, sampler, 100_000)
    assert abs(est.value - exact) <= 4.0 * est.est_error


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
