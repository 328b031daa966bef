"""Dilation contraction, threshold search, profile machinery, degree bounds."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from berglab.corpus import random_polynomials
from berglab.inequalities import (
    HyperParams,
    SpaceParams,
    convexity_majorant_check,
    hyper_check,
    ibp_identity_check,
    kulikov_check,
    necessity_expansion_check,
    nikolskii_check,
    phi_convexity_check,
    phi_profile,
    sharp_radius,
    threshold_search,
    weissler_threshold_check,
)
from berglab.poly import ComplexPolynomial

z = ComplexPolynomial.variable()
one = ComplexPolynomial.constant(1.0)


def test_space_params_validation():
    with pytest.raises(ValueError):
        SpaceParams(1.0, 2.0)
    with pytest.raises(ValueError):
        SpaceParams(2.0, 0.0)
    with pytest.raises(ValueError):
        SpaceParams(2.0, 100.0)


def test_hypothesis_flag():
    assert HyperParams.make(2.0, 2.0, 2.0, 4.0).hypothesis_ok
    assert HyperParams.make(2.0, 4.0, 0.5, 2.0).hypothesis_ok
    # p > q
    assert not HyperParams.make(2.0, 2.0, 4.0, 2.0).hypothesis_ok
    # q < 2
    assert not HyperParams.make(2.0, 2.0, 1.0, 1.5).hypothesis_ok
    # beta p > alpha q
    assert not HyperParams.make(1.5, 4.0, 2.0, 2.0).hypothesis_ok


def test_sharp_radius_formula():
    assert sharp_radius(HyperParams.make(2.0, 3.0, 2.0, 4.0)) == pytest.approx(
        math.sqrt(6.0 / 8.0), rel=1e-15
    )
    assert sharp_radius(HyperParams.make(2.0, 2.0, 2.0, 4.0)) == pytest.approx(
        math.sqrt(0.5), rel=1e-15
    )
    assert sharp_radius(HyperParams.make(2.0, 1.5, 2.0, 4.0)) == pytest.approx(
        math.sqrt(3.0 / 8.0), rel=1e-15
    )
    # formula value above 1 is clamped
    assert sharp_radius(HyperParams.make(1.5, 4.0, 2.0, 2.0)) == 1.0


def test_hyper_check_frozen_pass():
    hp = HyperParams.make(2.0, 2.0, 2.0, 4.0)
    res = hyper_check(one + z, hp, sharp_radius(hp))
    assert res.passed
    assert res.lhs == pytest.approx((25.0 / 12.0) ** 0.25, rel=1e-12)
    assert res.rhs == pytest.approx(math.sqrt(1.5), rel=1e-12)


def test_hyper_check_frozen_fail_above_threshold():
    f = one + z * 0.001
    hp = HyperParams.make(2.0, 3.0, 2.0, 4.0)
    res = hyper_check(f, hp, 0.88)
    assert not res.passed
    # second-order expansion predicts the violation size (eps^2/4)(q r^2/beta - p/alpha)
    predicted = (0.001 ** 2 / 4.0) * (4.0 * 0.88 ** 2 / 3.0 - 1.0)
    assert res.lhs - res.rhs == pytest.approx(predicted, rel=5e-3)


def test_hyper_check_exact_route_agrees():
    hp = HyperParams.make(2.0, 2.0, 2.0, 4.0)
    r = sharp_radius(hp)
    a = hyper_check(one + z, hp, r, method="quad")
    b = hyper_check(one + z, hp, r, method="exact")
    assert a.lhs == pytest.approx(b.lhs, rel=1e-12)
    assert a.rhs == pytest.approx(b.rhs, rel=1e-12)


def test_hyper_polydisc_product_case():
    # (1+z1)(1+z2) with one scalar r on both variables at the critical
    # radius: both sides factor
    f = ComplexPolynomial.from_terms(
        2, {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0}
    )
    hp = HyperParams.make(2.0, 2.0, 2.0, 4.0)
    r = sharp_radius(hp)
    res = hyper_check(f, hp, r)
    assert res.passed
    assert res.lhs == pytest.approx(math.sqrt(25.0 / 12.0), rel=1e-11)
    assert res.rhs == pytest.approx(1.5, rel=1e-11)


def test_threshold_recovers_formula():
    hp = HyperParams.make(2.0, 2.0, 2.0, 4.0)
    rep = threshold_search(hp, eps=1e-2)
    assert abs(rep.r_star_empirical - math.sqrt(0.5)) <= 5e-3
    assert rep.bracket_width <= 2e-4


def test_threshold_all_pass_degenerate():
    hp = HyperParams.make(2.0, 2.0, 2.0, 2.0)
    rep = threshold_search(hp, eps=1e-2)
    assert rep.r_star_empirical == 1.0
    assert rep.r_star_theoretical == 1.0


def test_necessity_expansion_closed_form():
    rep = necessity_expansion_check(2.0, 2.0)
    assert rep.decay_ok
    for e, r in zip(rep.eps_grid, rep.residuals):
        assert r == pytest.approx(e ** 4 / 32.0, rel=0.1)


@pytest.mark.parametrize("alpha,p", [(2.0, 4.0), (3.0, 2.5)])
def test_necessity_expansion_decay(alpha, p):
    rep = necessity_expansion_check(alpha, p)
    assert rep.decay_ok
    assert rep.max_normalized_residual < 1.0


def test_kulikov_frozen_values():
    res = kulikov_check(one + z, 2.0, 2.0, 4.0)
    assert res.passed
    assert res.beta_prime == pytest.approx(4.0)
    assert res.lhs == pytest.approx(2.1 ** 0.25, rel=1e-12)
    assert res.rhs == pytest.approx(math.sqrt(1.5), rel=1e-12)

    res = kulikov_check(z, 2.0, 2.0, 4.0)
    assert res.passed
    assert res.lhs == pytest.approx(0.1 ** 0.25, rel=1e-12)
    assert res.rhs == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_kulikov_requires_ordered_exponents():
    with pytest.raises(ValueError):
        kulikov_check(one + z, 2.0, 4.0, 2.0)


def test_phi_profile_monomials():
    ys = np.linspace(0.1, 0.8, 8)
    prof = phi_profile(z, 2.0, ys)
    assert np.allclose(prof.phi, ys, rtol=1e-13)
    prof = phi_profile(z, 4.0, ys)
    assert np.allclose(prof.phi, ys ** 2, rtol=1e-12)


def test_phi_profile_binomial_q4():
    ys = np.linspace(0.1, 0.8, 8)
    prof = phi_profile(one + z, 4.0, ys)
    assert np.allclose(prof.phi, 1.0 + 4.0 * ys + ys ** 2, rtol=1e-12)
    assert np.allclose(prof.phi2, 2.0, atol=1e-6)


def test_phi_profile_grid_validation():
    with pytest.raises(ValueError):
        phi_profile(z, 2.0, np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        phi_profile(z, 2.0, np.array([0.5, 1.0]))


def test_phi_convexity_requires_q_at_least_two():
    with pytest.raises(ValueError):
        phi_convexity_check(one + z, 1.5, np.linspace(0.1, 0.8, 5))


@pytest.mark.parametrize("q", [2.0, 3.0, 4.0])
def test_phi_convexity_passes(q):
    res = phi_convexity_check(one + z + z * z, q, np.linspace(0.05, 0.9, 20))
    assert res.passed
    assert res.min_phi2 >= -1e-7


def test_ibp_identity_monomial():
    res = ibp_identity_check(z, 2.0, 2.0, 4.0)
    assert res.passed
    # both displays evaluate to the A^2_{beta'} mass of z, here 1/(beta'... ) = 1/4
    assert res.lhs_dilated == pytest.approx(0.25, abs=1e-9)
    assert res.lhs_plain == pytest.approx(0.25, abs=1e-9)
    assert res.max_rel_discrepancy <= 1e-9


def test_ibp_identity_constant_keeps_boundary_term():
    # for f = 1 every integral term vanishes and both sides must equal phi(0)
    res = ibp_identity_check(one, 2.0, 2.0, 4.0)
    assert res.passed
    assert res.lhs_dilated == pytest.approx(1.0, rel=1e-12)
    assert res.rhs_dilated == pytest.approx(1.0, rel=1e-9)
    assert res.lhs_plain == pytest.approx(1.0, rel=1e-12)


def test_ibp_identity_trinomial():
    res = ibp_identity_check(one + z + z * z, 4.0, 3.0, 6.0)
    assert res.passed
    assert res.max_rel_discrepancy <= 1e-7


def test_majorant_frozen_point():
    grid = np.linspace(0.0, 0.5, 101)
    res = convexity_majorant_check(2.0, 4.0, grid)
    assert res.passed
    # midpoint check: (1-y)^2 vs 1-2y at y=1/4
    assert 0.75 ** 2 - 0.5 == pytest.approx(0.0625)
    assert res.min_margin >= -1e-12


def test_majorant_grid_validation():
    with pytest.raises(ValueError):
        convexity_majorant_check(2.0, 4.0, np.array([0.0, 0.6]))


def test_nikolskii_frozen_monomial():
    res = nikolskii_check(z, 2.0, 2.0, 2.0, 4.0)
    assert res.passed and res.hypothesis_ok
    assert res.degree == 1
    assert res.ratio == pytest.approx((1.0 / 3.0) ** 0.25 / math.sqrt(0.5), rel=1e-12)
    assert res.bound == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_nikolskii_constant_attains_equality():
    res = nikolskii_check(ComplexPolynomial.constant(2.0), 2.0, 2.0, 2.0, 4.0)
    assert res.passed
    assert res.degree == 0
    assert res.ratio == pytest.approx(1.0, rel=1e-12)
    assert res.bound == 1.0


def test_nikolskii_rejects_zero_and_labels_hypothesis():
    with pytest.raises(ValueError):
        nikolskii_check(ComplexPolynomial.zero(), 2.0, 2.0, 2.0, 4.0)
    res = nikolskii_check(z, 2.0, 2.0, 4.0, 2.0)
    assert not res.hypothesis_ok


def test_weissler_frozen_pass_and_fail():
    res = weissler_threshold_check(one + z, 2.0, 4.0, math.sqrt(0.5))
    assert res.passed
    assert res.lhs == pytest.approx((13.0 / 4.0) ** 0.25, rel=1e-12)
    assert res.rhs == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert res.sharp_r == pytest.approx(math.sqrt(0.5), rel=1e-15)

    bad = weissler_threshold_check(one + z * 0.001, 2.0, 4.0, 0.75)
    assert not bad.passed
    predicted = (0.001 ** 2 / 4.0) * (4.0 * 0.75 ** 2 - 2.0)
    assert bad.lhs - bad.rhs == pytest.approx(predicted, rel=5e-3)


@given(st.integers(0, 10 ** 6))
def test_hyper_random_zero_free_at_sharp_radius(seed):
    f = random_polynomials(1, 1, 6, seed)[0]
    hp = HyperParams.make(2.0, 3.0, 2.0, 4.0)
    res = hyper_check(f, hp, sharp_radius(hp))
    assert res.passed


@given(st.floats(0.0, 1.0))
def test_hyper_below_sharp_radius_everywhere(frac):
    hp = HyperParams.make(1.5, 2.0, 2.0, 3.0)
    r = frac * sharp_radius(hp)
    res = hyper_check(one + z - (z * z) * 0.5, hp, r)
    assert res.passed
