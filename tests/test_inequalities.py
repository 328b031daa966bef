"""Dilation contraction, threshold search, profile machinery, degree bounds.

The library functions only measure, so their verdicts are tested through
the rows of the `checks.py` registry and its pass rules.
"""
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import binom

from berglab import acceptance, inequalities, norms
from berglab.checks import (
    CHECKS,
    INEQ_SLACK,
    NIKOLSKII_SLACK,
    SETTLE_MULTIPLE,
    convex,
    cubic_decay,
    hypotheses_hold,
    majorant_holds,
    profile_method,
)
from berglab.corpus import random_polynomials
from berglab.inequalities import (
    _phi_slope_at_zero,
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
)
from berglab.norms import _even_half, bergman_norm
from berglab.poly import ComplexPolynomial
from berglab.report import at_most

z = ComplexPolynomial.variable()
one = ComplexPolynomial.constant(1.0)


def hyper(f, alpha, beta, p, q, **kw):
    return CHECKS["hyper"].run(alpha=alpha, beta=beta, p=p, q=q, poly=f, **kw)


def test_space_validation_by_the_norms_and_the_radius():
    # weights must exceed 1 and exponents lie in (0, 64]: the norms refuse
    # the rest, and so does the critical radius the default r comes from
    for alpha, p in ((1.0, 2.0), (2.0, 0.0), (2.0, 100.0)):
        with pytest.raises(ValueError):
            hyper(one + z, alpha, 2.0, p, 4.0, r=0.5)
        with pytest.raises(ValueError):
            hyper(one + z, alpha, 2.0, p, 4.0)
        with pytest.raises(ValueError):
            sharp_radius(2.0, alpha, 2.0, p)


def test_hypothesis_flag():
    assert hypotheses_hold(2.0, 2.0, 2.0, 4.0)
    assert hypotheses_hold(2.0, 4.0, 0.5, 2.0)
    # p > q
    assert not hypotheses_hold(2.0, 2.0, 4.0, 2.0)
    # q < 2
    assert not hypotheses_hold(2.0, 2.0, 1.0, 1.5)
    # beta p > alpha q
    assert not hypotheses_hold(1.5, 4.0, 2.0, 2.0)


def test_sharp_radius_formula():
    assert sharp_radius(2.0, 3.0, 2.0, 4.0) == pytest.approx(
        math.sqrt(6.0 / 8.0), rel=1e-15
    )
    assert sharp_radius(2.0, 2.0, 2.0, 4.0) == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert sharp_radius(2.0, 1.5, 2.0, 4.0) == pytest.approx(
        math.sqrt(3.0 / 8.0), rel=1e-15
    )
    # formula value above 1 is clamped
    assert sharp_radius(1.5, 4.0, 2.0, 2.0) == 1.0


def test_at_most_allows_the_relative_slack_only():
    assert at_most(1.0, 1.0, 0.0)
    assert at_most(1.0 + 5e-11, 1.0, INEQ_SLACK)
    assert not at_most(1.0 + 2e-10, 1.0, INEQ_SLACK)


def test_hyper_check_frozen_pass():
    row = hyper(one + z, 2.0, 2.0, 2.0, 4.0)
    assert row.status == "pass" and row.hypothesis_ok
    assert "r=0.7071067811865476" in row.params
    assert row.computed == pytest.approx((25.0 / 12.0) ** 0.25, rel=1e-12)
    assert row.target == pytest.approx(math.sqrt(1.5), rel=1e-12)
    r = sharp_radius(2.0, 2.0, 2.0, 4.0)
    assert hyper_check(one + z, 2.0, 2.0, 2.0, 4.0, r) == (row.computed, row.target, 0.0)


def test_hyper_check_frozen_fail_above_threshold():
    row = hyper(one + z * 0.001, 2.0, 3.0, 2.0, 4.0, r=0.88)
    assert row.status == "fail"
    # second-order expansion predicts the violation size (eps^2/4)(q r^2/beta - p/alpha)
    predicted = (0.001 ** 2 / 4.0) * (4.0 * 0.88 ** 2 / 3.0 - 1.0)
    assert row.computed - row.target == pytest.approx(predicted, rel=5e-3)


def test_hyper_check_exact_route_agrees():
    a = hyper(one + z, 2.0, 2.0, 2.0, 4.0, method="quad")
    b = hyper(one + z, 2.0, 2.0, 2.0, 4.0, method="exact")
    assert (a.method, b.method) == ("quadrature", "exact")
    assert a.computed == pytest.approx(b.computed, rel=1e-12)
    assert a.target == pytest.approx(b.target, rel=1e-12)
    with pytest.raises(ValueError, match="unknown method 'mc'"):
        hyper_check(one + z, 2.0, 2.0, 2.0, 4.0, 0.5, method="mc")


def test_hyper_rejects_radius_outside_unit_interval():
    with pytest.raises(ValueError, match="r must lie in"):
        hyper(one + z, 2.0, 2.0, 2.0, 4.0, r=1.5)


def test_hyper_polydisc_product_case():
    # (1+z1)(1+z2) with one scalar r on both variables at the critical
    # radius: both sides factor
    f = ComplexPolynomial.from_terms(
        2, {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0}
    )
    row = hyper(f, 2.0, 2.0, 2.0, 4.0)
    assert row.status == "pass"
    assert row.computed == pytest.approx(math.sqrt(25.0 / 12.0), rel=1e-11)
    assert row.target == pytest.approx(1.5, rel=1e-11)


def test_threshold_recovers_formula():
    rep = threshold_search(2.0, 2.0, 2.0, 4.0, slack=INEQ_SLACK, eps=1e-2)
    assert abs(rep.r_star_empirical - math.sqrt(0.5)) <= 5e-3
    assert rep.bracket_width <= 2e-4


def test_threshold_all_pass_degenerate():
    rep = threshold_search(2.0, 2.0, 2.0, 2.0, slack=INEQ_SLACK, eps=1e-2)
    assert rep.r_star_empirical == 1.0
    assert rep.r_star_theoretical == 1.0


def test_threshold_below_the_float_spacing_stops_at_adjacent_floats(monkeypatch):
    # at tol = 1e-300 the bracket stops narrowing once lo and hi are adjacent
    # floats; a loop that runs on is stopped by the norm raising
    calls = []
    fn = inequalities.bergman_norm

    def counting(*args):
        calls.append(args)
        if len(calls) > 400:
            raise AssertionError("the bisection did not stop")
        return fn(*args)

    monkeypatch.setattr(inequalities, "bergman_norm", counting)
    rep = threshold_search(2.0, 2.0, 2.0, 4.0, slack=INEQ_SLACK, tol=1e-300)
    assert 0.0 < rep.bracket_width <= 2.0 * math.ulp(rep.r_star_raw)
    assert abs(rep.r_star_empirical - rep.r_star_theoretical) < 1e-3


def test_necessity_expansion_closed_form():
    rep = necessity_expansion_check(2.0, 2.0)
    assert rep.method == "exact"
    assert cubic_decay(rep.eps_grid, rep.residuals)
    for e, r in zip(rep.eps_grid, rep.residuals):
        assert r == pytest.approx(e ** 4 / 32.0, rel=0.1)


@pytest.mark.parametrize("alpha,p", [(2.0, 4.0), (3.0, 2.5)])
def test_necessity_expansion_decay(alpha, p):
    rep = necessity_expansion_check(alpha, p)
    assert rep.method == ("exact" if p == 4.0 else "quadrature")
    assert cubic_decay(rep.eps_grid, rep.residuals)
    assert rep.max_normalized_residual < 1.0


def test_cubic_decay_rule_fails_slower_decay():
    # halving eps allows at most (1/8) * 4/3 of the previous residual
    assert cubic_decay((4e-2, 2e-2), (1.0, 0.16))
    assert not cubic_decay((4e-2, 2e-2), (1.0, 0.17))


def test_kulikov_frozen_values():
    row = CHECKS["kulikov"].run(poly=one + z, alpha=2.0, p=2.0, q=4.0)
    assert row.status == "pass"
    assert row.note == "beta_prime=4.0"
    assert row.computed == pytest.approx(2.1 ** 0.25, rel=1e-12)
    assert row.target == pytest.approx(math.sqrt(1.5), rel=1e-12)
    assert kulikov_check(one + z, 2.0, 2.0, 4.0) == (row.computed, row.target, 0.0)

    row = CHECKS["kulikov"].run(poly=z, alpha=2.0, p=2.0, q=4.0)
    assert row.status == "pass"
    assert row.computed == pytest.approx(0.1 ** 0.25, rel=1e-12)
    assert row.target == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_kulikov_requires_ordered_exponents():
    with pytest.raises(ValueError, match="requires q >= p"):
        kulikov_check(one + z, 2.0, 4.0, 2.0)
    row = CHECKS["kulikov"].run(poly=one + z, alpha=2.0, p=4.0, q=2.0)
    assert row.status == "out-of-hypothesis" and not row.hypothesis_ok
    assert row.computed is None and row.target is None


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
    assert np.allclose(prof.phi2, 2.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("q", [2.0, 4.0])
def test_phi2_is_exact_at_even_q(q):
    # at q = 2s, Phi(y) = sum_k |c_k(f^s)|^2 y^k is a polynomial in y
    ys = np.linspace(0.05, 0.9, 35)
    for f in random_polynomials(10, 1, 6, 1729):
        c = (f ** int(q / 2)).dense_coeffs()
        k = np.arange(len(c))
        want = ys[:, None] ** np.maximum(k - 2, 0) @ (k * (k - 1) * np.abs(c) ** 2)
        prof = phi_profile(f, q, ys)
        err = np.abs(np.array(prof.phi2) - want) / np.maximum(np.abs(want), 1.0)
        assert err.max() <= 1e-12
    assert profile_method(q) == "laplacian-exact"


@pytest.mark.parametrize("q", [2.5, 3.0])
def test_phi2_matches_binomial_series_at_non_even_q(q):
    # for f = 1 + z, Phi(y) = sum_k binom(q/2, k)^2 y^k
    ys = np.linspace(0.05, 0.9, 18)
    k = np.arange(2000)
    terms = k * (k - 1) * binom(q / 2, k) ** 2
    want = ys[:, None] ** np.maximum(k - 2, 0) @ terms
    prof = phi_profile(one + z, q, ys)
    err = np.abs(np.array(prof.phi2) - want) / np.maximum(np.abs(want), 1.0)
    assert err.max() <= 1e-9
    assert profile_method(q) == "laplacian-quadrature"


@pytest.mark.parametrize(
    "f, q, slope", [(z, 2.0, 1.0), (z, 4.0, 0.0), (one + z, 3.0, 2.25), (one, 3.0, 0.0)]
)
def test_phi_slope_at_zero(f, q, slope):
    assert _phi_slope_at_zero(f, q) == slope


def test_phi_profile_grid_validation():
    with pytest.raises(ValueError):
        phi_profile(z, 2.0, np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        phi_profile(z, 2.0, np.array([0.5, 1.0]))
    # refused before the kernel, whose tiling divides by the point count
    with pytest.raises(ValueError, match="the profile grid needs points"):
        phi_profile(one + z, 4, [])


def test_phi_convexity_requires_q_at_least_two():
    with pytest.raises(ValueError):
        phi_convexity_check(one + z, 1.5, np.linspace(0.1, 0.8, 5))


@pytest.mark.parametrize(
    "ys, message",
    [
        ([0.0, 0.5], "the profile grid needs points"),
        ([0.5, 1.0], "the profile grid needs points"),
        ([], "the profile grid needs points"),
        ([0.5, 0.5], "strictly increasing"),
        ([0.6, 0.3], "strictly increasing"),
    ],
)
@pytest.mark.parametrize("check", [phi_profile, phi_convexity_check])
def test_the_profile_and_the_convexity_check_refuse_a_grid_alike(check, ys, message):
    with pytest.raises(ValueError, match=message):
        check(one + z, 4.0, ys)


@pytest.mark.parametrize("q", [2.0, 3.0, 4.0])
def test_phi_convexity_computes_no_circle_means(monkeypatch, q):
    # only Phi'' is read, so Phi is never computed, and the minimum and its
    # place are the profile's bit for bit
    f = random_polynomials(1, 1, 5, 1729)[0]
    ys = np.linspace(0.05, 0.9, 35)
    prof = phi_profile(f, q, ys)
    k = int(np.argmin(prof.phi2))

    def no_means(*args):
        raise AssertionError("circle_means called")

    monkeypatch.setattr(inequalities, "circle_means", no_means)
    assert phi_convexity_check(f, q, ys) == (prof.phi2[k], prof.y_grid[k])


@pytest.mark.parametrize("q", [2.0, 3.0, 4.0])
def test_phi_convexity_passes(q):
    ys = np.linspace(0.05, 0.9, 20)
    min_phi2, _ = phi_convexity_check(one + z + z * z, q, ys)
    assert convex(min_phi2)
    assert min_phi2 >= -1e-7
    assert not convex(-2e-7)


def test_ibp_identity_monomial():
    row = CHECKS["ibp"].run(poly=z, q=2.0, beta=2.0, beta_prime=4.0)
    assert row.status == "pass" and row.target == 1e-7
    assert row.method == "laplacian-exact"
    res = ibp_identity_check(z, 2.0, 2.0, 4.0)
    # both displays evaluate to the A^2_{beta'} mass of z, here 1/(beta'... ) = 1/4
    assert res.lhs_dilated == pytest.approx(0.25, abs=1e-9)
    assert res.lhs_plain == pytest.approx(0.25, abs=1e-9)
    assert res.max_rel_discrepancy <= 1e-9
    assert row.computed == res.max_rel_discrepancy


def test_ibp_identity_constant_keeps_boundary_term():
    # for f = 1 every integral term vanishes and both sides must equal phi(0)
    assert CHECKS["ibp"].run(poly=one, q=2.0, beta=2.0, beta_prime=4.0).status == "pass"
    res = ibp_identity_check(one, 2.0, 2.0, 4.0)
    assert res.lhs_dilated == pytest.approx(1.0, rel=1e-12)
    assert res.rhs_dilated == pytest.approx(1.0, rel=1e-9)
    assert res.lhs_plain == pytest.approx(1.0, rel=1e-12)


def test_ibp_identity_trinomial():
    f = one + z + z * z
    row = CHECKS["ibp"].run(poly=f, q=4.0, beta=3.0, beta_prime=6.0)
    assert row.status == "pass"
    assert row.computed <= 1e-7
    # a tolerance below the measured discrepancy fails the row
    assert row.computed > 0.0
    tight = CHECKS["ibp"].run(poly=f, q=4.0, beta=3.0, beta_prime=6.0, tol=0.0)
    assert tight.status == "fail"


def test_ibp_identity_catches_a_wrong_boundary_slope(monkeypatch):
    # with Phi'(0) taken as 0 (it is 4 here) the identity breaks at the default tol
    monkeypatch.setattr(inequalities, "_phi_slope_at_zero", lambda f, q: 0.0)
    row = CHECKS["ibp"].run(poly=one + z + z * z, q=4.0, beta=3.0, beta_prime=6.0)
    assert row.status == "fail"
    assert row.computed > 1e-2


def test_majorant_frozen_point():
    grid = np.linspace(0.0, 0.5, 101)
    margin = convexity_majorant_check(2.0, 4.0, grid)
    assert majorant_holds(margin)
    # midpoint check: (1-y)^2 vs 1-2y at y=1/4
    assert 0.75 ** 2 - 0.5 == pytest.approx(0.0625)
    assert margin >= -1e-12
    assert not majorant_holds(-1e-11)


def test_majorant_grid_validation():
    with pytest.raises(ValueError):
        convexity_majorant_check(2.0, 4.0, np.array([0.0, 0.6]))


def nikolskii(P, alpha, beta, p, q):
    return CHECKS["nikolskii"].run(alpha=alpha, beta=beta, p=p, q=q, poly=P)


def test_nikolskii_frozen_monomial():
    row = nikolskii(z, 2.0, 2.0, 2.0, 4.0)
    assert row.status == "pass" and row.hypothesis_ok
    assert row.note == "degree=1"
    assert row.computed == pytest.approx((1.0 / 3.0) ** 0.25 / math.sqrt(0.5), rel=1e-12)
    assert row.target == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert nikolskii_check(z, 2.0, 2.0, 2.0, 4.0) == (row.computed, row.target, 0.0)


def test_nikolskii_constant_attains_equality():
    row = nikolskii(ComplexPolynomial.constant(2.0), 2.0, 2.0, 2.0, 4.0)
    assert row.status == "pass"
    assert row.note == "degree=0"
    assert row.computed == pytest.approx(1.0, rel=1e-12)
    assert row.target == 1.0


def test_nikolskii_rejects_zero_and_labels_hypothesis():
    with pytest.raises(ValueError):
        nikolskii(ComplexPolynomial.zero(), 2.0, 2.0, 2.0, 4.0)
    row = nikolskii(z, 2.0, 2.0, 4.0, 2.0)
    assert row.status == "out-of-hypothesis" and not row.hypothesis_ok


def test_weissler_frozen_pass_and_fail():
    row = CHECKS["weissler"].run(poly=one + z, p=2.0, q=4.0)
    assert row.status == "pass"
    # the default radius is the sharp one, sqrt(p/q)
    assert "r=0.7071067811865476" in row.params
    assert row.computed == pytest.approx((13.0 / 4.0) ** 0.25, rel=1e-12)
    assert row.target == pytest.approx(math.sqrt(2.0), rel=1e-12)

    bad = CHECKS["weissler"].run(poly=one + z * 0.001, p=2.0, q=4.0, r=0.75)
    assert bad.status == "fail"
    predicted = (0.001 ** 2 / 4.0) * (4.0 * 0.75 ** 2 - 2.0)
    assert bad.computed - bad.target == pytest.approx(predicted, rel=5e-3)


@given(st.integers(0, 10 ** 6))
def test_hyper_random_zero_free_at_sharp_radius(seed):
    f = random_polynomials(1, 1, 6, seed)[0]
    assert hyper(f, 2.0, 3.0, 2.0, 4.0).status == "pass"


@given(st.floats(0.0, 1.0))
def test_hyper_below_sharp_radius_everywhere(frac):
    r = frac * sharp_radius(1.5, 2.0, 2.0, 3.0)
    row = hyper(one + z - (z * z) * 0.5, 1.5, 2.0, 2.0, 3.0, r=r)
    assert row.status == "pass"


# ------------------------------------------------------ rows on the ladder


def _suite_row(criterion, index, seed=1729):
    """(check name, inputs) of a row of c2's or c6's table."""
    table = {"c2": acceptance.c2_sharp_radius, "c6": acceptance.c6_nikolskii_isometry}
    name, inputs, *_ = table[criterion](seed)[index]
    return name, inputs


def _on_the_default_grid(name, inputs):
    """(computed, bound) of a hyper or nikolskii row on the default grid,
    the ladder's cap, where a check without a settle rule ends."""
    P, alpha, beta, p, q = (inputs[k] for k in ("poly", "alpha", "beta", "p", "q"))
    if name == "hyper":
        return hyper_check(P, alpha, beta, p, q, inputs["r"])[:2]
    return nikolskii_check(P, alpha, beta, p, q)[:2]


def _recording_norms(monkeypatch):
    """The (p, nodes) of every bergman_norm call the climb makes."""
    calls = []
    fn = norms.bergman_norm

    def recording(P, alpha, p, nodes=None, angles=None):
        calls.append((p, nodes))
        return fn(P, alpha, p, nodes, angles)

    monkeypatch.setattr(norms, "bergman_norm", recording)
    return calls


@pytest.mark.parametrize("space", [(1.5, 2.0, 2.0, 3.0), (2.0, 4.0, 0.5, 2.0)])
@pytest.mark.parametrize("value", [1.0, 0.7 + 0.2j])
def test_rows_at_their_bound_climb_to_the_cap(space, value, monkeypatch):
    # a constant's nikolskii ratio is C^0 = 1 and f = c at r0 keeps its norm:
    # zero margin, so neither settles and both end on the default grid
    alpha, beta, p, q = space
    calls = _recording_norms(monkeypatch)
    for nvars in (1, 2):
        f = ComplexPolynomial.constant(value, nvars)
        r0 = sharp_radius(*space)
        for name, extra in (("hyper", dict(r=r0)), ("nikolskii", {})):
            inputs = dict(alpha=alpha, beta=beta, p=p, q=q, poly=f, **extra)
            calls.clear()
            row = CHECKS[name].run(**inputs)
            climbed = [nodes for e, nodes in calls if e in (p, q) and e not in (2.0, 4.0)]
            assert len(climbed) > 2 and climbed[-1] is None  # the cap, last
            assert (row.computed, row.target) == _on_the_default_grid(name, inputs)
            assert row.status == "pass"


def test_a_rows_even_side_is_one_call_on_its_exact_grid(monkeypatch):
    # at (p, q) = (3, 4) the q side stays on its exact default grid, which
    # the rungs' pinned counts are not at q = 4, and f is dilated once
    f = random_polynomials(1, 2, 4, 1729)[0]
    exact_side = bergman_norm(f.dilate(sharp_radius(2.0, 2.0, 3.0, 4.0)), 2.0, 4.0)
    calls = _recording_norms(monkeypatch)
    dilations = []
    dilate = ComplexPolynomial.dilate

    def counting(self, r):
        dilations.append(r)
        return dilate(self, r)

    monkeypatch.setattr(ComplexPolynomial, "dilate", counting)
    row = hyper(f, 2.0, 2.0, 3.0, 4.0)
    assert [nodes for e, nodes in calls if e == 4.0] == [None]
    assert len([e for e, _ in calls if e == 3.0]) > 2 and len(dilations) == 1
    assert row.computed == exact_side.value and row.est_error > 0.0


@pytest.mark.parametrize(
    "q, norms_taken",
    [(3.0, {(3.0, 16): 2, (3.0, None): 2}),
     (4.0, {(3.0, 16): 1, (3.0, None): 1, (4.0, None): 1})],
)
def test_a_check_without_a_rule_evaluates_only_the_cap_and_its_half(
    q, norms_taken, monkeypatch
):
    # bivariate at p = 3: the ladder below the (32, 65) cap has 3 rungs, but
    # only the cap's half (16 nodes) and the cap make the values and the
    # gap, so each side at p or q other than an even integer takes 2 norms,
    # and q = 4 one.  The result is that of a climb over every rung that
    # never settles
    f = random_polynomials(1, 2, 5, 1729)[0]
    r = sharp_radius(2.0, 2.0, 3.0, q)
    every_rung = hyper_check(f, 2.0, 2.0, 3.0, q, r, settled=lambda *args: False)
    calls = _recording_norms(monkeypatch)
    assert hyper_check(f, 2.0, 2.0, 3.0, q, r) == every_rung
    assert Counter(calls) == norms_taken


def test_a_check_without_a_rule_climbs_to_the_cap():
    # one variable at p = 3: the cap is the default grid, 64 nodes x 257
    # angles, the rung before it the cap's half, 32 x 129; q = 4 is exact
    P = random_polynomials(1, 1, 4, 1729)[0]
    r = sharp_radius(2.0, 2.0, 3.0, 4.0)
    cap = bergman_norm(P, 2.0, 3.0).value
    half = bergman_norm(P, 2.0, 3.0, 32, 129).value
    dilated = bergman_norm(P.dilate(r), 2.0, 4.0).value
    assert hyper_check(P, 2.0, 2.0, 3.0, 4.0, r) == (dilated, cap, abs(cap - half))
    num = bergman_norm(P, 2.0, 4.0).value
    ratio, bound, est_error = nikolskii_check(P, 2.0, 2.0, 3.0, 4.0)
    assert (ratio, bound) == (num / cap, math.sqrt(4.0 / 3.0) ** P.degree)
    assert est_error == abs(num / cap - num / half) > 0.0


# one variable at q = 3 and p = 0.5, then two variables at both
@pytest.mark.parametrize(
    "criterion, index", [("c2", 100), ("c2", 152), ("c6", 125), ("c6", 175)]
)
def test_a_settled_rows_est_error_is_its_last_step(criterion, index, monkeypatch):
    # each rung evaluates the one side at p or q other than an even integer;
    # the row's est_error is the |change| of computed plus that of bound
    # from the rung before the one it settled on
    name, inputs = _suite_row(criterion, index)
    calls = []
    fn = norms.bergman_norm

    def recording(P, alpha, p, nodes=None, angles=None):
        result = fn(P, alpha, p, nodes, angles)
        calls.append((p, nodes, result.value))
        return result

    monkeypatch.setattr(norms, "bergman_norm", recording)
    row = CHECKS[name].run(**inputs)
    fixed = {e: value for e, _, value in calls if _even_half(e) is not None}
    rungs = [{**fixed, e: value} for e, nodes, value in calls if _even_half(e) is None]
    p, q = inputs["p"], inputs["q"]
    if name == "hyper":
        judged = [(side[q], side[p]) for side in rungs]
    else:
        judged = [(side[q] / side[p], row.target) for side in rungs]
    assert calls[-1][1] is not None  # settled below the cap
    assert (row.computed, row.target) == judged[-1]
    (c0, b0), (c1, b1) = judged[-2:]
    assert row.est_error == abs(c1 - c0) + abs(b1 - b0) > 0.0


# rows of c2's and c6's tables at seed 1729: the two non-even spaces, c6's
# univariate and bivariate corpora
PATCHED_ROWS = [("c2", 100), ("c2", 151), ("c6", 101), ("c6", 126), ("c6", 152), ("c6", 177)]


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["above", "below"])
@pytest.mark.parametrize("criterion, index", PATCHED_ROWS)
def test_a_bound_next_to_computed_gives_the_default_grids_verdict(
    criterion, index, sign, monkeypatch
):
    # the bound moved to computed (1 +- 1e-4) on the default grid: the row
    # climbs until its gaps are far below that margin, so it passes above
    # and fails below, as it does on the default grid
    name, inputs = _suite_row(criterion, index)
    computed, _ = _on_the_default_grid(name, inputs)
    bound = computed * (1.0 + sign * 1e-4)
    real = inequalities._climbed_norms

    def patched(sides, judge, settled, *pinned):
        return real(sides, lambda a, b: (judge(a, b)[0], bound), settled, *pinned)

    monkeypatch.setattr(inequalities, "_climbed_norms", patched)
    row = CHECKS[name].run(**inputs)
    slack = NIKOLSKII_SLACK if name == "nikolskii" else INEQ_SLACK
    assert row.target == bound
    assert row.status == ("pass" if at_most(computed, bound, slack) else "fail")
    assert row.status == ("pass" if sign > 0 else "fail")


# The rows of SETTLED_ROWS judge one side at p or q other than an even
# integer; its reference norm is taken on a grid far finer than the default:
# 512 x 16400 for one variable (at p = 0.5, 128 x 260 errs by more than the
# default grid there) and 128 x 260 per axis for two.  The bivariate ones
# take 3-5 s each and are pinned: bergman_norm(side, nodes=128, angles=260).
BIVARIATE_REFERENCES = {
    ("c6", 125): 1.8564569432939457,
    ("c6", 133): 2.089970211554552,
    ("c6", 175): 1.1910038262403768,
    ("c6", 182): 1.3909193701570486,
}

# Per non-even space and corpus of c2 and c6 at seed 1729, the first row and
# the row whose error is the largest multiple of its est_error over all 200
# such rows of the two criteria: 43.7 (c6 row 159, one variable, p = 0.5),
# 8.7, 2.6, 2.4, 1.0 and 0.76.  So est_error does not bound the error;
# SETTLE_MULTIPLE times it does, and the verdict is safe.
SETTLED_ROWS = [
    ("c2", 100), ("c2", 126), ("c2", 150), ("c2", 183),
    ("c6", 100), ("c6", 122), ("c6", 150), ("c6", 159),
    *BIVARIATE_REFERENCES,
]


def _judged_side(name, inputs):
    """(P, alpha, p) of the side a hyper or nikolskii row climbs the ladder on."""
    P = inputs["poly"]
    if _even_half(inputs["q"]) is None:
        return (P.dilate(inputs["r"]) if name == "hyper" else P), inputs["beta"], inputs["q"]
    return P, inputs["alpha"], inputs["p"]


def test_a_pinned_settle_reference_reproduces():
    name, inputs = _suite_row("c6", 125)
    reference = bergman_norm(*_judged_side(name, inputs), nodes=128, angles=260).value
    assert reference == pytest.approx(BIVARIATE_REFERENCES["c6", 125], rel=1e-13)


@pytest.mark.parametrize("criterion, index", SETTLED_ROWS)
def test_settled_verdicts_are_safe(criterion, index):
    name, inputs = _suite_row(criterion, index)
    row = CHECKS[name].run(**inputs)
    side = _judged_side(name, inputs)
    reference = BIVARIATE_REFERENCES.get((criterion, index))
    if reference is None:
        reference = bergman_norm(*side, nodes=512, angles=16400).value

    def norm(P, alpha, p):
        return reference if (P, alpha, p) == side else bergman_norm(P, alpha, p).value

    P, alpha, beta, p, q = (inputs[k] for k in ("poly", "alpha", "beta", "p", "q"))
    if name == "hyper":
        computed, bound = norm(P.dilate(inputs["r"]), beta, q), norm(P, alpha, p)
    else:
        computed, bound = norm(P, beta, q) / norm(P, alpha, p), row.target
    error = abs(row.computed - computed) + abs(row.target - bound)
    # up to the rounding of sums over 10^9 grid points
    assert error <= SETTLE_MULTIPLE * row.est_error + 1e-13 * bound
    slack = NIKOLSKII_SLACK if name == "nikolskii" else INEQ_SLACK
    assert row.status == ("pass" if at_most(computed, bound, slack) else "fail")
