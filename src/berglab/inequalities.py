"""Measurements behind the sharp inequalities: threshold, expansion, profile.

The central claim: the dilation T_r f(z) = f(rz) maps A^p_alpha(D)
contractively into A^q_beta(D), for every f, exactly when
r^2 <= beta*p / (alpha*q), given 1 < alpha, beta, 0 < p <= q, q >= 2 and
beta*p <= alpha*q.  Here are the measurements that claim rests on: the
critical radius and its empirical crossover, the second-order expansion of
the norm, the two sides of the dilation, degree-growth and embedding
inequalities, and the circle-profile convexity machinery of the sufficiency
argument.  The profile Phi(y), the mean of |f|^q on |z|^2 = y, and its Phi''
(by the Laplacian identity) come from ``norms``, Phi(0) and Phi'(0) from
the two lowest coefficients of f.  Each function returns what it measured
and judges nothing; every pass rule, slack and floor lives in `checks.py`.
The two-sided measurements keep their ``*_check`` names, which
``perfbench/run.py`` times by name.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import check_alpha, radial_rule
from .norms import (
    _check_p,
    _climbed_norms,
    _even_half,
    bergman_norm,
    circle_curvature,
    circle_means,
    exact_norm_even_p,
)
from .poly import ComplexPolynomial
from .report import at_most

__all__ = [
    "ThresholdReport",
    "PhiProfile",
    "hyper_check",
    "nikolskii_check",
    "kulikov_check",
    "threshold_search",
    "necessity_expansion_check",
    "phi_profile",
    "phi_convexity_check",
    "ibp_identity_check",
    "convexity_majorant_check",
    "sharp_radius",
]

def sharp_radius(alpha: float, beta: float, p: float, q: float) -> float:
    """The critical dilation radius sqrt(beta*p/(alpha*q)), capped at 1."""
    for weight, exponent, name in ((alpha, p, "p"), (beta, q, "q")):
        check_alpha(weight)
        _check_p(exponent, name)
    return min(1.0, math.sqrt(beta * p / (alpha * q)))


def _nikolskii_constant(alpha: float, beta: float, p: float, q: float) -> float:
    """The base C = sqrt(alpha q / (beta p)) of the degree-growth bound C^m
    on ||P||_{A^q_beta} / ||P||_{A^p_alpha}, for P of total degree m."""
    return math.sqrt(alpha * q / (beta * p))


def hyper_check(
    f: ComplexPolynomial,
    alpha: float,
    beta: float,
    p: float,
    q: float,
    r: float,
    method: str = "quad",
    nodes: int | None = None,
    angles: int | None = None,
    settled=None,
) -> tuple[float, float, float]:
    """The two sides of ||f(r .)||_{A^q_beta} <= ||f||_{A^p_alpha} and their
    est_error, the gap of ``norms._climbed_norms`` (0.0 by the exact
    method); f is dilated once."""
    _check_p(p)
    _check_p(q, "q")
    if not (0.0 <= r <= 1.0):
        raise ValueError(f"r must lie in [0, 1], got {r}")
    if method == "quad":
        sides = ((f.dilate(r), beta, q), (f, alpha, p))
        values, gap = _climbed_norms(sides, lambda *norms: norms, settled, nodes, angles)
        return (*values, gap)
    if method == "exact":
        lhs = exact_norm_even_p(f.dilate(r), beta, q).value
        rhs = exact_norm_even_p(f, alpha, p).value
        return lhs, rhs, 0.0
    raise ValueError(f"unknown method {method!r}")


def nikolskii_check(
    P: ComplexPolynomial,
    alpha: float,
    beta: float,
    p: float,
    q: float,
    nodes: int | None = None,
    angles: int | None = None,
    settled=None,
) -> tuple[float, float, float]:
    """The two sides of ||P||_{A^q_beta} / ||P||_{A^p_alpha} <= C^m, with
    C = sqrt(alpha q / (beta p)) and m the total degree of P, and their
    est_error, the gap of ``norms._climbed_norms``."""
    if P.is_zero:
        raise ValueError("the zero polynomial has no norm ratio")
    bound = _nikolskii_constant(alpha, beta, p, q) ** P.degree
    sides = ((P, beta, q), (P, alpha, p))
    values, gap = _climbed_norms(
        sides, lambda num, den: (num / den, bound), settled, nodes, angles
    )
    return (*values, gap)


def kulikov_check(
    f: ComplexPolynomial, alpha: float, p: float, q: float, settled=None
) -> tuple[float, float, float]:
    """The two sides of the undilated embedding
    ||f||_{A^q_{q alpha / p}} <= ||f||_{A^p_alpha}, for q >= p, and their
    est_error, the gap of ``norms._climbed_norms``."""
    if q < p:
        raise ValueError("requires q >= p")
    check_alpha(alpha)  # the A^p_alpha side's checks, before q alpha / p
    _check_p(p)
    # the A^p_alpha side first, as its grid errors have always been the ones named
    sides = ((f, alpha, p), (f, q * alpha / p, q))
    values, gap = _climbed_norms(sides, lambda rhs, lhs: (lhs, rhs), settled)
    return (*values, gap)


@dataclass(frozen=True)
class ThresholdReport:
    r_star_empirical: float
    r_star_theoretical: float
    bracket_width: float
    r_star_raw: float = 0.0

    def __post_init__(self) -> None:
        if not (self.bracket_width > 0.0):
            raise ValueError("bracket width must be positive")


def _bisect_threshold(
    space: tuple, slack: float, eps: float, tol: float
) -> tuple[float, float]:
    """Largest passing radius for the test family 1 + eps*z, with bracket width."""
    alpha, beta, p, q = space
    f = ComplexPolynomial.from_coeffs([1.0, eps])
    rhs = bergman_norm(f, alpha, p).value

    def passes(r: float) -> bool:
        return at_most(bergman_norm(f.dilate(r), beta, q).value, rhs, slack)

    grid = np.linspace(0.0, 1.0, 21)
    flags = [passes(r) for r in grid]
    if all(flags):
        return 1.0, tol
    # the diagnostic scan must show a single True -> False change
    switches = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
    if not flags[0] or switches != 1:
        raise RuntimeError(
            f"dilation predicate not monotone on the scan grid: {flags}"
        )
    hi_idx = flags.index(False)
    lo, hi = float(grid[hi_idx - 1]), float(grid[hi_idx])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), hi - lo


def threshold_search(
    alpha: float,
    beta: float,
    p: float,
    q: float,
    *,
    slack: float,
    eps: float = 1e-2,
    tol: float = 1e-4,
) -> ThresholdReport:
    """Empirical crossover radius of the dilation inequality.

    A radius passes when the dilated norm is at most the plain one up to the
    relative ``slack`` (``report.at_most``).  The test family is
    f = 1 + eps*z, whose crossover approaches the critical radius
    quadratically in eps, so the search is repeated at eps/2 and
    Richardson-extrapolated in eps^2.
    """
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    if not (tol > 0):  # the bisection cannot narrow below adjacent floats
        raise ValueError(f"tol must be positive, got {tol}")
    space = (alpha, beta, p, q)
    r_raw, width = _bisect_threshold(space, slack, eps, tol)
    r_half, width_half = _bisect_threshold(space, slack, eps / 2.0, tol)
    estimate = r_half + (r_half - r_raw) / 3.0
    return ThresholdReport(
        r_star_empirical=float(min(estimate, 1.0)),
        r_star_theoretical=sharp_radius(*space),
        bracket_width=float(max(width, width_half)),
        r_star_raw=float(r_raw),
    )


@dataclass(frozen=True)
class ExpansionReport:
    method: str  # "exact" at even p, else "quadrature"
    eps_grid: tuple[float, ...]
    residuals: tuple[float, ...]
    max_normalized_residual: float


def necessity_expansion_check(
    alpha: float, p: float, eps_grid=(4e-2, 2e-2, 1e-2)
) -> ExpansionReport:
    """Residual of ||1 + eps z||_{A^p_alpha} = 1 + p/(4 alpha) eps^2 + O(eps^3).

    Residuals are reported on the grid sorted by decreasing eps, with their
    worst ratio to eps^3.  Norms take the exact route at even p.
    """
    check_alpha(alpha)
    eps_desc = tuple(sorted((float(e) for e in eps_grid), reverse=True))
    exact = _even_half(p) is not None
    residuals = []
    for e in eps_desc:
        f = ComplexPolynomial.from_coeffs([1.0, e])
        value = (exact_norm_even_p if exact else bergman_norm)(f, alpha, p).value
        residuals.append(abs(value - 1.0 - p * e * e / (4.0 * alpha)))
    max_norm = max(r / e ** 3 for e, r in zip(eps_desc, residuals))
    return ExpansionReport(
        method="exact" if exact else "quadrature",
        eps_grid=eps_desc,
        residuals=tuple(residuals),
        max_normalized_residual=float(max_norm),
    )


# ------------------------------------------------------- circle profile Phi


def _phi_slope_at_zero(f: ComplexPolynomial, q: float) -> float:
    """Phi'(0) = (q^2/4) |f(0)|^(q-2) |f'(0)|^2, for q >= 2."""
    return 0.25 * q * q * abs(f.coeff((0,))) ** (q - 2.0) * abs(f.coeff((1,))) ** 2


@dataclass(frozen=True)
class PhiProfile:
    q: float
    y_grid: tuple[float, ...]
    phi: tuple[float, ...]
    phi2: tuple[float, ...]

    def __post_init__(self) -> None:
        if np.any(np.asarray(self.phi) < 0):
            raise ValueError("profile values must be nonnegative")


def _profile_grid(q: float, y_grid) -> np.ndarray:
    """y_grid as an array, checked: 2 <= q <= 64, points, all in (0, 1), rising."""
    if _check_p(q, "q") < 2.0:  # |f|^(q-2) in Phi'' is singular at zeros of f
        raise ValueError("the circle profile requires q >= 2")
    ys = np.asarray(y_grid, dtype=float)
    if not ys.size or np.any(ys <= 0.0) or np.any(ys >= 1.0):
        raise ValueError("the profile grid needs points, all inside (0, 1)")
    if np.any(np.diff(ys) <= 0):
        raise ValueError("y grid must be strictly increasing")
    return ys


def phi_profile(f: ComplexPolynomial, q: float, y_grid) -> PhiProfile:
    """Profile values and second derivatives on a grid inside (0, 1), 2 <= q <= 64."""
    ys = _profile_grid(q, y_grid)
    phi = circle_means(f, q, ys)
    phi2 = circle_curvature(f, q, ys) / ys ** 2
    return PhiProfile(
        q=float(q),
        y_grid=tuple(float(y) for y in ys),
        phi=tuple(float(v) for v in phi),
        phi2=tuple(float(v) for v in phi2),
    )


def phi_convexity_check(f: ComplexPolynomial, q: float, y_grid) -> tuple[float, float]:
    """The smallest Phi'' on ``phi_profile``'s grid and the y where it is taken."""
    ys = _profile_grid(q, y_grid)
    phi2 = circle_curvature(f, q, ys) / ys ** 2  # Phi itself is not needed
    return float(phi2.min()), float(ys[np.argmin(phi2)])


@dataclass(frozen=True)
class IbpResult:
    max_rel_discrepancy: float
    lhs_dilated: float
    rhs_dilated: float
    lhs_plain: float
    rhs_plain: float


def ibp_identity_check(
    f: ComplexPolynomial,
    q: float,
    beta: float,
    beta_prime: float,
    nodes: int = 64,
) -> IbpResult:
    """Double integration-by-parts identities for the circle profile.

    With r^2 = beta/beta_prime and Phi the circle profile of |f|^q, both

        (beta-1)  int_0^1 (1-y)^(beta-2)  Phi(r^2 y) dy
        (beta'-1) int_0^1 (1-y)^(beta'-2) Phi(y) dy

    equal Phi(0) + Phi'(0)/beta' plus 1/beta' times the corresponding
    Phi''-integral (over [0, r^2] against (1-y/r^2)^beta, respectively over
    [0, 1] against (1-y)^beta').  Phi(0) = |f(0)|^q and Phi'(0) come from
    the two lowest coefficients, the integrals from Gauss-Jacobi rules over
    ``circle_means`` and ``circle_curvature``; the worst relative mismatch
    is reported.
    """
    if _check_p(q, "q") < 2.0:
        raise ValueError("requires q >= 2")
    check_alpha(beta)
    if beta_prime < beta:
        raise ValueError("requires beta_prime >= beta")
    try:
        head = abs(f.coeff((0,))) ** q + _phi_slope_at_zero(f, q) / beta_prime
    except OverflowError:
        head = math.inf
    if not math.isfinite(head):
        raise ValueError(f"Phi(0) + Phi'(0)/beta' not finite at q = {q}")
    sides = []  # (lhs, rhs) of the dilated display, then of the plain one
    for weight, scale in ((beta, beta / beta_prime), (beta_prime, 1.0)):
        t, w = radial_rule(weight, nodes)
        lhs = float(w @ circle_means(f, q, scale * t))
        t, w = radial_rule(weight + 2.0, nodes)
        phi2 = circle_curvature(f, q, scale * t) / (scale * t) ** 2
        integral = scale * float(w @ phi2) / (weight + 1.0)
        sides.append((lhs, head + integral / beta_prime))
    rel = max(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30) for lhs, rhs in sides)
    return IbpResult(rel, *sides[0], *sides[1])


def convexity_majorant_check(beta: float, beta_prime: float, y_grid) -> float:
    """Worst margin of the tangent-line bound (1-y)^(beta'/beta) >= 1 - y*beta'/beta.

    The grid must lie in [0, beta/beta'].
    """
    check_alpha(beta)
    if beta_prime < beta:
        raise ValueError("requires beta_prime >= beta")
    ys = np.asarray(y_grid, dtype=float)
    if np.any(ys < 0.0) or np.any(ys > beta / beta_prime + 1e-15):
        raise ValueError("grid must lie in [0, beta/beta_prime]")
    margin = (1.0 - ys) ** (beta_prime / beta) - (1.0 - ys * beta_prime / beta)
    return float(margin.min())
