"""Measurements behind the sharp inequalities: threshold, expansion, profile.

The central claim: the dilation T_r f(z) = f(rz) maps A^p_alpha(D)
contractively into A^q_beta(D), for every f, exactly when
r^2 <= beta*p / (alpha*q), given 1 < alpha, beta, 0 < p <= q, q >= 2 and
beta*p <= alpha*q.  Here are the measurements that claim rests on: the
critical radius and its empirical crossover, the second-order expansion of
the norm, the two sides of the dilation, degree-growth and embedding
inequalities, and the circle-profile convexity machinery of the sufficiency
argument.  Each function returns what it measured and judges nothing; every
pass rule, slack and floor lives in `checks.py`.  The two-sided measurements
keep their ``*_check`` names, which ``perfbench/run.py`` times by name.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import check_alpha, radial_rule
from .norms import (
    NormResult,
    _check_p,
    _even_half,
    bergman_norm,
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

# Finite-difference steps: the profile second derivative uses Richardson over
# (h, h/2); the one-sided first derivative at 0 uses the smaller step.
FD_H2 = 1e-3
FD_H1 = 1e-4


def sharp_radius(alpha: float, beta: float, p: float, q: float) -> float:
    """The critical dilation radius sqrt(beta*p/(alpha*q)), capped at 1."""
    for weight, exponent in ((alpha, p), (beta, q)):
        check_alpha(weight)
        _check_p(exponent)
    return min(1.0, math.sqrt(beta * p / (alpha * q)))


def _norm_for(P: ComplexPolynomial, alpha: float, p: float, method: str,
              nodes: int | None = None, angles: int | None = None) -> NormResult:
    if method == "quad":
        if p < 1.0 and P.nvars == 1 and angles is None:
            # |P|^p has cusps at interior zeros for p < 1; extra angles are cheap
            angles = 1025
        return bergman_norm(P, alpha, p, nodes=nodes, angles=angles)
    if method == "exact":
        return exact_norm_even_p(P, alpha, p)
    raise ValueError(f"unknown method {method!r}")


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
) -> tuple[float, float]:
    """The two sides of ||f(r .)||_{A^q_beta} <= ||f||_{A^p_alpha}."""
    if not (0.0 <= r <= 1.0):
        raise ValueError(f"r must lie in [0, 1], got {r}")
    lhs = _norm_for(f.dilate(r), beta, q, method, nodes, angles).value
    rhs = _norm_for(f, alpha, p, method, nodes, angles).value
    return lhs, rhs


def nikolskii_check(
    P: ComplexPolynomial,
    alpha: float,
    beta: float,
    p: float,
    q: float,
    nodes: int | None = None,
    angles: int | None = None,
) -> tuple[float, float]:
    """The two sides of ||P||_{A^q_beta} / ||P||_{A^p_alpha} <= C^m, with
    C = sqrt(alpha q / (beta p)) and m the total degree of P."""
    if P.is_zero:
        raise ValueError("the zero polynomial has no norm ratio")
    num = bergman_norm(P, beta, q, nodes=nodes, angles=angles).value
    den = bergman_norm(P, alpha, p, nodes=nodes, angles=angles).value
    return num / den, math.sqrt(alpha * q / (beta * p)) ** P.degree


def kulikov_check(
    f: ComplexPolynomial, alpha: float, p: float, q: float
) -> tuple[float, float]:
    """The two sides of the undilated embedding
    ||f||_{A^q_{q alpha / p}} <= ||f||_{A^p_alpha}, for q >= p."""
    if q < p:
        raise ValueError("requires q >= p")
    rhs = bergman_norm(f, alpha, p).value
    lhs = bergman_norm(f, q * alpha / p, q).value
    return lhs, rhs


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
    space: tuple, slack: float, eps: float, tol: float, scan_points: int = 21
) -> tuple[float, float]:
    """Largest passing radius for the test family 1 + eps*z, with bracket width."""
    alpha, beta, p, q = space
    f = ComplexPolynomial.from_coeffs([1.0, eps])
    rhs = bergman_norm(f, alpha, p).value

    def passes(r: float) -> bool:
        return at_most(bergman_norm(f.dilate(r), beta, q).value, rhs, slack)

    grid = np.linspace(0.0, 1.0, scan_points)
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
    refine: bool = True,
) -> ThresholdReport:
    """Empirical crossover radius of the dilation inequality.

    A radius passes when the dilated norm is at most the plain one up to the
    relative ``slack`` (``report.at_most``).  The test family is
    f = 1 + eps*z, whose crossover approaches the critical radius
    quadratically in eps; with refine=True the search is repeated at eps/2
    and Richardson-extrapolated in eps^2.
    """
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    space = (alpha, beta, p, q)
    r_raw, width = _bisect_threshold(space, slack, eps, tol)
    r_half, width_half = r_raw, width
    estimate = r_raw
    if refine:
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
        value = _norm_for(f, alpha, p, "exact" if exact else "quad").value
        residuals.append(abs(value - 1.0 - p * e * e / (4.0 * alpha)))
    max_norm = max(r / e ** 3 for e, r in zip(eps_desc, residuals))
    return ExpansionReport(
        method="exact" if exact else "quadrature",
        eps_grid=eps_desc,
        residuals=tuple(residuals),
        max_normalized_residual=float(max_norm),
    )


# ------------------------------------------------------- circle profile Phi


def _phi_values(
    f: ComplexPolynomial, q: float, ys: np.ndarray, angles: int | None = None
) -> np.ndarray:
    """Circle means Phi(y) of |f(sqrt(y) e^{i theta})|^q, vectorized in y."""
    if f.nvars != 1:
        raise ValueError("profile is defined for univariate f")
    ys = np.asarray(ys, dtype=float)
    if np.any(ys < 0.0):
        raise ValueError("profile argument must be nonnegative")
    return circle_means(f, q, ys.reshape(-1), angles).reshape(ys.shape)


def _phi_second_derivative(
    f: ComplexPolynomial, q: float, ys: np.ndarray, h: float = FD_H2
) -> np.ndarray:
    """Richardson-refined central second difference of the profile."""
    ys = np.asarray(ys, dtype=float)
    hs = np.minimum(h, np.minimum(ys, 1.0 - ys) / 2.0)
    if np.any(hs <= 0.0):
        raise ValueError("grid point too close to 0 or 1 for the stencil")
    offsets = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    pts = ys[:, None] + hs[:, None] * offsets[None, :]
    phi = _phi_values(f, q, pts.reshape(-1)).reshape(pts.shape)
    d_h = (phi[:, 0] - 2.0 * phi[:, 2] + phi[:, 4]) / hs ** 2
    d_half = (phi[:, 1] - 2.0 * phi[:, 2] + phi[:, 3]) / (0.5 * hs) ** 2
    return (4.0 * d_half - d_h) / 3.0


def _phi_derivative_at_zero(f: ComplexPolynomial, q: float, h: float = FD_H1) -> float:
    """One-sided 3-point derivative of the profile at y = 0, Richardson-refined."""
    ys = np.array([0.0, 0.5 * h, h, 2.0 * h])
    phi = _phi_values(f, q, ys)
    d_h = (-3.0 * phi[0] + 4.0 * phi[2] - phi[3]) / (2.0 * h)
    d_half = (-3.0 * phi[0] + 4.0 * phi[1] - phi[2]) / h
    return float((4.0 * d_half - d_h) / 3.0)


@dataclass(frozen=True)
class PhiProfile:
    q: float
    y_grid: tuple[float, ...]
    phi: tuple[float, ...]
    phi2: tuple[float, ...]

    def __post_init__(self) -> None:
        ys = np.asarray(self.y_grid)
        if np.any(np.diff(ys) <= 0):
            raise ValueError("y grid must be strictly increasing")
        if np.any(np.asarray(self.phi) < 0):
            raise ValueError("profile values must be nonnegative")


def phi_profile(
    f: ComplexPolynomial, q: float, y_grid, h: float = FD_H2
) -> PhiProfile:
    """Profile values and second derivatives on a grid inside (0, 1)."""
    ys = np.asarray(y_grid, dtype=float)
    if np.any(ys <= 0.0) or np.any(ys >= 1.0):
        raise ValueError("grid point too close to 0 or 1 for the stencil")
    phi = _phi_values(f, q, ys)
    phi2 = _phi_second_derivative(f, q, ys, h=h)
    return PhiProfile(
        q=float(q),
        y_grid=tuple(float(y) for y in ys),
        phi=tuple(float(v) for v in phi),
        phi2=tuple(float(v) for v in phi2),
    )


@dataclass(frozen=True)
class ConvexityResult:
    min_phi2: float
    argmin_y: float


def phi_convexity_check(f: ComplexPolynomial, q: float, y_grid) -> ConvexityResult:
    """Smallest second derivative of the profile in y on the grid, for q >= 2."""
    if q < 2.0:
        raise ValueError("convexity requires q >= 2")
    prof = phi_profile(f, q, y_grid)
    k = int(np.argmin(prof.phi2))
    return ConvexityResult(min_phi2=prof.phi2[k], argmin_y=prof.y_grid[k])


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
    [0, 1] against (1-y)^beta').  All four sides are evaluated numerically
    and the worst relative mismatch is reported.
    """
    if q < 2.0:
        raise ValueError("requires q >= 2")
    check_alpha(beta)
    if beta_prime < beta:
        raise ValueError("requires beta_prime >= beta")
    r_sq = beta / beta_prime

    phi0 = float(_phi_values(f, q, np.array([0.0]))[0])
    dphi0 = _phi_derivative_at_zero(f, q)

    t_b, w_b = radial_rule(beta, nodes)
    lhs_dilated = float(w_b @ _phi_values(f, q, r_sq * t_b))
    t_bp, w_bp = radial_rule(beta_prime, nodes)
    lhs_plain = float(w_bp @ _phi_values(f, q, t_bp))

    t_in, w_in = radial_rule(beta + 2.0, nodes)
    phi2 = _phi_second_derivative(f, q, r_sq * t_in)
    integral_dilated = r_sq * float(w_in @ phi2) / (beta + 1.0)
    t_in2, w_in2 = radial_rule(beta_prime + 2.0, nodes)
    phi2_plain = _phi_second_derivative(f, q, t_in2)
    integral_plain = float(w_in2 @ phi2_plain) / (beta_prime + 1.0)

    rhs_dilated = phi0 + dphi0 / beta_prime + integral_dilated / beta_prime
    rhs_plain = phi0 + dphi0 / beta_prime + integral_plain / beta_prime

    scale1 = max(abs(lhs_dilated), abs(rhs_dilated), 1e-30)
    scale2 = max(abs(lhs_plain), abs(rhs_plain), 1e-30)
    rel = max(
        abs(lhs_dilated - rhs_dilated) / scale1,
        abs(lhs_plain - rhs_plain) / scale2,
    )
    return IbpResult(
        max_rel_discrepancy=float(rel),
        lhs_dilated=lhs_dilated,
        rhs_dilated=rhs_dilated,
        lhs_plain=lhs_plain,
        rhs_plain=rhs_plain,
    )


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
