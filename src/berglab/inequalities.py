"""Dilation, degree-growth, and convexity checks behind the sharp inequalities.

The central claim verified here: the dilation T_r f(z) = f(rz) maps
A^p_alpha(D) contractively into A^q_beta(D), for every f, exactly when
r^2 <= beta*p / (alpha*q), given 1 < alpha, beta, 0 < p <= q, q >= 2 and
beta*p <= alpha*q.  The polydisc and degree-bound (Nikolskii-type) variants,
the circle-profile convexity machinery used in the sufficiency argument, and
the Hardy-space threshold r^2 <= p/q are exercised by the other checks.

All pass/fail comparisons use an explicit relative slack so that genuinely
sharp configurations (equality up to rounding) are not misreported.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import check_alpha, radial_rule
from .norms import (
    NormResult,
    bergman_norm,
    circle_means,
    exact_norm_even_p,
    hardy_norm,
)
from .poly import ComplexPolynomial

__all__ = [
    "SpaceParams",
    "HyperParams",
    "HyperCheckResult",
    "ThresholdReport",
    "PhiProfile",
    "hyper_check",
    "threshold_search",
    "necessity_expansion_check",
    "kulikov_check",
    "phi_profile",
    "phi_convexity_check",
    "ibp_identity_check",
    "convexity_majorant_check",
    "nikolskii_check",
    "weissler_threshold_check",
    "sharp_radius",
]

# Relative slack for inequality verdicts.
INEQ_SLACK = 1e-10
NIKOLSKII_SLACK = 1e-9

# Finite-difference steps: the profile second derivative uses Richardson over
# (h, h/2); the one-sided first derivative at 0 uses the smaller step.
FD_H2 = 1e-3
FD_H1 = 1e-4


@dataclass(frozen=True)
class SpaceParams:
    """One weighted Bergman space A^p_alpha."""

    alpha: float
    p: float

    def __post_init__(self) -> None:
        check_alpha(self.alpha)
        if not (0 < self.p <= 64):
            raise ValueError(f"p must lie in (0, 64], got {self.p}")


@dataclass(frozen=True)
class HyperParams:
    """Source space A^p_alpha and target space A^q_beta of the dilation."""

    source: SpaceParams
    target: SpaceParams

    @property
    def alpha(self) -> float:
        return self.source.alpha

    @property
    def p(self) -> float:
        return self.source.p

    @property
    def beta(self) -> float:
        return self.target.alpha

    @property
    def q(self) -> float:
        return self.target.p

    @property
    def hypothesis_ok(self) -> bool:
        """True when the parameters satisfy the theorem's hypotheses."""
        return (
            self.p <= self.q and self.q >= 2.0 and self.beta * self.p <= self.alpha * self.q
        )

    @classmethod
    def make(cls, alpha: float, beta: float, p: float, q: float) -> "HyperParams":
        return cls(SpaceParams(alpha, p), SpaceParams(beta, q))


def sharp_radius(hp: HyperParams) -> float:
    """The critical dilation radius sqrt(beta*p/(alpha*q)), capped at 1."""
    return min(1.0, math.sqrt(hp.beta * hp.p / (hp.alpha * hp.q)))


@dataclass(frozen=True)
class HyperCheckResult:
    passed: bool
    lhs: float
    rhs: float
    r: float
    hypothesis_ok: bool
    method: str


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
    hp: HyperParams,
    r: float,
    method: str = "quad",
    nodes: int | None = None,
    angles: int | None = None,
) -> HyperCheckResult:
    """Does ||f(r .)||_{A^q_beta} <= ||f||_{A^p_alpha} hold at this radius?"""
    if not (0.0 <= r <= 1.0):
        raise ValueError(f"r must lie in [0, 1], got {r}")
    lhs = _norm_for(f.dilate(r), hp.beta, hp.q, method, nodes, angles).value
    rhs = _norm_for(f, hp.alpha, hp.p, method, nodes, angles).value
    return HyperCheckResult(
        passed=lhs <= rhs * (1.0 + INEQ_SLACK),
        lhs=lhs,
        rhs=rhs,
        r=float(r),
        hypothesis_ok=hp.hypothesis_ok,
        method=method,
    )


@dataclass(frozen=True)
class ThresholdReport:
    r_star_empirical: float
    r_star_theoretical: float
    bracket_width: float
    r_star_raw: float = 0.0
    r_star_half_eps: float = 0.0

    def __post_init__(self) -> None:
        if not (self.bracket_width > 0.0):
            raise ValueError("bracket width must be positive")


def _bisect_threshold(
    hp: HyperParams, eps: float, tol: float, scan_points: int = 21
) -> tuple[float, float]:
    """Largest passing radius for the test family 1 + eps*z, with bracket width."""
    f = ComplexPolynomial.from_coeffs([1.0, eps])
    rhs = bergman_norm(f, hp.alpha, hp.p).value * (1.0 + INEQ_SLACK)

    def passes(r: float) -> bool:
        return bergman_norm(f.dilate(r), hp.beta, hp.q).value <= rhs

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
    hp: HyperParams, eps: float = 1e-2, tol: float = 1e-4, refine: bool = True
) -> ThresholdReport:
    """Empirical crossover radius of the dilation inequality.

    The test family is f = 1 + eps*z, whose crossover approaches the critical
    radius quadratically in eps; with refine=True the search is repeated at
    eps/2 and Richardson-extrapolated in eps^2.
    """
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    r_raw, width = _bisect_threshold(hp, eps, tol)
    r_half, width_half = r_raw, width
    estimate = r_raw
    if refine:
        r_half, width_half = _bisect_threshold(hp, eps / 2.0, tol)
        estimate = r_half + (r_half - r_raw) / 3.0
    return ThresholdReport(
        r_star_empirical=float(min(estimate, 1.0)),
        r_star_theoretical=sharp_radius(hp),
        bracket_width=float(max(width, width_half)),
        r_star_raw=float(r_raw),
        r_star_half_eps=float(r_half),
    )


@dataclass(frozen=True)
class ExpansionReport:
    alpha: float
    p: float
    eps_grid: tuple[float, ...]
    residuals: tuple[float, ...]
    max_normalized_residual: float
    decay_ok: bool


def necessity_expansion_check(
    alpha: float, p: float, eps_grid=(4e-2, 2e-2, 1e-2)
) -> ExpansionReport:
    """Residual of ||1 + eps z||_{A^p_alpha} = 1 + p/(4 alpha) eps^2 + O(eps^3).

    Checks cubic-or-better decay: R(eps') <= R(eps) * (eps'/eps)^3 * 4/3 for
    consecutive grid points.  Norms use the exact route when p admits one.
    """
    check_alpha(alpha)
    eps_desc = tuple(sorted((float(e) for e in eps_grid), reverse=True))
    use_exact = p == int(p) and int(p) % 2 == 0
    residuals = []
    for e in eps_desc:
        f = ComplexPolynomial.from_coeffs([1.0, e])
        method = "exact" if use_exact else "quad"
        value = _norm_for(f, alpha, p, method).value
        residuals.append(abs(value - 1.0 - p * e * e / (4.0 * alpha)))
    decay_ok = True
    for (e1, r1), (e2, r2) in zip(
        zip(eps_desc, residuals), zip(eps_desc[1:], residuals[1:])
    ):
        if r2 > r1 * (e2 / e1) ** 3 * (4.0 / 3.0) + 1e-15:
            decay_ok = False
    max_norm = max(r / e ** 3 for e, r in zip(eps_desc, residuals))
    return ExpansionReport(
        alpha=float(alpha),
        p=float(p),
        eps_grid=eps_desc,
        residuals=tuple(residuals),
        max_normalized_residual=float(max_norm),
        decay_ok=decay_ok,
    )


@dataclass(frozen=True)
class KulikovResult:
    passed: bool
    lhs: float
    rhs: float
    beta_prime: float


def kulikov_check(
    f: ComplexPolynomial, alpha: float, p: float, q: float
) -> KulikovResult:
    """Undilated embedding ||f||_{A^q_{q alpha / p}} <= ||f||_{A^p_alpha}."""
    if q < p:
        raise ValueError("requires q >= p")
    beta_prime = q * alpha / p
    lhs = bergman_norm(f, beta_prime, q).value
    rhs = bergman_norm(f, alpha, p).value
    return KulikovResult(
        passed=lhs <= rhs * (1.0 + INEQ_SLACK),
        lhs=lhs,
        rhs=rhs,
        beta_prime=beta_prime,
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
    passed: bool
    min_phi2: float
    argmin_y: float


def phi_convexity_check(
    f: ComplexPolynomial, q: float, y_grid, noise_floor: float = 1e-7
) -> ConvexityResult:
    """Convexity of the profile in y for q >= 2 up to the FD noise floor."""
    if q < 2.0:
        raise ValueError("convexity requires q >= 2")
    prof = phi_profile(f, q, y_grid)
    values = np.asarray(prof.phi2)
    k = int(np.argmin(values))
    return ConvexityResult(
        passed=bool(values[k] >= -noise_floor),
        min_phi2=float(values[k]),
        argmin_y=float(prof.y_grid[k]),
    )


@dataclass(frozen=True)
class IbpResult:
    passed: bool
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
    tol: float = 1e-7,
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
        passed=rel <= tol,
        max_rel_discrepancy=float(rel),
        lhs_dilated=lhs_dilated,
        rhs_dilated=rhs_dilated,
        lhs_plain=lhs_plain,
        rhs_plain=rhs_plain,
    )


@dataclass(frozen=True)
class MajorantResult:
    passed: bool
    min_margin: float


def convexity_majorant_check(
    beta: float, beta_prime: float, y_grid
) -> MajorantResult:
    """Tangent-line bound (1-y)^(beta'/beta) >= 1 - y*beta'/beta on [0, beta/beta']."""
    check_alpha(beta)
    if beta_prime < beta:
        raise ValueError("requires beta_prime >= beta")
    ys = np.asarray(y_grid, dtype=float)
    if np.any(ys < 0.0) or np.any(ys > beta / beta_prime + 1e-15):
        raise ValueError("grid must lie in [0, beta/beta_prime]")
    margin = (1.0 - ys) ** (beta_prime / beta) - (1.0 - ys * beta_prime / beta)
    worst = float(margin.min())
    return MajorantResult(passed=worst >= -1e-12, min_margin=worst)


# ------------------------------------------------------------ degree bounds


@dataclass(frozen=True)
class NikolskiiResult:
    passed: bool
    ratio: float
    bound: float
    degree: int
    hypothesis_ok: bool


def nikolskii_check(
    P: ComplexPolynomial,
    alpha: float,
    beta: float,
    p: float,
    q: float,
    nodes: int | None = None,
    angles: int | None = None,
) -> NikolskiiResult:
    """Degree-growth bound ||P||_{A^q_beta} <= C^m ||P||_{A^p_alpha}.

    C = sqrt(alpha q / (beta p)) and m is the total degree of P.
    """
    if P.is_zero:
        raise ValueError("the zero polynomial has no norm ratio")
    hp = HyperParams.make(alpha, beta, p, q)
    m = P.degree
    bound = math.sqrt(alpha * q / (beta * p)) ** m
    num = bergman_norm(P, beta, q, nodes=nodes, angles=angles).value
    den = bergman_norm(P, alpha, p, nodes=nodes, angles=angles).value
    ratio = num / den
    return NikolskiiResult(
        passed=ratio <= bound * (1.0 + NIKOLSKII_SLACK),
        ratio=ratio,
        bound=bound,
        degree=m,
        hypothesis_ok=hp.hypothesis_ok,
    )


@dataclass(frozen=True)
class WeisslerResult:
    passed: bool
    lhs: float
    rhs: float
    r: float
    sharp_r: float


def weissler_threshold_check(
    f: ComplexPolynomial, p: float, q: float, r: float, angles: int | None = None
) -> WeisslerResult:
    """Hardy-space dilation check; contraction holds exactly for r^2 <= p/q."""
    if not (0.0 <= r <= 1.0):
        raise ValueError(f"r must lie in [0, 1], got {r}")
    lhs = hardy_norm(f.dilate(r), q, angles=angles).value
    rhs = hardy_norm(f, p, angles=angles).value
    return WeisslerResult(
        passed=lhs <= rhs * (1.0 + INEQ_SLACK),
        lhs=lhs,
        rhs=rhs,
        r=float(r),
        sharp_r=math.sqrt(min(p / q, 1.0)),
    )
