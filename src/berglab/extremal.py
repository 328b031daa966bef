"""Sharpness machinery: normalized coordinate sums and their moment limits.

The family p_n = (z_1 + ... + z_n) / sqrt(n) has exact_norm_p2(p_n, alpha)
= 1/sqrt(alpha).  As n grows, its distribution under the product disk
measure tends to a complex Gaussian, so the A^p norms of powers tend to
Gaussian absolute moments: ||p_n^m||_{A^p_alpha} tends to
(1/sqrt(alpha))^m * Gamma(mp/2 + 1)^(1/p).  Ratios of such norms therefore
approach the degree-growth constant, which is how sharpness is exhibited
numerically.  Everything here is either a log-gamma evaluation or a Monte
Carlo estimate with a delta-method error bar.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import McSampler, stream_for
from .norms import bergman_norm_mc
from .poly import ComplexPolynomial

__all__ = [
    "ExtremalSpec",
    "ExtremalRatioReport",
    "SharpnessReport",
    "extremal_poly",
    "extremal_evaluator",
    "gaussian_moment",
    "extremal_ratio",
    "stirling_bounds_check",
    "gamma_ratio_limit_check",
    "sharpness_exhibit",
]

# Expansion of (sum z_i)^m is combinatorial in n; beyond this cap only the
# evaluation closure is available.
EXPANSION_NVARS_CAP = 16


@dataclass(frozen=True)
class ExtremalSpec:
    """Parameters of the family ((z_1 + ... + z_n) / sqrt(n))^m."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("need n >= 1 and m >= 1")

    @property
    def scale(self) -> float:
        return math.sqrt(1.0 / self.n)


def extremal_poly(spec: ExtremalSpec) -> ComplexPolynomial:
    """Expanded multinomial form; refuses n beyond the expansion cap."""
    if spec.n > EXPANSION_NVARS_CAP:
        raise ValueError(
            f"expansion capped at n <= {EXPANSION_NVARS_CAP}; "
            "use extremal_evaluator for Monte Carlo"
        )
    base = ComplexPolynomial.from_terms(
        spec.n,
        {
            tuple(1 if j == i else 0 for j in range(spec.n)): spec.scale
            for i in range(spec.n)
        },
    )
    return base ** spec.m


def extremal_evaluator(spec: ExtremalSpec):
    """Closure computing (sum z_i / sqrt(n))^m on (N, n) sample arrays."""

    def family(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=complex)
        if pts.ndim != 2 or pts.shape[1] != spec.n:
            raise ValueError(f"points must have shape (N, {spec.n})")
        return (spec.scale * pts.sum(axis=1)) ** spec.m

    return family


def gaussian_moment(m: int, p: float) -> float:
    """Gamma(m p / 2 + 1)^(1/p): the limiting norm of the unit-variance family."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if p <= 0:
        raise ValueError("p must be positive")
    return math.exp(math.lgamma(0.5 * m * p + 1.0) / p)


@dataclass(frozen=True)
class ExtremalRatioReport:
    ratio: float
    ci: float
    target: float


def extremal_ratio(
    spec: ExtremalSpec,
    alpha: float,
    beta: float,
    p: float,
    q: float,
    n_samples: int = 200_000,
    seed: int = 0,
) -> ExtremalRatioReport:
    """Monte Carlo estimate of ||f^m||_{A^q_beta} / ||f^m||_{A^p_alpha}.

    The limiting value is (alpha/beta)^(m/2) * gaussian_moment(m,q) /
    gaussian_moment(m,p).  The two norms use different sampling laws, hence
    independent labeled streams; ci is the 1-sigma delta-method error of the
    ratio.
    """
    evaluate = extremal_evaluator(spec)
    num_sampler = McSampler(beta, spec.n, seed, stream_for("extremal-q"))
    den_sampler = McSampler(alpha, spec.n, seed, stream_for("extremal-p"))
    num = bergman_norm_mc(evaluate, q, num_sampler, n_samples)
    den = bergman_norm_mc(evaluate, p, den_sampler, n_samples)
    ratio = num.value / den.value
    rel = math.hypot(num.est_error / num.value, den.est_error / den.value)
    target = (alpha / beta) ** (0.5 * spec.m) * gaussian_moment(
        spec.m, q
    ) / gaussian_moment(spec.m, p)
    return ExtremalRatioReport(ratio=ratio, ci=ratio * rel, target=target)


@dataclass(frozen=True)
class StirlingReport:
    lower_margins: tuple[float, ...]
    upper_margins: tuple[float, ...]


def stirling_bounds_check(x_grid) -> StirlingReport:
    """Log-domain margins of the Stirling sandwich around lgamma(x+1).

    At each grid point the lower margin is lgamma(x+1) minus
    ln(sqrt(2 pi) x^(x+1/2) e^(-x)), and the upper margin is that bound plus
    1/(12x) minus lgamma(x+1); the sandwich holds where both are positive.
    """
    xs = tuple(float(x) for x in x_grid)
    if any(x <= 0.0 for x in xs):
        raise ValueError("grid points must be positive")
    lowers = []
    uppers = []
    for x in xs:
        base = 0.5 * math.log(2.0 * math.pi) + (x + 0.5) * math.log(x) - x
        lg = math.lgamma(x + 1.0)
        lowers.append(lg - base)
        uppers.append(base + 1.0 / (12.0 * x) - lg)
    return StirlingReport(
        lower_margins=tuple(lowers),
        upper_margins=tuple(uppers),
    )


@dataclass(frozen=True)
class GammaRatioReport:
    limit: float
    values: tuple[float, ...]
    rel_errors: tuple[float, ...]


def gamma_ratio_limit_check(p: float, q: float, m_grid) -> GammaRatioReport:
    """Gamma(qm/2+1)^(1/qm) / Gamma(pm/2+1)^(1/pm) on a grid in m, with its
    relative error against the limit sqrt(q/p)."""
    if p <= 0 or q < p:
        raise ValueError("requires 0 < p <= q")
    ms = tuple(int(m) for m in m_grid)
    if len(ms) < 2 or any(b <= a for a, b in zip(ms, ms[1:])):
        raise ValueError("m_grid must be increasing with at least two entries")
    limit = math.sqrt(q / p)
    values = []
    for m in ms:
        log_ratio = math.lgamma(0.5 * q * m + 1.0) / (q * m) - math.lgamma(
            0.5 * p * m + 1.0
        ) / (p * m)
        values.append(math.exp(log_ratio))
    rel = [abs(v - limit) / limit for v in values]
    return GammaRatioReport(
        limit=limit,
        values=tuple(values),
        rel_errors=tuple(rel),
    )


@dataclass(frozen=True)
class SharpnessReport:
    constant: float
    bound: float
    ratio: float
    ci: float
    attainment: float
    limit_attainment: float
    per_degree_attainment: float
    limit_per_degree: float
    m: int
    n: int


def sharpness_exhibit(
    alpha: float,
    beta: float,
    p: float,
    q: float,
    m: int,
    n: int = 64,
    n_samples: int = 200_000,
    seed: int = 0,
) -> SharpnessReport:
    """How much of the degree-growth bound C^m the family attains at (m, n).

    attainment = (measured norm ratio) / C^m with C = sqrt(alpha q/(beta p));
    limit_attainment is the same quantity with the measured ratio replaced by
    its n -> infinity Gaussian limit.  Because the Gaussian moments carry
    polynomial-in-m prefactors, attainment itself decreases in m; what grows
    to 1 (and certifies that no smaller base constant works) is the
    per-degree reading attainment^(1/m), reported alongside.
    """
    rep = extremal_ratio(
        ExtremalSpec(n, m), alpha, beta, p, q, n_samples=n_samples, seed=seed
    )
    constant = math.sqrt(alpha * q / (beta * p))
    bound = constant ** m
    attainment = rep.ratio / bound
    limit_attainment = rep.target / bound
    return SharpnessReport(
        constant=constant,
        bound=bound,
        ratio=rep.ratio,
        ci=rep.ci,
        attainment=attainment,
        limit_attainment=limit_attainment,
        per_degree_attainment=attainment ** (1.0 / m),
        limit_per_degree=limit_attainment ** (1.0 / m),
        m=int(m),
        n=int(n),
    )
