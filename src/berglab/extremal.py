"""Sharpness machinery: normalized coordinate sums and their moment limits.

The family p_n = (z_1 + ... + z_n) / sqrt(n) has exact_norm_p2(p_n, alpha)
= 1/sqrt(alpha).  As n grows, its distribution under the product disk
measure tends to a complex Gaussian, so the A^p norms of powers tend to
Gaussian absolute moments: ||p_n^m||_{A^p_alpha} tends to
(1/sqrt(alpha))^m * Gamma(mp/2 + 1)^(1/p).  Ratios of such norms therefore
approach the degree-growth constant, which is how sharpness is exhibited
numerically.  At finite n and even p the norms are exact
(``exact_sum_power_norm``); everything else here is a log-gamma evaluation
or a Monte Carlo estimate with a delta-method error bar, whose control
variate |f^m|^2 has that exact mean.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inequalities import _nikolskii_constant
from .measures import McSampler, check_alpha, stream_for
from .norms import NormResult, _check_p, _even_half, _mc_norm

__all__ = [
    "ExtremalSpec",
    "ExtremalRatioReport",
    "SharpnessReport",
    "extremal_evaluator",
    "exact_sum_power_norm",
    "gaussian_moment",
    "extremal_ratio",
    "stirling_bounds_check",
    "gamma_ratio_limit_check",
    "sharpness_exhibit",
]

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


def extremal_evaluator(spec: ExtremalSpec):
    """Closure computing (sum z_i / sqrt(n))^m on (N, n) sample arrays."""

    def family(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=complex)
        if pts.ndim != 2 or pts.shape[1] != spec.n:
            raise ValueError(f"points must have shape (N, {spec.n})")
        return (spec.scale * pts.sum(axis=1)) ** spec.m

    return family


def exact_sum_power_norm(n: int, m: int, alpha: float, p: float) -> float:
    """||f^m||_{A^p_alpha(D^n)} for f = (z_1 + ... + z_n) / sqrt(n), p even.

    With p = 2s and K = m s, |f^m|^p = |S^K|^2 / n^K for S = z_1 + ... + z_n.
    Expanding S^K by the multinomial theorem, the monomials being orthogonal,
    ||f^m||^p = (K!)^2 [x^K] W(x)^n / n^K with W(x) = sum_k w_k x^k and
    w_k = mom_alpha(k) / (k!)^2, mom_alpha(k) = ||z^k||^2_{A^2_alpha}: a
    convolution power of positive terms, so nothing cancels.  It is computed
    scaled, x -> lam x: the terms pi_k = w_k lam^k / W(lam), k <= K, are a
    probability law, and [x^K] W(x)^n = lam^-K W(lam)^n P_K, where P_K is
    the chance that n independent draws from pi sum to K.  lam = (K/n)(alpha
    + K/n) puts the law's mean near K/n, so P_K is not small; the factorials,
    lam^-K and W(lam)^n stay logarithms.  Nothing overflows or underflows
    for p <= 64, hence K <= 32 m, at m = 60 and n = 16384.  The rounding of
    the law's terms is raised to the n-th power, so the relative error grows
    like n eps: 2e-16 at n = 4, a few 1e-13 at n = 16384.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    alpha = check_alpha(alpha)
    s = _even_half(_check_p(p))
    if s is None:
        raise ValueError(f"p must be an even integer, got {p}")
    K = m * s
    lam = K / n * (alpha + K / n)
    # log(w_k lam^k) by the ratios w_k / w_(k-1) = 1 / (k (alpha - 1 + k))
    k = np.arange(1, K + 1)
    ratios = lam / (k * (alpha - 1.0 + k))
    log_terms = np.concatenate(([0.0], np.cumsum(np.log(ratios))))
    top = log_terms.max()
    law = np.exp(log_terms - top)
    total = law.sum()
    law /= total
    # P_K: the n-th convolution power of the law, by squaring, cut at K
    power = np.zeros(K + 1)
    power[0] = 1.0
    base, rest = law, n
    while rest:
        if rest & 1:
            power = np.convolve(power, base)[: K + 1]
        rest >>= 1
        if rest:
            base = np.convolve(base, base)[: K + 1]
    log_norm_p = (
        2.0 * math.lgamma(K + 1.0)
        - K * math.log(lam * n)
        + n * (top + math.log(total))
        + math.log(power[K])
    )
    return math.exp(log_norm_p / p)


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
    """Estimate of ||f^m||_{A^q_beta} / ||f^m||_{A^p_alpha}.

    The limiting value is (alpha/beta)^(m/2) * gaussian_moment(m,q) /
    gaussian_moment(m,p).  At even p the denominator is
    ``exact_sum_power_norm``.  The numerator, and the denominator at other
    p, are Monte Carlo norms over n_samples points, each on its own labeled
    stream because the two sampling laws differ, with |f^m|^2 as control
    variate: its exact mean under dA_w is exact_sum_power_norm(n, m, w,
    2)^2.  ci is the 1-sigma delta-method error of the ratio.
    """
    evaluate = extremal_evaluator(spec)

    def sampled(weight: float, exponent: float, label: str) -> NormResult:
        sampler = McSampler(weight, spec.n, seed, stream_for(label))
        control = exact_sum_power_norm(spec.n, spec.m, weight, 2.0) ** 2
        return _mc_norm(evaluate, exponent, sampler, n_samples, control)

    num = sampled(beta, q, "extremal-q")
    if _even_half(p) is None:
        den = sampled(alpha, p, "extremal-p")
    else:
        exact = exact_sum_power_norm(spec.n, spec.m, alpha, p)
        den = NormResult(exact, "exact-even-p", 0.0)
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
    constant = _nikolskii_constant(alpha, beta, p, q)
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
