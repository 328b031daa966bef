"""Weighted Bergman/Hardy norms of complex polynomials and sharp
dilation / degree-growth inequality checks, with a reproducible
verification harness.
"""
from .poly import ComplexPolynomial, parse_polynomial
from .measures import McSampler, circle_rule, radial_rule, stream_for, unit_uniforms
from .norms import (
    NormResult,
    bergman_norm,
    bergman_norm_mc,
    exact_norm_even_p,
    exact_norm_p2,
    hardy_norm,
    mixed_norm,
    monomial_norm_sq,
)
from .inequalities import (
    convexity_majorant_check,
    ibp_identity_check,
    necessity_expansion_check,
    phi_convexity_check,
    phi_profile,
    sharp_radius,
    threshold_search,
)
from .extremal import (
    ExtremalSpec,
    extremal_poly,
    extremal_ratio,
    gamma_ratio_limit_check,
    gaussian_moment,
    sharpness_exhibit,
    stirling_bounds_check,
)
from .corpus import multi_indices, random_polynomials
from .report import ReportRow, VerificationReport
from .sweep import SweepConfig, load_sweep_config, parse_sweep_config, run_sweep
from .acceptance import run_criterion, verify_suite

__version__ = "0.1.0"

__all__ = [
    "ComplexPolynomial",
    "parse_polynomial",
    "McSampler",
    "circle_rule",
    "radial_rule",
    "stream_for",
    "unit_uniforms",
    "NormResult",
    "bergman_norm",
    "bergman_norm_mc",
    "exact_norm_even_p",
    "exact_norm_p2",
    "hardy_norm",
    "mixed_norm",
    "monomial_norm_sq",
    "sharp_radius",
    "threshold_search",
    "necessity_expansion_check",
    "phi_profile",
    "phi_convexity_check",
    "ibp_identity_check",
    "convexity_majorant_check",
    "ExtremalSpec",
    "extremal_poly",
    "extremal_ratio",
    "gaussian_moment",
    "gamma_ratio_limit_check",
    "stirling_bounds_check",
    "sharpness_exhibit",
    "multi_indices",
    "random_polynomials",
    "ReportRow",
    "VerificationReport",
    "SweepConfig",
    "parse_sweep_config",
    "load_sweep_config",
    "run_sweep",
    "run_criterion",
    "verify_suite",
    "__version__",
]
