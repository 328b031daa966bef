"""The acceptance suite: seven self-contained criteria behind `verify-suite`.

Each criterion runner returns ReportRows; a criterion passes when every
in-hypothesis row passes.  Every row takes its status from `checks.py`:
rows of a check in the registry take their verdict from it and keep the
criterion's own id and params, value-against-target rows use its
agreement rule, and the c4 decay and c5 convexity and majorant rows its
rules for those library checks.
The suite prints one [PASS]/[FAIL] line per criterion, writes the
combined machine CSV, and exits nonzero on any failure.  Everything is a
pure function of the seed, so two runs with the same seed produce
byte-identical CSV files.

The criteria run concurrently, one thread per available core (at most
one per criterion, inline on one core), with every loaded OpenBLAS pinned
to one thread meanwhile.  The two slow criteria start first; results are
collected in criterion order and the Monte Carlo samples are
counter-based, so the lines and the CSV are the same on any number of
cores.  A criterion's time is its own wall time, which overlaps the
others'; the closing line gives the suite's.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .checks import (
    CHECKS,
    CONVEXITY_FLOOR,
    agreement_row,
    convex,
    cubic_decay,
    format_params,
    majorant_holds,
    profile_method,
    space_inputs,
    status,
)
from .corpus import random_polynomials
from .inequalities import (
    convexity_majorant_check,
    necessity_expansion_check,
    phi_convexity_check,
    sharp_radius,
)
from .norms import bergman_norm, exact_norm_even_p, mixed_norm
from .poly import ComplexPolynomial
from .report import ReportRow, VerificationReport
from .sweep import map_on_pool

__all__ = ["CriterionResult", "CRITERION_IDS", "run_criterion", "verify_suite"]

# The contraction / degree-growth parameter grid (alpha, beta, p, q); every
# tuple satisfies p <= q, q >= 2, beta*p <= alpha*q.
PARAM_GRID = (
    (2.0, 2.0, 2.0, 4.0),
    (2.0, 3.0, 2.0, 4.0),
    (1.5, 2.0, 2.0, 3.0),
    (2.0, 4.0, 0.5, 2.0),
)


def _relabel(row: ReportRow, check_id: str, params: dict, **fields) -> ReportRow:
    """A registry row under the criterion's own check_id and params."""
    return replace(row, check_id=check_id, params=format_params(**params), **fields)


# ------------------------------------------------------------- criterion 1


def c1_oracle_agreement(seed: int, nodes_override: int | None = None):
    """Quadrature norms against the exact coefficient oracles, 1e-10 relative."""
    rows = []
    combos = [(a, p) for a in (1.3, 2.0, 4.0) for p in (2.0, 4.0, 6.0)]
    cases = [
        ("univ", random_polynomials(100, 1, 12, seed)),
        ("bivar", random_polynomials(20, 2, 6, seed)),
    ]
    for tag, polys in cases:
        for i, P in enumerate(polys):
            alpha, p = combos[i % len(combos)]
            rows.append(
                agreement_row(
                    "c1-oracle-agreement",
                    format_params(case=f"{tag}-{i:03d}", alpha=alpha, p=p),
                    bergman_norm(P, alpha, p, nodes=nodes_override).value,
                    exact_norm_even_p(P, alpha, p).value,
                    1e-10,
                    "quadrature-vs-exact",
                    note=f"degree={P.degree}",
                )
            )
    return rows


# ------------------------------------------------------------- criterion 2


def c2_sharp_radius(seed: int, nodes_override: int | None = None):
    """Contraction at the critical radius on the 50-polynomial grid."""
    cid = "c2-sharp-radius-contraction"
    rows = []
    polys = random_polynomials(50, 1, 8, seed)
    for tup in PARAM_GRID:
        r0 = sharp_radius(*tup)
        for i, f in enumerate(polys):
            row = CHECKS["hyper"].run(**space_inputs(tup), poly=f, r=r0)
            params = dict(**space_inputs(tup), r=r0, case=i)
            rows.append(_relabel(row, cid, params, method="quadrature"))
    return rows


# ------------------------------------------------------------- criterion 3


def c3_threshold_recovery(seed: int, nodes_override: int | None = None):
    """Empirical crossover of the 1 + eps*z family against the formula.

    The fourth tuple pins the radius sqrt(3/8) = 0.61237... to the parameters
    that produce it under the critical-radius formula.
    """
    rows = []
    cases = (
        (2.0, 3.0, 2.0, 4.0),
        (2.0, 2.0, 2.0, 4.0),
        (1.5, 2.0, 2.0, 3.0),
        (2.0, 1.5, 2.0, 4.0),
    )
    for tup in cases:
        inputs = dict(**space_inputs(tup), eps=1e-2)
        row = CHECKS["threshold"].run(**inputs)
        rows.append(_relabel(row, "c3-threshold-recovery", inputs))
    return rows


# ------------------------------------------------------------- criterion 4


def c4_necessity_expansion(seed: int, nodes_override: int | None = None):
    """Quadratic-coefficient expansion: cubic residual decay, closed form at (2,2)."""
    rows = []
    eps_grid = (4e-2, 2e-2, 1e-2)
    for alpha, p in ((2.0, 2.0), (2.0, 4.0), (3.0, 2.5)):
        rep = necessity_expansion_check(alpha, p, eps_grid)
        rows.append(
            ReportRow(
                check_id="c4-necessity-expansion",
                params=format_params(alpha=alpha, p=p, kind="decay"),
                computed=rep.max_normalized_residual,
                target=0.0,
                status=status(cubic_decay(rep.eps_grid, rep.residuals)),
                method=rep.method,
                est_error=0.0,
                note="residual/eps^3 at worst grid point",
            )
        )
        if (alpha, p) == (2.0, 2.0):
            rows.extend(
                agreement_row(
                    "c4-necessity-expansion",
                    format_params(alpha=alpha, p=p, kind="closed-form", eps=e),
                    r,
                    e ** 4 / 32.0,
                    0.10,
                    "exact",
                )
                for e, r in zip(rep.eps_grid, rep.residuals)
            )
    return rows


# ------------------------------------------------------------- criterion 5


def c5_profile_machinery(seed: int, nodes_override: int | None = None):
    """Profile convexity, the double integration-by-parts identity, majorant."""
    rows = []
    y_grid = np.linspace(0.05, 0.9, 35)
    for i, f in enumerate(random_polynomials(20, 1, 6, seed)):
        for q in (2.0, 3.0, 4.0):
            min_phi2, argmin_y = phi_convexity_check(f, q, y_grid)
            rows.append(
                ReportRow(
                    check_id="c5-profile-machinery",
                    params=format_params(check="convexity", case=f"{i:02d}", q=q),
                    computed=min_phi2,
                    target=-CONVEXITY_FLOOR,
                    status=status(convex(min_phi2)),
                    method=profile_method(q),
                    est_error=0.0,
                    note=format_params(argmin_y=argmin_y),
                )
            )
    z = ComplexPolynomial.variable()
    one = ComplexPolynomial.constant(1.0)
    named = (("z", z), ("1+z", one + z), ("1+z+z2", one + z + z * z))
    for name, f in named:
        for beta, beta_prime in ((2.0, 4.0), (3.0, 6.0)):
            for q in (2.0, 4.0):
                row = CHECKS["ibp"].run(poly=f, q=q, beta=beta, beta_prime=beta_prime)
                params = dict(
                    check="ibp", f=name, beta=beta, beta_prime=beta_prime, q=q
                )
                rows.append(_relabel(row, "c5-profile-machinery", params, note=""))
    for beta, beta_prime in ((2.0, 4.0), (3.0, 6.0)):
        grid = np.linspace(0.0, beta / beta_prime, 101)
        margin = convexity_majorant_check(beta, beta_prime, grid)
        rows.append(
            ReportRow(
                check_id="c5-profile-machinery",
                params=format_params(
                    check="majorant", beta=beta, beta_prime=beta_prime
                ),
                computed=margin,
                target=0.0,
                status=status(majorant_holds(margin)),
                method="grid",
                est_error=0.0,
            )
        )
    return rows


# ------------------------------------------------------------- criterion 6


def c6_nikolskii_isometry(seed: int, nodes_override: int | None = None):
    """Degree-growth bound on the grid plus the homogenization isometry."""
    rows = []
    corpora = [
        ("univ", random_polynomials(25, 1, 5, seed)),
        ("bivar", random_polynomials(25, 2, 5, seed)),
    ]
    for tup in PARAM_GRID:
        for tag, polys in corpora:
            for i, P in enumerate(polys):
                row = CHECKS["nikolskii"].run(**space_inputs(tup), poly=P)
                params = dict(
                    **space_inputs(tup), check="nikolskii", case=f"{tag}-{i:02d}"
                )
                rows.append(_relabel(row, "c6-nikolskii-isometry", params))
    zero_free = random_polynomials(10, 1, 5, seed, "zero-free") + random_polynomials(
        10, 2, 5, seed, "zero-free"
    )
    p_cycle = (2.0, 3.5, 4.0)
    alpha = 2.0
    for i, P in enumerate(zero_free):
        p = p_cycle[i % 3]
        rows.append(
            agreement_row(
                "c6-nikolskii-isometry",
                format_params(check="isometry", case=f"{i:02d}", alpha=alpha, p=p),
                mixed_norm(P.homogenize(P.degree), alpha, p).value,
                bergman_norm(P, alpha, p).value,
                1e-8,
                "mixed-vs-quadrature",
                note=format_params(degree=P.degree, nvars=P.nvars),
            )
        )
    return rows


# ------------------------------------------------------------- criterion 7


def c7_sharpness_asymptotics(seed: int, nodes_override: int | None = None):
    """Gaussian-limit ratio, gamma-ratio trend, and the Stirling sandwich."""
    cid = "c7-sharpness-asymptotics"
    samples = 200_000
    spec = dict(m=1, n=64, alpha=2.0, beta=2.0, p=2.0, q=4.0)
    extremal = CHECKS["extremal"].run(**spec, samples=samples, seed=seed)
    # m_max = 200 runs the ratio over m = 10, 50, 100, 200
    trend = dict(p=2.0, q=4.0, m_max=200)
    gamma = CHECKS["gamma-ratio"].run(**trend)
    # the default grid 0.1, 0.5, 1, 2, 5, 10, 50, 100, 400
    stirling = CHECKS["stirling"].run()
    return [
        _relabel(
            extremal,
            cid,
            dict(check="extremal-ratio", **spec),
            note=f"{extremal.note};samples={samples}",
        ),
        _relabel(gamma, cid, dict(check="gamma-ratio", **trend)),
        _relabel(stirling, cid, dict(check="stirling", grid="0.1..400")),
    ]


# ----------------------------------------------------------------- harness


@dataclass(frozen=True)
class CriterionResult:
    criterion_id: str
    passed: bool
    runtime_s: float
    rows: tuple

    @property
    def detail(self) -> str:
        n_pass = sum(1 for r in self.rows if r.status == "pass")
        n_excl = sum(1 for r in self.rows if r.status == "out-of-hypothesis")
        body = f"{n_pass}/{len(self.rows) - n_excl} rows pass"
        if n_excl:
            body += f", {n_excl} out-of-hypothesis"
        return body


# Aliases let --filter select a criterion by the name of any check it
# contains (e.g. "stirling" picks the asymptotics criterion).
_RUNNERS = (
    ("c1-oracle-agreement", ("norm", "quadrature"), c1_oracle_agreement),
    ("c2-sharp-radius-contraction", ("hyper", "dilation"), c2_sharp_radius),
    ("c3-threshold-recovery", ("bisection",), c3_threshold_recovery),
    ("c4-necessity-expansion", ("residual",), c4_necessity_expansion),
    ("c5-profile-machinery", ("phi", "ibp", "convexity", "majorant"), c5_profile_machinery),
    ("c6-nikolskii-isometry", ("homogenization", "degree"), c6_nikolskii_isometry),
    (
        "c7-sharpness-asymptotics",
        ("extremal", "stirling", "gamma-ratio"),
        c7_sharpness_asymptotics,
    ),
)

CRITERION_IDS = tuple(cid for cid, _, _ in _RUNNERS)

# Started first: they take seconds, the other five a quarter second together.
_LONGEST = ("c6-nikolskii-isometry", "c7-sharpness-asymptotics")


def _matches(filter_text: str | None, cid: str, aliases) -> bool:
    if not filter_text:
        return True
    needle = filter_text.lower()
    return needle in cid or any(needle in a for a in aliases)


def run_criterion(
    criterion_id: str, seed: int = 1729, nodes_override: int | None = None
) -> CriterionResult:
    for cid, _, fn in _RUNNERS:
        if cid == criterion_id:
            t0 = time.perf_counter()
            rows = fn(seed, nodes_override=nodes_override)
            dt = time.perf_counter() - t0
            passed = VerificationReport(list(rows)).aggregate_pass
            return CriterionResult(cid, passed, dt, tuple(rows))
    raise ValueError(f"unknown criterion {criterion_id!r}")


def verify_suite(
    seed: int = 1729,
    filter_text: str | None = None,
    csv_path: str = "verify_suite.csv",
    nodes_override: int | None = None,
    quiet: bool = False,
    emit=print,
) -> int:
    """Run the acceptance criteria; returns 0 on success, 1 on any failure."""
    selected = [
        cid for cid, aliases, _ in _RUNNERS if _matches(filter_text, cid, aliases)
    ]
    if not selected:
        raise ValueError(f"filter {filter_text!r} matches no criterion")
    workers = min(len(os.sched_getaffinity(0)), len(selected))
    t0 = time.perf_counter()
    results = map_on_pool(
        lambda cid: run_criterion(cid, seed=seed, nodes_override=nodes_override),
        sorted(selected, key=lambda cid: cid not in _LONGEST),
        workers,
    )
    wall = time.perf_counter() - t0
    results.sort(key=lambda result: selected.index(result.criterion_id))
    report = VerificationReport()
    failures = []
    for result in results:
        report.extend(result.rows)
        if not result.passed:
            failures.append(result.criterion_id)
        if not quiet:
            verdict = "PASS" if result.passed else "FAIL"
            emit(
                f"[{verdict}] {result.criterion_id} "
                f"({result.runtime_s:.2f} s): {result.detail}"
            )
    if csv_path:
        report.write_csv(csv_path)
    timing = f"({wall:.2f} s wall, {workers} worker{'s' if workers > 1 else ''})"
    if failures:
        emit(f"FAILED criteria: {', '.join(failures)} {timing}")
    elif not quiet:
        emit(f"all {len(selected)} criteria pass {timing}")
    if csv_path and not quiet:
        emit(f"report written to {csv_path}")
    return 1 if failures else 0
