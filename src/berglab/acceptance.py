"""The acceptance suite: seven self-contained criteria behind `verify-suite`.

Each criterion is one table: a function of the seed whose entries are
(check, inputs, label) or (check, inputs, label, fields).  One loop turns
each entry into a row: that `checks.py` check built on the inputs, under
the criterion's id with the label as its params, and with the fields the
criterion sets itself (a callable gets the check's value of that field).
So every row takes its status from the registry; a criterion passes when
every in-hypothesis row passes.  The suite prints one [PASS]/[FAIL] line
per criterion, writes the combined machine CSV, and exits nonzero on any
failure.  Everything is a pure function of the seed, so two runs with the
same seed produce byte-identical CSV files.

The rows of the selected criteria run concurrently, row by row, on one
thread per available core (inline on one core), with every loaded
OpenBLAS pinned to one thread meanwhile.  They are handed over last entry
first (see `verify_suite`).  A criterion's rows come back in table order,
criteria in criterion order, and the Monte Carlo samples are
counter-based, so the lines and the CSV are the same on any number of
cores.  A criterion's time is the sum of its row times, which overlap
other rows; the closing line gives the suite's wall time.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from .checks import CHECKS, IBP_TOL, format_params, space_inputs
from .corpus import random_polynomials
from .inequalities import sharp_radius
from .norms import bergman_norm  # noqa: F401  perfbench's tracer tests patch it here
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


# ------------------------------------------------------------- criterion 1


def c1_oracle_agreement(seed: int, nodes_override: int | None = None):
    """Quadrature norms against the exact coefficient oracles."""
    combos = [(a, p) for a in (1.3, 2.0, 4.0) for p in (2.0, 4.0, 6.0)]
    cases = [
        ("univ", random_polynomials(100, 1, 12, seed)),
        ("bivar", random_polynomials(20, 2, 6, seed)),
    ]
    entries = []
    for tag, polys in cases:
        for i, P in enumerate(polys):
            alpha, p = combos[i % len(combos)]
            inputs = dict(poly=P, alpha=alpha, p=p, nodes=nodes_override)
            label = dict(case=f"{tag}-{i:03d}", alpha=alpha, p=p)
            entries.append(("oracle", inputs, label))
    return entries


# ------------------------------------------------------------- criterion 2


def c2_sharp_radius(seed: int):
    """Contraction at the critical radius on the 50-polynomial grid."""
    polys = random_polynomials(50, 1, 8, seed)
    spaces = [dict(**space_inputs(tup), r=sharp_radius(*tup)) for tup in PARAM_GRID]
    return [
        ("hyper", dict(**space, poly=f), dict(**space, case=i))
        for space in spaces
        for i, f in enumerate(polys)
    ]


# ------------------------------------------------------------- criterion 3


def c3_threshold_recovery(seed: int):
    """Empirical crossover of the 1 + eps*z family against the formula.

    The fourth tuple pins the radius sqrt(3/8) = 0.61237... to the parameters
    that produce it under the critical-radius formula.
    """
    cases = (
        (2.0, 3.0, 2.0, 4.0),
        (2.0, 2.0, 2.0, 4.0),
        (1.5, 2.0, 2.0, 3.0),
        (2.0, 1.5, 2.0, 4.0),
    )
    inputs = [dict(**space_inputs(tup), eps=1e-2) for tup in cases]
    return [("threshold", given, given) for given in inputs]


# ------------------------------------------------------------- criterion 4


def c4_necessity_expansion(seed: int):
    """Quadratic-coefficient expansion: cubic residual decay, closed form at (2,2)."""
    spaces = ((2.0, 2.0), (2.0, 4.0), (3.0, 2.5))
    decay = [dict(alpha=a, p=p, kind="decay") for a, p in spaces]
    eps_grid = (4e-2, 2e-2, 1e-2)
    closed = [dict(alpha=2.0, p=2.0, kind="closed-form", eps=e) for e in eps_grid]
    return [("expansion", given, given) for given in decay + closed]


# ------------------------------------------------------------- criterion 5


def c5_profile_machinery(seed: int):
    """Profile convexity, the double integration-by-parts identity, majorant."""
    y_grid = np.linspace(0.05, 0.9, 35)
    entries = [
        (
            "convexity",
            dict(poly=f, q=q, y_grid=y_grid),
            dict(check="convexity", case=f"{i:02d}", q=q),
        )
        for i, f in enumerate(random_polynomials(20, 1, 6, seed))
        for q in (2.0, 3.0, 4.0)
    ]
    z = ComplexPolynomial.variable()
    one = ComplexPolynomial.constant(1.0)
    named = (("z", z), ("1+z", one + z), ("1+z+z2", one + z + z * z))
    pairs = ((2.0, 4.0), (3.0, 6.0))
    for name, f in named:
        for beta, beta_prime in pairs:
            for q in (2.0, 4.0):
                inputs = dict(
                    poly=f, q=q, beta=beta, beta_prime=beta_prime, tol=IBP_TOL
                )
                label = dict(check="ibp", f=name, beta=beta, beta_prime=beta_prime)
                entries.append(("ibp", inputs, dict(**label, q=q), {"note": ""}))
    for beta, beta_prime in pairs:
        label = dict(check="majorant", beta=beta, beta_prime=beta_prime)
        inputs = dict(beta=beta, beta_prime=beta_prime)
        grid = np.linspace(0.0, beta / beta_prime, 101)
        entries.append(("majorant", dict(**inputs, y_grid=grid), label))
    return entries


# ------------------------------------------------------------- criterion 6


def c6_nikolskii_isometry(seed: int):
    """Degree-growth bound on the parameter grid, then the homogenization
    isometry: the mixed norm of the homogenized polynomial."""
    corpora = [
        ("univ", random_polynomials(25, 1, 5, seed)),
        ("bivar", random_polynomials(25, 2, 5, seed)),
    ]
    entries = [
        (
            "nikolskii",
            dict(**space_inputs(tup), poly=P),
            dict(**space_inputs(tup), check="nikolskii", case=f"{tag}-{i:02d}"),
        )
        for tup in PARAM_GRID
        for tag, polys in corpora
        for i, P in enumerate(polys)
    ]
    zero_free = random_polynomials(10, 1, 5, seed, "zero-free") + random_polynomials(
        10, 2, 5, seed, "zero-free"
    )
    p_cycle = (2.0, 3.5, 4.0)
    for i, P in enumerate(zero_free):
        space = dict(alpha=2.0, p=p_cycle[i % 3])
        label = dict(check="isometry", case=f"{i:02d}", **space)
        entries.append(("isometry", dict(poly=P, **space), label))
    return entries


# ------------------------------------------------------------- criterion 7


def c7_sharpness_asymptotics(seed: int):
    """Gaussian-limit ratio, gamma-ratio trend, and the Stirling sandwich."""
    # the p side is exact and |f|^2 the control variate: 1-sigma about 1.5e-3
    samples = 40_000
    spec = dict(m=1, n=64, alpha=2.0, beta=2.0, p=2.0, q=4.0)
    # m_max = 200 runs the ratio over m = 10, 50, 100, 200
    trend = dict(p=2.0, q=4.0, m_max=200)
    return [
        (
            "extremal",
            dict(**spec, samples=samples, seed=seed),
            dict(check="extremal-ratio", **spec),
            {"note": lambda note: f"{note};samples={samples}"},
        ),
        ("gamma-ratio", trend, dict(check="gamma-ratio", **trend)),
        # the default grid 0.1, 0.5, 1, 2, 5, 10, 50, 100, 400
        ("stirling", {}, dict(check="stirling", grid="0.1..400")),
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


# Each criterion: its id, the aliases that let --filter select it by the
# name of any check it contains (e.g. "stirling" picks the asymptotics
# criterion), and its table, whose rows in this order are its rows.
_CRITERIA = (
    ("c1-oracle-agreement", ("norm", "quadrature"), c1_oracle_agreement),
    ("c2-sharp-radius-contraction", ("hyper", "dilation"), c2_sharp_radius),
    ("c3-threshold-recovery", ("bisection",), c3_threshold_recovery),
    ("c4-necessity-expansion", ("residual",), c4_necessity_expansion),
    (
        "c5-profile-machinery",
        ("phi", "ibp", "convexity", "majorant"),
        c5_profile_machinery,
    ),
    ("c6-nikolskii-isometry", ("homogenization", "degree"), c6_nikolskii_isometry),
    (
        "c7-sharpness-asymptotics",
        ("extremal", "stirling", "gamma-ratio"),
        c7_sharpness_asymptotics,
    ),
)

CRITERION_IDS = tuple(cid for cid, *_ in _CRITERIA)


def _matches(filter_text: str | None, cid: str, aliases) -> bool:
    if not filter_text:
        return True
    needle = filter_text.lower()
    return needle in cid or any(needle in a for a in aliases)


def _tasks(cid: str, table, seed: int, nodes_override: int | None) -> list:
    """(criterion id, entry) for each entry of a criterion's table."""
    # the node override reaches c1's oracle entries only
    args = (seed, nodes_override) if table is c1_oracle_agreement else (seed,)
    return [(cid, entry) for entry in table(*args)]


def _timed_row(task) -> tuple:
    """The row of a task's entry, and the seconds it took."""
    t0 = time.perf_counter()
    cid, (name, inputs, label, *fields) = task
    check = CHECKS[name]
    values = check.build(**check.filled(inputs))
    for key, value in (fields[0] if fields else {}).items():
        values[key] = value(values[key]) if callable(value) else value
    row = ReportRow(cid, format_params(**label), **values)
    return row, time.perf_counter() - t0


def _result(cid: str, timed) -> CriterionResult:
    """A criterion's result from its timed rows, in table order."""
    rows = tuple(row for row, _ in timed)
    passed = VerificationReport(list(rows)).aggregate_pass
    return CriterionResult(cid, passed, sum(seconds for _, seconds in timed), rows)


def run_criterion(
    criterion_id: str, seed: int = 1729, nodes_override: int | None = None
) -> CriterionResult:
    """Run one criterion's rows inline, in table order."""
    for cid, _, table in _CRITERIA:
        if cid == criterion_id:
            tasks = _tasks(cid, table, seed, nodes_override)
            return _result(cid, [_timed_row(task) for task in tasks])
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
    selected = {
        cid: table
        for cid, aliases, table in _CRITERIA
        if _matches(filter_text, cid, aliases)
    }
    if not selected:
        raise ValueError(f"filter {filter_text!r} matches no criterion")
    if nodes_override is not None and CRITERION_IDS[0] not in selected:
        raise ValueError(
            f"nodes_override reaches only {CRITERION_IDS[0]}, "
            f"which filter {filter_text!r} does not select"
        )
    tasks = [
        task
        for cid, table in selected.items()
        for task in _tasks(cid, table, seed, nodes_override)
    ]
    workers = min(len(os.sched_getaffinity(0)), len(tasks))
    t0 = time.perf_counter()
    # Handed over last entry first, so the long c6 and c7 rows start first:
    # on 2 cores, suites back to back in one process (perfbench `suite`, 3
    # runs each) take 0.47-0.50 s and peak at 88.2-88.3 MB this way, and
    # 0.74-0.77 s and 104.9-105.4 MB first entry first.
    timed = map_on_pool(_timed_row, tasks[::-1], workers)[::-1]
    wall = time.perf_counter() - t0
    by_criterion = {cid: [] for cid in selected}
    for (cid, _), done in zip(tasks, timed):
        by_criterion[cid].append(done)
    results = [_result(cid, rows) for cid, rows in by_criterion.items()]
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
        emit(f"all {len(results)} criteria pass {timing}")
    if csv_path and not quiet:
        emit(f"report written to {csv_path}")
    return 1 if failures else 0
