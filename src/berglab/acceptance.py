"""The acceptance suite: seven self-contained criteria behind `verify-suite`.

A criterion is made of parts, each a table: a function of the seed whose
entries are (check, inputs, label) or (check, inputs, label, fields).  One
loop turns each entry into a row: the run of that `checks.py` check on the
inputs, under the criterion's id with the label as its params, and with
the fields the criterion sets itself (a callable gets the check's row).
So every row takes its status from the registry; a criterion passes when
every in-hypothesis row passes.  The suite prints one [PASS]/[FAIL] line
per criterion, writes the combined machine CSV, and exits nonzero on any
failure.  Everything is a pure function of the seed, so two runs with the
same seed produce byte-identical CSV files.

Parts run concurrently, one thread per available core (at most one per
part, inline on one core), with every loaded OpenBLAS pinned to one thread
meanwhile.  c6 has two parts, its Nikol'skii-bound rows and its isometry
rows, which take about a second each; they and c7 start first.  A
criterion's rows are its parts' rows in part order, criteria come in
criterion order, and the Monte Carlo samples are counter-based, so the
lines and the CSV are the same on any number of cores.  A criterion's time
is the sum of its parts' wall times, which overlap the others'; the
closing line gives the suite's.
"""
from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .checks import CHECKS, format_params, space_inputs
from .corpus import random_polynomials
from .inequalities import sharp_radius
from .norms import bergman_norm  # noqa: F401  perfbench's tracer tests patch it here
from .poly import ComplexPolynomial
from .report import VerificationReport
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
    quadrature = {"method": "quadrature"}
    entries = []
    for tup in PARAM_GRID:
        space = dict(**space_inputs(tup), r=sharp_radius(*tup))
        entries += [
            ("hyper", dict(**space, poly=f), dict(**space, case=i), quadrature)
            for i, f in enumerate(polys)
        ]
    return entries


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
                inputs = dict(poly=f, q=q, beta=beta, beta_prime=beta_prime)
                label = dict(check="ibp", f=name, beta=beta, beta_prime=beta_prime)
                entries.append(("ibp", inputs, dict(**label, q=q), {"note": ""}))
    for beta, beta_prime in pairs:
        label = dict(check="majorant", beta=beta, beta_prime=beta_prime)
        inputs = dict(beta=beta, beta_prime=beta_prime)
        grid = np.linspace(0.0, beta / beta_prime, 101)
        entries.append(("majorant", dict(**inputs, y_grid=grid), label))
    return entries


# ------------------------------------------------------------- criterion 6


def c6_nikolskii(seed: int):
    """Degree-growth bound on the parameter grid."""
    corpora = [
        ("univ", random_polynomials(25, 1, 5, seed)),
        ("bivar", random_polynomials(25, 2, 5, seed)),
    ]
    return [
        (
            "nikolskii",
            dict(**space_inputs(tup), poly=P),
            dict(**space_inputs(tup), check="nikolskii", case=f"{tag}-{i:02d}"),
        )
        for tup in PARAM_GRID
        for tag, polys in corpora
        for i, P in enumerate(polys)
    ]


def c6_isometry(seed: int):
    """Homogenization isometry: the mixed norm of the homogenized polynomial."""
    zero_free = random_polynomials(10, 1, 5, seed, "zero-free") + random_polynomials(
        10, 2, 5, seed, "zero-free"
    )
    p_cycle = (2.0, 3.5, 4.0)
    entries = []
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
            {"note": lambda row: f"{row.note};samples={samples}"},
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
# criterion), and the tables of its parts, whose rows in this order are
# its rows.
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
    (
        "c6-nikolskii-isometry",
        ("homogenization", "degree"),
        c6_nikolskii,
        c6_isometry,
    ),
    (
        "c7-sharpness-asymptotics",
        ("extremal", "stirling", "gamma-ratio"),
        c7_sharpness_asymptotics,
    ),
)

CRITERION_IDS = tuple(cid for cid, *_ in _CRITERIA)

# Their parts start first: each c6 part takes about 1 s and c7 0.25 s, the
# other five criteria a quarter second together.
_LONGEST = ("c6-nikolskii-isometry", "c7-sharpness-asymptotics")


def _matches(filter_text: str | None, cid: str, aliases) -> bool:
    if not filter_text:
        return True
    needle = filter_text.lower()
    return needle in cid or any(needle in a for a in aliases)


def _part_ids(cid: str, parts) -> list[str]:
    """A lone part goes by its criterion's id, more by id/1, id/2, ..."""
    if len(parts) == 1:
        return [cid]
    return [f"{cid}/{i}" for i in range(1, len(parts) + 1)]


def _parts(run_id: str) -> tuple[str, list]:
    """The criterion id, and the tables of the parts that a criterion id or
    a part id names."""
    for cid, _, *tables in _CRITERIA:
        if run_id == cid:
            return cid, tables
        for part_id, table in zip(_part_ids(cid, tables), tables):
            if run_id == part_id:
                return cid, [table]
    raise ValueError(f"unknown criterion {run_id!r}")


def _row(cid: str, check: str, inputs: dict, label: dict, fields=None):
    """The row of an entry's check under the criterion's id and params."""
    row = CHECKS[check].run(**inputs)
    fields = {k: v(row) if callable(v) else v for k, v in (fields or {}).items()}
    return replace(row, check_id=cid, params=format_params(**label), **fields)


def _joined(run_id: str, results) -> CriterionResult:
    """One result from the results of parts, in part order."""
    rows = tuple(row for result in results for row in result.rows)
    passed = all(result.passed for result in results)
    return CriterionResult(run_id, passed, sum(r.runtime_s for r in results), rows)


def run_criterion(
    criterion_id: str, seed: int = 1729, nodes_override: int | None = None
) -> CriterionResult:
    """Run a criterion's parts in order, or one part given its part id
    (``c6-nikolskii-isometry/2``)."""
    cid, tables = _parts(criterion_id)
    t0 = time.perf_counter()
    rows = []
    for table in tables:
        # the node override reaches c1's oracle entries only
        args = (seed, nodes_override) if table is c1_oracle_agreement else (seed,)
        rows += [_row(cid, *entry) for entry in table(*args)]
    passed = VerificationReport(rows).aggregate_pass
    return CriterionResult(criterion_id, passed, time.perf_counter() - t0, tuple(rows))


def verify_suite(
    seed: int = 1729,
    filter_text: str | None = None,
    csv_path: str = "verify_suite.csv",
    nodes_override: int | None = None,
    quiet: bool = False,
    emit=print,
) -> int:
    """Run the acceptance criteria; returns 0 on success, 1 on any failure."""
    parts = [  # (criterion id, part id) of each selected part, in table order
        (cid, part_id)
        for cid, aliases, *tables in _CRITERIA
        if _matches(filter_text, cid, aliases)
        for part_id in _part_ids(cid, tables)
    ]
    if not parts:
        raise ValueError(f"filter {filter_text!r} matches no criterion")
    workers = min(len(os.sched_getaffinity(0)), len(parts))
    t0 = time.perf_counter()
    pooled = sorted(parts, key=lambda part: part[0] not in _LONGEST)
    done = map_on_pool(
        lambda part: run_criterion(part[1], seed=seed, nodes_override=nodes_override),
        pooled,
        workers,
    )
    wall = time.perf_counter() - t0
    by_part = dict(zip(pooled, done))
    results = [
        _joined(cid, [by_part[part] for part in group])
        for cid, group in itertools.groupby(parts, key=lambda part: part[0])
    ]
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
