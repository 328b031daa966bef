"""The registry of single checks behind `berglab <check>`, `sweep` and `verify-suite`.

Each entry of ``CHECKS`` holds one check: the schema of its parameters
(names, types, defaults, required flags), a ``run`` that calls the library
function and builds the report row, and its pass rule.  The CLI makes one
subcommand per entry from the schema; the sweep takes its check kinds (the
entries with ``sweep=True``) and their rows from here; the acceptance
criteria take their verdicts from ``run`` and relabel the rows with their
own ids and params.

Decisions owned here and made nowhere else:

- the status rule (``status``): a row whose inputs break the theorem's
  hypotheses is ``out-of-hypothesis`` whatever its verdict, else ``pass``
  or ``fail``;
- the threshold gate: the bisected crossover radius must land within
  ``THRESHOLD_GATE`` of the formula;
- the extremal tolerance: the Monte Carlo ratio must land within
  max(4 CI, 3% of the limit) of its Gaussian limit;
- the row form: for the same inputs `berglab <check> --out csv` and a
  one-row sweep print the same row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .extremal import (
    ExtremalSpec,
    extremal_ratio,
    gamma_ratio_limit_check,
    stirling_bounds_check,
)
from .inequalities import (
    HyperParams,
    hyper_check,
    ibp_identity_check,
    kulikov_check,
    nikolskii_check,
    sharp_radius,
    threshold_search,
    weissler_threshold_check,
)
from .report import ReportRow, fmt_value

__all__ = ["CHECKS", "Check", "Param", "THRESHOLD_GATE", "space_inputs", "status"]

# Largest |empirical - formula| crossover radius a threshold row passes with.
THRESHOLD_GATE = 5e-3


def status(passed: bool, hypothesis_ok: bool = True) -> str:
    """Row status: out-of-hypothesis inputs are labeled, never judged."""
    if not hypothesis_ok:
        return "out-of-hypothesis"
    return "pass" if passed else "fail"


@dataclass(frozen=True)
class Param:
    """One input of a check; its CLI flag is ``--name``, ``_`` written ``-``."""

    name: str
    type: Callable = float
    default: object = None
    required: bool = False
    choices: tuple | None = None
    help: str | None = None


@dataclass(frozen=True)
class Check:
    name: str  # the check_id of its rows
    command: str  # the CLI subcommand
    help: str
    params: tuple[Param, ...]
    build: Callable[..., ReportRow]
    sweep: bool = False

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(param.name for param in self.params)

    def run(self, **given) -> ReportRow:
        """The check's row; optional parameters left out take their defaults."""
        inputs = {p.name: p.default for p in self.params if not p.required}
        inputs.update(given)
        return self.build(**inputs)


CHECKS: dict[str, Check] = {}


def _register(name: str, command: str, help: str, params, sweep: bool = False):
    def add(build):
        CHECKS[name] = Check(name, command, help, tuple(params), build, sweep)
        return build

    return add


def space_inputs(tup) -> dict:
    """The inputs named by an (alpha, beta, p, q) tuple of a parameter grid."""
    return dict(zip(("alpha", "beta", "p", "q"), tup))


def _params(**values) -> str:
    return ";".join(f"{key}={fmt_value(value)}" for key, value in values.items())


ALPHA = Param("alpha", required=True)
BETA = Param("beta", required=True)
P = Param("p", required=True)
Q = Param("q", required=True)
POLY = Param("poly", str, required=True)
NODES = Param("nodes", int)
ANGLES = Param("angles", int)

# Registration order is the order of the sweep's check kinds.


@_register(
    "hyper",
    "hyper-check",
    "dilation contraction at one radius",
    (
        ALPHA, BETA, P, Q, POLY,
        Param("r", help="default: critical radius"),
        Param("method", str, "quad", choices=("exact", "quad")),
        NODES, ANGLES,
    ),
    sweep=True,
)
def _hyper(alpha, beta, p, q, poly, r, method, nodes, angles) -> ReportRow:
    hp = HyperParams.make(alpha, beta, p, q)
    r = sharp_radius(hp) if r is None else r
    res = hyper_check(poly, hp, r, method=method, nodes=nodes, angles=angles)
    return ReportRow(
        check_id="hyper",
        params=_params(alpha=alpha, beta=beta, p=p, q=q, r=r, poly=poly),
        computed=res.lhs,
        target=res.rhs,
        status=status(res.passed, res.hypothesis_ok),
        method=res.method,
        est_error=0.0,
        hypothesis_ok=res.hypothesis_ok,
    )


@_register(
    "nikolskii",
    "nikolskii",
    "degree-growth norm bound for one P",
    (ALPHA, BETA, P, Q, POLY, NODES, ANGLES),
    sweep=True,
)
def _nikolskii(alpha, beta, p, q, poly, nodes, angles) -> ReportRow:
    res = nikolskii_check(poly, alpha, beta, p, q, nodes=nodes, angles=angles)
    return ReportRow(
        check_id="nikolskii",
        params=_params(alpha=alpha, beta=beta, p=p, q=q, poly=poly),
        computed=res.ratio,
        target=res.bound,
        status=status(res.passed, res.hypothesis_ok),
        method="quadrature",
        est_error=0.0,
        hypothesis_ok=res.hypothesis_ok,
        note=f"degree={res.degree}",
    )


@_register(
    "kulikov",
    "kulikov",
    "norm comparison at beta' = q*alpha/p",
    (POLY, ALPHA, P, Q),
    sweep=True,
)
def _kulikov(poly, alpha, p, q) -> ReportRow:
    res = kulikov_check(poly, alpha, p, q)
    return ReportRow(
        check_id="kulikov",
        params=_params(alpha=alpha, p=p, q=q, poly=poly),
        computed=res.lhs,
        target=res.rhs,
        status=status(res.passed),
        method="quadrature",
        est_error=0.0,
        note=f"beta_prime={fmt_value(res.beta_prime)}",
    )


@_register(
    "weissler",
    "weissler",
    "circle-norm dilation contraction",
    (POLY, P, Q, Param("r", help="default: sqrt(p/q)"), ANGLES),
    sweep=True,
)
def _weissler(poly, p, q, r, angles) -> ReportRow:
    r = math.sqrt(min(p / q, 1.0)) if r is None else r
    res = weissler_threshold_check(poly, p, q, r, angles=angles)
    return ReportRow(
        check_id="weissler",
        params=_params(p=p, q=q, r=r, poly=poly),
        computed=res.lhs,
        target=res.rhs,
        status=status(res.passed, p <= q),
        method="quadrature",
        est_error=0.0,
        hypothesis_ok=p <= q,
    )


@_register(
    "threshold",
    "threshold",
    "empirical contraction radius by bisection",
    (ALPHA, BETA, P, Q, Param("eps", default=1e-2), Param("tol", default=1e-4)),
    sweep=True,
)
def _threshold(alpha, beta, p, q, eps, tol) -> ReportRow:
    hp = HyperParams.make(alpha, beta, p, q)
    rep = threshold_search(hp, eps=eps, tol=tol)
    gap = abs(rep.r_star_empirical - rep.r_star_theoretical)
    return ReportRow(
        check_id="threshold",
        params=_params(alpha=alpha, beta=beta, p=p, q=q, eps=eps),
        computed=rep.r_star_empirical,
        target=rep.r_star_theoretical,
        status=status(gap <= THRESHOLD_GATE, hp.hypothesis_ok),
        method="bisection",
        est_error=rep.bracket_width,
        hypothesis_ok=hp.hypothesis_ok,
    )


@_register(
    "ibp",
    "ibp-check",
    "double integration-by-parts identity",
    (
        POLY, Q, BETA,
        Param("beta_prime", required=True),
        Param("nodes", int, 64),
        Param("tol", default=1e-7),
    ),
)
def _ibp(poly, q, beta, beta_prime, nodes, tol) -> ReportRow:
    res = ibp_identity_check(poly, q, beta, beta_prime, nodes=nodes, tol=tol)
    return ReportRow(
        check_id="ibp",
        params=_params(beta=beta, beta_prime=beta_prime, q=q, poly=poly),
        computed=res.max_rel_discrepancy,
        target=tol,
        status=status(res.passed),
        method="gauss-fd",
        est_error=0.0,
        note=_params(lhs_dilated=res.lhs_dilated, lhs_plain=res.lhs_plain),
    )


@_register(
    "extremal",
    "extremal",
    "Monte Carlo extremal-family norm ratio",
    (
        ALPHA, BETA, P, Q,
        Param("m", int, 1),
        Param("n", int, 64),
        Param("samples", int, 200_000),
        Param("seed", int, 0),
    ),
)
def _extremal(alpha, beta, p, q, m, n, samples, seed) -> ReportRow:
    rep = extremal_ratio(
        ExtremalSpec(1.0, n, m), alpha, beta, p, q, n_samples=samples, seed=seed
    )
    tol = max(4.0 * rep.ci, 0.03 * rep.target)
    return ReportRow(
        check_id="extremal",
        params=_params(
            alpha=alpha, beta=beta, p=p, q=q, m=m, n=n, samples=samples, seed=seed
        ),
        computed=rep.ratio,
        target=rep.target,
        status=status(rep.within <= tol),
        method="monte-carlo",
        est_error=rep.ci,
        note=f"tol={fmt_value(tol)}",
    )


@_register(
    "stirling",
    "stirling",
    "two-sided factorial bounds on a grid",
    (Param("grid", str, "0.1,0.5,1,2,5,10,50,100,400"),),
)
def _stirling(grid) -> ReportRow:
    rep = stirling_bounds_check(tuple(float(x) for x in grid.split(",")))
    return ReportRow(
        check_id="stirling",
        params=f"grid={grid}",
        computed=min(min(rep.lower_margins), min(rep.upper_margins)),
        target=0.0,
        status=status(rep.passed),
        method="log-gamma",
        est_error=0.0,
        note="min log-margin over both bounds",
    )


@_register(
    "gamma-ratio",
    "gamma-ratio",
    "normalized gamma-ratio limit check",
    (P, Q, Param("m_max", int, 200)),
)
def _gamma_ratio(p, q, m_max) -> ReportRow:
    if m_max < 2:
        raise ValueError("--m-max must be at least 2")
    grid = tuple(m for m in (10, 50, 100) if m < m_max) + (m_max,)
    if len(grid) == 1:
        grid = (max(1, m_max // 2), m_max)
    rep = gamma_ratio_limit_check(p, q, grid)
    return ReportRow(
        check_id="gamma-ratio",
        params=_params(p=p, q=q, m_max=m_max),
        computed=rep.values[-1],
        target=rep.limit,
        status=status(rep.passed),
        method="log-gamma",
        est_error=rep.rel_errors[-1],
    )
