"""The registry of single checks behind `berglab <check>`, `sweep` and `verify-suite`.

Each entry of ``CHECKS`` holds one check: the schema of its parameters
(names, types, defaults, required flags), the inputs its rows name, a
``run`` that calls the library function and builds the report row, and its
pass rule.  The CLI makes one subcommand per entry from the schema; the
sweep takes its check kinds (the entries with ``sweep=True``) and their
rows, error rows included, from here; the acceptance criteria take their
verdicts from ``run`` and relabel the rows with their own ids and params.

Decisions owned here and made nowhere else:

- the status rule (``status``): a row whose inputs break the theorem's
  hypotheses is ``out-of-hypothesis`` whatever its verdict, else ``pass``
  or ``fail``; a check that raised gives an ``error`` row;
- the agreement rule (``agreement_row``): a value agrees with its target
  when rel = |computed - target| / max(|target|, 1e-300) <= tol, and the
  row reports rel as its est_error (the oracle rows of c1, the closed-form
  rows of c4 and the isometry rows of c6);
- the threshold gate: the bisected crossover radius must land within
  ``THRESHOLD_GATE`` of the formula;
- the extremal tolerance: the Monte Carlo ratio must land within
  max(4 CI, 3% of the limit) of its Gaussian limit;
- the row form: params are ``key=value`` pairs joined by ``;``
  (``format_params``), a check's rows name its ``shown`` inputs in that
  order, error rows too, and for the same inputs `berglab <check> --out
  csv` and a one-row sweep print the same row.
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

__all__ = [
    "CHECKS", "Check", "Param", "THRESHOLD_GATE",
    "agreement_row", "format_params", "space_inputs", "status",
]

# Largest |empirical - formula| crossover radius a threshold row passes with.
THRESHOLD_GATE = 5e-3


def status(passed: bool, hypothesis_ok: bool = True) -> str:
    """Row status: out-of-hypothesis inputs are labeled, never judged."""
    if not hypothesis_ok:
        return "out-of-hypothesis"
    return "pass" if passed else "fail"


def format_params(**values) -> str:
    """The params text of a row: key=value pairs, in the order given."""
    return ";".join(f"{key}={fmt_value(value)}" for key, value in values.items())


def agreement_row(check_id, params, computed, target, tol, method, note=""):
    """Row of a value that must match its target to relative tolerance tol."""
    rel = abs(computed - target) / max(abs(target), 1e-300)
    return ReportRow(
        check_id, params, computed, target, status(rel <= tol), method, rel, note=note
    )


@dataclass(frozen=True)
class Param:
    """One input of a check; its CLI flag is ``--name``, ``_`` written ``-``.

    ``derive`` gives the value of an input left at None from the others.
    """

    name: str
    type: Callable = float
    default: object = None
    required: bool = False
    choices: tuple | None = None
    help: str | None = None
    derive: Callable[[dict], object] | None = None


@dataclass(frozen=True)
class Check:
    name: str  # the check_id of its rows
    command: str  # the CLI subcommand
    help: str
    params: tuple[Param, ...]
    shown: tuple[str, ...]  # the inputs its rows name in params, in order
    build: Callable[..., dict]  # the row's fields after check_id and params
    sweep: bool = False

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(param.name for param in self.params)

    def describe(self, inputs: dict) -> str:
        """The params of a row of these inputs: the shown ones that are set."""
        shown = {k: inputs[k] for k in self.shown if inputs.get(k) is not None}
        return format_params(**shown)

    def run(self, **given) -> ReportRow:
        """The check's row; optional parameters left out take their defaults."""
        inputs = {p.name: p.default for p in self.params if not p.required}
        inputs.update(given)
        for param in self.params:
            if param.derive is not None and inputs[param.name] is None:
                inputs[param.name] = param.derive(inputs)
        return ReportRow(self.name, self.describe(inputs), **self.build(**inputs))

    def error_row(self, given: dict, exc: Exception) -> ReportRow:
        """The row of a run on these inputs that raised ``exc``."""
        note = f"{type(exc).__name__}: {exc}"
        return ReportRow(self.name, self.describe(given), None, None, "error", note=note)


CHECKS: dict[str, Check] = {}


def _register(name, command, help, params, shown, sweep=False):
    def add(build):
        CHECKS[name] = Check(name, command, help, tuple(params), shown, build, sweep)
        return build

    return add


def space_inputs(tup) -> dict:
    """The inputs named by an (alpha, beta, p, q) tuple of a parameter grid."""
    return dict(zip(("alpha", "beta", "p", "q"), tup))


# The default radii, derived from the other inputs.
def _critical_radius(i: dict) -> float:
    return sharp_radius(HyperParams.make(i["alpha"], i["beta"], i["p"], i["q"]))


def _hardy_radius(i: dict) -> float:
    return math.sqrt(min(i["p"] / i["q"], 1.0))


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
        Param("r", help="default: critical radius", derive=_critical_radius),
        Param("method", str, "quad", choices=("exact", "quad")),
        NODES, ANGLES,
    ),
    ("alpha", "beta", "p", "q", "r", "poly"),
    sweep=True,
)
def _hyper(alpha, beta, p, q, poly, r, method, nodes, angles) -> dict:
    hp = HyperParams.make(alpha, beta, p, q)
    res = hyper_check(poly, hp, r, method=method, nodes=nodes, angles=angles)
    return dict(
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
    ("alpha", "beta", "p", "q", "poly"),
    sweep=True,
)
def _nikolskii(alpha, beta, p, q, poly, nodes, angles) -> dict:
    res = nikolskii_check(poly, alpha, beta, p, q, nodes=nodes, angles=angles)
    return dict(
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
    ("alpha", "p", "q", "poly"),
    sweep=True,
)
def _kulikov(poly, alpha, p, q) -> dict:
    if q < p:  # outside the embedding's hypotheses, which kulikov_check refuses
        out = status(False, hypothesis_ok=False)
        return dict(computed=None, target=None, status=out, hypothesis_ok=False)
    res = kulikov_check(poly, alpha, p, q)
    return dict(
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
    (
        POLY, P, Q,
        Param("r", help="default: sqrt(p/q)", derive=_hardy_radius),
        ANGLES,
    ),
    ("p", "q", "r", "poly"),
    sweep=True,
)
def _weissler(poly, p, q, r, angles) -> dict:
    res = weissler_threshold_check(poly, p, q, r, angles=angles)
    return dict(
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
    ("alpha", "beta", "p", "q", "eps"),
    sweep=True,
)
def _threshold(alpha, beta, p, q, eps, tol) -> dict:
    hp = HyperParams.make(alpha, beta, p, q)
    rep = threshold_search(hp, eps=eps, tol=tol)
    gap = abs(rep.r_star_empirical - rep.r_star_theoretical)
    return dict(
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
    ("beta", "beta_prime", "q", "poly"),
)
def _ibp(poly, q, beta, beta_prime, nodes, tol) -> dict:
    res = ibp_identity_check(poly, q, beta, beta_prime, nodes=nodes, tol=tol)
    return dict(
        computed=res.max_rel_discrepancy,
        target=tol,
        status=status(res.passed),
        method="gauss-fd",
        est_error=0.0,
        note=format_params(lhs_dilated=res.lhs_dilated, lhs_plain=res.lhs_plain),
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
    ("alpha", "beta", "p", "q", "m", "n", "samples", "seed"),
)
def _extremal(alpha, beta, p, q, m, n, samples, seed) -> dict:
    rep = extremal_ratio(
        ExtremalSpec(1.0, n, m), alpha, beta, p, q, n_samples=samples, seed=seed
    )
    tol = max(4.0 * rep.ci, 0.03 * rep.target)
    return dict(
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
    ("grid",),
)
def _stirling(grid) -> dict:
    rep = stirling_bounds_check(tuple(float(x) for x in grid.split(",")))
    return dict(
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
    ("p", "q", "m_max"),
)
def _gamma_ratio(p, q, m_max) -> dict:
    if m_max < 2:
        raise ValueError("--m-max must be at least 2")
    grid = tuple(m for m in (10, 50, 100) if m < m_max) + (m_max,)
    if len(grid) == 1:
        grid = (max(1, m_max // 2), m_max)
    rep = gamma_ratio_limit_check(p, q, grid)
    return dict(
        computed=rep.values[-1],
        target=rep.limit,
        status=status(rep.passed),
        method="log-gamma",
        est_error=rep.rel_errors[-1],
    )
