"""The registry of single checks behind `berglab <check>`, `sweep` and
`verify-suite`, and the one place where verdicts are formed.

Each entry of ``CHECKS`` holds one check: the schema of its parameters
(names, types, defaults, required flags), the inputs its rows name, a
``run`` that measures and builds the report row, and its pass rule.  The
CLI makes one subcommand per entry from the schema; the sweep takes its
check kinds (the entries with ``sweep=True``) and their rows, error rows
included, from here; the acceptance criteria take their verdicts from
``run`` and relabel the rows with their own ids and params.

The library functions only measure.  Every pass rule is written here once:

- the status rule (``status``): a row whose inputs break the theorem's
  hypotheses (``hypotheses_hold``) is ``out-of-hypothesis`` whatever its
  verdict, else ``pass`` or ``fail``; a check that raised gives an
  ``error`` row;
- the inequality rule (``report.at_most``): the two-norm rows (hyper,
  nikolskii, kulikov, weissler) and the threshold bisection pass when the bounded side is at most the bound up
  to ``INEQ_SLACK`` (``NIKOLSKII_SLACK`` for the degree-growth ratio);
- the agreement rule (``agreement_row``): a value agrees with its target
  when rel = |computed - target| / max(|target|, 1e-300) <= tol, and the
  row reports rel as its est_error (the oracle rows of c1, the closed-form
  rows of c4 and the isometry rows of c6);
- the gates and tolerances of the other entries: ``THRESHOLD_GATE``, the
  extremal max(4 CI, 3% of the limit), the IBP tolerance, the strict
  Stirling bounds and the gamma-ratio trend;
- the rules of the library checks that c4 and c5 run directly: ``convex``
  (down to ``CONVEXITY_FLOOR``), ``majorant_holds`` and ``cubic_decay``;
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
    hyper_check,
    ibp_identity_check,
    kulikov_check,
    nikolskii_check,
    sharp_radius,
    threshold_search,
)
from .norms import _check_p, hardy_norm
from .report import ReportRow, at_most, fmt_value

__all__ = [
    "CHECKS", "CONVEXITY_FLOOR", "Check", "INEQ_SLACK", "Param", "THRESHOLD_GATE",
    "agreement_row", "convex", "cubic_decay", "format_params", "hypotheses_hold",
    "majorant_holds", "space_inputs", "status",
]

# Relative slack of the inequality rows: sharp up to rounding is a pass.
INEQ_SLACK = 1e-10
NIKOLSKII_SLACK = 1e-9

# Largest |empirical - formula| crossover radius a threshold row passes with.
THRESHOLD_GATE = 5e-3

# Finite-difference noise floor: Phi'' >= -CONVEXITY_FLOOR counts as convex.
CONVEXITY_FLOOR = 1e-7


def hypotheses_hold(alpha: float, beta: float, p: float, q: float) -> bool:
    """The theorem's hypotheses: p <= q, q >= 2 and beta*p <= alpha*q."""
    return p <= q and q >= 2.0 and beta * p <= alpha * q


def status(passed: bool, hypothesis_ok: bool = True) -> str:
    """Row status: out-of-hypothesis inputs are labeled, never judged."""
    if not hypothesis_ok:
        return "out-of-hypothesis"
    return "pass" if passed else "fail"


def convex(min_phi2: float) -> bool:
    return min_phi2 >= -CONVEXITY_FLOOR


def majorant_holds(min_margin: float) -> bool:
    """The tangent-line margin is nonnegative up to rounding."""
    return min_margin >= -1e-12


def cubic_decay(eps_grid, residuals) -> bool:
    """Residuals on a decreasing eps grid fall like eps^3 within a factor
    4/3: R(e2) <= R(e1) * (e2/e1)^3 * 4/3 at consecutive points."""
    pairs = list(zip(eps_grid, residuals))
    return all(
        r2 <= r1 * (e2 / e1) ** 3 * (4.0 / 3.0) + 1e-15
        for (e1, r1), (e2, r2) in zip(pairs, pairs[1:])
    )


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
    return sharp_radius(i["alpha"], i["beta"], i["p"], i["q"])


def _hardy_radius(i: dict) -> float:
    p, q = _check_p(i["p"]), _check_p(i["q"], "q")
    return math.sqrt(min(p / q, 1.0))


def _bound_row(
    computed, bound, slack=INEQ_SLACK, hypothesis_ok=True, method="quadrature", note=""
) -> dict:
    """The fields of a row judging computed <= bound up to a relative slack."""
    passed = at_most(computed, bound, slack)
    return dict(
        computed=computed,
        target=bound,
        status=status(passed, hypothesis_ok),
        method=method,
        est_error=0.0,
        hypothesis_ok=hypothesis_ok,
        note=note,
    )


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
    lhs, rhs = hyper_check(poly, alpha, beta, p, q, r, method, nodes, angles)
    in_hypothesis = hypotheses_hold(alpha, beta, p, q)
    return _bound_row(lhs, rhs, hypothesis_ok=in_hypothesis, method=method)


@_register(
    "nikolskii",
    "nikolskii",
    "degree-growth norm bound for one P",
    (ALPHA, BETA, P, Q, POLY, NODES, ANGLES),
    ("alpha", "beta", "p", "q", "poly"),
    sweep=True,
)
def _nikolskii(alpha, beta, p, q, poly, nodes, angles) -> dict:
    ratio, bound = nikolskii_check(poly, alpha, beta, p, q, nodes, angles)
    in_hypothesis = hypotheses_hold(alpha, beta, p, q)
    note = f"degree={poly.degree}"
    return _bound_row(ratio, bound, NIKOLSKII_SLACK, in_hypothesis, note=note)


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
    lhs, rhs = kulikov_check(poly, alpha, p, q)
    return _bound_row(lhs, rhs, note=f"beta_prime={fmt_value(q * alpha / p)}")


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
    """Hardy-space dilation; contraction holds exactly for r^2 <= p/q."""
    _check_p(p)
    _check_p(q, "q")
    if not (0.0 <= r <= 1.0):
        raise ValueError(f"r must lie in [0, 1], got {r}")
    lhs = hardy_norm(poly.dilate(r), q, angles=angles).value
    rhs = hardy_norm(poly, p, angles=angles).value
    return _bound_row(lhs, rhs, hypothesis_ok=p <= q)


@_register(
    "threshold",
    "threshold",
    "empirical contraction radius by bisection",
    (ALPHA, BETA, P, Q, Param("eps", default=1e-2), Param("tol", default=1e-4)),
    ("alpha", "beta", "p", "q", "eps"),
    sweep=True,
)
def _threshold(alpha, beta, p, q, eps, tol) -> dict:
    rep = threshold_search(alpha, beta, p, q, slack=INEQ_SLACK, eps=eps, tol=tol)
    gap = abs(rep.r_star_empirical - rep.r_star_theoretical)
    in_hypothesis = hypotheses_hold(alpha, beta, p, q)
    return dict(
        computed=rep.r_star_empirical,
        target=rep.r_star_theoretical,
        status=status(gap <= THRESHOLD_GATE, in_hypothesis),
        method="bisection",
        est_error=rep.bracket_width,
        hypothesis_ok=in_hypothesis,
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
    res = ibp_identity_check(poly, q, beta, beta_prime, nodes=nodes)
    return dict(
        computed=res.max_rel_discrepancy,
        target=tol,
        status=status(res.max_rel_discrepancy <= tol),
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
        status=status(abs(rep.ratio - rep.target) <= tol),
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
    worst = min(min(rep.lower_margins), min(rep.upper_margins))
    return dict(
        computed=worst,
        target=0.0,
        status=status(worst > 0.0),  # both bounds hold strictly
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
    first, last = rep.rel_errors[0], rep.rel_errors[-1]
    # the relative error does not grow along the grid, and is below 2% by m = 200
    passed = last <= first + 1e-15 and (grid[-1] < 200 or last <= 0.02)
    return dict(
        computed=rep.values[-1],
        target=rep.limit,
        status=status(passed),
        method="log-gamma",
        est_error=rep.rel_errors[-1],
    )
