"""The registry of single checks behind `berglab <check>`, `sweep` and
`verify-suite`, and the one place where rows and verdicts are formed.

Each entry of ``CHECKS`` holds one check: the schema of its parameters
(names, types, defaults, required flags), the inputs its rows name, a
``run`` that measures and builds the report row, and its pass rule.  The
CLI makes a subcommand of each entry with a ``command``, the sweep takes
its check kinds (``sweep=True``) and their rows, error rows included, from
here, and every acceptance row is the ``build`` of an entry on its
``filled`` inputs, under its criterion's id and params (the shown inputs
are not formatted there).  Five entries make acceptance rows only: oracle,
expansion, convexity, majorant and isometry.

The library functions only measure.  Every pass rule is written here once:

- the status rule (``status``): a row whose inputs break the theorem's
  hypotheses (``hypotheses_hold``) is ``out-of-hypothesis`` whatever its
  verdict, else ``pass`` or ``fail``; a check that raised gives an
  ``error`` row;
- the inequality rule (``report.at_most``): the two-norm rows (hyper,
  nikolskii, kulikov, weissler) and the threshold bisection pass when the
  bounded side is at most the bound up to ``INEQ_SLACK``
  (``NIKOLSKII_SLACK`` for the degree-growth ratio);
- the settle rule (``_settles``), a predicate of (computed, bound, gap) for
  a row's slack: ``norms._climbed_norms`` sizes the two norms of every
  hyper, nikolskii and kulikov row, and at p or q other than an even
  integer, with no pinned nodes or angles, climbs the companion-grid
  ladder until the margin |bound - computed| is at least
  ``SETTLE_MULTIPLE`` times the gap and above the slack.  The check
  returns the gap, which is the row's est_error; on a pinned grid, at even
  p and q, and by the exact method it is 0.0;
- the agreement rule (``agreement_row``): rel = |computed - target| /
  max(|target|, 1e-300) is at most ``ORACLE_TOL``, ``CLOSED_FORM_TOL`` or
  ``ISOMETRY_TOL``, and is the row's est_error;
- the other gates and tolerances: ``THRESHOLD_GATE``, the extremal max(4
  CI, 3% of the limit), the IBP tolerance, the strict Stirling bounds, the
  gamma-ratio trend, ``cubic_decay``, ``convex`` (down to
  ``CONVEXITY_FLOOR``) and ``majorant_holds``;
- the row form: params are ``key=value`` pairs joined by ``;``
  (``format_params``), a check's rows name its ``shown`` inputs in that
  order, and `berglab <check> --out csv` and a one-row sweep print the
  same row for the same inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .extremal import (
    ExtremalSpec,
    extremal_ratio,
    gamma_ratio_limit_check,
    stirling_bounds_check,
)
from .inequalities import (
    convexity_majorant_check,
    hyper_check,
    ibp_identity_check,
    kulikov_check,
    necessity_expansion_check,
    nikolskii_check,
    phi_convexity_check,
    sharp_radius,
    threshold_search,
)
from .norms import (
    _check_p,
    _climbed_norms,
    _even_half,
    _gap_settled,
    bergman_norm,
    exact_norm_even_p,
    hardy_norm,
    mixed_norm,
)
from .report import ReportRow, at_most, fmt_value

__all__ = [
    "CHECKS", "CONVEXITY_FLOOR", "Check", "IBP_TOL", "INEQ_SLACK", "Param",
    "THRESHOLD_GATE", "agreement_row", "convex", "cubic_decay", "error_fields",
    "format_params", "hypotheses_hold", "majorant_holds", "profile_method",
    "space_inputs", "status",
]

# Relative slack of the inequality rows: sharp up to rounding is a pass.
INEQ_SLACK = 1e-10
NIKOLSKII_SLACK = 1e-9

# Largest |empirical - formula| crossover radius a threshold row passes with.
THRESHOLD_GATE = 5e-3

# Rounding floor: Phi'' >= -CONVEXITY_FLOOR counts as convex.  At even q the
# profile's Phi'' is exact up to rounding, far inside it; at other q the
# angular quadrature error of Phi'' can exceed it, so there it is no bound.
# On the suite's rows at seeds 1729, 7 and 31, Phi'' errs by at most 1.8e-12
# at even q but 9.1e-3 at q = 3, so no floor 1000 times that is a tightening.
CONVEXITY_FLOOR = 1e-7

# Tolerance of the suite's IBP rows, all at even q, where both sides of the
# identity are exact up to rounding: their worst discrepancy is 7.6e-15, the
# same at every seed as the rows take no random input.  The ibp check's own
# tol default, and so ibp-check's --tol, stays at 1e-7.
IBP_TOL = 1e-10

# Relative tolerances of the agreement rows: quadrature against the exact
# oracle, the expansion residual against its eps^4/32 closed form, and the
# mixed norm of the homogenized polynomial against its Bergman norm.
ORACLE_TOL = 1e-10
CLOSED_FORM_TOL = 0.10
ISOMETRY_TOL = 1e-8

# A two-norm row on the ladder is judged once its margin is at least this
# many times the gap between its last two rungs (see ``_settles``).
SETTLE_MULTIPLE = 1000


def hypotheses_hold(alpha: float, beta: float, p: float, q: float) -> bool:
    """The theorem's hypotheses: p <= q, q >= 2 and beta*p <= alpha*q."""
    return p <= q and q >= 2.0 and beta * p <= alpha * q


def status(passed: bool, hypothesis_ok: bool = True) -> str:
    """Row status: out-of-hypothesis inputs are labeled, never judged."""
    if not hypothesis_ok:
        return "out-of-hypothesis"
    return "pass" if passed else "fail"


def profile_method(q: float) -> str:
    """The method of profile rows: the angle rule is exact at even q only."""
    return "laplacian-exact" if _even_half(q) is not None else "laplacian-quadrature"


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


def _verdict(
    computed, target, passed, method, est_error=0.0, note="", hypothesis_ok=True
) -> dict:
    """The fields of a judged row after its check_id and params."""
    return dict(
        computed=computed,
        target=target,
        status=status(passed, hypothesis_ok),
        method=method,
        est_error=est_error,
        hypothesis_ok=hypothesis_ok,
        note=note,
    )


def error_fields(exc: Exception) -> dict:
    """The fields of a row whose check raised ``exc``, after its check_id and
    params: no values, status error, ``Type: message`` as the note."""
    note = f"{type(exc).__name__}: {exc}"
    return dict(computed=None, target=None, status="error", note=note)


def agreement_row(computed, target, tol, method, note="") -> dict:
    """The fields of a row whose value must match target to relative tol."""
    rel = abs(computed - target) / max(abs(target), 1e-300)
    return _verdict(computed, target, rel <= tol, method, rel, note)


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
    command: str | None  # the CLI subcommand, None for acceptance rows only
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

    def filled(self, given: dict) -> dict:
        """The inputs of a run: optional parameters left out take their
        defaults, derived ones left at None are derived."""
        inputs = {p.name: p.default for p in self.params if not p.required}
        inputs.update(given)
        for param in self.params:
            if param.derive is not None and inputs[param.name] is None:
                inputs[param.name] = param.derive(inputs)
        return inputs

    def run(self, **given) -> ReportRow:
        """The check's row, its params formed from the shown inputs."""
        inputs = self.filled(given)
        return ReportRow(self.name, self.describe(inputs), **self.build(**inputs))


CHECKS: dict[str, Check] = {}


def _register(name, command, help, params, shown=(), sweep=False):
    def register(build):
        CHECKS[name] = Check(name, command, help, tuple(params), shown, build, sweep)
        return build

    return register


def space_inputs(tup) -> dict:
    """The inputs named by an (alpha, beta, p, q) tuple of a parameter grid."""
    return dict(zip(("alpha", "beta", "p", "q"), tup))


# The default radii, derived from the other inputs.
def _critical_radius(i: dict) -> float:
    return sharp_radius(i["alpha"], i["beta"], i["p"], i["q"])


def _hardy_radius(i: dict) -> float:
    p, q = _check_p(i["p"]), _check_p(i["q"], "q")
    return math.sqrt(min(p / q, 1.0))


def _settles(computed: float, bound: float, gap: float, slack=INEQ_SLACK) -> bool:
    """The settle rule of a two-norm row on the ladder: its verdict is
    settled once the margin |bound - computed| is at least SETTLE_MULTIPLE
    times the gap and above the row's relative slack, so a row at its bound
    climbs to the cap."""
    margin = abs(bound - computed)
    return margin >= SETTLE_MULTIPLE * gap and margin > slack * abs(bound)


def _bound_row(
    computed,
    bound,
    est_error=0.0,
    slack=INEQ_SLACK,
    hypothesis_ok=True,
    method="quadrature",
    note="",
) -> dict:
    """The fields of a row judging computed <= bound up to a relative slack."""
    passed = at_most(computed, bound, slack)
    return _verdict(computed, bound, passed, method, est_error, note, hypothesis_ok)


ALPHA = Param("alpha", required=True)
BETA = Param("beta", required=True)
P = Param("p", required=True)
Q = Param("q", required=True)
POLY = Param("poly", str, required=True)
BETA_PRIME = Param("beta_prime", required=True)
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
    sides = hyper_check(poly, alpha, beta, p, q, r, method, nodes, angles, _settles)
    in_hypothesis = hypotheses_hold(alpha, beta, p, q)
    method = "exact" if method == "exact" else "quadrature"
    return _bound_row(*sides, hypothesis_ok=in_hypothesis, method=method)


@_register(
    "nikolskii",
    "nikolskii",
    "degree-growth norm bound for one P",
    (ALPHA, BETA, P, Q, POLY, NODES, ANGLES),
    ("alpha", "beta", "p", "q", "poly"),
    sweep=True,
)
def _nikolskii(alpha, beta, p, q, poly, nodes, angles) -> dict:
    rule = partial(_settles, slack=NIKOLSKII_SLACK)
    sides = nikolskii_check(poly, alpha, beta, p, q, nodes, angles, rule)
    in_hypothesis = hypotheses_hold(alpha, beta, p, q)
    note = f"degree={poly.degree}"
    return _bound_row(*sides, NIKOLSKII_SLACK, in_hypothesis, note=note)


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
    sides = kulikov_check(poly, alpha, p, q, _settles)
    return _bound_row(*sides, note=f"beta_prime={fmt_value(q * alpha / p)}")


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
    return _verdict(
        rep.r_star_empirical,
        rep.r_star_theoretical,
        gap <= THRESHOLD_GATE,
        "bisection",
        rep.bracket_width,
        hypothesis_ok=in_hypothesis,
    )


@_register(
    "ibp",
    "ibp-check",
    "double integration-by-parts identity",
    (
        POLY, Q, BETA, BETA_PRIME,
        Param("nodes", int, 64),
        Param("tol", default=1e-7),
    ),
    ("beta", "beta_prime", "q", "poly"),
)
def _ibp(poly, q, beta, beta_prime, nodes, tol) -> dict:
    res = ibp_identity_check(poly, q, beta, beta_prime, nodes=nodes)
    gap = res.max_rel_discrepancy
    note = format_params(lhs_dilated=res.lhs_dilated, lhs_plain=res.lhs_plain)
    return _verdict(gap, tol, gap <= tol, profile_method(q), note=note)


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
        ExtremalSpec(n, m), alpha, beta, p, q, n_samples=samples, seed=seed
    )
    tol = max(4.0 * rep.ci, 0.03 * rep.target)
    passed = abs(rep.ratio - rep.target) <= tol
    note = f"tol={fmt_value(tol)}"
    return _verdict(rep.ratio, rep.target, passed, "monte-carlo", rep.ci, note)


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
    passed = worst > 0.0  # both bounds hold strictly
    note = "min log-margin over both bounds"
    return _verdict(worst, 0.0, passed, "log-gamma", note=note)


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
    return _verdict(rep.values[-1], rep.limit, passed, "log-gamma", last)


# The entries below have no subcommand: they make acceptance rows only, so
# their rows name no inputs; each criterion gives its rows their params.
@_register(
    "oracle",
    None,
    "quadrature norm against the exact even-p oracle",
    (POLY, ALPHA, P, NODES),
)
def _oracle(poly, alpha, p, nodes) -> dict:
    return agreement_row(
        bergman_norm(poly, alpha, p, nodes=nodes).value,
        exact_norm_even_p(poly, alpha, p).value,
        ORACLE_TOL,
        "quadrature-vs-exact",
        note=f"degree={poly.degree}",
    )


@_register(
    "expansion",
    None,
    "quadratic-coefficient expansion of ||1 + eps z||",
    (ALPHA, P, Param("kind", str, "decay"), Param("eps")),
)
def _expansion(alpha, p, kind, eps) -> dict:
    """Cubic decay of the residuals on the default eps grid, or, at
    alpha = p = 2 only, the residual at eps against its closed form eps^4/32."""
    if kind == "closed-form":
        [residual] = necessity_expansion_check(alpha, p, (eps,)).residuals
        return agreement_row(residual, eps ** 4 / 32.0, CLOSED_FORM_TOL, "exact")
    rep = necessity_expansion_check(alpha, p)
    passed = cubic_decay(rep.eps_grid, rep.residuals)
    note = "residual/eps^3 at worst grid point"
    return _verdict(rep.max_normalized_residual, 0.0, passed, rep.method, note=note)


@_register(
    "convexity",
    None,
    "smallest Phi'' of the circle profile on a y grid",
    (POLY, Q, Param("y_grid", required=True)),
)
def _convexity(poly, q, y_grid) -> dict:
    min_phi2, argmin_y = phi_convexity_check(poly, q, y_grid)
    note = format_params(argmin_y=argmin_y)
    method = profile_method(q)
    return _verdict(min_phi2, -CONVEXITY_FLOOR, convex(min_phi2), method, note=note)


@_register(
    "majorant",
    None,
    "tangent-line majorant on a y grid in [0, beta/beta']",
    (BETA, BETA_PRIME, Param("y_grid", required=True)),
)
def _majorant(beta, beta_prime, y_grid) -> dict:
    margin = convexity_majorant_check(beta, beta_prime, y_grid)
    return _verdict(margin, 0.0, majorant_holds(margin), "grid")


@_register(
    "isometry",
    None,
    "mixed norm of the homogenized P against its Bergman norm",
    (POLY, ALPHA, P),
)
def _isometry(poly, alpha, p) -> dict:
    mixed = mixed_norm(poly.homogenize(poly.degree), alpha, p).value
    bergman, _ = _climbed_norms([(poly, alpha, p)], lambda v: (v,), _gap_settled)
    note = format_params(degree=poly.degree, nvars=poly.nvars)
    return agreement_row(mixed, bergman, ISOMETRY_TOL, "mixed-vs-quadrature", note)
