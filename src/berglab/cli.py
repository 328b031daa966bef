"""Command line front end.

One subcommand per library operation plus the sweep runner and the
acceptance harness.  Exit codes: 0 when every in-hypothesis check passes,
1 on a verification failure, 2 on a usage or configuration error.
Single-check subcommands emit JSON by default; `--out csv` switches to the
standard report schema.  Summaries go to stderr so stdout stays parseable.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .acceptance import verify_suite
from .extremal import (
    ExtremalSpec,
    extremal_ratio,
    gamma_ratio_limit_check,
    stirling_bounds_check,
)
from .inequalities import (
    HyperParams,
    ibp_identity_check,
    hyper_check,
    kulikov_check,
    nikolskii_check,
    phi_profile,
    sharp_radius,
    threshold_search,
    weissler_threshold_check,
)
from .measures import McSampler, check_alpha, circle_rule, radial_rule
from .norms import (
    bergman_norm,
    bergman_norm_mc,
    exact_norm_even_p,
    exact_norm_p2,
)
from .poly import parse_polynomial
from .report import CSV_HEADER, ReportRow, VerificationReport, fmt_value
from .sweep import load_sweep_config, run_sweep

__all__ = ["main"]


def _parse_space(text: str) -> tuple[float, float]:
    """Parse 'alpha=2,p=4' into the (alpha, p) pair."""
    values: dict[str, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"space spec {text!r}: expected key=value, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in ("alpha", "p"):
            raise ValueError(f"space spec {text!r}: unknown key {key!r}")
        values[key] = float(raw)
    if set(values) != {"alpha", "p"}:
        raise ValueError(f"space spec {text!r}: need both alpha= and p=")
    return values["alpha"], values["p"]


def _emit_rows(rows, args) -> int:
    """Print check rows as JSON or CSV; return the aggregate exit code."""
    report = VerificationReport()
    report.extend(rows)
    out = getattr(args, "out", None) or "json"
    if out == "csv":
        sys.stdout.write(report.to_csv())
    else:
        payload = [
            dict(zip(CSV_HEADER, row.csv_fields())) for row in report.sorted_rows()
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
    if not args.quiet:
        print(report.summary(), file=sys.stderr)
    return 0 if report.aggregate_pass else 1


def _cmd_norm(args) -> int:
    alpha, p = _parse_space(args.space)
    P = parse_polynomial(args.poly)
    if args.method == "exact":
        if p == 2.0:
            res = exact_norm_p2(P, alpha)
        else:
            res = exact_norm_even_p(P, alpha, p)
    elif args.method == "mc":
        sampler = McSampler(alpha, P.nvars, args.seed)
        res = bergman_norm_mc(P, alpha, p, sampler, args.samples)
    else:
        res = bergman_norm(P, alpha, p, nodes=args.nodes, angles=args.angles)
    if getattr(args, "out", None) == "csv":
        print("value,method,est_error")
        print(f"{fmt_value(res.value)},{res.method},{fmt_value(res.est_error)}")
    else:
        payload = {
            "value": res.value,
            "method": res.method,
            "est_error": res.est_error,
        }
        print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_hyper_check(args) -> int:
    hp = HyperParams.make(args.alpha, args.beta, args.p, args.q)
    r = sharp_radius(hp) if args.r is None else args.r
    f = parse_polynomial(args.poly)
    res = hyper_check(f, hp, r, method=args.method, nodes=args.nodes, angles=args.angles)
    if not res.hypothesis_ok:
        status = "out-of-hypothesis"
    else:
        status = "pass" if res.passed else "fail"
    row = ReportRow(
        check_id="hyper",
        params=(
            f"alpha={fmt_value(args.alpha)};beta={fmt_value(args.beta)};"
            f"p={fmt_value(args.p)};q={fmt_value(args.q)};r={fmt_value(r)};"
            f"f={f.to_text()}"
        ),
        computed=res.lhs,
        target=res.rhs,
        status=status,
        method=res.method,
        est_error=0.0,
        hypothesis_ok=res.hypothesis_ok,
    )
    return _emit_rows([row], args)


def _cmd_threshold(args) -> int:
    hp = HyperParams.make(args.alpha, args.beta, args.p, args.q)
    rep = threshold_search(hp, eps=args.eps, tol=args.tol)
    gap = abs(rep.r_star_empirical - rep.r_star_theoretical)
    row = ReportRow(
        check_id="threshold",
        params=(
            f"alpha={fmt_value(args.alpha)};beta={fmt_value(args.beta)};"
            f"p={fmt_value(args.p)};q={fmt_value(args.q)};eps={fmt_value(args.eps)}"
        ),
        computed=rep.r_star_empirical,
        target=rep.r_star_theoretical,
        status="pass" if gap <= 5e-3 else "fail",
        method="bisection",
        est_error=rep.bracket_width,
        hypothesis_ok=hp.hypothesis_ok,
    )
    return _emit_rows([row], args)


def _cmd_nikolskii(args) -> int:
    P = parse_polynomial(args.poly)
    res = nikolskii_check(
        P, args.alpha, args.beta, args.p, args.q, nodes=args.nodes, angles=args.angles
    )
    if not res.hypothesis_ok:
        status = "out-of-hypothesis"
    else:
        status = "pass" if res.passed else "fail"
    row = ReportRow(
        check_id="nikolskii",
        params=(
            f"alpha={fmt_value(args.alpha)};beta={fmt_value(args.beta)};"
            f"p={fmt_value(args.p)};q={fmt_value(args.q)};f={P.to_text()}"
        ),
        computed=res.ratio,
        target=res.bound,
        status=status,
        method="quadrature",
        est_error=0.0,
        hypothesis_ok=res.hypothesis_ok,
        note=f"degree={res.degree}",
    )
    return _emit_rows([row], args)


def _cmd_phi(args) -> int:
    f = parse_polynomial(args.poly)
    ys = np.linspace(args.ymin, args.ymax, args.count)
    prof = phi_profile(f, args.q, ys, h=args.fd_step)
    if getattr(args, "out", None) == "csv" or args.out is None:
        print("y,phi,phi2")
        for y, v, v2 in zip(prof.y_grid, prof.phi, prof.phi2):
            print(f"{fmt_value(y)},{fmt_value(v)},{fmt_value(v2)}")
    else:
        payload = [
            {"y": y, "phi": v, "phi2": v2}
            for y, v, v2 in zip(prof.y_grid, prof.phi, prof.phi2)
        ]
        print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_ibp_check(args) -> int:
    f = parse_polynomial(args.poly)
    res = ibp_identity_check(
        f, args.q, args.beta, args.beta_prime, nodes=args.nodes, tol=args.tol
    )
    row = ReportRow(
        check_id="ibp",
        params=(
            f"beta={fmt_value(args.beta)};beta_prime={fmt_value(args.beta_prime)};"
            f"q={fmt_value(args.q)};f={f.to_text()}"
        ),
        computed=res.max_rel_discrepancy,
        target=args.tol,
        status="pass" if res.passed else "fail",
        method="gauss-fd",
        est_error=0.0,
        note=(
            f"lhs_dilated={fmt_value(res.lhs_dilated)};"
            f"lhs_plain={fmt_value(res.lhs_plain)}"
        ),
    )
    return _emit_rows([row], args)


def _cmd_kulikov(args) -> int:
    f = parse_polynomial(args.poly)
    res = kulikov_check(f, args.alpha, args.p, args.q)
    row = ReportRow(
        check_id="kulikov",
        params=(
            f"alpha={fmt_value(args.alpha)};p={fmt_value(args.p)};"
            f"q={fmt_value(args.q)};f={f.to_text()}"
        ),
        computed=res.lhs,
        target=res.rhs,
        status="pass" if res.passed else "fail",
        method="quadrature",
        est_error=0.0,
        note=f"beta_prime={fmt_value(res.beta_prime)}",
    )
    return _emit_rows([row], args)


def _cmd_weissler(args) -> int:
    f = parse_polynomial(args.poly)
    sharp = (min(args.p / args.q, 1.0)) ** 0.5
    r = sharp if args.r is None else args.r
    res = weissler_threshold_check(f, args.p, args.q, r, angles=args.angles)
    row = ReportRow(
        check_id="weissler",
        params=(
            f"p={fmt_value(args.p)};q={fmt_value(args.q)};"
            f"r={fmt_value(r)};f={f.to_text()}"
        ),
        computed=res.lhs,
        target=res.rhs,
        status="pass" if res.passed else "fail",
        method="quadrature",
        est_error=0.0,
        hypothesis_ok=args.p <= args.q,
        note=f"sharp_r={fmt_value(res.sharp_r)}",
    )
    return _emit_rows([row], args)


def _cmd_extremal(args) -> int:
    rep = extremal_ratio(
        ExtremalSpec(1.0, args.n, args.m),
        args.alpha,
        args.beta,
        args.p,
        args.q,
        n_samples=args.samples,
        seed=args.seed,
    )
    tol = max(4.0 * rep.ci, 0.03 * rep.target)
    row = ReportRow(
        check_id="extremal",
        params=(
            f"alpha={fmt_value(args.alpha)};beta={fmt_value(args.beta)};"
            f"p={fmt_value(args.p)};q={fmt_value(args.q)};"
            f"m={args.m};n={args.n};samples={args.samples};seed={args.seed}"
        ),
        computed=rep.ratio,
        target=rep.target,
        status="pass" if rep.within <= tol else "fail",
        method="monte-carlo",
        est_error=rep.ci,
        note=f"tol={fmt_value(tol)}",
    )
    return _emit_rows([row], args)


def _cmd_stirling(args) -> int:
    grid = tuple(float(x) for x in args.grid.split(","))
    rep = stirling_bounds_check(grid)
    worst = min(min(rep.lower_margins), min(rep.upper_margins))
    row = ReportRow(
        check_id="stirling",
        params=f"grid={args.grid}",
        computed=worst,
        target=0.0,
        status="pass" if rep.passed else "fail",
        method="log-gamma",
        est_error=0.0,
        note="min log-margin over both bounds",
    )
    return _emit_rows([row], args)


def _cmd_gamma_ratio(args) -> int:
    if args.m_max < 2:
        raise ValueError("--m-max must be at least 2")
    grid = tuple(m for m in (10, 50, 100) if m < args.m_max) + (args.m_max,)
    if len(grid) == 1:
        grid = (max(1, args.m_max // 2), args.m_max)
    rep = gamma_ratio_limit_check(args.p, args.q, grid)
    row = ReportRow(
        check_id="gamma-ratio",
        params=f"p={fmt_value(args.p)};q={fmt_value(args.q)};m_max={args.m_max}",
        computed=rep.values[-1],
        target=rep.limit,
        status="pass" if rep.passed else "fail",
        method="log-gamma",
        est_error=rep.rel_errors[-1],
    )
    return _emit_rows([row], args)


def _cmd_sweep(args) -> int:
    cfg = load_sweep_config(args.config)
    start = time.perf_counter()
    report = run_sweep(cfg, jobs=args.jobs)
    elapsed_s = time.perf_counter() - start
    if cfg.output_path:
        report.write_csv(cfg.output_path)
        if not args.quiet:
            print(report.summary(elapsed_s), file=sys.stderr)
            print(f"report written to {cfg.output_path}", file=sys.stderr)
    else:
        if getattr(args, "out", None) == "json":
            payload = [
                dict(zip(CSV_HEADER, row.csv_fields()))
                for row in report.sorted_rows()
            ]
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            sys.stdout.write(report.to_csv())
        if not args.quiet:
            print(report.summary(elapsed_s), file=sys.stderr)
    return 0 if report.aggregate_pass else 1


def _cmd_verify_suite(args) -> int:
    return verify_suite(
        seed=args.seed,
        filter_text=args.filter,
        csv_path=args.csv,
        nodes_override=args.nodes_override,
        quiet=args.quiet,
    )


def _cmd_dump_rule(args) -> int:
    check_alpha(args.alpha)
    nodes, weights = radial_rule(args.alpha, args.nodes)
    records = [
        ("radial", i, float(t), float(w))
        for i, (t, w) in enumerate(zip(nodes, weights))
    ]
    if args.angles:
        thetas, wt = circle_rule(args.angles)
        records.extend(
            ("angular", j, float(th), float(wt)) for j, th in enumerate(thetas)
        )
    if getattr(args, "out", None) == "json":
        payload = [
            {"component": c, "index": i, "node": t, "weight": w}
            for c, i, t, w in records
        ]
        print(json.dumps(payload, sort_keys=True))
    else:
        print("component,index,node,weight")
        for c, i, t, w in records:
            print(f"{c},{i},{fmt_value(t)},{fmt_value(w)}")
    return 0


def _add_common(sub) -> None:
    sub.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub.add_argument("--jobs", type=int, default=argparse.SUPPRESS)
    sub.add_argument("--out", choices=("csv", "json"), default=argparse.SUPPRESS)
    sub.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berglab",
        description="Weighted Bergman/Hardy norms and sharp inequality checks.",
    )
    parser.add_argument("--seed", type=int, default=0, help="top-level RNG seed")
    parser.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    parser.add_argument(
        "--out", choices=("csv", "json"), default=None, help="output format"
    )
    parser.add_argument("--quiet", action="store_true", help="suppress summaries")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("norm", help="norm of a polynomial in one weighted space")
    s.add_argument("--space", required=True, help="e.g. alpha=2,p=4")
    s.add_argument("--poly", required=True)
    s.add_argument("--method", choices=("exact", "quad", "mc"), default="quad")
    s.add_argument("--nodes", type=int, default=None)
    s.add_argument("--angles", type=int, default=None)
    s.add_argument("--samples", type=int, default=200_000)
    _add_common(s)
    s.set_defaults(handler=_cmd_norm)

    s = subs.add_parser("hyper-check", help="dilation contraction at one radius")
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--beta", type=float, required=True)
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--q", type=float, required=True)
    s.add_argument("--poly", required=True)
    s.add_argument("--r", type=float, default=None, help="default: critical radius")
    s.add_argument("--method", choices=("exact", "quad"), default="quad")
    s.add_argument("--nodes", type=int, default=None)
    s.add_argument("--angles", type=int, default=None)
    _add_common(s)
    s.set_defaults(handler=_cmd_hyper_check)

    s = subs.add_parser("threshold", help="empirical contraction radius by bisection")
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--beta", type=float, required=True)
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--q", type=float, required=True)
    s.add_argument("--eps", type=float, default=1e-2)
    s.add_argument("--tol", type=float, default=1e-4)
    _add_common(s)
    s.set_defaults(handler=_cmd_threshold)

    s = subs.add_parser("nikolskii", help="degree-growth norm bound for one P")
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--beta", type=float, required=True)
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--q", type=float, required=True)
    s.add_argument("--poly", required=True)
    s.add_argument("--nodes", type=int, default=None)
    s.add_argument("--angles", type=int, default=None)
    _add_common(s)
    s.set_defaults(handler=_cmd_nikolskii)

    s = subs.add_parser("phi", help="circle-mean profile and second derivative")
    s.add_argument("--poly", required=True)
    s.add_argument("--q", type=float, required=True)
    s.add_argument("--ymin", type=float, default=0.05)
    s.add_argument("--ymax", type=float, default=0.9)
    s.add_argument("--count", type=int, default=35)
    s.add_argument("--fd-step", type=float, default=1e-3, dest="fd_step")
    _add_common(s)
    s.set_defaults(handler=_cmd_phi)

    s = subs.add_parser("ibp-check", help="double integration-by-parts identity")
    s.add_argument("--poly", required=True)
    s.add_argument("--q", type=float, required=True)
    s.add_argument("--beta", type=float, required=True)
    s.add_argument("--beta-prime", type=float, required=True, dest="beta_prime")
    s.add_argument("--nodes", type=int, default=64)
    s.add_argument("--tol", type=float, default=1e-7)
    _add_common(s)
    s.set_defaults(handler=_cmd_ibp_check)

    s = subs.add_parser("kulikov", help="norm comparison at beta' = q*alpha/p")
    s.add_argument("--poly", required=True)
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--q", type=float, required=True)
    _add_common(s)
    s.set_defaults(handler=_cmd_kulikov)

    s = subs.add_parser("weissler", help="circle-norm dilation contraction")
    s.add_argument("--poly", required=True)
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--q", type=float, required=True)
    s.add_argument("--r", type=float, default=None, help="default: sqrt(p/q)")
    s.add_argument("--angles", type=int, default=None)
    _add_common(s)
    s.set_defaults(handler=_cmd_weissler)

    s = subs.add_parser("extremal", help="Monte Carlo extremal-family norm ratio")
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--beta", type=float, required=True)
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--q", type=float, required=True)
    s.add_argument("--m", type=int, default=1)
    s.add_argument("--n", type=int, default=64)
    s.add_argument("--samples", type=int, default=200_000)
    _add_common(s)
    s.set_defaults(handler=_cmd_extremal)

    s = subs.add_parser("stirling", help="two-sided factorial bounds on a grid")
    s.add_argument("--grid", default="0.1,0.5,1,2,5,10,50,100,400")
    _add_common(s)
    s.set_defaults(handler=_cmd_stirling)

    s = subs.add_parser("gamma-ratio", help="normalized gamma-ratio limit check")
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--q", type=float, required=True)
    s.add_argument("--m-max", type=int, default=200, dest="m_max")
    _add_common(s)
    s.set_defaults(handler=_cmd_gamma_ratio)

    s = subs.add_parser("sweep", help="run a config-driven grid of checks")
    s.add_argument("--config", required=True)
    _add_common(s)
    s.set_defaults(handler=_cmd_sweep)

    s = subs.add_parser("verify-suite", help="run the acceptance criteria")
    s.add_argument("--filter", default=None, help="substring of criterion ids")
    s.add_argument("--csv", default="verify_suite.csv", help="report path")
    s.add_argument(
        "--nodes-override",
        type=int,
        default=None,
        dest="nodes_override",
        help="force a radial node count (negative-control hook)",
    )
    _add_common(s)
    s.set_defaults(handler=_cmd_verify_suite)

    s = subs.add_parser("dump-rule", help="dump quadrature nodes/weights as CSV")
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--nodes", type=int, default=64)
    s.add_argument("--angles", type=int, default=None)
    _add_common(s)
    s.set_defaults(handler=_cmd_dump_rule)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
