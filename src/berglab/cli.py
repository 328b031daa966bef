"""Command line front end.

One subcommand per library operation plus the sweep runner and the
acceptance harness; the single-check subcommands are built from the
registry in `checks.py`, so their flags, rows and statuses come from
there.  A subcommand takes only the options its handler reads, after its
name: `--seed` (norm, extremal, verify-suite), `--jobs` (sweep), `--out
csv|json` (all but verify-suite; JSON by default for norm and the checks,
CSV for phi, dump-rule and sweep) and `--quiet` (the checks, sweep,
verify-suite).  Every table is printed by `_print_table` through the
report module's one writer: CSV, or one line of strict JSON whose report
rows hold their CSV text.  Summaries go to stderr so stdout stays
parseable; a reader that closes stdout early (``| head``) gets what it
read, the rest dropped.  Exit codes: 0 when every in-hypothesis check
passes, 1 on a verification failure, 2 on a usage or configuration error,
such as a file that cannot be read or written.
"""
from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .acceptance import verify_suite
from .checks import CHECKS
from .inequalities import phi_profile
from .measures import McSampler, check_alpha, check_counts, circle_rule, radial_rule
from .norms import ONE_BLAS_THREAD, bergman_norm, bergman_norm_mc, exact_norm_even_p
from .poly import parse_polynomial
from .report import (
    CSV_HEADER, VerificationReport, check_writable, table_text, write_text
)
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


def _print_table(args, default_out: str, header, records, one=False, path=None) -> int:
    """Print records in the --out format, default_out when it is not given
    (one object alone in JSON with ``one``), or write them to path."""
    write_text(table_text(header, records, args.out or default_out, one), path)
    return 0


def _emit(report, args, default_out: str, elapsed_s=None, path=None) -> int:
    """Print a report's rows, or write them to path, in the --out format,
    and its summary on stderr; return the exit code."""
    _print_table(args, default_out, CSV_HEADER, report.records(), path=path)
    if not args.quiet:
        print(report.summary(elapsed_s), file=sys.stderr)
        if path:
            print(f"report written to {path}", file=sys.stderr)
    return 0 if report.aggregate_pass else 1


# The `norm` options that one method reads; None stands for not given.
_NORM_METHOD_OPTIONS = {
    "nodes": "quad", "angles": "quad", "samples": "mc", "seed": "mc"
}


def _cmd_norm(args) -> int:
    alpha, p = _parse_space(args.space)
    for name, method in _NORM_METHOD_OPTIONS.items():
        if args.method != method and getattr(args, name) is not None:
            raise ValueError(f"--{name} applies to --method {method} only")
    P = parse_polynomial(args.poly)
    if args.method == "exact":
        res = exact_norm_even_p(P, alpha, p)
    elif args.method == "mc":
        seed = 0 if args.seed is None else args.seed
        samples = 200_000 if args.samples is None else args.samples
        res = bergman_norm_mc(P, p, McSampler(alpha, P.nvars, seed), samples)
    else:
        res = bergman_norm(P, alpha, p, nodes=args.nodes, angles=args.angles)
    record = (res.value, res.method, res.est_error)
    return _print_table(args, "json", ("value", "method", "est_error"), [record], True)


def _cmd_check(args) -> int:
    check = args.check
    given = {name: getattr(args, name) for name in check.names}
    if "poly" in given:
        given["poly"] = parse_polynomial(given["poly"])
    return _emit(VerificationReport([check.run(**given)]), args, "json")


# Largest `phi --count` (about 216 bytes of profile and records per point)
# and `dump-rule --angles` (one record per angle).
_PHI_COUNT_CAP = 100_000


def _cmd_phi(args) -> int:
    f = parse_polynomial(args.poly)
    check_counts(count=args.count)
    if args.count > _PHI_COUNT_CAP:
        raise ValueError(f"count must be at most {_PHI_COUNT_CAP}, got {args.count}")
    ys = np.linspace(args.ymin, args.ymax, args.count)
    prof = phi_profile(f, args.q, ys)
    records = zip(prof.y_grid, prof.phi, prof.phi2)
    return _print_table(args, "csv", ("y", "phi", "phi2"), records)


def _cmd_sweep(args) -> int:
    cfg = load_sweep_config(args.config)
    if cfg.output_path:  # an unwritable report fails before any row runs
        check_writable(cfg.output_path)
    start = time.perf_counter()
    report = run_sweep(cfg, jobs=args.jobs)
    return _emit(report, args, "csv", time.perf_counter() - start, cfg.output_path)


def _cmd_verify_suite(args) -> int:
    return verify_suite(
        seed=args.seed,
        filter_text=args.filter,
        csv_path=args.csv,
        nodes_override=args.nodes_override,
        quiet=args.quiet,
        emit=lambda line: write_text(line + "\n"),
    )


def _cmd_dump_rule(args) -> int:
    check_alpha(args.alpha)
    check_counts(angles=args.angles)
    if args.angles is not None and args.angles > _PHI_COUNT_CAP:
        raise ValueError(f"angles must be at most {_PHI_COUNT_CAP}, got {args.angles}")
    nodes, weights = radial_rule(args.alpha, args.nodes)
    records = [("radial", i, t, w) for i, (t, w) in enumerate(zip(nodes, weights))]
    if args.angles is not None:
        thetas, wt = circle_rule(args.angles)
        records.extend(("angular", j, th, wt) for j, th in enumerate(thetas))
    header = ("component", "index", "node", "weight")
    return _print_table(args, "csv", header, records)


# The options that several subcommands read.
_SHARED = {
    "--seed": dict(type=int, default=0, help="RNG seed"),
    "--out": dict(choices=("csv", "json"), default=None, help="output format"),
    "--quiet": dict(action="store_true", help="suppress summaries"),
}


def _set_handler(sub, handler, *options) -> None:
    """sub runs handler and takes the shared options that handler reads."""
    sub.set_defaults(handler=handler)
    for option in options:
        sub.add_argument(option, **_SHARED[option])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berglab",
        description="Weighted Bergman/Hardy norms and sharp inequality checks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("norm", help="norm of a polynomial in one weighted space")
    s.add_argument("--space", required=True, help="e.g. alpha=2,p=4")
    s.add_argument("--poly", required=True)
    s.add_argument("--method", choices=("exact", "quad", "mc"), default="quad")
    s.add_argument("--nodes", type=int, default=None)
    s.add_argument("--angles", type=int, default=None)
    s.add_argument("--samples", type=int, default=None, help="default 200000")
    _set_handler(s, _cmd_norm, "--seed", "--out")
    s.set_defaults(seed=None)  # seed 0 unless given, and given for mc only

    for check in CHECKS.values():
        if check.command is None:  # makes acceptance rows only
            continue
        s = subs.add_parser(check.command, help=check.help)
        for param in check.params:
            s.add_argument(
                "--" + param.name.replace("_", "-"),
                type=param.type,
                default=param.default,
                required=param.required,
                choices=param.choices,
                help=param.help,
            )
        _set_handler(s, _cmd_check, "--out", "--quiet")
        s.set_defaults(check=check)

    s = subs.add_parser("phi", help="circle-mean profile and second derivative")
    s.add_argument("--poly", required=True)
    s.add_argument("--q", type=float, required=True)
    s.add_argument("--ymin", type=float, default=0.05)
    s.add_argument("--ymax", type=float, default=0.9)
    s.add_argument("--count", type=int, default=35)
    _set_handler(s, _cmd_phi, "--out")

    s = subs.add_parser("sweep", help="run a config-driven grid of checks")
    s.add_argument("--config", required=True)
    s.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    _set_handler(s, _cmd_sweep, "--out", "--quiet")

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
    _set_handler(s, _cmd_verify_suite, "--seed", "--quiet")

    s = subs.add_parser("dump-rule", help="dump quadrature nodes/weights as CSV")
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--nodes", type=int, default=64)
    s.add_argument("--angles", type=int, default=None)
    _set_handler(s, _cmd_dump_rule, "--out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with ONE_BLAS_THREAD:
            return args.handler(args)
    except (ValueError, RuntimeError, OSError) as exc:
        # a closed stdout never gets here: ``write_text`` drops what follows
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, RuntimeError) else 2


if __name__ == "__main__":
    sys.exit(main())
