#!/usr/bin/env python3
"""Scan the perturbation size used in the empirical threshold search.

For each eps the bisection returns an empirical critical radius for the
family 1 + eps*z; the theory says the bias is even in eps, so the printed
Richardson column should collapse onto the formula value much faster than
the raw column.  Output is plot-ready CSV on stdout or --out.
"""
import argparse
import csv
import sys
from dataclasses import dataclass

from berglab.checks import INEQ_SLACK
from berglab.inequalities import sharp_radius, threshold_search


@dataclass(frozen=True)
class ScanConfig:
    alpha: float
    beta: float
    p: float
    q: float
    eps_values: tuple[float, ...]
    tol: float


def run_scan(cfg: ScanConfig, out) -> None:
    space = (cfg.alpha, cfg.beta, cfg.p, cfg.q)
    r0 = sharp_radius(*space)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["eps", "r_raw", "r_refined", "formula", "raw_error", "refined_error"]
    )
    for eps in cfg.eps_values:
        rep = threshold_search(*space, slack=INEQ_SLACK, eps=eps, tol=cfg.tol)
        writer.writerow(
            [
                repr(eps),
                repr(rep.r_star_raw),
                repr(rep.r_star_empirical),
                repr(r0),
                repr(abs(rep.r_star_raw - r0)),
                repr(abs(rep.r_star_empirical - r0)),
            ]
        )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=2.0)
    ap.add_argument("--beta", type=float, default=3.0)
    ap.add_argument("--p", type=float, default=2.0)
    ap.add_argument("--q", type=float, default=4.0)
    ap.add_argument(
        "--eps",
        default="0.08,0.04,0.02,0.01,0.005",
        help="comma separated perturbation sizes",
    )
    ap.add_argument("--tol", type=float, default=1e-4)
    ap.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = ap.parse_args(argv)

    cfg = ScanConfig(
        alpha=args.alpha,
        beta=args.beta,
        p=args.p,
        q=args.q,
        eps_values=tuple(float(x) for x in args.eps.split(",") if x.strip()),
        tol=args.tol,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            run_scan(cfg, fh)
    else:
        run_scan(cfg, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
