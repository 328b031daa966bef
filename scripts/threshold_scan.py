#!/usr/bin/env python3
"""Scan the perturbation size used in the empirical threshold search.

For each eps the bisection returns an empirical critical radius for the
family 1 + eps*z, raw and Richardson-refined (the bias is even in eps).
The refined column does not collapse onto the formula value.  At the
default --tol 1e-4 both columns are limited by the bisection's step: at
small eps they print the same radius, about 4e-5 off.  At a tighter --tol
the refined error grows as eps shrinks, since the search compares with
``checks.INEQ_SLACK``, which moves the crossover by about
slack / (2 A_q r0 eps^2), A_q = q / (4 beta): a shift that grows 4 times
each time eps halves.  ROADMAP item 19 plans the search without slack.
Output is plot-ready CSV on stdout or --out.
"""
import argparse
import sys

from berglab.checks import INEQ_SLACK
from berglab.inequalities import sharp_radius, threshold_search
from berglab.report import table_text, write_text

HEADER = ("eps", "r_raw", "r_refined", "formula", "raw_error", "refined_error")


def run_scan(space, eps_values, tol: float):
    """Yield one row per eps for the (alpha, beta, p, q) space."""
    r0 = sharp_radius(*space)
    for eps in eps_values:
        rep = threshold_search(*space, slack=INEQ_SLACK, eps=eps, tol=tol)
        raw, refined = rep.r_star_raw, rep.r_star_empirical
        yield eps, raw, refined, r0, abs(raw - r0), abs(refined - r0)


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

    space = (args.alpha, args.beta, args.p, args.q)
    eps_values = [float(x) for x in args.eps.split(",") if x.strip()]
    write_text(table_text(HEADER, run_scan(space, eps_values, args.tol)), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
