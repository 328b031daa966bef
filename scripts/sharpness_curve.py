#!/usr/bin/env python3
"""Per-degree attainment of the degree-growth constant along m = 1..m_max.

attainment^(1/m) should climb toward 1 with the finite-sample and finite-n
corrections shrinking like the Gaussian-limit analysis predicts; the whole
bound attainment column decreases because of the polynomial prefactors in
the Gaussian moments.
"""
import argparse
import sys

from berglab.extremal import sharpness_exhibit
from berglab.report import table_text, write_text

HEADER = ("m", "ratio", "ci", "bound", "attainment", "per_degree", "limit_per_degree")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=2.0)
    ap.add_argument("--beta", type=float, default=2.0)
    ap.add_argument("--p", type=float, default=2.0)
    ap.add_argument("--q", type=float, default=4.0)
    ap.add_argument("--m-max", type=int, default=4, dest="m_max")
    ap.add_argument("--n", type=int, default=64)
    ap.add_argument("--samples", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    rows = []
    for m in range(1, args.m_max + 1):
        rep = sharpness_exhibit(
            args.alpha,
            args.beta,
            args.p,
            args.q,
            m,
            n=args.n,
            n_samples=args.samples,
            seed=args.seed,
        )
        rows.append(
            (
                m,
                rep.ratio,
                rep.ci,
                rep.bound,
                rep.attainment,
                rep.per_degree_attainment,
                rep.limit_per_degree,
            )
        )
    write_text(table_text(HEADER, rows), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
