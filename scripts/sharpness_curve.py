#!/usr/bin/env python3
"""Per-degree attainment of the degree-growth constant along m = 1..m_max.

attainment^(1/m) should climb toward 1 with the finite-sample and finite-n
corrections shrinking like the Gaussian-limit analysis predicts; the whole
bound attainment column decreases because of the polynomial prefactors in
the Gaussian moments.
"""
import argparse
import csv
import sys
from types import SimpleNamespace

from berglab.cli import _write
from berglab.extremal import sharpness_exhibit


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
            [
                m,
                repr(rep.ratio),
                repr(rep.ci),
                repr(rep.bound),
                repr(rep.attainment),
                repr(rep.per_degree_attainment),
                repr(rep.limit_per_degree),
            ]
        )

    stdout = SimpleNamespace(write=_write)  # a reader may close the pipe early
    out = open(args.out, "w", encoding="utf-8") if args.out else stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["m", "ratio", "ci", "bound", "attainment", "per_degree", "limit_per_degree"]
        )
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
