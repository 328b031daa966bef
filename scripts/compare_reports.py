#!/usr/bin/env python3
"""Compare two report CSVs of the same rows: status changes and value drift.

    python scripts/compare_reports.py OLD.csv NEW.csv

Both files must hold the same rows in the same order (check_id, params),
else the script exits 2.  It prints every status change, then per check_id
and ``check=`` entry of params (so a criterion's bound rows and agreement
rows get a line each) the worst absolute and relative change of computed,
target and est_error (relative to the larger of the two magnitudes) and
the worst drift as a share of the old margin, (|change of computed| + |change of target|) /
|old target - old computed|, so a row that moved close to its bound shows
(inf where a row at its bound moved at all); it exits 1 on any status
change.  The share reads a margin only on rows that bound computed by
target: on an agreement row, where computed is meant to equal target, a
move of one rounding unit can read 1 or more, which is why those rows
are kept apart.  A reader that closes the pipe early (``| head``) gets
what it read, with no traceback, and the exit code is the comparison's.
"""
import csv
import math
import os
import sys

FIELDS = ("computed", "target", "est_error")


def margin_share(a: dict, b: dict) -> float:
    """(|change of computed| + |change of target|) / |old margin| of one row;
    0 where either row lacks a value or nothing moved."""
    try:
        old_c, old_t, new_c, new_t = (float(r[f]) for r in (a, b) for f in FIELDS[:2])
    except ValueError:
        return 0.0
    drift = abs(new_c - old_c) + abs(new_t - old_t)
    margin = abs(old_t - old_c)
    if not drift:
        return 0.0
    return drift / margin if margin else math.inf


def group(row: dict) -> str:
    """The row's check_id, and the ``check=`` entry of its params if any."""
    entries = [e for e in row["params"].split(";") if e.startswith("check=")]
    return " ".join([row["check_id"], *entries])


def emit(lines: list) -> None:
    """Print the lines; once the reader has closed the pipe, drop the rest
    (stdout then writes to the null device, flushes at exit included)."""
    try:
        print(*lines, sep="\n", flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def compare(old_path: str, new_path: str) -> int:
    with open(old_path, newline="") as f_old, open(new_path, newline="") as f_new:
        old, new = list(csv.DictReader(f_old)), list(csv.DictReader(f_new))
    if [(r["check_id"], r["params"]) for r in old] != [
        (r["check_id"], r["params"]) for r in new
    ]:
        emit(["the reports do not hold the same rows in the same order"])
        return 2
    lines = []
    worst: dict = {}
    shares: dict = {}
    changed = 0
    for a, b in zip(old, new):
        if a["status"] != b["status"]:
            changed += 1
            lines.append(f"{a['check_id']},{a['params']}: {a['status']} -> {b['status']}")
        key = group(a)
        per = worst.setdefault(key, {f: (0.0, 0.0) for f in FIELDS})
        for f in FIELDS:
            if a[f] and b[f] and float(a[f]) != float(b[f]):
                x, y = float(a[f]), float(b[f])
                gap = abs(x - y)
                rel = gap / max(abs(x), abs(y))
                per[f] = (max(per[f][0], gap), max(per[f][1], rel))
        shares[key] = max(shares.get(key, 0.0), margin_share(a, b))
    for key, per in worst.items():
        drift = (f"{f} abs={g:.3g} rel={r:.3g}" for f, (g, r) in per.items())
        lines.append(f"{key} {' '.join(drift)} drift/margin={shares[key]:.3g}")
    lines.append(f"{changed} status changes over {len(old)} rows")
    emit(lines)
    return 1 if changed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print("usage: compare_reports.py OLD.csv NEW.csv", file=sys.stderr)
        sys.exit(2)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
