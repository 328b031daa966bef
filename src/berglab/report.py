"""Structured pass/fail reporting with a stable CSV schema.

Row rendering rules keep the CSV byte-reproducible: floats are written with
repr (shortest round-trip form) and rows are sorted by (check_id, params).
Wall-clock time appears only in the human summary, never in the CSV.  Every
table the CLI and the scripts print, a report or not, is formatted by
`table_text`, as CSV or one line of strict JSON, and written by `write_text`.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field

__all__ = [
    "CSV_HEADER", "ReportRow", "VerificationReport", "at_most", "fmt_value",
    "table_text", "write_text",
]

CSV_HEADER = (
    "check_id",
    "params",
    "computed",
    "target",
    "status",
    "method",
    "est_error",
    "hypothesis_ok",
    "note",
)

_STATUSES = ("pass", "fail", "out-of-hypothesis", "error")


def fmt_value(x) -> str:
    """Round-trip text form of a scalar; empty string for None, text as is."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(int(x))
    try:  # the builtin's repr: numpy scalars subclass float but repr differently
        return repr(float(x))
    except (TypeError, ValueError):
        return str(x)


def _json_value(x):
    """x as strict JSON holds it: a non-finite float as its CSV text."""
    return fmt_value(x) if isinstance(x, float) and not math.isfinite(x) else x


def table_text(header, records, out: str = "csv", one: bool = False) -> str:
    """records under header as CSV, every value through fmt_value, or as one
    line of JSON: a list of objects with sorted keys (the one object alone
    with ``one``), values as they are but a non-finite float as its text."""
    if out == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(fmt_value, record) for record in records)
        return buf.getvalue()
    payload = [dict(zip(header, map(_json_value, record))) for record in records]
    text = json.dumps(payload[0] if one else payload, sort_keys=True, allow_nan=False)
    return text + "\n"


def write_text(text: str, path: str | None = None) -> None:
    """Write text to the file at path, or to stdout when no path is given;
    once stdout's reader has gone (``| head``), the rest is dropped quietly."""
    if path:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def at_most(computed: float, bound: float, slack: float) -> bool:
    """computed <= bound * (1 + slack): the one upper-bound comparison, used
    by the inequality rows and the threshold bisection with a relative slack."""
    return computed <= bound * (1.0 + slack)


def check_writable(path: str) -> None:
    """Raise the OSError that writing a report to path would, and leave the
    path as it was: an existing file is opened to append, a new one removed,
    and a symlink kept while its target is checked so."""
    path = os.path.realpath(path)
    new = not os.path.exists(path)
    open(path, "a", encoding="utf-8").close()
    if new:
        os.remove(path)


@dataclass(frozen=True)
class ReportRow:
    check_id: str
    params: str
    computed: object
    target: object
    status: str
    method: str = ""
    est_error: object = None
    hypothesis_ok: bool = True
    note: str = ""

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"status must be one of {_STATUSES}, got {self.status!r}")

    def csv_fields(self) -> tuple[str, ...]:
        return (
            self.check_id,
            self.params,
            fmt_value(self.computed),
            fmt_value(self.target),
            self.status,
            self.method,
            fmt_value(self.est_error),
            fmt_value(self.hypothesis_ok),
            self.note,
        )


@dataclass
class VerificationReport:
    rows: list = field(default_factory=list)

    def extend(self, rows) -> None:
        self.rows.extend(rows)

    def sorted_rows(self) -> list:
        return sorted(self.rows, key=lambda r: (r.check_id, r.params))

    @property
    def aggregate_pass(self) -> bool:
        """True when every in-hypothesis row passes.

        Rows labeled out-of-hypothesis are excluded from aggregation; rows
        with status error count as failures (a check that crashed did not
        pass).
        """
        return all(
            row.status == "pass"
            for row in self.rows
            if row.status != "out-of-hypothesis"
        )

    def counts(self) -> dict:
        out = {status: 0 for status in _STATUSES}
        for row in self.rows:
            out[row.status] += 1
        return out

    def records(self) -> list:
        """The CSV fields of the rows, in sorted order."""
        return [row.csv_fields() for row in self.sorted_rows()]

    def to_csv(self) -> str:
        return table_text(CSV_HEADER, self.records())

    def write_csv(self, path: str) -> None:
        write_text(self.to_csv(), path)

    def summary(self, elapsed_s: float | None = None) -> str:
        """One-line verdict and status counts, with the elapsed time if given."""
        c = self.counts()
        total = len(self.rows)
        verdict = "PASS" if self.aggregate_pass else "FAIL"
        parts = [f"{total} checks"]
        for status in _STATUSES:
            if c[status]:
                parts.append(f"{c[status]} {status}")
        body = ", ".join(parts)
        if elapsed_s is None:
            return f"[{verdict}] {body}"
        return f"[{verdict}] {body} ({elapsed_s:.1f} s)"
