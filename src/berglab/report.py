"""Structured pass/fail reporting with a stable CSV schema.

Row rendering rules keep the CSV byte-reproducible: floats are written with
repr (shortest round-trip form) and rows are sorted by (check_id, params).
Wall-clock time appears only in the human summary, never in the CSV.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

__all__ = ["CSV_HEADER", "ReportRow", "VerificationReport", "at_most", "fmt_value"]

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
    if isinstance(x, float):
        # force the builtin: numpy scalars subclass float but repr differently
        return repr(float(x))
    try:
        return repr(float(x))
    except (TypeError, ValueError):
        return str(x)


def at_most(computed: float, bound: float, slack: float) -> bool:
    """computed <= bound * (1 + slack): the one upper-bound comparison, used
    by the inequality rows and the threshold bisection with a relative slack."""
    return computed <= bound * (1.0 + slack)


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

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in self.sorted_rows():
            writer.writerow(row.csv_fields())
        return buf.getvalue()

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(self.to_csv())

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
