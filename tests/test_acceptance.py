"""Acceptance gate: the eight primary criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line with the criterion's stated
tolerance and asserts both the verdict and the runtime budget.
"""
import argparse
import csv
import hashlib
import io
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

import berglab
from berglab import acceptance, norms, sweep
from berglab.acceptance import _timed_row, run_criterion
from berglab.checks import CHECKS, IBP_TOL
from berglab.cli import build_parser, main
from berglab.poly import ComplexPolynomial
from berglab.report import VerificationReport

SEED = 1729
# sha256 of the verify-suite CSV at SEED; a change that moves any number in
# it updates this pin and says so
SUITE_SHA256 = "4abc84b803a68a3b075fa505a628018e001dff363874a8195b9a9464c4841015"
# the same at seed 7; with seed 31's below, the byte-identity gate covers
# three seeds
SUITE_SHA256_SEED_7 = "396f90d66d6b676cd4ae07015a60ca5dd8270a926334435555e06cb101247926"


def emit(result, tolerance_note):
    verdict = "PASS" if result.passed else "FAIL"
    print(
        f"[{verdict}] {result.criterion_id} "
        f"({result.runtime_s:.2f} s, {tolerance_note}): {result.detail}"
    )


def test_c1_oracle_agreement():
    res = run_criterion("c1-oracle-agreement", seed=SEED)
    emit(res, "1e-10 relative")
    assert res.passed
    assert res.runtime_s < 20.0


def test_c2_contraction_at_sharp_radius():
    res = run_criterion("c2-sharp-radius-contraction", seed=SEED)
    emit(res, "slack 1e-10 relative")
    assert res.passed
    assert res.runtime_s < 30.0


def test_c3_threshold_recovery():
    res = run_criterion("c3-threshold-recovery", seed=SEED)
    emit(res, "|empirical - formula| <= 5e-3")
    assert res.passed
    assert res.runtime_s < 10.0


def test_c4_necessity_expansion():
    res = run_criterion("c4-necessity-expansion", seed=SEED)
    emit(res, "cubic residual decay; closed form within 10%")
    assert res.passed
    assert res.runtime_s < 5.0


def test_c5_profile_machinery():
    res = run_criterion("c5-profile-machinery", seed=SEED)
    emit(res, "identity discrepancy <= 1e-10; convexity floor -1e-7")
    assert res.passed
    assert res.runtime_s < 10.0
    # the IBP rows, all at even q, are judged at IBP_TOL, not the check's 1e-7
    ibp = [row for row in res.rows if row.params.startswith("check=ibp;")]
    assert len(ibp) == 12
    assert all(row.target == IBP_TOL and row.computed <= 1e-3 * IBP_TOL for row in ibp)


def test_c6_degree_bound_and_isometry():
    res = run_criterion("c6-nikolskii-isometry", seed=SEED)
    emit(res, "bound slack 1e-9; isometry 1e-8 relative")
    assert res.passed
    assert res.runtime_s < 40.0


def test_c7_sharpness_asymptotics():
    res = run_criterion("c7-sharpness-asymptotics", seed=SEED)
    emit(res, "ratio within max(4*CI, 3%); gamma-ratio within 2%")
    assert res.passed
    assert res.runtime_s < 30.0


def test_a_broken_homogenization_fails_the_isometry_rows(monkeypatch):
    def off_by_one(self, m):  # the first term's w exponent is one too high
        terms = [(g + (m - sum(g),), c) for g, c in self.terms]
        (g, c), *rest = terms
        return ComplexPolynomial(self.nvars + 1, ((g[:-1] + (g[-1] + 1,), c), *rest))

    monkeypatch.setattr(ComplexPolynomial, "homogenize", off_by_one)
    check = CHECKS["isometry"]
    statuses = {}
    for name, inputs, _ in acceptance.c6_nikolskii_isometry(SEED):
        if name == "isometry":
            row = check.build(**check.filled(inputs))
            statuses.setdefault(inputs["p"], set()).add(row["status"])
    # At p = 2 the squared mixed norm is sum |c_gamma|^2 mom(gamma) whatever
    # the w exponents, the monomials staying orthogonal, so only the other
    # exponents can see the fault
    assert statuses == {2.0: {"pass"}, 3.5: {"fail"}, 4.0: {"fail"}}


@pytest.mark.parametrize("seed", [SEED, 7])
def test_c7_ratio_agrees_with_the_exact_finite_n_ratio(seed):
    res = run_criterion("c7-sharpness-asymptotics", seed=seed)
    [row] = [r for r in res.rows if "check=extremal-ratio" in r.params]
    # (1/(3n) + (n-1)/(2n))^(1/4) / (1/sqrt 2) at n = 64
    exact = 1.1876556347068343
    assert row.status == "pass"
    assert row.est_error <= 2.0e-3
    assert abs(row.computed - exact) <= 4.0 * row.est_error
    assert row.note.endswith(";samples=40000")


def _run_suite(csv_path, *extra):
    """The CLI in a fresh process, importing the berglab this process tests."""
    src = str(Path(berglab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    argv = [
        sys.executable,
        "-m",
        "berglab.cli",
        "verify-suite",
        "--seed",
        str(SEED),
        "--csv",
        str(csv_path),
        *extra,
    ]
    t0 = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    return proc, time.monotonic() - t0


def test_c8_determinism_and_wall_clock(tmp_path):
    first, dt1 = _run_suite(tmp_path / "one.csv")
    second, dt2 = _run_suite(tmp_path / "two.csv")
    assert first.returncode == 0, first.stdout + first.stderr
    assert second.returncode == 0, second.stdout + second.stderr
    a = (tmp_path / "one.csv").read_bytes()
    b = (tmp_path / "two.csv").read_bytes()
    identical = a == b
    in_budget = dt1 < 180.0 and dt2 < 180.0
    verdict = "PASS" if identical and in_budget else "FAIL"
    print(
        f"[{verdict}] c8-determinism ({dt1:.2f} s + {dt2:.2f} s, "
        f"byte-identical CSV, wall clock < 180 s): "
        f"{len(a)} bytes vs {len(b)} bytes"
    )
    assert identical
    assert in_budget
    assert hashlib.sha256(a).hexdigest() == SUITE_SHA256


@pytest.mark.parametrize(
    "seed, digest",
    [
        (7, SUITE_SHA256_SEED_7),
        (31, "bd5af014008e0b533c41156685c6e82fac44c3f948fb750dc3eea4c0db2ca67b"),
    ],
    ids=["7", "31"],
)
def test_suite_csv_at_a_second_seed(seed, digest, tmp_path):
    csv_path = tmp_path / f"seed{seed}.csv"
    assert acceptance.verify_suite(seed=seed, csv_path=str(csv_path), quiet=True) == 0
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == digest


def test_every_table_entry_names_a_registered_check():
    assert all(len(criterion) == 3 for criterion in acceptance._CRITERIA)
    named = {entry[0] for _, _, table in acceptance._CRITERIA for entry in table(SEED)}
    assert named <= set(CHECKS)
    rows_only = {name for name, check in CHECKS.items() if check.command is None}
    assert rows_only == {"oracle", "expansion", "convexity", "majorant", "isometry"}
    assert rows_only <= named
    # the entries without a command give no subcommand and no sweep kind
    parser = build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    commands = {check.command for check in CHECKS.values()} - {None}
    others = {"norm", "phi", "sweep", "verify-suite", "dump-rule"}
    assert set(subs.choices) == commands | others
    kinds = ("hyper", "nikolskii", "kulikov", "weissler", "threshold")
    assert sweep.CHECK_KINDS == kinds


def test_negative_control_names_failing_criterion(tmp_path):
    proc, _ = _run_suite(
        tmp_path / "bad.csv", "--nodes-override", "1", "--filter", "oracle"
    )
    assert proc.returncode == 1
    failing = [line for line in proc.stdout.splitlines() if line.startswith("[FAIL]")]
    assert len(failing) == 1 and "c1-oracle-agreement" in failing[0]


def test_c1_sees_one_even_p_angle_too_few(tmp_path, monkeypatch):
    # the even-p default grids carry the least angle count that is exact, so
    # c1's oracle rows fail when every even-p axis loses one angle
    rule = norms._grid_rule

    def one_angle_fewer(degrees, alpha, p, nodes=None, angles=None, **kwargs):
        grid = rule(degrees, alpha, p, nodes, angles, **kwargs)
        if angles is not None or norms._even_half(p) is None:
            return grid
        return tuple((a, k, max(m - 1, 1)) for a, k, m in grid)

    monkeypatch.setattr(norms, "_grid_rule", one_angle_fewer)
    lines = []
    code = acceptance.verify_suite(
        seed=SEED, filter_text="c1", csv_path=str(tmp_path / "c1.csv"),
        emit=lines.append,
    )
    assert code == 1
    assert lines[0].startswith("[FAIL] c1-oracle-agreement")
    assert lines[0].endswith(": 0/120 rows pass")


def test_filter_selects_single_criterion(tmp_path):
    proc, _ = _run_suite(tmp_path / "st.csv", "--filter", "stirling")
    assert proc.returncode == 0
    lines = [l for l in proc.stdout.splitlines() if l.startswith("[")]
    assert len(lines) == 1
    assert "c7-sharpness-asymptotics" in lines[0]


def _suite_on_cores(cores, csv_path, monkeypatch, filter_text=None):
    """verify_suite as if the process could run on ``cores`` cores.

    Returns (exit code, CSV bytes, emitted lines, threads that ran rows).
    """
    monkeypatch.setattr(
        acceptance.os, "sched_getaffinity", lambda pid: set(range(cores))
    )
    threads = set()

    def recording(task):
        threads.add(threading.get_ident())
        return _timed_row(task)

    monkeypatch.setattr(acceptance, "_timed_row", recording)
    lines = []
    code = acceptance.verify_suite(
        seed=SEED, filter_text=filter_text, csv_path=str(csv_path), emit=lines.append
    )
    return code, csv_path.read_bytes(), lines, threads


def test_pooled_and_serial_suites_are_identical(tmp_path, monkeypatch):
    # the cheap criteria c1-c5 stand in for the whole suite
    monkeypatch.setattr(acceptance, "_CRITERIA", acceptance._CRITERIA[:5])
    serial = _suite_on_cores(1, tmp_path / "serial.csv", monkeypatch)
    pooled = _suite_on_cores(2, tmp_path / "pooled.csv", monkeypatch)
    assert serial[0] == pooled[0] == 0
    assert serial[1] == pooled[1]
    verdicts = [
        [line.split(" (")[0] for line in run[2] if line.startswith("[")]
        for run in (serial, pooled)
    ]
    expected = [f"[PASS] {cid}" for cid in acceptance.CRITERION_IDS[:5]]
    assert verdicts == [expected, expected]
    assert serial[2][-2].startswith("all 5 criteria pass (")
    assert serial[2][-2].endswith(" s wall, 1 worker)")
    assert pooled[2][-2].endswith(" s wall, 2 workers)")
    # one core runs inline; two run every row off the calling thread
    assert serial[3] == {threading.get_ident()}
    assert threading.get_ident() not in pooled[3]


def test_the_last_entry_starts_first_and_lines_print_in_criterion_order(monkeypatch):
    started = []

    def recording(task):
        started.append(task[1][2]["entry"])
        return _timed_row(task)

    def table(cid):
        return lambda seed: [("stirling", {}, dict(entry=f"{cid}:{i}")) for i in (1, 2)]

    # the same criteria, each a table of two one-row stirling entries
    criteria = [(cid, aliases, table(cid)) for cid, aliases, _ in acceptance._CRITERIA]
    # one core runs the rows inline, in the order they are handed over
    monkeypatch.setattr(acceptance.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(acceptance, "_CRITERIA", tuple(criteria))
    monkeypatch.setattr(acceptance, "_timed_row", recording)
    lines = []
    assert acceptance.verify_suite(seed=SEED, csv_path="", emit=lines.append) == 0
    ids = acceptance.CRITERION_IDS
    assert started == [f"{cid}:{i}" for cid in reversed(ids) for i in (2, 1)]
    assert [line.split(" (")[0] for line in lines[:-1]] == [f"[PASS] {c}" for c in ids]


def test_run_criterion_takes_criterion_ids_only():
    with pytest.raises(ValueError, match="unknown criterion"):
        run_criterion("c6-nikolskii-isometry/1")


def test_a_criterion_run_alone_equals_its_rows_in_a_pooled_suite(tmp_path, monkeypatch):
    cid = "c6-nikolskii-isometry"
    alone = run_criterion(cid, seed=SEED)
    code, csv_bytes, lines, threads = _suite_on_cores(
        2, tmp_path / "c6.csv", monkeypatch, "nikolskii-isometry"
    )
    assert code == 0
    # its rows ran on both pool threads, and the verdict line is c6's
    assert len(threads) == 2 and threading.get_ident() not in threads
    assert [line.split(" (")[0] for line in lines if line.startswith("[")] == [
        f"[PASS] {cid}"
    ]
    assert csv_bytes == VerificationReport(list(alone.rows)).to_csv().encode()
    # in table order: the 200 bound rows, then the isometry rows
    checks = [row.params.split("check=")[1].split(";")[0] for row in alone.rows]
    assert checks == ["nikolskii"] * 200 + ["isometry"] * 20


@pytest.mark.parametrize("cores", [1, 2])
def test_an_exception_in_a_criterion_becomes_an_error_row(
    cores, tmp_path, monkeypatch
):
    def broken(seed):
        # a grid the stirling check cannot parse makes its run raise
        return [("stirling", dict(grid="0.1,broken"), dict(grid="broken"))]

    criteria = acceptance._CRITERIA
    monkeypatch.setattr(
        acceptance, "_CRITERIA", (criteria[3], ("c9-broken", (), broken), criteria[2])
    )
    code, csv_bytes, lines, _ = _suite_on_cores(
        cores, tmp_path / "broken.csv", monkeypatch
    )
    assert code == 1
    verdicts = [line.split(" (")[0] for line in lines if line.startswith("[")]
    assert verdicts == [
        "[PASS] c4-necessity-expansion",
        "[FAIL] c9-broken",
        "[PASS] c3-threshold-recovery",
    ]
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
    [error] = [row for row in rows if row["status"] == "error"]
    assert (error["check_id"], error["params"]) == ("c9-broken", "grid=broken")
    assert error["note"].startswith("ValueError: ") and "broken" in error["note"]
    assert len(rows) == 1 + 6 + 4  # the error row beside c4's and c3's


def test_a_raising_suite_row_keeps_no_field_override(tmp_path, monkeypatch):
    # c7's Monte Carlo row appends ";samples=" to its note; the row of a
    # check that raised keeps the exception as its note, and the suite still
    # writes its CSV and exits 1 from the command line
    def boom(**inputs):
        raise ValueError("boom")

    monkeypatch.setitem(CHECKS, "extremal", replace(CHECKS["extremal"], build=boom))
    csv_path = tmp_path / "c7.csv"
    argv = ["verify-suite", "--filter", "extremal", "--quiet", "--csv", str(csv_path)]
    assert main(argv) == 1
    rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
    [mc] = [row for row in rows if "extremal" in row["params"]]
    assert (mc["status"], mc["note"]) == ("error", "ValueError: boom")
    assert [row["status"] for row in rows].count("pass") == 2


@pytest.mark.parametrize("nodes", [0, 100_000])
def test_a_bad_nodes_override_is_refused_before_any_row_runs(
    nodes, tmp_path, monkeypatch
):
    def no_row(task):
        raise AssertionError("a row ran")

    monkeypatch.setattr(acceptance, "_timed_row", no_row)
    csv_path = tmp_path / "suite.csv"
    with pytest.raises(ValueError, match="nodes must be"):
        acceptance.verify_suite(
            filter_text="oracle", csv_path=str(csv_path), nodes_override=nodes
        )
    assert not csv_path.exists()
