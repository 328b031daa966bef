"""Acceptance gate: the eight primary criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line with the criterion's stated
tolerance and asserts both the verdict and the runtime budget.
"""
import hashlib
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import berglab
from berglab import acceptance
from berglab.acceptance import run_criterion

SEED = 1729
# sha256 of the verify-suite CSV at SEED; a change that moves any number in
# it updates this pin and says so
SUITE_SHA256 = "ac157f191075419054a36c746fa72d175a75571d5b196bbb95b6b55b535911f0"


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
    emit(res, "identity discrepancy <= 1e-7; convexity floor -1e-7")
    assert res.passed
    assert res.runtime_s < 10.0


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


def test_negative_control_names_failing_criterion(tmp_path):
    proc, _ = _run_suite(
        tmp_path / "bad.csv", "--nodes-override", "1", "--filter", "oracle"
    )
    assert proc.returncode == 1
    assert "c1-oracle-agreement" in proc.stdout


def test_filter_selects_single_criterion(tmp_path):
    proc, _ = _run_suite(tmp_path / "st.csv", "--filter", "stirling")
    assert proc.returncode == 0
    lines = [l for l in proc.stdout.splitlines() if l.startswith("[")]
    assert len(lines) == 1
    assert "c7-sharpness-asymptotics" in lines[0]


def _suite_on_cores(cores, csv_path, monkeypatch):
    """verify_suite as if the process could run on ``cores`` cores.

    Returns (exit code, CSV bytes, emitted lines, threads that ran criteria).
    """
    monkeypatch.setattr(
        acceptance.os, "sched_getaffinity", lambda pid: set(range(cores))
    )
    threads = set()

    def recording(*args, **kwargs):
        threads.add(threading.get_ident())
        return run_criterion(*args, **kwargs)

    monkeypatch.setattr(acceptance, "run_criterion", recording)
    lines = []
    code = acceptance.verify_suite(seed=SEED, csv_path=str(csv_path), emit=lines.append)
    return code, csv_path.read_bytes(), lines, threads


def test_pooled_and_serial_suites_are_identical(tmp_path, monkeypatch):
    # the cheap criteria c1-c5 stand in for the whole suite
    monkeypatch.setattr(acceptance, "_RUNNERS", acceptance._RUNNERS[:5])
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
    # one core runs inline; two run every criterion off the calling thread
    assert serial[3] == {threading.get_ident()}
    assert threading.get_ident() not in pooled[3]


def test_slow_criteria_start_first_and_print_in_criterion_order(monkeypatch):
    started = []

    def instant(cid, seed, nodes_override=None):
        started.append(cid)
        return acceptance.CriterionResult(cid, True, 0.0, ())

    # one core runs the criteria inline, in the order they are handed over
    monkeypatch.setattr(acceptance.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(acceptance, "run_criterion", instant)
    lines = []
    assert acceptance.verify_suite(seed=SEED, csv_path="", emit=lines.append) == 0
    ids = acceptance.CRITERION_IDS
    assert started == [*ids[5:], *ids[:5]]
    assert [line.split(" (")[0] for line in lines[:-1]] == [f"[PASS] {c}" for c in ids]


@pytest.mark.parametrize("cores", [1, 2])
def test_an_exception_in_a_criterion_propagates(cores, tmp_path, monkeypatch):
    def broken(seed, nodes_override=None):
        raise RuntimeError("criterion broke")

    runners = acceptance._RUNNERS
    monkeypatch.setattr(
        acceptance, "_RUNNERS", (runners[3], ("c9-broken", (), broken), runners[2])
    )
    with pytest.raises(RuntimeError, match="criterion broke"):
        _suite_on_cores(cores, tmp_path / "broken.csv", monkeypatch)
    assert not (tmp_path / "broken.csv").exists()
