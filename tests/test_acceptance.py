"""Acceptance gate: the eight primary criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line with the criterion's stated
tolerance and asserts both the verdict and the runtime budget.
"""
import hashlib
import subprocess
import sys
import time

import pytest

from berglab.acceptance import run_criterion

SEED = 1729
# sha256 of the verify-suite CSV at SEED; a change that moves any number in
# it updates this pin and says so
SUITE_SHA256 = "4bd428ff200a0a64c5563c9a49dc7df2baec3cbb38be0bcdba25cf5a005f237c"


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
    proc = subprocess.run(argv, capture_output=True, text=True)
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
