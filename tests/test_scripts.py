"""Smoke runs of the scripts on tiny inputs."""
import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from berglab.acceptance import verify_suite
from berglab.report import ReportRow, VerificationReport

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name, argv, tmp_path):
    """Run scripts/<name>.py's main with --out; return the CSV rows."""
    out = tmp_path / f"{name}.csv"
    assert load_script(name).main([*argv, "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def test_threshold_scan_writes_one_row_per_eps(tmp_path):
    rows = run_script(
        "threshold_scan", ["--eps", "0.04,0.02", "--tol", "1e-3"], tmp_path
    )
    assert rows[0] == [
        "eps", "r_raw", "r_refined", "formula", "raw_error", "refined_error"
    ]
    assert [row[0] for row in rows[1:]] == ["0.04", "0.02"]
    for row in rows[1:]:
        # the default space (2, 3, 2, 4) has critical radius sqrt(3/4)
        assert float(row[3]) == pytest.approx(0.75 ** 0.5, rel=1e-15)
        assert float(row[4]) < 5e-3


def test_sharpness_curve_writes_one_row_per_degree(tmp_path):
    argv = ["--m-max", "2", "--n", "4", "--samples", "2000", "--seed", "3"]
    rows = run_script("sharpness_curve", argv, tmp_path)
    assert rows[0] == [
        "m", "ratio", "ci", "bound", "attainment", "per_degree", "limit_per_degree"
    ]
    assert [row[0] for row in rows[1:]] == ["1", "2"]
    for row in rows[1:]:
        assert float(row[1]) > 0.0 and float(row[2]) > 0.0


def test_compare_reports_exit_codes(tmp_path, capsys):
    compare = load_script("compare_reports").compare

    def report(name, rows):
        path = tmp_path / f"{name}.csv"
        VerificationReport([ReportRow("c1", *row) for row in rows]).write_csv(path)
        return str(path)

    old = report("old", [("case=a", 1.0, 1.0, "pass"), ("case=b", 2.0, 1.0, "fail")])
    assert compare(old, old) == 0
    assert "0 status changes over 2 rows" in capsys.readouterr().out
    new = report("new", [("case=a", 1.0, 1.0, "pass"), ("case=b", 0.5, 1.0, "pass")])
    assert compare(old, new) == 1
    out = capsys.readouterr().out
    assert "c1,case=b: fail -> pass" in out
    assert "c1 computed abs=1.5 rel=0.75" in out
    assert out.splitlines()[1].endswith(" drift/margin=1.5")  # 1.5 over 2 - 1
    assert "1 status changes over 2 rows" in out
    fewer = report("fewer", [("case=a", 1.0, 1.0, "pass")])
    assert compare(old, fewer) == 2
    assert "do not hold the same rows" in capsys.readouterr().out


def test_compare_reports_prints_drift_as_a_share_of_the_margin(tmp_path, capsys):
    compare = load_script("compare_reports").compare

    def report(name, rows):
        path = tmp_path / f"{name}.csv"
        VerificationReport([ReportRow(*row) for row in rows]).write_csv(path)
        return str(path)

    old = report("old", [
        ("c2", "case=a", 0.9, 1.0, "pass"),  # margin 0.1
        ("c2", "case=b", 0.5, 1.0, "pass"),  # margin 0.5
        ("c6", "case=a", 1.0, 1.0, "pass"),  # at its bound
        ("c7", "case=a", None, None, "error"),
    ])
    new = report("new", [
        ("c2", "case=a", 0.9, 1.005, "pass"),  # the target moves: 0.005 / 0.1
        ("c2", "case=b", 0.51, 1.0, "pass"),  # 0.01 / 0.5
        ("c6", "case=a", 1.0, 1.0, "pass"),
        ("c7", "case=a", None, None, "error"),
    ])
    assert compare(old, new) == 0
    lines = capsys.readouterr().out.splitlines()
    shares = {line.split()[0]: line.split()[-1] for line in lines[:-1]}
    assert shares == {
        "c2": "drift/margin=0.05", "c6": "drift/margin=0", "c7": "drift/margin=0"
    }
    moved = report("moved", [
        ("c2", "case=a", 0.9, 1.0, "pass"),
        ("c2", "case=b", 0.5, 1.0, "pass"),
        ("c6", "case=a", 1.0 + 1e-12, 1.0, "pass"),
        ("c7", "case=a", None, None, "error"),
    ])
    assert compare(old, moved) == 0
    [c6] = [line for line in capsys.readouterr().out.splitlines() if line[:3] == "c6 "]
    assert c6.endswith(" drift/margin=inf")  # a row at its bound moved
    # a bound row and an agreement row of one criterion: the agreement row's
    # one-ulp tie reads inf on a line of its own, apart from the bound row's
    mixed = [
        ("c8", "p=3;check=nikolskii;case=a", 0.5, 1.0),
        ("c8", "check=isometry;case=a", 1.0, 1.0),
    ]
    old = report("old-mixed", [(*row, "pass") for row in mixed])
    new = report("new-mixed", [
        ("c8", "p=3;check=nikolskii;case=a", 0.51, 1.0, "pass"),  # 0.01 / 0.5
        ("c8", "check=isometry;case=a", 1.0 + 2.0 ** -52, 1.0, "pass"),
    ])
    assert compare(old, new) == 0
    lines = capsys.readouterr().out.splitlines()
    shares = {" ".join(line.split()[:2]): line.split()[-1] for line in lines[:-1]}
    assert shares == {
        "c8 check=nikolskii": "drift/margin=0.02",
        "c8 check=isometry": "drift/margin=inf",
    }


@pytest.mark.parametrize("flip, code", [(True, 1), (False, 0)])
def test_compare_reports_on_a_closed_pipe_keeps_its_exit_code(tmp_path, flip, code):
    # 6,000 rows print 160 KiB or more, a status change or a drift line per
    # check= group, past the 64 KiB a pipe buffers, so the script is still
    # writing when the reader closes the pipe after one line
    rows = [("c1", f"check=k{i}", 0.5, 1.0) for i in range(6000)]
    paths = []
    for name, status in [("old", "pass"), ("new", "fail" if flip else "pass")]:
        path = tmp_path / f"{name}.csv"
        VerificationReport([ReportRow(*row, status) for row in rows]).write_csv(path)
        paths.append(str(path))
    proc = subprocess.Popen(
        [sys.executable, str(SCRIPTS / "compare_reports.py"), *paths],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"c1")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == code
    assert err == b""


BERGLAB = ["-m", "berglab.cli"]


@pytest.mark.parametrize(
    "argv, code",
    [
        ([*BERGLAB, "dump-rule", "--alpha", "2", "--angles", "100000"], 0),
        ([*BERGLAB, "hyper-check", "--alpha", "2", "--beta", "2", "--p", "2",
          "--q", "4", "--r", "0.9", "--poly", "1,1"], 1),
        ([*BERGLAB, "verify-suite", "--seed", "1729"], 0),
        ([str(SCRIPTS / "threshold_scan.py"), "--eps", "0.04", "--tol", "1e-3"], 0),
        ([str(SCRIPTS / "sharpness_curve.py"), "--m-max", "1", "--n", "4",
          "--samples", "2000"], 0),
    ],
    ids=["dump-rule", "failing-check", "verify-suite", "threshold-scan",
         "sharpness-curve"],
)
def test_berglab_on_a_closed_pipe_keeps_its_exit_code(tmp_path, argv, code):
    # the reader closes stdout before anything is written, as `| head -0`
    # would: the command (or script) drops its output, still writes its
    # report and exits with its own code, with no traceback
    if "verify-suite" in argv:
        argv = [*argv, "--csv", str(tmp_path / "piped.csv")]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen(
        [sys.executable, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == code
    assert b"Traceback" not in err and b"Broken pipe" not in err
    if "verify-suite" in argv:
        verify_suite(seed=1729, csv_path=str(tmp_path / "direct.csv"), quiet=True)
        assert (tmp_path / "piped.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()
