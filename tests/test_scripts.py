"""Smoke runs of the plotting scripts on tiny inputs."""
import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, argv, tmp_path):
    """Run scripts/<name>.py's main with --out; return the CSV rows."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / f"{name}.csv"
    assert module.main([*argv, "--out", str(out)]) == 0
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
