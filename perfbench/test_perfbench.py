"""Tests of the benchmark itself: tracer, metric names, row accounting.

Run with ``python -m pytest perfbench``.
"""
import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer, is_wrapper

import berglab
from berglab import norms, poly
from berglab.acceptance import run_criterion
from berglab.report import VerificationReport

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def berglab_wrappers():
    """Every tracer wrapper bound anywhere in the berglab package."""
    found = []
    for name, mod in list(sys.modules.items()):
        if not name.startswith("berglab"):
            continue
        for attr, value in vars(mod).items():
            if is_wrapper(value):
                found.append(f"{name}.{attr}")
            if isinstance(value, type):
                methods = vars(value).items()
                found += [f"{name}.{attr}.{k}" for k, v in methods if is_wrapper(v)]
    return found


def traced_metrics(tracer, result=workloads.PassResult("0" * 64, 1, 0)):
    return run.layer_metrics(tracer, result, walls=[1.0], cpus=[2.0], traced_wall=1.1)


def test_spans_nest_and_self_time_is_within_total():
    P = poly.ComplexPolynomial.from_coeffs([1.0, 0.5j, -0.25, 0.125])
    targets = (
        "norms.exact_norm_even_p",
        "norms.exact_norm_p2",
        "poly.ComplexPolynomial.__pow__",
    )
    with Tracer("berglab", targets) as tracer:
        traced = norms.exact_norm_even_p(P, 2.0, 4.0).value
    assert traced == norms.exact_norm_even_p(P, 2.0, 4.0).value
    (outer,) = tracer.by_name("norms.exact_norm_even_p")
    (power,) = tracer.by_name("poly.ComplexPolynomial.__pow__")
    (inner,) = tracer.by_name("norms.exact_norm_p2")
    assert outer.parent is None
    assert power.parent is outer and inner.parent is outer
    assert outer.start <= power.start <= power.end <= inner.start
    assert inner.start <= inner.end <= outer.end
    for span in tracer.spans:
        assert 0.0 <= span.self_time <= span.duration
    assert outer.self_time == pytest.approx(
        outer.duration - power.duration - inner.duration, abs=1e-12
    )


def test_pool_work_is_charged_to_the_call_that_started_the_pool():
    cfg = workloads.SweepBivar(7).cfg
    small = dataclasses.replace(
        cfg, checks=("kulikov",), tuples=cfg.tuples[:1], polys=cfg.polys[:4]
    )
    targets = ("sweep.run_sweep", "inequalities.kulikov_check")
    with Tracer("berglab", targets, run.NOTES) as tracer:
        berglab.sweep.run_sweep(small, jobs=2)
    (sweep_span,) = tracer.by_name("sweep.run_sweep")
    checks = tracer.by_name("inequalities.kulikov_check")
    assert len(checks) == 4
    assert all(c.parent is sweep_span for c in checks)
    assert 0.0 <= sweep_span.self_time <= sweep_span.duration
    busy = traced_metrics(tracer)["sweep.run_sweep.busy_share"][0]
    assert 0.0 < busy <= 1.0


def test_every_wrapper_is_removed_on_exit():
    original = norms.bergman_norm
    with Tracer("berglab", run.LAYERS + (run.CRITERION,), run.NOTES) as tracer:
        assert not tracer.missing
        assert is_wrapper(berglab.acceptance.bergman_norm)
        assert is_wrapper(berglab.inequalities.bergman_norm)
        assert is_wrapper(poly.ComplexPolynomial.__pow__)
        assert berglab_wrappers()
    assert berglab_wrappers() == []
    assert berglab.acceptance.bergman_norm is original
    assert berglab.inequalities.bergman_norm is original


def test_metric_names_and_units_match_benchmark_json():
    with Tracer("berglab", run.LAYERS + (run.CRITERION,), run.NOTES) as tracer:
        pass
    layer = traced_metrics(tracer)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: unit for name, (_, unit) in layer.items()} == declared
    e2e = run.end_to_end_metrics(setups=[0.5], walls=[1.0])
    assert {n: u for n, (_, u) in e2e.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    for name in list(layer) + list(e2e):
        assert NAME.fullmatch(name) and len(name) <= 64
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


def test_a_deleted_public_function_is_reported_missing(monkeypatch):
    monkeypatch.delattr(norms, "bergman_norm_mc")
    monkeypatch.delattr(poly.ComplexPolynomial, "homogenize")
    with Tracer("berglab", run.LAYERS + ("nosuchmodule.f",), run.NOTES) as tracer:
        pass
    assert tracer.missing == [
        "norms.bergman_norm_mc",
        "poly.ComplexPolynomial.homogenize",
        "nosuchmodule.f",
    ]
    metrics = traced_metrics(tracer)
    assert metrics["norms.bergman_norm_mc.calls"][0] == 0
    assert metrics["poly.ComplexPolynomial.homogenize.self_s"][0] == 0
    assert berglab_wrappers() == []


def test_negative_control_rows_count_as_failed():
    def counted(**kwargs):
        rows = run_criterion("c1-oracle-agreement", **kwargs).rows
        return workloads.account(VerificationReport(list(rows)).to_csv())

    assert counted(nodes_override=1) == (120, 120)
    assert counted() == (120, 0)


def test_out_of_hypothesis_rows_are_not_attempted():
    csv_text = (
        "check_id,params,computed,target,status,method,est_error,hypothesis_ok,note\n"
        "a,x,1.0,1.0,pass,,,true,\n"
        "a,y,1.0,1.0,out-of-hypothesis,,,false,\n"
        "a,z,,,error,,,true,boom\n"
        "a,w,2.0,1.0,fail,,,true,\n"
    )
    assert workloads.account(csv_text) == (3, 2)


def test_committed_sweep_config_is_the_120_row_bivariate_sweep():
    cfg = workloads.SweepBivar(1729).cfg
    assert cfg.checks == ("hyper", "nikolskii", "kulikov")
    assert cfg.tuples == berglab.acceptance.PARAM_GRID
    assert cfg.radii == "auto"
    assert len(cfg.polys) == 10
    assert all(P.nvars == 2 and P.degree == 4 for P in cfg.polys)
    assert workloads.SweepBivar(1729).cfg.polys == cfg.polys
    assert workloads.SweepBivar(1730).cfg.polys != cfg.polys


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=skip)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "highdeg", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert got.returncode == 2
    assert got.stdout == ""
    assert "no berglab sources" in got.stderr
