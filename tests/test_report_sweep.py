"""Report formatting and the config-driven sweep runner."""
import hashlib
import subprocess
import sys
import threading
import time
import types
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from berglab import checks, norms, sweep
from berglab.corpus import random_polynomials
from berglab.poly import parse_polynomial
from berglab.report import CSV_HEADER, ReportRow, VerificationReport, fmt_value
from berglab.sweep import SweepConfig, parse_sweep_config, run_sweep


def make_row(**kw):
    base = dict(
        check_id="demo",
        params="a=1",
        computed=1.0,
        target=1.0,
        status="pass",
    )
    base.update(kw)
    return ReportRow(**base)


def test_fmt_value_round_trip_precision():
    assert fmt_value(None) == ""
    assert fmt_value(True) == "true"
    assert fmt_value(False) == "false"
    assert fmt_value(3) == "3"
    assert fmt_value(0.1) == "0.1"
    assert float(fmt_value(1.0 / 3.0)) == 1.0 / 3.0
    assert fmt_value(np.float64(0.25)) == "0.25"


@pytest.mark.parametrize(
    "computed, target, status",
    [(1.0 + 1e-11, 1.0, "pass"), (1.0 - 1e-9, 1.0, "fail"), (0.0, 0.0, "pass")],
)
def test_agreement_row_judges_the_relative_gap(computed, target, status):
    judged = checks.agreement_row(computed, target, 1e-10, "m", note="n")
    row = ReportRow("demo", "a=1", **judged)
    assert row.status == status
    assert row.est_error == abs(computed - target) / max(abs(target), 1e-300)
    assert (row.computed, row.target, row.method, row.note) == (
        computed, target, "m", "n"
    )


def test_report_row_status_validated():
    with pytest.raises(ValueError):
        make_row(status="maybe")


def test_report_sorting_and_counts():
    rep = VerificationReport([
        make_row(check_id="b", params="x=2"),
        make_row(check_id="a", params="x=9"),
        make_row(check_id="a", params="x=1", status="fail"),
    ])
    ordered = [(r.check_id, r.params) for r in rep.sorted_rows()]
    assert ordered == [("a", "x=1"), ("a", "x=9"), ("b", "x=2")]
    counts = rep.counts()
    assert counts["pass"] == 2 and counts["fail"] == 1
    assert not rep.aggregate_pass


def test_aggregate_ignores_out_of_hypothesis_but_not_errors():
    rep = VerificationReport([
        make_row(status="pass"),
        make_row(params="a=2", status="out-of-hypothesis", hypothesis_ok=False),
    ])
    assert rep.aggregate_pass
    rep.extend([make_row(params="a=3", status="error", note="boom")])
    assert not rep.aggregate_pass


def test_csv_schema_and_runtime_exclusion():
    rep = VerificationReport([make_row()])
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[0] == ",".join(CSV_HEADER)
    assert csv_text.splitlines()[1] == "demo,a=1,1.0,1.0,pass,,,true,"
    # wall-clock time reaches the human summary only
    assert rep.summary(77.0) == "[PASS] 1 checks, 1 pass (77.0 s)"
    assert rep.summary() == "[PASS] 1 checks, 1 pass"
    assert rep.to_csv() == csv_text


def test_write_csv_deterministic(tmp_path):
    rep = VerificationReport([make_row(computed=1.0 / 3.0, est_error=2e-16)])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rep.write_csv(p1)
    rep.write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


BASE_CONFIG = """
# demo sweep
[sweep]
checks = hyper, nikolskii
seed = 5

[grid]
tuples = 2 2 2 4, 2 3 2 4
r = auto

[corpus]
polys = 1,1 ; (0):1 (2):0.5
"""


def test_parse_config_round_trip():
    cfg = parse_sweep_config(BASE_CONFIG)
    assert cfg.checks == ("hyper", "nikolskii")
    assert cfg.seed == 5
    assert cfg.tuples == ((2.0, 2.0, 2.0, 4.0), (2.0, 3.0, 2.0, 4.0))
    assert cfg.radii == "auto"
    assert len(cfg.polys) == 2
    assert cfg.polys[1].coeff((2,)) == 0.5


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[nope]\n", "line 1"),
        ("[sweep]\nchecks = hyper\nchecks = hyper\n", "line 3"),
        ("[sweep]\nbogus = 1\n", "line 2"),
        ("key = 1\n", "line 1"),
        ("[grid]\ntuples = 2 2 2\n", "four numbers"),
        ("[grid]\neps = 2\n", "eps"),
        ("[grid]\nr = 1.5\n", "outside"),
        ("[sweep]\nchecks = sideways\n", "unknown check"),
        ("[corpus]\npolys = ((\n", "bad polynomial"),
        ("[grid]\nalpha = 2, 3\n", "unknown key 'alpha' in \\[grid\\]"),
        ("[corpus]\ncount = 1\nseed = 3\n", "line 3: unknown key 'seed'"),
        ("[sweep]\nnodes = 0\n", "line 2: nodes: nodes must be at least 1, got 0"),
        ("[sweep]\nangles = 0\n", "line 2: angles: angles must be at least 1, got 0"),
        ("[sweep]\nnodes = 4097\n", "line 2: nodes: nodes must be at most 4096"),
    ],
)
def test_parse_config_failures_carry_line_numbers(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_sweep_config(text)


def test_every_config_key_reaches_the_config_or_the_corpus(tmp_path):
    out = tmp_path / "rows.csv"
    text = (
        "[sweep]\nchecks = threshold, kulikov\nseed = 3\nmethod = exact\n"
        "nodes = 7\nangles = 9\n"
        "[grid]\ntuples = 2 3 2 4\nr = 0.5, 0.25\neps = 0.02\n"
        "[corpus]\npolys = 1,1\ncount = 2\nnvars = 2\nmax_degree = 3\n"
        "kind = zero-free\n"
        f"[output]\npath = {out}\n"
    )
    given, section = {}, None
    for line in text.splitlines():
        if line.startswith("["):
            section = line[1:-1]
            given[section] = set()
        else:
            given[section].add(line.split(" = ")[0])
    assert given == sweep._SECTION_KEYS
    cfg = parse_sweep_config(text)
    assert cfg == SweepConfig(
        checks=("threshold", "kulikov"),
        seed=3,
        method="exact",
        nodes=7,
        angles=9,
        tuples=((2.0, 3.0, 2.0, 4.0),),
        radii=(0.5, 0.25),
        eps=0.02,
        polys=(parse_polynomial("1,1"), *random_polynomials(2, 2, 3, 3, "zero-free")),
        output_path=str(out),
    )
    default = SweepConfig()
    for field in fields(SweepConfig):
        assert getattr(cfg, field.name) != getattr(default, field.name)


@pytest.mark.parametrize(
    "text,line",
    [
        ("[corpus]\npolys = 1,1\nnvars = 2\n", "config line 3: nvars"),
        ("[corpus]\nmax_degree = 3\n", "config line 2: max_degree"),
        ("[corpus]\ncount = 0\nkind = zero-free\n", "config line 3: kind"),
    ],
    ids=["nvars", "max_degree", "kind-count-0"],
)
def test_corpus_shape_without_a_positive_count_is_refused(text, line):
    with pytest.raises(ValueError) as info:
        parse_sweep_config(text)
    assert str(info.value) == f"{line}: needs a positive [corpus] count"


def test_parse_config_rejects_samples_key():
    # no sweep method samples, so the key is unknown rather than ignored
    with pytest.raises(ValueError) as info:
        parse_sweep_config("[sweep]\nchecks = hyper\nsamples = 1000\n")
    assert str(info.value) == "config line 3: unknown key 'samples' in [sweep]"


def test_empty_grid_gives_empty_passing_report():
    cfg = parse_sweep_config("[sweep]\nchecks = hyper\n")
    rep = run_sweep(cfg)
    assert rep.aggregate_pass
    assert sum(rep.counts().values()) == 0


def test_sweep_deterministic_and_parallel_identical():
    # one bivariate input, so the pool also runs the two-axis tensor grid
    cfg = parse_sweep_config(
        BASE_CONFIG.replace(
            "(2):0.5\n", "(2):0.5 ; (0,0):1 (1,1):0.5+0.25i (2,0):-0.3\n"
        )
    )
    a = run_sweep(cfg).to_csv()
    b = run_sweep(cfg).to_csv()
    c = run_sweep(cfg, jobs=4).to_csv()
    assert a == b == c
    assert a.count("\n") == 1 + 2 * 2 * 3  # header + checks x tuples x polys
    assert hashlib.sha256(a.encode("utf-8")).hexdigest() == (
        "c31eff60904371cfc4fb3ed169226cd46144f4120f22c82f24257bfa6db1bba3"
    )


@pytest.mark.parametrize("jobs", [0, -1])
def test_sweep_rejects_jobs_below_one(jobs):
    cfg = parse_sweep_config(BASE_CONFIG)
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_sweep(cfg, jobs=jobs)


# the error-row config of test_sweep_records_error_rows_without_dying with a
# second tuple, since a single row never starts the pool
ERROR_CONFIG = (
    "[sweep]\nchecks = nikolskii\n[grid]\ntuples = 2 2 2 4, 2 3 2 4\n"
    "[corpus]\npolys = 0\n"
)


@pytest.mark.parametrize(
    "text", [BASE_CONFIG, ERROR_CONFIG], ids=["rows", "error-rows"]
)
def test_sweep_pool_pins_openblas_to_one_thread_and_restores(text, monkeypatch):
    controls = norms._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded in this process: no thread count to pin")
    original = [get_threads() for _, get_threads in controls]
    before = [2] * len(controls)
    seen = []
    for name in ("hyper_check", "nikolskii_check", "kulikov_check"):
        fn = getattr(checks, name)

        def recording(*args, fn=fn, **kwargs):
            seen.append([get_threads() for _, get_threads in controls])
            return fn(*args, **kwargs)

        monkeypatch.setattr(checks, name, recording)
    try:
        # the serial path pins too
        for jobs in (1, 2):
            # two threads before the sweep, so a missed restore shows
            for set_threads, _ in controls:
                set_threads(2)
            seen.clear()
            rep = run_sweep(parse_sweep_config(text), jobs=jobs)
            after = [get_threads() for _, get_threads in controls]
            assert after == before
            assert seen and all(counts == [1] * len(controls) for counts in seen)
            if text is ERROR_CONFIG:
                assert [row.status for row in rep.rows] == ["error", "error"]
    finally:
        for (set_threads, _), count in zip(controls, original):
            set_threads(count)


def test_the_blas_pin_counts_its_holders_and_restores_once(monkeypatch):
    # the counts are set and restored once, however deep the nesting and
    # from however many threads; an entry inside costs no library call
    calls = []
    control = (lambda n: calls.append(("set", n)), lambda: calls.append("get") or 3)
    monkeypatch.setattr(norms, "_openblas_thread_controls", lambda: (control,))
    pin = norms.ONE_BLAS_THREAD
    with pin:
        assert calls == ["get", ("set", 1)]
        with pin:
            norm = lambda: norms.bergman_norm(parse_polynomial("1,1"), 2.0, 4.0)
            thread = threading.Thread(target=norm)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert calls == ["get", ("set", 1)]
    assert calls == ["get", ("set", 1), ("set", 3)]


def test_the_blas_lookup_reruns_only_after_an_import(monkeypatch):
    # an OpenBLAS copy that an import loads after the first kernel call is
    # looked for again at the next lookup, and without an import it is not
    scans = norms._openblas_thread_controls_at.cache_info
    controls = norms._openblas_thread_controls()
    misses = scans().misses
    assert norms._openblas_thread_controls() is controls
    assert scans().misses == misses
    monkeypatch.setitem(sys.modules, "berglab_probe", types.ModuleType("berglab_probe"))
    again = norms._openblas_thread_controls()
    assert scans().misses == misses + 1
    assert len(again) == len(controls)
    assert norms._openblas_thread_controls() is again
    assert scans().misses == misses + 1


def test_a_norm_outside_any_pool_runs_on_one_blas_thread(monkeypatch):
    # the kernel's entry points pin BLAS themselves, and the library's
    # thread-count functions are not looked up again without an import
    controls = norms._openblas_thread_controls()
    assert norms._openblas_thread_controls() is controls
    if not controls:
        pytest.skip("no OpenBLAS loaded in this process: no thread count to pin")
    seen = []
    kernel = norms._power_mean

    def recording(*args):
        seen.append([get_threads() for _, get_threads in controls])
        return kernel(*args)

    monkeypatch.setattr(norms, "_power_mean", recording)
    original = [get_threads() for _, get_threads in controls]
    try:
        for set_threads, _ in controls:
            set_threads(2)
        norms.bergman_norm(parse_polynomial("1,1"), 2.0, 4.0)
        assert seen == [[1] * len(controls)]
        assert [get_threads() for _, get_threads in controls] == [2] * len(controls)
    finally:
        for (set_threads, _), count in zip(controls, original):
            set_threads(count)


def test_pool_worker_of_the_first_item_exits_last(monkeypatch):
    # the first item is the quickest here, yet its worker outlives the rest
    ended = []

    class Recording(threading.Thread):
        def __init__(self, target, args):
            super().__init__(target=target, args=args)
            self.first = args[0]

        def run(self):
            super().run()
            ended.append(self.first)

    monkeypatch.setattr(sweep.threading, "Thread", Recording)
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: set(range(3)))
    started = {}

    def quick_first(item):
        started[item] = threading.get_ident()
        time.sleep(0.0 if item == 0 else 0.05)
        return item * item

    assert sweep.map_on_pool(quick_first, range(5), 3) == [0, 1, 4, 9, 16]
    assert sorted(ended) == [0, 1, 2] and ended[-1] == 0
    assert len({started[i] for i in range(3)}) == 3  # worker i starts on item i


def test_pool_runs_each_item_once_under_contention(monkeypatch):
    # more workers than cores and a short switch interval: an item claimed
    # twice or never would show in the call counts
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: set(range(8)))
    calls = [0] * 2000

    def square(item):
        calls[item] += 1
        return item * item

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = sweep.map_on_pool(square, range(len(calls)), 8)
    finally:
        sys.setswitchinterval(interval)
    assert got == [i * i for i in range(len(calls))]
    assert calls == [1] * len(calls)


@pytest.mark.parametrize("cores, expected", [(1, []), (2, [2]), (3, [3])])
def test_pool_starts_at_most_one_thread_per_core(cores, expected, monkeypatch):
    # record the worker count instead of starting that many threads
    counts = []

    def recording(fn, items, workers):
        counts.append(workers)
        return [fn(item) for item in items]

    monkeypatch.setattr(sweep, "_map_on_threads", recording)
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: set(range(cores)))
    assert sweep.map_on_pool(abs, range(-500, 0), 10_000) == list(range(500, 0, -1))
    assert counts == expected
    counts.clear()
    cfg = parse_sweep_config(BASE_CONFIG)
    run_sweep(cfg, jobs=10_000)
    assert counts == expected


def test_sweep_pool_without_openblas_gives_same_csv(monkeypatch):
    cfg = parse_sweep_config(BASE_CONFIG)
    serial = run_sweep(cfg).to_csv()
    monkeypatch.setattr(norms, "_openblas_thread_controls", lambda: ())
    assert run_sweep(cfg, jobs=2).to_csv() == serial


def test_sweep_positive_grid_passes():
    cfg = parse_sweep_config(BASE_CONFIG)
    rep = run_sweep(cfg)
    assert rep.aggregate_pass
    assert all(r.status == "pass" for r in rep.sorted_rows())


def test_sweep_records_error_rows_without_dying():
    cfg = parse_sweep_config(
        "[sweep]\nchecks = nikolskii\n[grid]\ntuples = 2 2 2 4\n[corpus]\npolys = 0\n"
    )
    rep = run_sweep(cfg)
    rows = rep.sorted_rows()
    assert len(rows) == 1
    assert rows[0].status == "error"
    assert "ValueError" in rows[0].note
    assert not rep.aggregate_pass


def test_sweep_error_rows_name_every_input_of_their_row():
    rows = run_sweep(parse_sweep_config(ERROR_CONFIG)).sorted_rows()
    assert [row.params for row in rows] == [
        "alpha=2.0;beta=2.0;p=2.0;q=4.0;poly=(0):0",
        "alpha=2.0;beta=3.0;p=2.0;q=4.0;poly=(0):0",
    ]
    assert all(row.status == "error" and row.check_id == "nikolskii" for row in rows)
    # an explicit radius is an input of hyper rows, error rows included
    cfg = parse_sweep_config(
        "[sweep]\nchecks = hyper\n[grid]\ntuples = 0.5 2 2 4\nr = 0.5\n"
        "[corpus]\npolys = 1,1\n"
    )
    [row] = run_sweep(cfg).rows
    assert row.status == "error"
    assert row.params == "alpha=0.5;beta=2.0;p=2.0;q=4.0;r=0.5;poly=(0):1.0 (1):1.0"


def test_kulikov_rows_with_p_above_q_are_out_of_hypothesis():
    cfg = parse_sweep_config(
        "[sweep]\nchecks = kulikov, threshold\n[grid]\ntuples = 2 2 4 2, 2 2 4 3\n"
        "[corpus]\npolys = 1,1\n"
    )
    rep = run_sweep(cfg)
    assert [row.status for row in rep.rows] == ["out-of-hypothesis"] * 4
    assert rep.aggregate_pass
    kulikov = [row for row in rep.sorted_rows() if row.check_id == "kulikov"]
    assert [row.params for row in kulikov] == [
        "alpha=2.0;p=4.0;q=2.0;poly=(0):1.0 (1):1.0",
        "alpha=2.0;p=4.0;q=3.0;poly=(0):1.0 (1):1.0",
    ]
    assert all(row.computed is None and row.target is None for row in kulikov)
    assert all(row.hypothesis_ok is False for row in kulikov)


def test_sweep_threshold_rows_need_no_polys():
    cfg = parse_sweep_config("[sweep]\nchecks = threshold\n[grid]\ntuples = 2 2 2 4\n")
    rep = run_sweep(cfg)
    rows = rep.sorted_rows()
    assert len(rows) == 1
    assert rows[0].status == "pass"


SWEEP_BIVAR = Path(__file__).resolve().parents[1] / "perfbench" / "sweep-bivar.cfg"


def count_calls(monkeypatch, module, name):
    """A list that grows by one at each call of module.name from here on."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_sweep_computes_each_distinct_norm_once_per_run(monkeypatch):
    # hyper, nikolskii and kulikov share their right-hand sides, and rows
    # climbing the ladder share its rungs: every distinct call is one grid
    grids = count_calls(monkeypatch, norms, "_power_mean")
    asked = []
    fn = norms.bergman_norm

    def recording(P, alpha, p, nodes=None, angles=None):
        asked.append((P, float(alpha), float(p), nodes, angles))
        return fn(P, alpha, p, nodes, angles)

    monkeypatch.setattr(norms, "bergman_norm", recording)
    cfg = sweep.load_sweep_config(str(SWEEP_BIVAR))
    for _ in range(2):  # a second run evaluates as many: nothing outlives a run
        grids.clear()
        asked.clear()
        serial = run_sweep(cfg).to_csv()
        distinct = len(set(asked))
        assert len(grids) == distinct < len(asked)
    # the bivariate ladder's bits, as the perfbench sweep-bivar workload's
    # report pins them
    digest = hashlib.sha256(serial.encode()).hexdigest()
    assert digest == "20fe60aa6a01560470523926f0b0c9c787b0fa74bc5dab7205225892cb05f4b1"
    # more workers than cores share the memo, switching threads often; two
    # rows run at once may both compute a norm, never change one
    grids.clear()
    asked.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = run_sweep(cfg, jobs=4).to_csv()
    finally:
        sys.setswitchinterval(interval)
    assert pooled == serial
    assert distinct <= len(grids) < len(asked)
    # outside any pool every call computes
    grids.clear()
    P = cfg.polys[0]
    assert norms.bergman_norm(P, 2.0, 0.5) == norms.bergman_norm(P, 2.0, 0.5)
    assert len(grids) == 2


def test_outside_a_scope_no_memo_key_is_built(monkeypatch):
    # the key hashes P; outside any pool nothing is kept, so nothing is hashed
    P = random_polynomials(1, 1, 6, 3)[0]
    want = norms.bergman_norm(P, 2.0, 4.0)

    def unhashable(self):
        raise AssertionError("a memo key was hashed")

    monkeypatch.setattr(type(P), "__hash__", unhashable)
    assert norms.bergman_norm(P, 2.0, 4.0) == want
    with norms.memo_scope(), pytest.raises(AssertionError, match="memo key"):
        norms.bergman_norm(P, 2.0, 4.0)


def test_a_raising_norm_is_never_served_from_the_memo(monkeypatch):
    # two identical rows whose first norm asks for the same grid far above
    # _GRID_BYTES_BUDGET: each computes and fails on its own
    sized = count_calls(monkeypatch, norms, "_grid_bytes")
    cfg = parse_sweep_config(
        "[sweep]\nchecks = nikolskii\nnodes = 1000\nangles = 20000\n"
        "[grid]\ntuples = 2 2 2 4, 2 2 2 4\n[corpus]\npolys = (1,1):1\n"
    )
    rows = run_sweep(cfg).rows
    assert len(sized) == 2
    assert [row.params for row in rows] == [
        "alpha=2.0;beta=2.0;p=2.0;q=4.0;poly=(1,1):1.0"
    ] * 2
    assert all(row.status == "error" for row in rows)
    assert all("quadrature grid too large" in row.note for row in rows)


def test_compare_reports_prints_status_changes_and_worst_drift(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
    old = [make_row(params="a=1", computed=2.0), make_row(params="a=2")]
    new = [make_row(params="a=1", computed=2.0 + 1e-12),
           make_row(params="a=2", status="fail")]
    paths = {}
    for name, rows in (("old", old), ("new", new), ("short", new[:1])):
        paths[name] = str(tmp_path / f"{name}.csv")
        VerificationReport(rows).write_csv(paths[name])

    def compare(a, b):
        proc = subprocess.run(
            [sys.executable, str(script), paths[a], paths[b]],
            capture_output=True, text=True,
        )
        return proc.returncode, proc.stdout

    assert compare("old", "old") == (
        0,
        "demo computed abs=0 rel=0 target abs=0 rel=0 est_error abs=0 rel=0 "
        "drift/margin=0\n"
        "0 status changes over 2 rows\n",
    )
    code, out = compare("old", "new")
    assert code == 1
    assert out.splitlines() == [
        "demo,a=2: pass -> fail",
        # the moved row's margin is |1 - 2|
        "demo computed abs=1e-12 rel=5e-13 target abs=0 rel=0 est_error abs=0 rel=0 "
        "drift/margin=1e-12",
        "1 status changes over 2 rows",
    ]
    assert compare("old", "short") == (
        2, "the reports do not hold the same rows in the same order\n"
    )
