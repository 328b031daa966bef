"""Exit codes, output formats, and plumbing of the command line interface."""
import argparse
import inspect
import json
import math
import re
import time

import pytest

import berglab
from berglab import acceptance, cli, corpus, inequalities, measures, norms, sweep
from berglab.cli import build_parser, main
from berglab.checks import SETTLE_MULTIPLE
from berglab.poly import ComplexPolynomial
from berglab.sweep import CHECK_KINDS, parse_sweep_config, run_sweep


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_norm_json_output(capsys):
    code, out, _ = run(["norm", "--space", "alpha=2,p=4", "--poly", "1,1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "quadrature"
    assert data["value"] == pytest.approx((10.0 / 3.0) ** 0.25, rel=1e-12)
    assert data["est_error"] == 0.0


def test_norm_exact_and_mc_methods(capsys):
    code, out, _ = run(
        ["norm", "--space", "alpha=2,p=2", "--poly", "1,1", "--method", "exact"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(math.sqrt(1.5), rel=1e-14)
    code, out, _ = run(
        ["norm", "--space", "alpha=2,p=2", "--poly", "1,1",
         "--method", "mc", "--samples", "20000", "--seed", "4"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["est_error"] > 0.0
    assert abs(data["value"] - math.sqrt(1.5)) < 5.0 * data["est_error"]


def test_every_command_runs_with_one_blas_thread_and_restores(capsys, monkeypatch):
    controls = sweep._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded in this process: no thread count to pin")
    original = [get_threads() for _, get_threads in controls]
    seen = []

    def handler(args):
        seen.append([get_threads() for _, get_threads in controls])
        with sweep._one_blas_thread():  # a pool inside the command
            seen.append([get_threads() for _, get_threads in controls])
        seen.append([get_threads() for _, get_threads in controls])
        raise ValueError("bad input")

    monkeypatch.setattr(cli, "_cmd_norm", handler)
    try:
        # two threads before the command, so a missed restore shows
        for set_threads, _ in controls:
            set_threads(2)
        code, _, err = run(["norm", "--space", "alpha=2,p=2", "--poly", "1"], capsys)
        assert (code, err) == (2, "error: bad input\n")
        assert seen == [[1] * len(controls)] * 3
        assert [get_threads() for _, get_threads in controls] == [2] * len(controls)
    finally:
        for (set_threads, _), count in zip(controls, original):
            set_threads(count)


def test_norm_bad_space_is_usage_error(capsys):
    code, _, err = run(["norm", "--space", "alpha=2", "--poly", "1,1"], capsys)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "extra, option",
    [
        (["--method", "exact", "--nodes", "5"], "--nodes"),
        (["--method", "mc", "--nodes", "3"], "--nodes"),
        (["--method", "exact", "--angles", "7"], "--angles"),
        (["--method", "mc", "--angles", "7", "--samples", "100"], "--angles"),
    ],
    ids=["exact-nodes", "mc-nodes", "exact-angles", "mc-angles"],
)
def test_norm_grid_options_outside_quadrature_are_usage_errors(extra, option, capsys):
    argv = ["norm", "--space", "alpha=2,p=4", "--poly", "1,1", *extra]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert f"error: {option} applies to --method quad only" in err


@pytest.mark.parametrize(
    "extra, option",
    [
        (["--samples", "5", "--seed", "3"], "--samples"),
        (["--method", "quad", "--seed", "3"], "--seed"),
        (["--method", "exact", "--seed", "0"], "--seed"),
        (["--method", "exact", "--samples", "200000"], "--samples"),
    ],
    ids=["quad-samples-seed", "quad-seed", "exact-seed-0", "exact-samples"],
)
def test_norm_sampling_options_outside_monte_carlo_are_usage_errors(
    extra, option, capsys
):
    # given at their former defaults too: None stands for not given
    argv = ["norm", "--space", "alpha=2,p=4", "--poly", "1,1", *extra]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert f"error: {option} applies to --method mc only" in err


def test_norm_mc_defaults_are_seed_0_and_200000_samples(capsys):
    argv = ["norm", "--space", "alpha=2,p=3", "--poly", "1,1", "--method", "mc"]
    code, implicit, _ = run(argv, capsys)
    assert code == 0
    code, explicit, _ = run([*argv, "--seed", "0", "--samples", "200000"], capsys)
    assert code == 0
    assert implicit == explicit


def test_oversized_norm_grid_is_a_usage_error(capsys):
    argv = ["norm", "--space", "alpha=2,p=4", "--poly", "(1000,1000):1"]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "quadrature grid too large" in err


def test_an_oversized_cap_is_refused_before_any_rung(capsys, monkeypatch):
    # a verdict row climbs no ladder whose cap, the default grid, is refused
    def no_kernel(*args):
        raise AssertionError("a rung ran before the refusal")

    monkeypatch.setattr(norms, "_power_mean", no_kernel)
    argv = ["nikolskii", "--alpha", "1.5", "--beta", "2", "--p", "2", "--q", "3",
            "--poly", "(400,400):1"]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "quadrature grid too large" in err


def test_huge_angle_count_is_a_usage_error_before_the_kernel(capsys, monkeypatch):
    # one variable at 10^9 angles: a 30 GiB Fourier matrix, a 15 GiB tile
    def no_kernel(*args):
        raise AssertionError("kernel reached before the refusal")

    monkeypatch.setattr(norms, "_power_mean", no_kernel)
    argv = ["norm", "--space", "alpha=2,p=2", "--poly", "1,1", "--angles", "1000000000"]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "quadrature grid too large" in err


def test_an_oversized_grid_at_alpha_1e4_is_refused_before_its_rule(capsys):
    # the 4096-node Gauss rule at alpha = 10^4 would take seconds and fail
    # to settle; the grid's sizes alone are refused first
    argv = ["norm", "--space", "alpha=10000,p=3", "--poly", "1,2,3",
            "--nodes", "4096", "--angles", "100000000"]
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: quadrature grid too large: (nodes, angles) (4096, 100000000)")


# Output at p or q other than an even integer on grids the ladder does not
# reach: rows with pinned nodes or angles and `norm`, as printed before the
# verdict rows climbed the ladder
UNLADDERED_OUTPUT = [
    (
        ["hyper-check", "--alpha", "2", "--beta", "4", "--p", "0.5", "--q", "2",
         "--poly", "0.5,-1,1", "--nodes", "12", "--angles", "40", "--out", "csv"],
        "check_id,params,computed,target,status,method,est_error,hypothesis_ok,note\n"
        "hyper,alpha=2.0;beta=4.0;p=0.5;q=2.0;r=0.7071067811865476;"
        "poly=(0):0.5 (1):-1.0 (2):1.0,0.6324555320336759,0.7212961327272513,"
        "pass,quadrature,0.0,true,\n",
    ),
    (
        ["nikolskii", "--alpha", "1.5", "--beta", "2", "--p", "2", "--q", "3",
         "--poly", "(1,0):1 (0,2):-0.5 (1,1):0.25j", "--angles", "21", "--out", "csv"],
        "check_id,params,computed,target,status,method,est_error,hypothesis_ok,note\n"
        'nikolskii,"alpha=1.5;beta=2.0;p=2.0;q=3.0;poly=(0,2):-0.5 (1,0):1.0 '
        '(1,1):0.25i",0.9049872987551644,1.1249999999999998,pass,quadrature,0.0,'
        "true,degree=2\n",
    ),
    (
        ["norm", "--space", "alpha=2,p=0.5", "--poly", "0.5,-1,1"],
        '{"est_error": 0.0, "method": "quadrature", "value": 0.7213074849140078}\n',
    ),
    (
        ["norm", "--space", "alpha=1.5,p=3", "--poly", "(1,0):1 (0,2):-0.5 (1,1):0.25j"],
        '{"est_error": 0.0, "method": "quadrature", "value": 0.9615121262680097}\n',
    ),
]


@pytest.mark.parametrize(
    "argv, expected", UNLADDERED_OUTPUT, ids=["hyper", "nikolskii", "norm-1", "norm-2"]
)
def test_pinned_grids_and_norm_keep_their_output(argv, expected, capsys):
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["dump-rule", "--alpha", "2", "--nodes", "100000"],
        ["norm", "--space", "alpha=2,p=2", "--poly", "(1,1):1",
         "--nodes", "100000", "--angles", "1000"],
        ["ibp-check", "--poly", "1,1", "--q", "4", "--beta", "2",
         "--beta-prime", "3", "--nodes", "100000"],
        ["verify-suite", "--filter", "oracle", "--nodes-override", "100000"],
    ],
    ids=["dump-rule", "norm", "ibp-check", "verify-suite"],
)
def test_oversized_radial_rule_is_a_usage_error_before_it_is_built(
    argv, capsys, monkeypatch, tmp_path
):
    def no_build(*args):
        raise AssertionError("_gauss_jacobi called above the cap")

    monkeypatch.setattr(measures, "_gauss_jacobi", no_build)
    if argv[0] == "verify-suite":
        argv = argv + ["--csv", str(tmp_path / "suite.csv")]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == "error: nodes must be at most 4096, got 100000\n"


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_threshold_nonpositive_tol_is_a_usage_error(tol, capsys, monkeypatch):
    # with tol <= 0 the bisection would never end; no norm is computed
    def no_norm(*args, **kwargs):
        raise AssertionError("a norm computed before tol was checked")

    monkeypatch.setattr(inequalities, "bergman_norm", no_norm)
    argv = ["threshold", "--alpha", "2", "--beta", "2", "--p", "2", "--q", "4",
            "--tol", tol]
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == f"error: tol must be positive, got {float(tol)}\n"


def test_oversized_sample_block_is_a_usage_error_before_drawing(capsys, monkeypatch):
    # 16,384 samples in 10^6 variables: 244 GiB of Philox words in one call
    def no_draw(*args):
        raise AssertionError("Philox reached above the block budget")

    monkeypatch.setattr(measures, "_philox", no_draw)
    argv = ["extremal", "--alpha", "2", "--beta", "2", "--p", "2", "--q", "4",
            "--n", "1000000"]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: a block of 16384 samples in n=1000000 variables")


def test_phi_count_above_the_cap_is_a_usage_error_before_the_grid(
    capsys, monkeypatch
):
    def no_grid(*args):
        raise AssertionError("grid built above the count cap")

    monkeypatch.setattr(cli.np, "linspace", no_grid)
    argv = ["phi", "--poly", "1,1", "--q", "4", "--count", "1000000"]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == "error: count must be at most 100000, got 1000000\n"


def test_dump_rule_angles_above_the_cap_is_a_usage_error_before_the_rule(
    capsys, monkeypatch
):
    def no_rule(*args):
        raise AssertionError("circle rule built above the angle cap")

    monkeypatch.setattr(cli, "circle_rule", no_rule)
    argv = ["dump-rule", "--alpha", "2", "--angles", str(cli._PHI_COUNT_CAP + 1)]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == "error: angles must be at most 100000, got 100001\n"


def test_oversized_sweep_corpus_is_a_usage_error_before_enumerating(
    tmp_path, capsys, monkeypatch
):
    # C(1003, 3) = 167,668,501 coefficients of three exponents each
    def no_walk(*args):
        raise AssertionError("multi-indices enumerated above the cap")

    monkeypatch.setattr(corpus, "multi_indices", no_walk)
    cfg = tmp_path / "big.cfg"
    cfg.write_text("[corpus]\ncount = 1\nnvars = 3\nmax_degree = 1000\n")
    code, out, err = run(["sweep", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert err == (
        "error: config line 2: count: 1 polynomials in 3 variables of degree 1000 "
        "exceed 100000 exponent entries\n"
    )


def test_kulikov_zero_exponent_is_a_usage_error(capsys):
    # the A^p_alpha norm refuses p = 0 before beta' = q*alpha/p divides by it
    argv = ["kulikov", "--poly", "1,1", "--alpha", "2", "--p", "0", "--q", "2"]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "exponent p must lie in (0, 64], got 0.0" in err


def test_one_norm_has_one_value_in_every_command(capsys):
    # ||0.5 - z + z^2||_{A^0.5_2}: the norm itself, the undilated side of the
    # dilation at r = 1 and the A^p_alpha side of the embedding.  On one
    # pinned grid all three are the same value; on the default grid the two
    # verdict rows settle on a rung of the ladder below it, so they agree
    # with the norm within SETTLE_MULTIPLE times their est_error
    poly = ["--poly", "0.5,-1,1"]
    norm_argv = ["norm", "--space", "alpha=2,p=0.5", *poly]
    hyper_argv = ["hyper-check", "--alpha", "2", "--beta", "2", "--p", "0.5",
                  "--q", "2", "--r", "1", *poly]
    kulikov_argv = ["kulikov", "--alpha", "2", "--p", "0.5", "--q", "2", *poly]
    grid = ["--nodes", "16", "--angles", "33"]
    values = []
    for argv in (norm_argv, norm_argv + grid):
        code, out, _ = run(argv, capsys)
        assert code == 0
        values.append(json.loads(out)["value"])
    assert values[0] == 0.7213074849140078
    code, out, _ = run(hyper_argv + grid, capsys)
    [row] = json.loads(out)
    assert float(row["target"]) == values[1] and float(row["est_error"]) == 0.0
    for argv in (hyper_argv, kulikov_argv):
        code, out, _ = run(argv, capsys)
        assert code in (0, 1)
        [row] = json.loads(out)
        gap = float(row["est_error"])
        assert 0.0 < abs(float(row["target"]) - values[0]) <= SETTLE_MULTIPLE * gap


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed", "4", "norm", "--space", "alpha=2,p=2", "--poly", "1,1"],
        ["verify-suite", "--filter", "oracle", "--jobs", "2"],
        ["verify-suite", "--filter", "oracle", "--out", "json"],
        ["sweep", "--config", "unused.cfg", "--seed", "3"],
        ["stirling", "--seed", "3"],
        ["phi", "--poly", "1,1", "--q", "4", "--quiet"],
    ],
    ids=["before-norm", "verify-suite-jobs", "verify-suite-out", "sweep-seed",
         "stirling-seed", "phi-quiet"],
)
def test_an_option_the_subcommand_does_not_read_is_a_usage_error(
    argv, capsys, tmp_path
):
    if argv[0] == "verify-suite":
        argv = argv + ["--csv", str(tmp_path / "suite.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: berglab" in captured.err


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_hyper_check_pass_fail_and_out_of_hypothesis(capsys):
    base = ["hyper-check", "--alpha", "2", "--beta", "2", "--p", "2", "--q", "4",
            "--poly", "1,1", "--quiet"]
    code, out, _ = run(base, capsys)
    assert code == 0
    row = json.loads(out)[0]
    assert row["status"] == "pass"

    fail = ["hyper-check", "--alpha", "2", "--beta", "3", "--p", "2", "--q", "4",
            "--poly", "(0):1 (1):0.001", "--r", "0.88", "--quiet"]
    code, out, _ = run(fail, capsys)
    assert code == 1
    assert json.loads(out)[0]["status"] == "fail"

    sideways = ["hyper-check", "--alpha", "2", "--beta", "2", "--p", "4", "--q", "2",
                "--poly", "1,1", "--quiet"]
    code, out, _ = run(sideways, capsys)
    assert code == 0
    row = json.loads(out)[0]
    assert row["status"] == "out-of-hypothesis"
    assert row["hypothesis_ok"] == "false"


def test_threshold_command(capsys):
    code, out, _ = run(
        ["threshold", "--alpha", "2", "--beta", "2", "--p", "2", "--q", "4",
         "--quiet"],
        capsys,
    )
    assert code == 0
    row = json.loads(out)[0]
    assert float(row["computed"]) == pytest.approx(math.sqrt(0.5), abs=5e-3)


def test_phi_csv_output(capsys):
    code, out, _ = run(
        ["phi", "--poly", "1,1", "--q", "4", "--ymin", "0.1", "--ymax", "0.5",
         "--count", "5"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "y,phi,phi2"
    assert len(lines) == 6
    y, phi, phi2 = (float(v) for v in lines[1].split(","))
    assert phi == pytest.approx(1.0 + 4.0 * y + y * y, rel=1e-12)
    assert phi2 == pytest.approx(2.0, abs=1e-12)


def test_phi_below_q_two_is_a_usage_error(capsys):
    # the identity's weight |f|^(q-2) is singular at a zero of f on a circle
    argv = ["phi", "--poly=-0.5,1", "--q", "1.5", "--ymin", "0.25", "--ymax", "0.25",
            "--count", "1"]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "requires q >= 2" in err


def test_an_oversized_profile_is_refused_before_any_tile(capsys, monkeypatch):
    # degree 10^6 at q = 64 sums 64,000,001 angles per circle by FFT
    def no_tiles(*args):
        raise AssertionError("a tile was evaluated before the refusal")

    monkeypatch.setattr(norms, "_tiles", no_tiles)
    argv = ["phi", "--poly", "(1000000):1", "--q", "64", "--count", "1"]
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith(
        "error: quadrature grid too large: (nodes, angles) (1, 64000001) need about"
    )


def test_weissler_default_radius(capsys):
    code, out, _ = run(
        ["weissler", "--poly", "1,1", "--p", "2", "--q", "4", "--quiet"], capsys
    )
    assert code == 0
    row = json.loads(out)[0]
    assert "r=0.7071067811865476" in row["params"]


def test_stirling_and_gamma_ratio(capsys):
    code, out, _ = run(["stirling", "--quiet", "--out", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[1].startswith("stirling,")
    code, out, _ = run(
        ["gamma-ratio", "--p", "2", "--q", "4", "--quiet", "--out", "csv"], capsys
    )
    assert code == 0
    assert "gamma-ratio" in out


def test_dump_rule_csv(capsys):
    code, out, _ = run(["dump-rule", "--alpha", "2", "--nodes", "5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "component,index,node,weight"
    weights = [float(line.split(",")[3]) for line in lines[1:]]
    assert sum(weights) == pytest.approx(1.0, abs=1e-13)


def test_sweep_cli_round_trip(tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(
        "[sweep]\nchecks = hyper\n[grid]\ntuples = 2 2 2 4\n"
        f"[corpus]\npolys = 1,1\n[output]\npath = {out_csv}\n"
    )
    code, _, err = run(["sweep", "--config", str(cfg)], capsys)
    assert code == 0
    assert re.match(r"\[PASS\] 1 checks, 1 pass \(\d+\.\d s\)\n", err)
    first = out_csv.read_bytes()
    code, _, _ = run(["sweep", "--config", str(cfg), "--quiet"], capsys)
    assert code == 0
    assert out_csv.read_bytes() == first

    for jobs in ("0", "-1"):
        code, _, err = run(["sweep", "--config", str(cfg), "--jobs", jobs], capsys)
        assert code == 2
        assert "jobs must be at least 1" in err

    bad = tmp_path / "bad.cfg"
    bad.write_text("[grid]\ntuples = 1 2\n")
    code, _, err = run(["sweep", "--config", str(bad), "--quiet"], capsys)
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("key, value", [("nodes", 0), ("angles", 0), ("nodes", 4097)])
def test_sweep_grid_count_out_of_range_is_a_usage_error(key, value, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[sweep]\nchecks = hyper\n{key} = {value}\n[grid]\ntuples = 2 2 2 4\n")
    code, out, err = run(["sweep", "--config", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert f"config line 3: {key}: {key} must be at" in err


def test_sweep_stdout_csv(capsys):
    # without an output path rows go to stdout in the report schema
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        cfg = os.path.join(d, "c.cfg")
        with open(cfg, "w") as fh:
            fh.write("[sweep]\nchecks = threshold\n[grid]\ntuples = 2 2 2 4\n")
        code, out, _ = run(["sweep", "--config", cfg, "--quiet"], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("check_id,")


def test_file_errors_are_configuration_errors(capsys, tmp_path, monkeypatch):
    # a config that cannot be read or a report that cannot be written is
    # named on one line, exit 2, like any other configuration error; the
    # report path is checked before any row runs
    def no_rows(*args, **kwargs):
        raise AssertionError("a row ran before the report path was checked")

    monkeypatch.setattr(acceptance, "_timed_row", no_rows)
    monkeypatch.setattr(cli, "run_sweep", no_rows)
    missing = tmp_path / "none" / "x.csv"
    code, out, err = run(["sweep", "--config", str(tmp_path / "none.cfg")], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{tmp_path / 'none.cfg'}'\n"
    argv = ["verify-suite", "--filter", "oracle", "--csv", str(missing), "--quiet"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(
        "[sweep]\nchecks = hyper\n[grid]\ntuples = 2 2 2 4\n"
        f"[corpus]\npolys = 1,1\n[output]\npath = {missing}\n"
    )
    code, out, err = run(["sweep", "--config", str(cfg), "--quiet"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_the_report_path_check_leaves_the_path_as_it_was(tmp_path, monkeypatch):
    # a run that fails after the check neither empties an existing report
    # nor leaves a new, empty one behind, nor replaces a dangling symlink
    def broken(*args):
        raise RuntimeError("row failed")

    monkeypatch.setattr(acceptance, "_timed_row", broken)
    kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
    kept.write_text("an earlier report\n")
    link, target = tmp_path / "link.csv", tmp_path / "target.csv"
    link.symlink_to(target)
    for path in (kept, fresh, link):
        with pytest.raises(RuntimeError, match="row failed"):
            acceptance.verify_suite(filter_text="stirling", csv_path=str(path))
    assert kept.read_text() == "an earlier report\n"
    assert not fresh.exists()
    assert link.is_symlink() and not target.exists()


def test_verify_suite_filter_no_match_is_usage_error(capsys, tmp_path):
    code, _, err = run(
        ["verify-suite", "--filter", "zzz", "--csv", str(tmp_path / "x.csv")],
        capsys,
    )
    assert code == 2
    assert "matches no criterion" in err


def test_verify_suite_nodes_override_outside_c1_is_usage_error(capsys, tmp_path):
    csv_path = tmp_path / "x.csv"
    code, out, err = run(
        ["verify-suite", "--nodes-override", "1", "--filter", "stirling",
         "--csv", str(csv_path)],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "nodes_override reaches only c1-oracle-agreement" in err
    assert not csv_path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["weissler", "--poly", "1,1", "--p", "4", "--q", "2"],
        ["threshold", "--alpha", "2", "--beta", "2", "--p", "4", "--q", "2"],
        ["kulikov", "--poly", "1,1", "--alpha", "2", "--p", "4", "--q", "2"],
    ],
    ids=["weissler", "threshold", "kulikov"],
)
def test_out_of_hypothesis_rows_are_labeled_not_judged(argv, capsys):
    # p > q breaks the hypotheses: the row is labeled and leaves the exit code
    code, out, _ = run([*argv, "--quiet"], capsys)
    assert code == 0
    row = json.loads(out)[0]
    assert row["status"] == "out-of-hypothesis"
    assert row["hypothesis_ok"] == "false"


# CLI arguments of each sweep kind for the inputs of PARITY_CONFIG
PARITY_ARGV = {
    "hyper": ["hyper-check", "--alpha", "2", "--beta", "3", "--p", "2", "--q", "4",
              "--poly", "1,0.5"],
    "nikolskii": ["nikolskii", "--alpha", "2", "--beta", "3", "--p", "2", "--q", "4",
                  "--poly", "1,0.5"],
    "kulikov": ["kulikov", "--alpha", "2", "--p", "2", "--q", "4", "--poly", "1,0.5"],
    "weissler": ["weissler", "--p", "2", "--q", "4", "--poly", "1,0.5"],
    "threshold": ["threshold", "--alpha", "2", "--beta", "3", "--p", "2", "--q", "4"],
}
PARITY_CONFIG = (
    "[sweep]\nchecks = {}\n[grid]\ntuples = 2 3 2 4\n[corpus]\npolys = 1,0.5\n"
)


@pytest.mark.parametrize("kind", sorted(PARITY_ARGV))
def test_cli_row_equals_one_row_sweep(kind, capsys):
    assert sorted(PARITY_ARGV) == sorted(CHECK_KINDS)
    code, out, _ = run([*PARITY_ARGV[kind], "--out", "csv", "--quiet"], capsys)
    assert code == 0
    swept = run_sweep(parse_sweep_config(PARITY_CONFIG.format(kind))).to_csv()
    assert len(swept.splitlines()) == 2
    assert out == swept


REQUIRED = "<required>"  # stands for the default of a required option
REPORT = {"--out": None, "--quiet": False}  # the options of the single checks
PARSER_SNAPSHOT = {
    "": {},
    "norm": {"--space": REQUIRED, "--poly": REQUIRED, "--method": "quad",
             "--nodes": None, "--angles": None, "--samples": None,
             "--seed": None, "--out": None},
    "hyper-check": {"--alpha": REQUIRED, "--beta": REQUIRED, "--p": REQUIRED,
                    "--q": REQUIRED, "--poly": REQUIRED, "--r": None,
                    "--method": "quad", "--nodes": None, "--angles": None,
                    **REPORT},
    "threshold": {"--alpha": REQUIRED, "--beta": REQUIRED, "--p": REQUIRED,
                  "--q": REQUIRED, "--eps": 0.01, "--tol": 0.0001, **REPORT},
    "nikolskii": {"--alpha": REQUIRED, "--beta": REQUIRED, "--p": REQUIRED,
                  "--q": REQUIRED, "--poly": REQUIRED, "--nodes": None,
                  "--angles": None, **REPORT},
    "phi": {"--poly": REQUIRED, "--q": REQUIRED, "--ymin": 0.05, "--ymax": 0.9,
            "--count": 35, "--out": None},
    "ibp-check": {"--poly": REQUIRED, "--q": REQUIRED, "--beta": REQUIRED,
                  "--beta-prime": REQUIRED, "--nodes": 64, "--tol": 1e-07,
                  **REPORT},
    "kulikov": {"--poly": REQUIRED, "--alpha": REQUIRED, "--p": REQUIRED,
                "--q": REQUIRED, **REPORT},
    "weissler": {"--poly": REQUIRED, "--p": REQUIRED, "--q": REQUIRED,
                 "--r": None, "--angles": None, **REPORT},
    "extremal": {"--alpha": REQUIRED, "--beta": REQUIRED, "--p": REQUIRED,
                 "--q": REQUIRED, "--m": 1, "--n": 64, "--samples": 200_000,
                 "--seed": 0, **REPORT},
    "stirling": {"--grid": "0.1,0.5,1,2,5,10,50,100,400", **REPORT},
    "gamma-ratio": {"--p": REQUIRED, "--q": REQUIRED, "--m-max": 200, **REPORT},
    "sweep": {"--config": REQUIRED, "--jobs": 1, "--out": None, "--quiet": False},
    "verify-suite": {"--filter": None, "--csv": "verify_suite.csv",
                     "--nodes-override": None, "--seed": 0, "--quiet": False},
    "dump-rule": {"--alpha": REQUIRED, "--nodes": 64, "--angles": None,
                  "--out": None},
}
SWEEP_KEYS_SNAPSHOT = {
    "sweep": {"checks", "seed", "method", "nodes", "angles"},
    "grid": {"tuples", "r", "eps"},
    "corpus": {"polys", "count", "max_degree", "nvars", "kind"},
    "output": {"path"},
}


# parameters and defaults of every public callable: a knob that comes back
# has to change this snapshot
SIGNATURE_SNAPSHOT = {
    "ComplexPolynomial": "(nvars, terms)",
    "ComplexPolynomial.dilate": "(self, r)",
    "parse_polynomial": "(text)",
    "McSampler": "(alpha, nvars, seed, stream_id=0)",
    "circle_rule": "(count)",
    "radial_rule": "(alpha, nodes)",
    "stream_for": "(label)",
    "unit_uniforms": "(seed, label, count)",
    "NormResult": "(value, method, est_error)",
    "bergman_norm": "(P, alpha, p, nodes=None, angles=None)",
    "bergman_norm_mc": "(P, p, sampler, n_samples)",
    "exact_norm_even_p": "(P, alpha, p)",
    "exact_norm_p2": "(P, alpha)",
    "hardy_norm": "(P, p, angles=None)",
    "mixed_norm": "(Q, alpha, p)",
    "norms.circle_means": "(P, p, radii_sq)",
    "monomial_norm_sq": "(k, alpha)",
    "sharp_radius": "(alpha, beta, p, q)",
    "threshold_search": "(alpha, beta, p, q, *, slack, eps=0.01, tol=0.0001)",
    "necessity_expansion_check": "(alpha, p, eps_grid=(0.04, 0.02, 0.01))",
    "phi_profile": "(f, q, y_grid)",
    "phi_convexity_check": "(f, q, y_grid)",
    "ibp_identity_check": "(f, q, beta, beta_prime, nodes=64)",
    "convexity_majorant_check": "(beta, beta_prime, y_grid)",
    "ExtremalSpec": "(n, m)",
    "exact_sum_power_norm": "(n, m, alpha, p)",
    "extremal_ratio": "(spec, alpha, beta, p, q, n_samples=200000, seed=0)",
    "gaussian_moment": "(m, p)",
    "gamma_ratio_limit_check": "(p, q, m_grid)",
    "stirling_bounds_check": "(x_grid)",
    "sharpness_exhibit": "(alpha, beta, p, q, m, n=64, n_samples=200000, seed=0)",
    "multi_indices": "(nvars, max_degree)",
    "random_polynomials": "(count, nvars, max_degree, seed, kind='unit-box')",
    "ReportRow": "(check_id, params, computed, target, status, method='', "
                 "est_error=None, hypothesis_ok=True, note='')",
    "VerificationReport": "(rows=<factory>)",
    "SweepConfig": "(checks=('hyper',), seed=0, method='quad', nodes=None, "
                   "angles=None, tuples=(), radii='auto', eps=0.01, polys=(), "
                   "output_path=None)",
    "parse_sweep_config": "(text)",
    "load_sweep_config": "(path)",
    "run_sweep": "(cfg, jobs=1)",
    "run_criterion": "(criterion_id, seed=1729, nodes_override=None)",
    "verify_suite": "(seed=1729, filter_text=None, csv_path='verify_suite.csv', "
                    "nodes_override=None, quiet=False, "
                    "emit=<built-in function print>)",
}


def _bare_signature(fn) -> str:
    """The parameters and defaults of fn, annotations dropped."""
    sig = inspect.signature(fn)
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


def _options(parser) -> dict:
    """option -> default for every option of parser, REQUIRED if required."""
    return {
        action.option_strings[0]: REQUIRED if action.required else action.default
        for action in parser._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    }


def test_every_option_and_sweep_key_is_snapshotted():
    # adding, dropping or re-defaulting a knob has to change this snapshot
    parser = build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    seen = {"": _options(parser)}
    seen.update((name, _options(sub)) for name, sub in subs.choices.items())
    assert seen == PARSER_SNAPSHOT
    assert sweep._SECTION_KEYS == SWEEP_KEYS_SNAPSHOT
    shared = ("--seed", "--jobs", "--out", "--quiet")
    assert sum(opt in shared for opts in seen.values() for opt in opts) == 28
    assert sum(map(len, SWEEP_KEYS_SNAPSHOT.values())) == 14


def test_every_library_signature_is_snapshotted():
    public = {name: getattr(berglab, name) for name in berglab.__all__}
    seen = {name: _bare_signature(obj) for name, obj in public.items() if callable(obj)}
    seen["norms.circle_means"] = _bare_signature(norms.circle_means)
    seen["ComplexPolynomial.dilate"] = _bare_signature(ComplexPolynomial.dilate)
    assert seen == SIGNATURE_SNAPSHOT


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hyper-check", "--alpha", "2", "--beta", "2", "--p", "2", "--q", "4",
          "--poly", "1,1", "--angles", "0"], "angles must be at least 1"),
        (["weissler", "--p", "2", "--q", "4", "--poly", "1,1", "--angles", "-3"],
         "angles must be at least 1"),
        (["nikolskii", "--alpha", "2", "--beta", "2", "--p", "2", "--q", "4",
          "--poly", "1,1", "--nodes", "0"], "nodes must be at least 1"),
        (["dump-rule", "--alpha", "2", "--angles", "0"], "angles must be at least 1"),
        (["dump-rule", "--alpha", "2", "--angles", "-3"], "angles must be at least 1"),
        # the default radius sqrt(p/q) is derived only after q is checked
        (["weissler", "--poly", "1,1", "--p", "2", "--q", "0"],
         "exponent q must lie in (0, 64], got 0.0"),
        (["weissler", "--poly", "1,1", "--p", "2", "--q", "-1"],
         "exponent q must lie in (0, 64], got -1.0"),
        # with an explicit radius q is checked by name before any norm
        (["weissler", "--poly", "1,1", "--p", "2", "--q", "0", "--r", "0.5"],
         "exponent q must lie in (0, 64], got 0.0"),
        (["hyper-check", "--poly", "1,1", "--alpha", "2", "--beta", "2",
          "--p", "2", "--q", "0", "--r", "0.5"],
         "exponent q must lie in (0, 64], got 0.0"),
        (["hyper-check", "--poly", "1,1", "--alpha", "2", "--beta", "2",
          "--p", "2", "--q", "0", "--r", "0.5", "--method", "exact"],
         "exponent q must lie in (0, 64], got 0.0"),
        (["phi", "--poly", "1,1", "--q", "4", "--count", "0"],
         "count must be at least 1, got 0"),
        (["phi", "--poly", "1,1", "--q", "4", "--count", "-3"],
         "count must be at least 1, got -3"),
        # the circle profile checks q as every norm checks its exponent
        (["phi", "--poly", "1,1", "--q", "3000"],
         "exponent q must lie in (0, 64], got 3000.0"),
        (["ibp-check", "--poly", "1,1", "--q", "100", "--beta", "2",
          "--beta-prime", "4"],
         "exponent q must lie in (0, 64], got 100.0"),
        # |f|^64 = 10^320 on every circle: the means are inf, not printed
        (["phi", "--poly", "100000,1", "--q", "64"],
         "circle mean not finite on every circle: inf"),
    ],
    ids=["hyper-angles-0", "weissler-angles-neg", "nikolskii-nodes-0",
         "dump-rule-angles-0", "dump-rule-angles-neg", "weissler-q-0",
         "weissler-q-neg", "weissler-q-0-explicit-r", "hyper-q-0-explicit-r",
         "hyper-exact-q-0-explicit-r", "phi-count-0", "phi-count-negative",
         "phi-q-3000", "ibp-check-q-100", "phi-overflow"],
)
def test_grid_counts_below_one_are_usage_errors_naming_the_input(
    argv, message, capsys
):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


# The exact stdout of each table command in both formats.
TABLE_OUTPUTS = {
    ("norm", "json"): (
        ["norm", "--space", "alpha=2,p=4", "--poly", "1,1"],
        '{"est_error": 0.0, "method": "quadrature", "value": 1.3512001548070343}\n',
    ),
    ("norm", "csv"): (
        ["norm", "--space", "alpha=2,p=4", "--poly", "1,1", "--out", "csv"],
        "value,method,est_error\n1.3512001548070343,quadrature,0.0\n",
    ),
    ("phi", "csv"): (
        ["phi", "--poly", "1,1", "--q", "4", "--ymin", "0.1", "--ymax", "0.5",
         "--count", "3"],
        "y,phi,phi2\n"
        "0.1,1.4100000000000001,1.9999999999999973\n"
        "0.30000000000000004,2.2900000000000005,2.0000000000000004\n"
        "0.5,3.25,2.000000000000002\n",
    ),
    ("phi", "json"): (
        ["phi", "--poly", "1,1", "--q", "4", "--ymin", "0.1", "--ymax", "0.5",
         "--count", "3", "--out", "json"],
        '[{"phi": 1.4100000000000001, "phi2": 1.9999999999999973, "y": 0.1}, '
        '{"phi": 2.2900000000000005, "phi2": 2.0000000000000004, "y": 0.30000000000000004}, '
        '{"phi": 3.25, "phi2": 2.000000000000002, "y": 0.5}]\n',
    ),
    ("dump-rule", "csv"): (
        ["dump-rule", "--alpha", "2", "--nodes", "2", "--angles", "2"],
        "component,index,node,weight\n"
        "radial,0,0.21132486540518708,0.5\n"
        "radial,1,0.7886751345948129,0.5\n"
        "angular,0,0.0,0.5\n"
        "angular,1,3.141592653589793,0.5\n",
    ),
    ("dump-rule", "json"): (
        ["dump-rule", "--alpha", "2", "--nodes", "2", "--angles", "2", "--out", "json"],
        '[{"component": "radial", "index": 0, "node": 0.21132486540518708, '
        '"weight": 0.5}, {"component": "radial", "index": 1, '
        '"node": 0.7886751345948129, "weight": 0.5}, {"component": "angular", '
        '"index": 0, "node": 0.0, "weight": 0.5}, {"component": "angular", '
        '"index": 1, "node": 3.141592653589793, "weight": 0.5}]\n',
    ),
}


@pytest.mark.parametrize(
    "key", sorted(TABLE_OUTPUTS), ids=["-".join(k) for k in sorted(TABLE_OUTPUTS)]
)
def test_table_commands_print_pinned_bytes(key, capsys):
    argv, expected = TABLE_OUTPUTS[key]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == expected
