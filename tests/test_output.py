"""The one table writer: CSV bytes pinned, strict one-line JSON, and the
README's CLI examples run through it."""
import argparse
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import shlex
from pathlib import Path

import pytest

from berglab.cli import build_parser, main
from berglab.report import fmt_value

ROOT = Path(__file__).resolve().parents[1]


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """text parsed as RFC 8259 JSON: NaN and Infinity are refused."""
    assert text.endswith("\n") and text.count("\n") == 1, "one line"
    return json.loads(text, parse_constant=_refuse_constant)


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def csv_records(text):
    """The rows of a CSV text as dicts; every row has the header's width."""
    header, *rows = csv.reader(io.StringIO(text))
    assert rows and all(len(row) == len(header) for row in rows)
    return [dict(zip(header, row)) for row in rows]


def as_text(payload):
    """JSON records with every value as the CSV writes it."""
    records = payload if isinstance(payload, list) else [payload]
    return [{key: fmt_value(value) for key, value in r.items()} for r in records]


BIVAR = "(1,0):1 (0,1):0.5"  # its params text holds commas, so it is quoted
# sha256 of each command's --out csv, unchanged since the table printers
# became one writer; {cfg} is a one-row sweep config.  Each --out json must
# be one line of strict JSON (the Monte Carlo norm whose est_error is inf
# is in tests/test_cli.py)
CSV_SHA256 = {
    "norm-exact": (
        ["norm", "--space", "alpha=2,p=4", "--poly", "1,1", "--method", "exact"],
        "c09678c0b2951fcb350357dfeda928810c4a110e094a7ddb4c110b2431ca182d",
    ),
    "norm-quad": (
        ["norm", "--space", "alpha=2,p=3", "--poly", "1,0.5,0.25"],
        "72b28ca04d6b2dce95ae799dd18316e02876c54e5c76e60014e16a01f09a08cc",
    ),
    "check-univariate": (
        ["hyper-check", "--alpha", "2", "--beta", "3", "--p", "2", "--q", "4",
         "--poly", "1,1"],
        "df778f276dbdd01f81087e9935f04764327e161267630ffb98a7a02be22d1574",
    ),
    "check-bivariate": (
        ["nikolskii", "--alpha", "2", "--beta", "2", "--p", "2", "--q", "4",
         "--poly", BIVAR],
        "15b08168e96ac50b3bb274a386c361df3aa31a6684c59cf5230fe9d1325cf9ee",
    ),
    "sweep-one-row": (
        ["sweep", "--config", "{cfg}"],
        "57d4ac0d23156ec206b212dc1db099d28d3b1c99c54c710fc0fe7da0899eb792",
    ),
    "phi": (
        ["phi", "--poly", "1,1", "--q", "3", "--count", "4"],
        "d36ccc6fd0bb133a81a98cd5fc0861e6c80b714840a1392bbb2894b3e7e785d6",
    ),
    "dump-rule": (
        ["dump-rule", "--alpha", "2", "--nodes", "3", "--angles", "2"],
        "76d406ac25a18b562e5058a415aac0bbc004fa6d6a603aca172753c235fd111b",
    ),
}


@pytest.mark.parametrize("name", list(CSV_SHA256))
def test_csv_bytes_are_pinned_and_json_holds_the_same_records(name, tmp_path):
    argv, digest = CSV_SHA256[name]
    cfg = tmp_path / "one.cfg"
    cfg.write_text(
        "[sweep]\nchecks = hyper\n\n[grid]\ntuples = 2 3 2 4\n\n"
        "[corpus]\npolys = 1,0.5\n"
    )
    argv = [arg.replace("{cfg}", str(cfg)) for arg in argv]
    code, out_csv = run_cli([*argv, "--out", "csv"])
    assert code == 0
    assert hashlib.sha256(out_csv.encode()).hexdigest() == digest
    code, out_json = run_cli([*argv, "--out", "json"])
    assert code == 0
    assert as_text(strict_json(out_json)) == csv_records(out_csv)


SCRIPT_SHA256 = {
    "threshold_scan": (
        ["--eps", "0.04,0.02", "--tol", "1e-3"],
        "3362d1dd2964f523afe5dc531b7c1bb4d7fce0e40a7449f6c86de6e85ae1106b",
    ),
    "sharpness_curve": (
        ["--m-max", "2", "--n", "4", "--samples", "2000", "--seed", "3"],
        "c28cb9df91ac98c6cd50bf12a70d7cb8a12c39f6751abf29d4080a6376f8cad5",
    ),
}


@pytest.mark.parametrize("name", list(SCRIPT_SHA256))
def test_script_csv_bytes_are_pinned_on_stdout_and_in_a_file(name, tmp_path):
    argv, digest = SCRIPT_SHA256[name]
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert script.main(argv) == 0
    path = tmp_path / f"{name}.csv"
    assert script.main([*argv, "--out", str(path)]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def readme_examples():
    """(argv, documented output or None) of each `berglab` line of the
    README's CLI example block."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("# one norm, JSON out")
    end = lines.index("```", start)
    block = lines[start:end]
    examples = []
    for i, line in enumerate(block):
        if line.startswith("berglab "):
            after = block[i + 1] if i + 1 < len(block) else ""
            shown = after if after.startswith(("{", "[")) else None
            examples.append((shlex.split(line)[1:], shown))
    return examples


def takes_out(command):
    (subs,) = [
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return "--out" in subs.choices[command]._option_string_actions


def test_every_readme_example_runs_through_the_one_writer():
    # the README says every example exits 0; each that takes --out prints a
    # rectangular CSV and one line of strict JSON holding the same records
    examples = readme_examples()
    assert len(examples) == 13
    for argv, shown in examples:
        if not takes_out(argv[0]):
            assert run_cli(argv)[0] == 0, argv
            continue
        code, out_csv = run_cli([*argv, "--out", "csv"])
        assert code == 0, argv
        code, out_json = run_cli([*argv, "--out", "json"])
        assert code == 0, argv
        assert as_text(strict_json(out_json)) == csv_records(out_csv), argv
        if shown is not None:
            assert out_json == shown + "\n", argv
