"""berglab benchmark: time to a verified result and its memory, per workload.

    python3 perfbench/run.py --workload suite --seed 1729 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1729

One client runs whole passes back to back (a closed loop) until ``--seconds``
have passed, always at least one.  Every pass is checked: a crash, or a pass
whose output digest differs from the first pass's, aborts with exit code 1
and no result.  Failed rows and oracle misses are counted, not hidden.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
untraced passes, then one last pass with every public function in ``LAYERS``
wrapped (removed again after it), and reports the per-layer metrics.  Each
metric is printed as ``<workload> <name> = <value> <unit>``, and the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs each workload in its own process, one after another.
The program is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits with code 2.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("suite", "sweep-bivar", "highdeg")
SETUP_REPEATS = 5

# Public functions timed by the traced run, as ``module.function`` or
# ``module.Class.method`` under berglab.
LAYERS = (
    "norms.bergman_norm",
    "norms.mixed_norm",
    "norms.bergman_norm_mc",
    "norms.exact_norm_p2",
    "norms.exact_norm_even_p",
    "measures.radial_rule",
    "measures.McSampler.sample_block",
    "poly.ComplexPolynomial.__pow__",
    "poly.ComplexPolynomial.dilate",
    "poly.ComplexPolynomial.homogenize",
    "poly.ComplexPolynomial.substitute_last",
    "inequalities.nikolskii_check",
    "inequalities.hyper_check",
    "inequalities.kulikov_check",
    "inequalities.threshold_search",
    "inequalities.phi_convexity_check",
    "inequalities.ibp_identity_check",
    "extremal.extremal_ratio",
    "corpus.random_polynomials",
    "report.VerificationReport.to_csv",
    "sweep.run_sweep",
)
CRITERION = "acceptance.run_criterion"
CRITERIA = ("c1", "c2", "c3", "c4", "c5", "c6", "c7")
NOTES = {
    "measures.radial_rule": lambda a: (float(a["alpha"]), int(a["nodes"])),
    "measures.McSampler.sample_block": lambda a: int(a["count"]),
    "sweep.run_sweep": lambda a: int(a.get("jobs", 1)),
    CRITERION: lambda a: str(a["criterion_id"]).split("-")[0],
}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        openblas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        got = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
        )
        if got.returncode == 0:
            commit = got.stdout.strip()
    threads = {
        var: os.environ.get(var, "default")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": threads,
        "commit": commit,
        "seed": seed,
    }


def time_setups(args) -> list[float]:
    """Wall seconds of fresh processes that import berglab and build inputs."""
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-only",
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def end_to_end_metrics(setups, walls) -> dict:
    """End-to-end metrics of one run, as name -> (value, unit)."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }


def layer_metrics(tracer, result, walls, cpus, traced_wall) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    Self times are summed over threads, so under the sweep's thread pool
    they can add up to more than the pass's wall time.
    """
    out = {}
    for target in LAYERS:
        spans = tracer.by_name(target)
        out[f"{target}.calls"] = (len(spans), "count")
        out[f"{target}.self_s"] = (sum(s.self_time for s in spans), "s")
    per_criterion = defaultdict(float)
    for span in tracer.by_name(CRITERION):
        per_criterion[span.note] += span.duration
    for cid in CRITERIA:
        out[f"acceptance.{cid}.wall_s"] = (per_criterion[cid], "s")
    rules = [s.note for s in tracer.by_name("measures.radial_rule")]
    out["measures.radial_rule.distinct_share"] = (
        len(set(rules)) / len(rules) if rules else 0.0,
        "share",
    )
    out["measures.McSampler.sample_block.samples"] = (
        sum(s.note for s in tracer.by_name("measures.McSampler.sample_block")),
        "count",
    )
    out["norms.bergman_norm.worst_rel_err"] = (result.worst_rel_err, "rel")
    sweeps = tracer.by_name("sweep.run_sweep")
    busy = sum(child.duration for s in sweeps for child in s.children)
    capacity = sum(s.note * s.duration for s in sweeps)
    out["sweep.run_sweep.busy_share"] = (busy / capacity if capacity else 0.0, "share")
    out["proc.cpu_s"] = (statistics.median(cpus), "s")
    out["trace.overhead_s"] = (traced_wall - statistics.median(walls), "s")
    return out


def run_workload(args) -> int:
    import workloads
    from tracer import Tracer

    make = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        make(args.seed)
        return 0
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    setups = [] if args.trace else time_setups(args)
    workload = make(args.seed)

    walls, cpus, results = [], [], []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)

        def check(result, label):
            if result.digest != results[0].digest:
                print(
                    f"perfbench: {label} output {result.digest} differs from "
                    f"pass 1 output {results[0].digest}",
                    file=sys.stderr,
                )
                return False
            return True

        started = time.perf_counter()
        while not walls or time.perf_counter() - started < args.seconds:
            c0 = cpu_seconds()
            t0 = time.perf_counter()
            result = workload.run_pass(workdir)
            walls.append(time.perf_counter() - t0)
            cpus.append(cpu_seconds() - c0)
            results.append(result)
            print(
                f"pass {len(walls)}: {walls[-1]:.3f} s, {result.attempted} "
                f"{workload.unit}, {result.failed} failed, sha256 {result.digest}",
                flush=True,
            )
            if not check(result, f"pass {len(walls)}"):
                return 1

        if args.trace:
            with Tracer("berglab", LAYERS + (CRITERION,), NOTES) as tracer:
                t0 = time.perf_counter()
                traced = workload.run_pass(workdir)
                traced_wall = time.perf_counter() - t0
            if tracer.missing:
                print(f"missing (reported as 0): {', '.join(tracer.missing)}")
            if not check(traced, "traced pass"):
                return 1

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    first = results[0]
    q1, wall, q3 = quartiles(walls)
    print(
        f"{args.workload} wall_s: median {wall:.4f} s, q1 {q1:.4f}, q3 {q3:.4f}, "
        f"{len(walls)} pass(es) of {first.attempted} {workload.unit}"
    )
    print(
        f"{args.workload} fail_share = {failed / attempted!r} share "
        f"({failed} of {attempted} {workload.unit} failed)"
    )
    print(f"{args.workload} sha256 = {first.digest}")
    if args.trace:
        metrics = layer_metrics(tracer, traced, walls, cpus, traced_wall)
    else:
        metrics = end_to_end_metrics(setups, walls)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


def run_all(args) -> int:
    failed = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)]
        if subprocess.run(cmd, cwd=ROOT).returncode != 0:
            failed.append(name)
    if failed:
        print(f"perfbench: failed workloads: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "berglab" / "__init__.py").is_file():
        print(f"perfbench: no berglab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
