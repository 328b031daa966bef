"""The three perfbench workloads and the row accounting they share.

Each workload is built from a seed (its set-up: import plus input
generation) and then runs whole passes; a pass returns a digest of its
output, the operations it attempted and the ones that failed.

* ``suite``: ``verify_suite`` over all seven acceptance criteria, CSV written
  to a file, as every user and every test run pays it.  Many small calls, so
  per-call overhead, rebuilt radial rules, the mixed-norm loop and the Monte
  Carlo sampler show here and nowhere else.
* ``sweep-bivar``: ``run_sweep`` over ``sweep-bivar.cfg`` with one thread per
  core.  Every norm is a bivariate tensor grid, so the grid kernel does almost
  all the work, called concurrently from the sweep's thread pool.
* ``highdeg``: univariate quadrature norms of degree 100 to 1500 checked
  against the exact coefficient oracles.  No per-call overhead; grid cost and
  memory scale with degree times angles, and the exact ``P ** s`` route does
  half the work.

Operations are the in-hypothesis rows of a CSV (failed on ``fail`` or
``error``) and, for ``highdeg``, the norms (failed when they miss the oracle
by more than the acceptance tolerance of criterion c1).
"""
from __future__ import annotations

import csv
import hashlib
import io
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import berglab  # noqa: E402
from berglab import acceptance, corpus, norms, sweep  # noqa: E402

if Path(berglab.__file__).resolve().parent != SRC / "berglab":
    raise ImportError(f"berglab imported from {berglab.__file__}, not from {SRC}")

__all__ = ["PassResult", "WORKLOADS", "account", "nproc"]

ORACLE_TOL = 1e-10
HIGHDEG_ALPHA = 2.0
HIGHDEG_CASES = (
    (100, 6.0),
    (200, 4.0),
    (400, 4.0),
    (800, 2.0),
    (800, 4.0),
    (1500, 2.0),
    (1500, 4.0),
)
SWEEP_CONFIG = HERE / "sweep-bivar.cfg"


@dataclass(frozen=True)
class PassResult:
    digest: str
    attempted: int
    failed: int
    worst_rel_err: float = 0.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def account(csv_text: str) -> tuple[int, int]:
    """(attempted, failed) over the in-hypothesis rows of a report CSV."""
    statuses = [row["status"] for row in csv.DictReader(io.StringIO(csv_text))]
    attempted = sum(1 for s in statuses if s != "out-of-hypothesis")
    failed = sum(1 for s in statuses if s in ("fail", "error"))
    return attempted, failed


def _csv_result(path: Path) -> PassResult:
    data = path.read_bytes()
    attempted, failed = account(data.decode("utf-8"))
    return PassResult(hashlib.sha256(data).hexdigest(), attempted, failed)


class Suite:
    unit = "rows"

    def __init__(self, seed: int):
        self.seed = seed

    def run_pass(self, workdir: Path) -> PassResult:
        path = workdir / "verify_suite.csv"
        acceptance.verify_suite(
            seed=self.seed, csv_path=str(path), quiet=True, emit=_to_stderr
        )
        return _csv_result(path)


class SweepBivar:
    unit = "rows"

    def __init__(self, seed: int):
        text, count = re.subn(
            r"(?m)^seed = \d+$", f"seed = {seed}", SWEEP_CONFIG.read_text()
        )
        if count != 1:
            raise ValueError(f"{SWEEP_CONFIG.name} needs exactly one 'seed = N' line")
        self.cfg = sweep.parse_sweep_config(text)
        self.jobs = nproc()

    def run_pass(self, workdir: Path) -> PassResult:
        path = workdir / "sweep.csv"
        sweep.run_sweep(self.cfg, jobs=self.jobs).write_csv(str(path))
        return _csv_result(path)


class HighDeg:
    unit = "norms"

    def __init__(self, seed: int):
        degrees = sorted({d for d, _ in HIGHDEG_CASES})
        self.polys = {d: corpus.random_polynomials(1, 1, d, seed)[0] for d in degrees}

    def run_pass(self, workdir: Path) -> PassResult:
        lines = []
        failed = 0
        worst = 0.0
        for degree, p in HIGHDEG_CASES:
            P = self.polys[degree]
            quad = norms.bergman_norm(P, HIGHDEG_ALPHA, p).value
            if p == 2.0:
                exact = norms.exact_norm_p2(P, HIGHDEG_ALPHA).value
            else:
                exact = norms.exact_norm_even_p(P, HIGHDEG_ALPHA, p).value
            rel = abs(quad - exact) / exact
            failed += rel > ORACLE_TOL
            worst = max(worst, rel)
            lines.append(f"{degree},{p!r},{quad!r},{exact!r},{rel!r}\n")
        digest = hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()
        return PassResult(digest, len(HIGHDEG_CASES), failed, worst)


def _to_stderr(line: str) -> None:
    print(line, file=sys.stderr)


WORKLOADS = {"suite": Suite, "sweep-bivar": SweepBivar, "highdeg": HighDeg}
