"""Config-driven verification sweeps.

The config is deliberately dependency-free: ``[section]`` headers and one
``key = value`` pair per line, lists comma-separated, ``#`` starts a comment
line.  ``_SECTION_KEYS`` lists the fourteen keys of the four sections, and
each value goes through one reader, so an unknown section or key, a
repeated key or a bad value fails fast with its line number.  Example::

    [sweep]
    checks = hyper, nikolskii, threshold
    seed = 7

    [grid]
    tuples = 2 2 2 4, 2 3 2 4
    r = auto

    [corpus]
    count = 5
    nvars = 1
    max_degree = 4
    kind = unit-box

    [output]
    path = sweep.csv

``[corpus] count`` random polynomials are drawn from the ``[sweep]`` seed;
``nvars``, ``max_degree`` and ``kind`` shape them and are refused without a
positive count.  Polynomial lists in ``[corpus] polys`` are separated by
``;`` because the dense polynomial format itself uses commas.  A sweep is a
pure function of its config: rerunning one produces byte-identical CSV.
"""
from __future__ import annotations

import contextvars
import itertools
import os
import threading
from dataclasses import dataclass

from .checks import CHECKS, error_fields, space_inputs
from .corpus import KINDS, random_polynomials
from .measures import check_counts, check_nodes
from .norms import ONE_BLAS_THREAD, memo_scope
from .poly import ComplexPolynomial, parse_polynomial
from .report import ReportRow, VerificationReport

__all__ = ["SweepConfig", "parse_sweep_config", "load_sweep_config", "run_sweep"]

CHECK_KINDS = tuple(name for name, check in CHECKS.items() if check.sweep)

# The [sweep] method and [grid] eps settings take their choices and defaults
# from the registry, as the CLI flags of the checks do.
_METHOD = next(p for p in CHECKS["hyper"].params if p.name == "method")
_EPS = next(p for p in CHECKS["threshold"].params if p.name == "eps")

_SECTION_KEYS = {
    "sweep": {"checks", "seed", "method", "nodes", "angles"},
    "grid": {"tuples", "r", "eps"},
    "corpus": {"polys", "count", "max_degree", "nvars", "kind"},
    "output": {"path"},
}


@dataclass(frozen=True)
class SweepConfig:
    checks: tuple[str, ...] = ("hyper",)
    seed: int = 0
    method: str = _METHOD.default
    nodes: int | None = None
    angles: int | None = None
    tuples: tuple[tuple[float, float, float, float], ...] = ()
    radii: tuple[float, ...] | str = "auto"
    eps: float = _EPS.default
    polys: tuple[ComplexPolynomial, ...] = ()
    output_path: str | None = None


def _fail(line_no: int, message: str) -> ValueError:
    return ValueError(f"config line {line_no}: {message}")


def _split_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


# Converters of the config values: each takes the text after ``=`` and
# raises ValueError on a bad value, which the reader prefixes with the line.


def _checks(value: str) -> tuple[str, ...]:
    names = tuple(name.lower() for name in _split_list(value))
    for name in names:
        if name not in CHECK_KINDS:
            raise ValueError(f"unknown check {name!r}; valid: {', '.join(CHECK_KINDS)}")
    if not names:
        raise ValueError("checks list is empty")
    return names


def _choice(*choices: str):
    def convert(value: str) -> str:
        if value not in choices:
            raise ValueError(f"must be {' or '.join(choices)}, got {value!r}")
        return value

    return convert


def _tuples(value: str) -> tuple[tuple[float, float, float, float], ...]:
    tuples = []
    for chunk in _split_list(value):
        parts = chunk.split()
        if len(parts) != 4:
            raise ValueError(
                f"each tuple needs four numbers 'alpha beta p q', got {chunk!r}"
            )
        tuples.append(tuple(float(x) for x in parts))
    return tuple(tuples)


def _radii(value: str) -> tuple[float, ...] | str:
    if value.lower() == "auto":
        return "auto"
    radii = tuple(float(x) for x in _split_list(value))
    for r in radii:
        if not (0.0 <= r <= 1.0):
            raise ValueError(f"radius {r} outside [0, 1]")
    return radii


def _eps(value: str) -> float:
    eps = float(value)
    if not (0.0 < eps < 1.0):
        raise ValueError(f"must lie in (0, 1), got {eps}")
    return eps


def _polys(value: str) -> tuple[ComplexPolynomial, ...]:
    polys = []
    for chunk in value.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            polys.append(parse_polynomial(chunk))
        except ValueError as exc:
            raise ValueError(f"bad polynomial {chunk!r}: {exc}") from None
    return tuple(polys)


def _path(value: str) -> str:
    if not value:
        raise ValueError("output path is empty")
    return value


def _nodes(value: str) -> int:
    nodes = int(value)
    check_nodes(nodes)
    return nodes


def _angles(value: str) -> int:
    angles = int(value)
    check_counts(angles=angles)
    return angles


def _needs_count(value: str):
    raise ValueError("needs a positive [corpus] count")


def parse_sweep_config(text: str) -> SweepConfig:
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    section = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTION_KEYS:
                raise _fail(line_no, f"unknown section [{section}]")
            continue
        if "=" not in line:
            raise _fail(line_no, f"expected key = value, got {raw_line.strip()!r}")
        if section is None:
            raise _fail(line_no, "key appears before any [section] header")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _SECTION_KEYS[section]:
            raise _fail(line_no, f"unknown key {key!r} in [{section}]")
        if (section, key) in entries:
            raise _fail(line_no, f"duplicate key {key!r} in [{section}]")
        entries[(section, key)] = (value, line_no)

    def read(section: str, key: str, convert, default=None):
        """convert(value) of the key, default where it is not given; a
        ValueError from convert is reraised naming the key and its line."""
        got = entries.get((section, key))
        if got is None:
            return default
        value, line_no = got
        try:
            return convert(value)
        except ValueError as exc:
            raise _fail(line_no, f"{key}: {exc}") from None

    seed = read("sweep", "seed", int, 0)
    nvars = read("corpus", "nvars", int, 1)
    max_degree = read("corpus", "max_degree", int, 4)
    kind = read("corpus", "kind", _choice(*KINDS), KINDS[0])
    generated = read(
        "corpus",
        "count",
        lambda count: random_polynomials(int(count), nvars, max_degree, seed, kind),
        [],
    )
    if not generated:
        for key in ("nvars", "max_degree", "kind"):
            read("corpus", key, _needs_count)
    return SweepConfig(
        checks=read("sweep", "checks", _checks, ("hyper",)),
        seed=seed,
        method=read("sweep", "method", _choice(*_METHOD.choices), _METHOD.default),
        nodes=read("sweep", "nodes", _nodes),
        angles=read("sweep", "angles", _angles),
        tuples=read("grid", "tuples", _tuples, ()),
        radii=read("grid", "r", _radii, "auto"),
        eps=read("grid", "eps", _eps, _EPS.default),
        polys=read("corpus", "polys", _polys, ()) + tuple(generated),
        output_path=read("output", "path", _path),
    )


def load_sweep_config(path: str) -> SweepConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_sweep_config(handle.read())


# --------------------------------------------------------------- execution


def _tasks(cfg: SweepConfig):
    """(check, inputs) for every row, in config order.

    A check runs once per polynomial only if it takes one, and once per
    listed radius only if it takes r; ``r = auto`` leaves r to the check's
    own default.
    """
    settings = {
        "method": cfg.method,
        "nodes": cfg.nodes,
        "angles": cfg.angles,
        "eps": cfg.eps,
    }
    for kind in cfg.checks:
        check = CHECKS[kind]
        radii = cfg.radii if "r" in check.names and cfg.radii != "auto" else (None,)
        polys = cfg.polys if "poly" in check.names else (None,)
        for tup in cfg.tuples:
            space = space_inputs(tup)
            for r in radii:
                for poly in polys:
                    pool = {**settings, **space, "r": r, "poly": poly}
                    yield check, {k: v for k, v in pool.items() if k in check.names}


def _map_on_threads(fn, items: list, workers: int) -> list:
    """``[fn(item) for item in items]`` on ``workers`` new threads.

    Worker i starts on item i, then each worker takes the next item not yet
    taken, and worker 0 exits after the others.  glibc hands a new thread
    the malloc arena of the thread that exited last, so the next call's
    worker 0, started first, gets this call's worker 0's arena, and the
    first item's memory stays in one arena over repeated calls.  With a
    thread pool the exit order varies, and ``verify_suite`` calls back to
    back on 2 cores spread the memory of c6 and c7 over both arenas: a
    ``ThreadPoolExecutor`` here peaked at 106.06-106.59 MB against
    87.80-88.04 MB (perfbench `suite`, 5 alternating runs each, 2-core VM).
    """
    context = contextvars.copy_context()  # new threads start empty
    claim = itertools.count(workers).__next__
    outcomes = [None] * len(items)
    others_done = threading.Event()

    def work(first):
        i = first
        while i < len(items):
            try:
                outcomes[i] = (True, context.copy().run(fn, items[i]))
            except BaseException as exc:
                outcomes[i] = (False, exc)
            i = claim()
        if first == 0:
            others_done.wait()

    threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads[1:]:
        thread.join()
    others_done.set()
    threads[0].join()
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]


def map_on_pool(fn, items, workers: int) -> list:
    """``[fn(item) for item in items]``, on ``workers`` threads.

    Runs inline when there is one worker, one item or one available core,
    and otherwise on new threads, at most one per item and one per core
    (see ``_map_on_threads``).  Either way every loaded OpenBLAS runs one
    thread meanwhile, and results come back in input order; an exception
    from ``fn`` propagates once every item is done.  The call is one
    ``norms.memo_scope``: it computes each distinct quadrature norm once
    (Hardy and mixed included), in its workers too; a nested call shares it.
    """
    items = list(items)
    workers = min(workers, len(items), len(os.sched_getaffinity(0)))
    with ONE_BLAS_THREAD, memo_scope():
        if workers > 1:
            return _map_on_threads(fn, items, workers)
        return [fn(item) for item in items]


def run_sweep(cfg: SweepConfig, jobs: int = 1) -> VerificationReport:
    """Execute the configured cross-product of checks.

    With ``jobs > 1`` rows run on a pool of that many threads, at most one
    per available core.  Either way OpenBLAS, where loaded, runs one
    thread per row meanwhile, and each distinct quadrature norm is computed
    once.  A row whose check raises becomes an error row naming
    the row's inputs; it fails the aggregate but does not abort the sweep.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")

    def run_one(task):
        check, inputs = task
        try:
            return check.run(**inputs)
        except Exception as exc:
            return ReportRow(check.name, check.describe(inputs), **error_fields(exc))

    return VerificationReport(map_on_pool(run_one, _tasks(cfg), jobs))
