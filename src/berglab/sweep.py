"""Config-driven verification sweeps.

The config is deliberately dependency-free: ``[section]`` headers and one
``key = value`` pair per line, lists comma-separated, ``#`` starts a comment
line.  Parsing fails fast with the offending line number.  Example::

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

Polynomial lists in ``[corpus] polys`` are separated by ``;`` because the
dense polynomial format itself uses commas.  A sweep is a pure function of
its config: rerunning one produces byte-identical CSV.
"""
from __future__ import annotations

import contextvars
import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

from .checks import CHECKS, space_inputs
from .corpus import random_polynomials
from .norms import memo_scope
from .poly import ComplexPolynomial, parse_polynomial
from .report import VerificationReport

__all__ = ["SweepConfig", "parse_sweep_config", "load_sweep_config", "run_sweep"]

CHECK_KINDS = tuple(name for name, check in CHECKS.items() if check.sweep)

# The [sweep] method and [grid] eps settings take their choices and defaults
# from the registry, as the CLI flags of the checks do.
_METHOD = next(p for p in CHECKS["hyper"].params if p.name == "method")
_EPS = next(p for p in CHECKS["threshold"].params if p.name == "eps")

_SECTION_KEYS = {
    "sweep": {"checks", "seed", "method", "nodes", "angles"},
    "grid": {"tuples", "alpha", "beta", "p", "q", "r", "eps"},
    "corpus": {"polys", "count", "max_degree", "nvars", "kind", "seed"},
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

    def take(section: str, key: str) -> tuple[str, int] | None:
        return entries.get((section, key))

    def take_int(section: str, key: str, default: int | None) -> int | None:
        got = take(section, key)
        if got is None:
            return default
        value, line_no = got
        try:
            return int(value)
        except ValueError:
            raise _fail(line_no, f"{key} must be an integer, got {value!r}") from None

    def take_float(section: str, key: str, default: float) -> float:
        got = take(section, key)
        if got is None:
            return default
        value, line_no = got
        try:
            return float(value)
        except ValueError:
            raise _fail(line_no, f"{key} must be a number, got {value!r}") from None

    checks: tuple[str, ...] = ("hyper",)
    got = take("sweep", "checks")
    if got is not None:
        value, line_no = got
        names = tuple(name.lower() for name in _split_list(value))
        for name in names:
            if name not in CHECK_KINDS:
                raise _fail(
                    line_no, f"unknown check {name!r}; valid: {', '.join(CHECK_KINDS)}"
                )
        if not names:
            raise _fail(line_no, "checks list is empty")
        checks = names

    seed = take_int("sweep", "seed", 0)
    method = _METHOD.default
    got = take("sweep", "method")
    if got is not None:
        value, line_no = got
        if value not in _METHOD.choices:
            choices = " or ".join(_METHOD.choices)
            raise _fail(line_no, f"method must be {choices}, got {value!r}")
        method = value
    nodes = take_int("sweep", "nodes", None)
    angles = take_int("sweep", "angles", None)

    tuples: list[tuple[float, float, float, float]] = []
    got = take("grid", "tuples")
    axis_keys = [k for k in ("alpha", "beta", "p", "q") if take("grid", k) is not None]
    if got is not None and axis_keys:
        raise _fail(
            got[1], "give either tuples or the alpha/beta/p/q axis lists, not both"
        )
    if got is not None:
        value, line_no = got
        for chunk in _split_list(value):
            parts = chunk.split()
            if len(parts) != 4:
                raise _fail(
                    line_no,
                    f"each tuple needs four numbers 'alpha beta p q', got {chunk!r}",
                )
            try:
                tuples.append(tuple(float(x) for x in parts))
            except ValueError:
                raise _fail(line_no, f"non-numeric tuple entry in {chunk!r}") from None
    elif axis_keys:
        axes = {}
        for key in ("alpha", "beta", "p", "q"):
            got_axis = take("grid", key)
            if got_axis is None:
                present = take("grid", axis_keys[0])
                raise _fail(
                    present[1], f"axis lists need all of alpha/beta/p/q; missing {key}"
                )
            value, line_no = got_axis
            try:
                axes[key] = [float(x) for x in _split_list(value)]
            except ValueError:
                raise _fail(line_no, f"{key} list must be numeric") from None
            if not axes[key]:
                raise _fail(line_no, f"{key} list is empty")
        for a in axes["alpha"]:
            for b in axes["beta"]:
                for pp in axes["p"]:
                    for qq in axes["q"]:
                        tuples.append((a, b, pp, qq))

    radii: tuple[float, ...] | str = "auto"
    got = take("grid", "r")
    if got is not None:
        value, line_no = got
        if value.lower() == "auto":
            radii = "auto"
        else:
            try:
                radii = tuple(float(x) for x in _split_list(value))
            except ValueError:
                raise _fail(line_no, f"r must be auto or numbers, got {value!r}") from None
            for r in radii:
                if not (0.0 <= r <= 1.0):
                    raise _fail(line_no, f"radius {r} outside [0, 1]")
    eps = take_float("grid", "eps", _EPS.default)
    if not (0.0 < eps < 1.0):
        raise _fail(take("grid", "eps")[1], f"eps must lie in (0, 1), got {eps}")

    polys: list[ComplexPolynomial] = []
    got = take("corpus", "polys")
    if got is not None:
        value, line_no = got
        for chunk in value.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                polys.append(parse_polynomial(chunk))
            except ValueError as exc:
                raise _fail(line_no, f"bad polynomial {chunk!r}: {exc}") from None
    count = take_int("corpus", "count", 0)
    if count:
        nvars = take_int("corpus", "nvars", 1)
        max_degree = take_int("corpus", "max_degree", 4)
        kind = "unit-box"
        got = take("corpus", "kind")
        if got is not None:
            value, line_no = got
            if value not in ("unit-box", "zero-free"):
                raise _fail(line_no, f"kind must be unit-box or zero-free, got {value!r}")
            kind = value
        corpus_seed = take_int("corpus", "seed", seed)
        polys.extend(random_polynomials(count, nvars, max_degree, corpus_seed, kind))

    output_path = None
    got = take("output", "path")
    if got is not None:
        output_path = got[0]
        if not output_path:
            raise _fail(got[1], "output path is empty")

    return SweepConfig(
        checks=checks,
        seed=seed,
        method=method,
        nodes=nodes,
        angles=angles,
        tuples=tuple(tuples),
        radii=radii,
        eps=eps,
        polys=tuple(polys),
        output_path=output_path,
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


# (set, get) thread-count symbol pairs, by OpenBLAS build: the numpy and
# scipy wheels rename them with a scipy_ prefix and a 64_ ILP64 suffix.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _openblas_thread_controls() -> list:
    """(set, get) thread-count functions of every OpenBLAS copy in this process.

    Empty where none is found: another BLAS, or no ``/proc/self/maps``.
    """
    try:
        with open(
            "/proc/self/maps", encoding="utf-8", errors="surrogateescape"
        ) as maps:
            # the last of the six fields is the mapped file, where there is one
            paths = {line.split(None, 5)[-1].strip() for line in maps}
    except OSError:
        return []
    controls = []
    for path in sorted(paths):
        if "openblas" not in os.path.basename(path):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            try:
                set_threads = getattr(lib, set_name)
                get_threads = getattr(lib, get_name)
            except AttributeError:
                continue
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            controls.append((set_threads, get_threads))
            break
    return controls


@contextmanager
def _one_blas_thread():
    """Run the body with every loaded OpenBLAS at one thread, then restore.

    The products of a sweep row or an acceptance criterion are too small
    to gain from BLAS threads: beside a thread pool they spin against it,
    and inline they burn about twice the CPU for no shorter wall time.
    """
    saved = [
        (set_threads, get_threads())
        for set_threads, get_threads in _openblas_thread_controls()
    ]
    for set_threads, _ in saved:
        set_threads(1)
    try:
        yield
    finally:
        for set_threads, count in saved:
            set_threads(count)


def map_on_pool(fn, items, workers: int) -> list:
    """``[fn(item) for item in items]``, on a pool of ``workers`` threads.

    Runs inline when there is one worker or one item.  Either way every
    loaded OpenBLAS runs one thread meanwhile, and results come back in
    input order; an exception from ``fn`` propagates once the pool is done.
    The call is one ``norms.memo_scope``: it computes each distinct Bergman
    quadrature norm once, in its workers too; a nested call shares the memo.
    """
    items = list(items)
    with _one_blas_thread(), memo_scope():
        if workers > 1 and len(items) > 1:
            context = contextvars.copy_context()  # pool threads start empty
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(lambda item: context.copy().run(fn, item), items))
        return [fn(item) for item in items]


def run_sweep(cfg: SweepConfig, jobs: int = 1) -> VerificationReport:
    """Execute the configured cross-product of checks.

    With ``jobs > 1`` rows run on a pool of that many threads.  Either way
    OpenBLAS, where loaded, runs one thread per row meanwhile, and each
    distinct Bergman quadrature norm is computed once.  A row whose
    check raises becomes an error row naming the row's inputs; it fails the
    aggregate but does not abort the sweep.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")

    def run_one(task):
        check, inputs = task
        try:
            return check.run(**inputs)
        except Exception as exc:
            return check.error_row(inputs, exc)

    return VerificationReport(map_on_pool(run_one, _tasks(cfg), jobs))
