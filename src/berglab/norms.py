"""Weighted Bergman, Hardy, and mixed norms of polynomials.

Four evaluation routes are provided and never silently substituted for one
another:

* ``exact_norm_p2``: Parseval route at p = 2 from monomial moments, one
  per distinct exponent;
* ``exact_norm_even_p``: the exact route for every even p, the one callers
  use; p = 2 is ``exact_norm_p2`` and larger p reduce to it via
  |P|^p = |P^(p/2)|^2.  Its cost is expanding P^(p/2) by repeated squaring,
  and each product (see ``poly``) is one vectorised multiply-add over the
  second factor's coefficients per term of the first, so squaring a
  degree-d univariate P takes about d^2 flops in numpy and d Python steps;
* ``bergman_norm``: tensor Gauss x equispaced quadrature;
* ``bergman_norm_mc``: Monte Carlo with a counter-based sampler, whose
  alpha and variable count it takes, and |P|^2 as control variate (see
  ``_mc_norm``, which ``extremal`` also uses).

All quadrature (Bergman, Hardy and mixed norms, and the circle profile of
the inequality checks) goes through one kernel, ``_power_mean``, the only
place where radial rules are built and coefficients become grid values.
It evaluates P one axis at a time: scale the coefficients by the radial
powers t^(a/2), then sum over the equispaced angles, by a (g x M) Fourier
matmul when the axis has few coefficients and by an inverse FFT when it
has many (on equispaced angles the two are the same DFT).  Every axis is
evaluated by ``_tiles``, in tiles of about 2^16 grid points: each lead
axis into its step's output (``_lead_values``), and the last, streamed
axis tile by tile, so the full grid is never held in memory, each tile
reduced at once to circle means of |P|^p by ``_shell_means``.  A circle
variable is one more axis with the single node t = 1.  Zeros of P at
quarter-turn phases stay exact zeros (see ``_fourier_matrix``), and |P|^p
is formed from s = |P|^2 by ``_sq_pow``.

``_grid_rule`` is the one place where grids are sized, tables chosen and
sizing errors raised: it turns the variables' degrees, weights (one alpha,
or one per variable with None for a circle), p and the optional counts
into the grid, one (alpha, nodes, angles) triple per axis.  A default
angle count on an axis that ``_uses_fft`` sums is rounded up to the least
count with no prime factor above 5 (``_five_smooth``), which pocketfft
sums without falling back to the slower chirp-z; a matmul axis keeps the
count, and so does any count a caller pins.  Every quadrature norm is a
``bergman_norm`` on such weights (the Hardy norm one circle, the mixed
norm a circle beside disks); the circle profile counts its circles as the
nodes of one circle axis.  A grid holds sizes only, so
``_refuse_oversized`` refuses one whose kernel arrays would take more than
``_GRID_BYTES_BUDGET`` at once, as ``_grid_bytes`` counts them, before
anything is built.

The ladder: at p other than an even integer no finite grid is exact, and
a norm can be climbed on the rungs of ``_ladder`` below a cap, its default
grid, by ``_climb``, the one loop over them, until a rule it is given
holds.  Its one caller, ``_climbed_norms``, sizes the mixed norm and
every check row's Bergman norms (see each).  ``bergman_norm`` itself never
climbs: `berglab norm` and every caller that names a grid get that grid.

When a quadrature norm is exact: at even p = 2s, |P|^p = |P^s|^2 is a
polynomial, and the default grid sizes each axis from its own degree d so
that it integrates that polynomial exactly (see ``_grid_rule``), as long as
d*s <= 2K - 1 for the table's radial node count K; above that the node count
is capped at K.  There, and only there, the reported ``est_error = 0.0`` is
honest: the value is exact up to rounding.  At other p, at capped high
degree, and on grids pinned by explicit ``nodes``/``angles``, exactness is
not guaranteed and the ``est_error = 0.0`` of ``bergman_norm`` and
``hardy_norm`` states no bound.  A value climbed on the ladder reports the
gap between its last two rungs instead, an estimate of the coarser rung's
error that can fall short of the finer one's (at p = 0.5 with cusps, by up
to 44 times on c6's univariate corpus); a verdict is judged on it only
with the factor ``checks.SETTLE_MULTIPLE`` to spare.

One ``sweep.map_on_pool`` call computes each distinct quadrature norm
once (see ``memo_scope``); a call outside any pool always computes.  The
kernel's entry points, like the pool and the CLI, run under one
refcounted pin of OpenBLAS to one thread (``ONE_BLAS_THREAD``).

The kernel's tables (Fourier matrices, radial powers, angle weights)
depend only on sizes and rules, so each is built once and kept, read-only
and shared by threads, in one bounded cache, ``_TABLES`` (see
``_TableCache`` and ``_TABLE_CACHE_BYTES``); grid byte counts are memoized
apart (``_GRID_COUNTS``).
"""
from __future__ import annotations

import ctypes
import functools
import itertools
import math
import os
import sys
import threading
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .measures import McSampler, check_alpha, check_counts, check_nodes, radial_rule
from .poly import ComplexPolynomial

__all__ = [
    "NormResult",
    "monomial_norm_sq",
    "exact_norm_p2",
    "exact_norm_even_p",
    "bergman_norm",
    "bergman_norm_mc",
    "hardy_norm",
    "mixed_norm",
    "circle_means",
    "circle_curvature",
]

# Tensor quadrature table per variable count: (radial nodes, angular floor).
# It sizes the grid at p other than an even integer, where no finite rule is
# exact; product grids use smaller floors (and a reduced node count) because
# the cost is multiplicative.  Circles alone take it as disks do.  At even
# p the grid is sized from the degree instead, and the node count here only
# caps it, so high degrees cost no more than the table.
_TENSOR_DEFAULTS = {1: (64, 257), 2: (32, 65), 3: (16, 33)}

# The angle floor of a single variable at p < 1, where |P|^p has cusps at the
# zeros of P on the circles; extra angles are cheap for one variable.
_CUSP_FLOOR = 1025

# The mixed norm wraps a circle average around the disk rule, so its inner
# grids are leaner again; key is the number of disks beside circles.  At even
# p it only caps the node count, as above; at other p it sizes the ladder's
# cap, the finest rung ``mixed_norm`` evaluates.
_MIXED_DEFAULTS = {1: (64, 257), 2: (24, 33), 3: (12, 17)}

# The mixed norm, and the Bergman side of the isometry rows, at p other
# than an even integer stop climbing once a rung agrees with the one before
# to this relative gap (``_gap_settled``): ISOMETRY_TOL / 100 of ``checks``
# (which this module cannot import; a test ties the two), so each side's
# gap is at most 1% of an isometry row's tolerance.
_MIXED_GAP_TOL = 1e-10

# The kernel streams the last axis in blocks of about this many grid points.
_BLOCK_POINTS = 1 << 16

# An axis with g coefficients and M angles is summed by FFT once g exceeds
# this many times log2(M), by a matmul below that.  The complex (g x M)
# Fourier matmul costs about g multiply-adds per grid point and the FFT a
# larger constant times log2(M); 16 is the crossover measured against that
# complex matmul, with numpy 2.4's pocketfft and OpenBLAS 0.3.31 on a 2-core
# Xeon VM for M from 257 to 12001.  Every axis takes that choice in
# ``_tiles``, which evaluates them all (``_uses_fft``).
_FFT_COEFFS_PER_LOG2_ANGLE = 16

# A quadrature norm whose kernel arrays (see ``_grid_bytes``) would take more
# than this many bytes at once is refused with a ValueError before any of
# them, or the coefficient array, is allocated.  No acceptance criterion or
# benchmark workload counts more than 5.4 MiB, and no test that expects a
# value more than 68 MiB (trivariate degree 6 at p = 3); bivariate degree
# (1000, 1000) at p = 4 counts 1,007 MiB, and one variable at 10^9 angles
# 60 GiB at p = 2: its (2 x 10^9) Fourier matrix with the roots and phase
# table it is indexed from, while it is built (67 GiB at p = 3, beside the
# s buffer of one tile).
_GRID_BYTES_BUDGET = 1 << 29

# Bytes of tables and keys that ``_TABLES`` keeps, as sys.getsizeof counts
# them; a table above a sixteenth of this (256 KiB) is not kept.  A serial
# verify-suite pass at seed 1729 keeps all it builds, 442 KiB: 28 Fourier
# matrices (325 KiB, the largest 144 KiB), 62 radial power tables and 21
# angle weight vectors.  The perfbench highdeg workload's
# Fourier matrix of 475 KiB (degree 100 at p = 6, 101 x 301) and its radial
# tables of up to 750 KiB are rebuilt per call, as keeping them would raise
# its peak memory.
_TABLE_CACHE_BYTES = 1 << 22

# Grid byte counts that ``_grid_bytes`` keeps, least recently used dropped
# first; a serial verify-suite pass at seed 1729 counts 96 grids in 1,993 calls.
_GRID_COUNTS = 256


class _TableCache:
    """Tables built once per key and shared: ``get(key, build, *args)``
    returns the table kept under ``key``, or the array build(*args) made
    read-only.

    A table is kept when it and its key's parts take at most a sixteenth of
    ``budget`` bytes (sys.getsizeof), and the least recently used are
    dropped once the kept ones take more than ``budget``.  A build that
    raises keeps nothing.  Two threads that miss one key at once both build
    it, and the first kept stays.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: tuple, build, *args):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry[0]
        table = build(*args)
        table.flags.writeable = False
        size = sys.getsizeof(table) + sum(map(sys.getsizeof, key))
        if size <= self.budget // 16:
            with self._lock:
                if key not in self._entries:
                    self._entries[key] = (table, size)
                    self.nbytes += size
                while self.nbytes > self.budget:
                    self.nbytes -= self._entries.popitem(last=False)[1][1]
        return table

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0


_TABLES = _TableCache(_TABLE_CACHE_BYTES)

_MEMO: ContextVar[dict] = ContextVar("bergman_norm_memo")


@contextmanager
def memo_scope():
    """A memo of ``bergman_norm`` results for the body, or the outer scope's."""
    token = _MEMO.set(_MEMO.get({}))
    try:
        yield
    finally:
        _MEMO.reset(token)


# (set, get) thread-count symbol pairs, by OpenBLAS build: the numpy and
# scipy wheels rename them with a scipy_ prefix and a 64_ ILP64 suffix.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(set, get) thread-count functions of every OpenBLAS copy in the process.

    Looked up once per process, on first use, so a copy loaded after that
    is not among them.  Empty where none is found: another BLAS, or no
    ``/proc/self/maps``.
    """
    try:
        with open(
            "/proc/self/maps", encoding="utf-8", errors="surrogateescape"
        ) as maps:
            # the last of the six fields is the mapped file, where there is one
            paths = {line.split(None, 5)[-1].strip() for line in maps}
    except OSError:
        return ()
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
    return tuple(controls)


class _OneBlasThread:
    """A refcounted pin of every loaded OpenBLAS to one thread.

    ``with ONE_BLAS_THREAD:`` sets each copy to one thread on the first
    entry and restores the saved counts on the last exit; an entry while
    another holds the pin, nested or from another thread, only counts.
    The kernel's products are too small to gain from BLAS threads: beside
    a thread pool they spin against it, and outside one a degree-100
    ``bergman_norm`` at p = 6, whose (64 x 101) by (101 x 301) complex
    matmul is the only BLAS call, took 16 ms per call in 2 of 10 fresh
    processes, against 0.9-1.4 ms in all 10 with the pin (2-core Xeon VM).
    The thread count is the process's, so the pin is one per process.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._holders = 0
        self._saved = []

    def __enter__(self) -> None:
        with self._lock:
            if not self._holders:
                self._saved = [
                    (set_threads, get_threads())
                    for set_threads, get_threads in _openblas_thread_controls()
                ]
                for set_threads, _ in self._saved:
                    set_threads(1)
            self._holders += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._holders -= 1
            if not self._holders:
                for set_threads, count in self._saved:
                    set_threads(count)


# Taken by the kernel's entry points, ``sweep.map_on_pool`` and the CLI.
ONE_BLAS_THREAD = _OneBlasThread()


@dataclass(frozen=True)
class NormResult:
    value: float
    method: str
    est_error: float

    def __post_init__(self) -> None:
        if not (self.value >= 0.0 and np.isfinite(self.value)):
            raise ValueError(f"norm value {self.value!r} not finite nonnegative")


def _check_p(p: float, name: str = "p") -> float:
    p = float(p)
    if not (0 < p <= 64):
        raise ValueError(f"exponent {name} must lie in (0, 64], got {p}")
    return p


def monomial_norm_sq(k: int, alpha: float) -> float:
    """Moment of |z|^(2k) under dA_alpha: prod_{j<=k} j / (alpha-1+j).

    Evaluated as a running product for small k and in the log domain for
    large k (see ``_moments``).
    """
    check_alpha(alpha)
    k = int(k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _moments((k,), alpha)[k]


def _moments(ks, alpha: float) -> dict[int, float]:
    """monomial_norm_sq(k, alpha) for each distinct k of ks, nonnegative ints."""
    log_gamma_alpha = math.lgamma(alpha)
    out = {}
    for k in set(ks):
        if k <= 64:
            mom = 1.0
            for j in range(1, k + 1):
                mom *= j / (alpha - 1.0 + j)
        else:
            mom = math.exp(
                math.lgamma(k + 1) + log_gamma_alpha - math.lgamma(alpha + k)
            )
        out[k] = mom
    return out


def exact_norm_p2(P: ComplexPolynomial, alpha: float) -> NormResult:
    """A^2_alpha norm from coefficient orthogonality of the monomials."""
    check_alpha(alpha)
    moment = _moments(itertools.chain.from_iterable(g for g, _ in P.terms), alpha)
    total = 0.0
    for gamma, c in P.terms:
        mom = 1.0
        for e in gamma:
            mom *= moment[e]
        total += (c.real * c.real + c.imag * c.imag) * mom
    return NormResult(math.sqrt(total), "exact-p2", 0.0)


def exact_norm_even_p(P: ComplexPolynomial, alpha: float, p: float) -> NormResult:
    """A^p_alpha norm for even integer p via |P|^p = |P^(p/2)|^2."""
    check_alpha(alpha)
    _check_p(p)
    s = _even_half(p)
    if s is None:
        raise ValueError(f"p must be an even integer, got {p}")
    if s == 1:
        return exact_norm_p2(P, alpha)
    value_sq = exact_norm_p2(P ** s, alpha).value ** 2
    return NormResult(value_sq ** (1.0 / p), "exact-even-p", 0.0)


def _even_half(p: float) -> int | None:
    """s when p = 2s for an integer s, else None."""
    s = float(p) / 2.0
    return int(s) if s.is_integer() else None


def _abs_pow(values: np.ndarray, p: float) -> np.ndarray:
    """|values|^p from s = re^2 + im^2; exact zeros stay exactly zero."""
    s = values.real * values.real
    if np.iscomplexobj(values):
        s += values.imag * values.imag
    return _sq_pow(s, p)


def _sq_pow(s: np.ndarray, p: float, scratch: np.ndarray | None = None) -> np.ndarray:
    """s^(p/2) for s >= 0, computed in place in s.

    When 2p is an integer, 2p = 4n + f with f < 4 and s^(p/2) = s^n s^(f/4).
    The root factor is sqrt(s) (f = 2), sqrt(sqrt(s)) (f = 1) or their
    product (f = 3), taken in place when n = 0 and otherwise into
    ``scratch`` (an array of s's shape, overwritten; allocated where None),
    which then gathers the factors s^(2^j) of the set low bits of n while s
    is squared up to its top bit.  So p = 3 is one square root into scratch
    and one product, p = 4 one square in place; only f = 3 with n > 0 (p =
    3.5, 5.5, ...) takes a temporary, for s^(1/4).  Square roots and products
    cost a fraction of a general np.power, which handles every other p,
    p <= 0 included.
    """
    twice = 2.0 * float(p)
    if twice <= 0.0 or not twice.is_integer():
        return np.power(s, 0.5 * float(p), out=s)
    n, f = divmod(int(twice), 4)
    if n == 0:
        if f == 3:
            half = np.sqrt(s, out=scratch)
            return np.multiply(np.sqrt(half, out=s), half, out=s)
        np.sqrt(s, out=s)
        return np.sqrt(s, out=s) if f == 1 else s
    acc = None  # the product of every factor but the top power of s
    if f:
        acc = np.sqrt(s, out=scratch)
        if f == 1:
            np.sqrt(acc, out=acc)
        elif f == 3:
            acc *= np.sqrt(acc)
    while n > 1:
        if n & 1:
            acc = np.positive(s, out=scratch) if acc is None else np.multiply(acc, s, out=acc)
        np.square(s, out=s)
        n >>= 1
    return s if acc is None else np.multiply(s, acc, out=s)


def _radial_powers(t: np.ndarray, g: int) -> np.ndarray:
    """(K, g) table of t_k^(a/2): |z|^a on the shell |z|^2 = t_k (read-only)."""
    t = np.asarray(t, dtype=float)
    return _TABLES.get(("radial", t.tobytes(), g), _build_radial_powers, t, g)


def _build_radial_powers(t: np.ndarray, g: int) -> np.ndarray:
    return np.power(t[:, None], 0.5 * np.arange(g)[None, :])


def _angle_weights(m: int) -> np.ndarray:
    """The 2 m weights 1/m (read-only): the first m take the mean over m
    angles, and all of them sum re^2 and im^2 paired along the angles."""
    return _TABLES.get(("angles", m), np.full, 2 * m, 1.0 / m)


def _uses_fft(g: int, m: int) -> bool:
    """True where an FFT is cheaper than a (g x m) Fourier matmul.

    The matrix also covers g > m, where coefficients alias onto the same
    angles and a length-m FFT would drop them.
    """
    return _FFT_COEFFS_PER_LOG2_ANGLE * math.log2(m) < g <= m


def _five_smooth(m: int) -> int:
    """The least count of at least m angles with no prime factor above 5.

    pocketfft sums such a length by its radix-2, -3 and -5 passes, and a
    larger prime factor by slower generic passes or, for a large prime, by
    Bluestein's chirp-z: the inverse FFT of 21 rows of 1,501 coefficients
    took 2.47 ms at 3,001 angles against 0.54 ms at 3,072 (2-core Xeon VM,
    numpy 2.4).  Each 5^c 3^b below the power of two at or above m is
    doubled up to m, and the least of those products is taken.
    """
    best = 1 << (m - 1).bit_length()
    fives = 1
    while fives < best:
        odd = fives
        while odd < best:
            length = odd
            while length < m:
                length *= 2
            best = min(best, length)
            odd *= 3
        fives *= 5
    return best


def _fourier_matrix(g: int, m: int) -> np.ndarray | None:
    """(g x m) matrix exp(2 pi i a j / m) (read-only), or None where
    ``_uses_fft``.

    Its entries are the m roots of unity, indexed by the phase a j mod m;
    those at a quarter turn (4 a j = 0 mod m) are exactly 1, i, -1 or -i,
    so P's value at such an angle is an exact sum of its terms: 1 + z is
    exactly 0 at z = -1.
    """
    if _uses_fft(g, m):
        return None
    return _TABLES.get(("fourier", g, m), _build_fourier_matrix, g, m)


def _build_fourier_matrix(g: int, m: int) -> np.ndarray:
    roots = np.exp((2j * np.pi / m) * np.arange(m))
    quarter = math.gcd(4, m)
    roots[:: m // quarter] = (1, 1j, -1, -1j)[:: 4 // quarter]
    phase = np.outer(np.arange(g), np.arange(m))
    phase %= m
    return roots[phase]


def _lead_values(
    coeff: np.ndarray, rules: list[tuple[np.ndarray, np.ndarray, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate every axis but the last on its grid, one axis at a time.

    Returns (values, weights): values has shape (R, g_last), one row per
    lead grid point (radial-major, angle-minor, axes in order), holding the
    coefficients of the last variable there; weights (R,) are the products
    of the lead axes' weights w_k / M, from their (t, w, M) ``rules``.
    Each step hands its coefficients to ``_tiles`` as (rows, g) rows, one
    per point of the other axes, and writes each tile into the step's
    output, whose rows hold the next axis's coefficients.
    """
    values, weights = coeff, np.ones(1)
    for g, (t, w, m) in zip(coeff.shape, rules):
        lead = values.reshape(g, -1).T
        values = np.empty((len(lead), len(t) * m), dtype=complex)
        for r0, k0, (rows, nodes), grid in _tiles(lead, t, m):
            values[r0 : r0 + rows, k0 * m : (k0 + nodes) * m] = grid.reshape(rows, -1)
        weights = np.multiply.outer(weights, np.repeat(w / m, m)).ravel()
    return values.reshape(coeff.shape[-1], -1).T, weights


def _tile_shape(rows: int, nodes: int, m: int) -> tuple[int, int]:
    """(lead rows, radial nodes) of a full tile of about _BLOCK_POINTS points."""
    nodes_step = min(nodes, max(1, _BLOCK_POINTS // m))
    return min(rows, max(1, _BLOCK_POINTS // (nodes_step * m))), nodes_step


def _tiles(lead: np.ndarray, t: np.ndarray, m: int):
    """Evaluate one axis: P's values on tiles of lead rows x radial nodes.

    ``lead`` holds one row of the axis's g coefficients per point of the
    other axes.  Yields (r0, k0, (rows, nodes), values) per tile of about
    _BLOCK_POINTS points, values[i * nodes + j] holding the m angles at lead
    row r0 + i and node k0 + j, valid (and may be overwritten) until the
    next tile.  Every axis is evaluated here: the streamed one for
    ``_shell_means`` and each lead one for ``_lead_values``.

    Each tile's shells, the rows times the radial powers, are written into
    one reused C-contiguous buffer, so the angular sum takes them without a
    copy: the rows are copied in, then multiplied in place, for which numpy
    takes one buffer to cast the float powers (two, and more time, to form
    the product from the rows straight into the buffer).  The angular sum
    is sum_a shells[a] exp(2 pi i a j / m) for j < m, written into one
    reused values buffer: a matmul by the Fourier matrix, or where
    ``_fourier_matrix`` is None the unnormalized inverse FFT (the same DFT
    on equispaced angles), so no tile's values outlive the next tile.
    """
    g = lead.shape[1]
    radial = _radial_powers(t, g)
    fourier = _fourier_matrix(g, m)
    rows_step, nodes_step = _tile_shape(lead.shape[0], len(t), m)
    shells = np.empty(rows_step * nodes_step * g, dtype=complex)
    values = np.empty((rows_step * nodes_step, m), dtype=complex)
    for r0 in range(0, lead.shape[0], rows_step):
        rows = lead[r0 : r0 + rows_step, None, :]
        for k0 in range(0, len(t), nodes_step):
            powers = radial[k0 : k0 + nodes_step]
            tile = (len(rows), len(powers))
            size = tile[0] * tile[1]
            block = shells[: size * g].reshape(*tile, g)
            np.copyto(block, rows)
            np.multiply(block, powers, out=block)
            block = block.reshape(size, g)
            if fourier is None:
                grid = np.fft.ifft(
                    block, n=m, axis=-1, norm="forward", out=values[:size]
                )
            else:
                grid = np.matmul(block, fourier, out=values[:size])
            yield r0, k0, tile, grid


def _shell_means(lead: np.ndarray, t: np.ndarray, m: int, p: float):
    """Yields (r0, k0, means) per tile, means[i, j] being the circle mean of
    |P|^p at lead row r0 + i and node k0 + j.

    The tiles of P's values from ``_tiles`` are squared in place into
    re^2 and im^2, then paired into s = |P|^2, and the first half of a
    spent tile is the scratch of ``_sq_pow``.  The s buffer is allocated
    once, for the first (largest) tile; at p = 2 the tiles need no s.
    """
    pair_weights = _angle_weights(m)
    mean_weights = pair_weights[:m]
    rows_step, nodes_step = _tile_shape(lead.shape[0], len(t), m)
    s = None if p == 2.0 else np.empty((rows_step * nodes_step, m))
    for r0, k0, tile, grid in _tiles(lead, t, m):
        # re^2 and im^2 in place, a contiguous pass; at p = 2 the angle mean
        # sums them directly, otherwise they are paired into s first
        parts = grid.view(np.float64)
        np.square(parts, out=parts)
        if p == 2.0:
            means = parts @ pair_weights
        else:
            sq = np.add(parts[:, 0::2], parts[:, 1::2], out=s[: len(grid)])
            spent = parts.reshape(-1)[: sq.size].reshape(sq.shape)
            means = _sq_pow(sq, p, spent) @ mean_weights
        yield r0, k0, means.reshape(tile)


def _axis_order(grid) -> list[int]:
    """Axes by nodes x angles, smallest first: the last is streamed."""
    return sorted(range(len(grid)), key=lambda i: grid[i][1] * grid[i][2])


@functools.lru_cache(maxsize=_GRID_COUNTS)
def _grid_bytes(shape: tuple, grid: tuple, p: float, streams: int = 1) -> int:
    """Bytes that ``_power_mean`` holds at once at its peak, from cold
    caches, worked out from the coefficient shape, the grid's (nodes,
    angles) per axis and p alone, at 16 bytes a complex value.
    Counted per axis, in ``_axis_order``, while ``_tiles`` evaluates it: the
    axis's input (the coefficients, then each step's output) and its radial
    power table; a lead step's output, or the s buffer that ``_shell_means``
    allocates for the streamed axis; and the axis's Fourier matrix (none
    where ``_uses_fft``), first while it is built (with the m roots and the
    8-byte phase table it is indexed from), then beside one tile's values
    (the buffer the matmul or the FFT writes) and shells and, while the
    shells are multiplied by the float radial powers, the buffer numpy 2.4
    casts those into, of the shells' size up to ``np.getbufsize()`` values.
    ``streams`` polynomials of the shape are evaluated in lockstep, as
    ``circle_curvature`` evaluates P and z P' on one circle axis: each holds
    its input, its output or a float buffer of a tile's points (the s buffer,
    which one stream at p = 2 does without), its tables (shared only where
    ``_TABLES`` keeps them, which it does for small ones) and its tile's
    values and shells, beside the one cast buffer.  Smaller temporaries are
    left out, so the count is a lower bound but for a table two streams
    share, which it counts twice.  It is memoized on its arguments.
    """
    order = _axis_order(grid)
    held = math.prod(shape)  # values of the axis's input
    largest = 0
    for i in order:
        g, (_, nodes, m) = shape[i], grid[i]
        rows = held // g
        tile_rows, tile_nodes = _tile_shape(rows, nodes, m)
        points = tile_rows * tile_nodes
        if i != order[-1]:
            out = 16 * rows * nodes * m
        else:
            out = 0 if p == 2.0 and streams == 1 else 8 * points * m
        tables = 8 * nodes * g + (0 if _uses_fft(g, m) else 16 * g * m)
        tile = streams * 16 * points * (g + m) + 16 * min(points * g, np.getbufsize())
        if not _uses_fft(g, m):  # the matrix while built, then its tiles
            tile = max(8 * g * m + 16 * m, tile)
        largest = max(largest, streams * (16 * held + out + tables) + tile)
        held = rows * nodes * m
    return largest


def _refuse_oversized(P: ComplexPolynomial, grid, p: float, streams: int = 1) -> None:
    """Raise ValueError where the kernel arrays of P on the grid would take
    more than _GRID_BYTES_BUDGET, as ``_grid_bytes`` counts them from P's
    coefficient shape, the grid and the streams; nothing is built to find out."""
    need = _grid_bytes(tuple(d + 1 for d in P.variable_degrees()), grid, p, streams)
    if need > _GRID_BYTES_BUDGET:
        raise ValueError(
            f"quadrature grid too large: (nodes, angles) "
            f"{', '.join(str((nodes, m)) for _, nodes, m in grid)} need about "
            f"{need >> 20} MiB, above the budget of {_GRID_BYTES_BUDGET >> 20} MiB"
        )


def _quadrature_norm(P: ComplexPolynomial, grid, p: float) -> NormResult:
    """The norm of P on the grid, refused above _GRID_BYTES_BUDGET before
    the coefficient array, any radial rule or any grid array is built."""
    _refuse_oversized(P, grid, p)
    with ONE_BLAS_THREAD, np.errstate(over="ignore", invalid="ignore"):
        mean = _power_mean(P.coeff_array(), grid, p)  # NormResult refuses inf, nan
    return NormResult(mean ** (1.0 / p), "quadrature", 0.0)


def _power_mean(coeff: np.ndarray, grid, p: float) -> float:
    """Mean of |P|^p over the tensor rule of the grid: each disk axis on the
    Gauss rule of its alpha and nodes (``radial_rule``), built only here,
    each circle on t = 1.  Axes are reordered by grid size so that the
    largest one is streamed and the lead array, (product of the other
    grids) x (last degree + 1), stays small.
    """
    if coeff.ndim != len(grid):
        raise ValueError("rule does not match variable count")
    order = _axis_order(grid)
    rules = []
    for i in order:
        alpha, nodes, m = grid[i]
        t, w = (np.ones(1),) * 2 if alpha is None else radial_rule(alpha, nodes)
        rules.append((t, w, m))
    lead, w_lead = _lead_values(coeff.transpose(order), rules[:-1])
    t, w, m = rules[-1]
    total = 0.0
    for r0, k0, means in _shell_means(lead, t, m, p):
        rows, nodes = means.shape
        total += float(w_lead[r0 : r0 + rows] @ means @ w[k0 : k0 + nodes])
    return total


def _grid_rule(
    degrees,
    alpha: float | None | tuple[float | None, ...],
    p: float,
    nodes: int | None = None,
    angles: int | None = None,
) -> tuple[tuple[float | None, int, int], ...]:
    """The grid: the (alpha, nodes, angles) of each variable, given its degree.

    ``alpha`` is one weight for every variable or one per variable, None
    marking a circle.  A disk has ``nodes`` Gauss nodes of its weight and
    ``angles`` angles, a circle one node t = 1 (among circles alone, the
    profile's ``nodes`` radii).  Counts left at None are sized per axis.  At
    even p = 2s an axis of degree d carries |P^s|^2, of degree d*s in t =
    |z|^2 and trigonometric degree d*s in the angle, so ceil((d*s + 1)/2)
    Gauss nodes (capped at the table's node count) and M = d*s + 1 angles
    integrate it exactly.  Both counts are the least that do: the trapezoid
    rule on M equispaced angles sums exp(i n theta) exactly unless M divides
    n != 0 (Trefethen & Weideman, SIAM Rev. 56, 2014, section 2), so it is
    exact below degree M, and on d*s angles the top frequency aliases onto
    the mean (1 + z^d at p = 4 misses).  At other p no finite rule is exact:
    the nodes come from the table, ``_TENSOR_DEFAULTS`` by variable count or
    for circles beside disks ``_MIXED_DEFAULTS`` by disk count, and the
    angles are 4*d*ceil(p/2) + 1 (p taken as at least 2), at least the
    table's floor, or _CUSP_FLOOR for one variable or disk at p < 1; a
    circle beside disks takes one angle less than the first disk (at least
    8), pinned counts included.  Either default count M, on an axis that
    ``_uses_fft`` would sum at M (d + 1 coefficients), becomes
    ``_five_smooth(M)``, at least M and so still exact at even p.

    Raises, in this order, for weights not one per variable, a disk's alpha,
    p (on circles as on disks), a count below 1, more variables than the
    table has, and a disk's nodes above the cap of ``radial_rule``.
    """
    weights = alpha if isinstance(alpha, tuple) else (alpha,) * len(degrees)
    if len(weights) != len(degrees):
        raise ValueError(f"{len(weights)} weights for {len(degrees)} variables")
    weights = [None if a is None else check_alpha(a) for a in weights]
    _check_p(p)
    check_counts(nodes=nodes, angles=angles)
    disks = len(degrees) - weights.count(None)
    mixed = 0 < disks < len(degrees)
    table, key = (_MIXED_DEFAULTS, disks) if mixed else (_TENSOR_DEFAULTS, len(degrees))
    if key not in table:
        raise ValueError(f"tensor quadrature takes at most 3 disk variables, got {key}")
    if disks and nodes is not None:
        check_nodes(nodes)
    k_table, floor = table[key]
    if p < 1.0 and key == 1:
        floor = _CUSP_FLOOR
    s = _even_half(p)
    grid = []
    for d, a in zip(degrees, weights):
        if s is not None:
            k, m = min(d * s // 2 + 1, k_table), d * s + 1
        else:
            k, m = k_table, max(floor, 4 * d * math.ceil(max(p, 2.0) / 2.0) + 1)
        if _uses_fft(d + 1, m):
            m = _five_smooth(m)
        k = (nodes or k) if a is not None else 1 if mixed else (nodes or 1)
        grid.append((a, int(k), int(angles or m)))
    if mixed and s is None:
        circle = max(next(m for a, _, m in grid if a is not None) - 1, 8)
        grid = [(a, k, m if a is not None else circle) for a, k, m in grid]
    return tuple(grid)


def _finite(values: np.ndarray, name: str) -> np.ndarray:
    """values, refused with a ValueError as a non-finite ``NormResult`` is."""
    if not np.isfinite(values).all():
        raise ValueError(f"{name} not finite on every circle: {float(values.max())}")
    return values


def circle_means(P: ComplexPolynomial, p: float, radii_sq: np.ndarray) -> np.ndarray:
    """Mean of |P|^p on each circle |z|^2 = y, over the angles ``_grid_rule``
    gives a circle variable of P's degree (exact at even p), the circles
    being that axis's nodes; a mean that is not finite raises ValueError."""
    [(_, _, m)] = grid = _grid_rule((P.degree,), None, p, nodes=len(radii_sq))
    _refuse_oversized(P, grid, p)
    tiles = _shell_means(P.dense_coeffs().reshape(1, -1), radii_sq, m, p)
    with ONE_BLAS_THREAD, np.errstate(over="ignore", invalid="ignore"):
        means = np.concatenate([means[0] for _, _, means in tiles])  # see ``_finite``
    return _finite(means, "circle mean")


def circle_curvature(P: ComplexPolynomial, p: float, radii_sq: np.ndarray) -> np.ndarray:
    """y^2 Phi''(y) on each circle |z|^2 = y, Phi being ``circle_means``.

    With g = z P', Delta |P|^p = p^2 |P|^(p-2) |P'|^2 makes y^2 Phi'' the
    mean of |P|^(p-2) ((p^2/4) |g|^2 - (p/2) Re(conj(P) g)) over the angles
    of ``circle_means``, on its grid.  At even p = 2s both terms,
    |P^(s-1) g|^2 and Re(conj(P^s) P^(s-1) g), have trigonometric degree d*s
    for P of degree d, as |P|^p has, so the angles of ``circle_means``, at
    least d*s + 1, integrate them exactly too.
    P and g are evaluated in lockstep on the same tiles, two streams to
    ``_grid_bytes``, and each tile's parts are squared in place, so beside
    the tiles only two float buffers of a tile's points are held.
    """
    [(_, _, m)] = grid = _grid_rule((P.degree,), None, p, nodes=len(radii_sq))
    _refuse_oversized(P, grid, p, streams=2)
    coeffs = P.dense_coeffs().reshape(1, -1)  # univariate P only
    slopes = coeffs * np.arange(coeffs.shape[1])
    buffers = np.empty((2, _tile_shape(1, len(radii_sq), m)[1], m))
    out = []
    tiles = zip(_tiles(coeffs, radii_sq, m), _tiles(slopes, radii_sq, m))
    with ONE_BLAS_THREAD, np.errstate(over="ignore", invalid="ignore"):  # see ``_finite``
        for (*_, f), (*_, g) in tiles:
            cross, both = buffers[:, : len(f)]
            np.multiply(f.real, g.real, out=cross)
            cross += np.multiply(f.imag, g.imag, out=both)
            sq_g, sq_f = g.view(np.float64), f.view(np.float64)
            np.square(sq_g, out=sq_g)
            np.add(sq_g[:, 0::2], sq_g[:, 1::2], out=both)  # |g|^2
            np.multiply(both, 0.25 * p * p, out=both)
            both -= np.multiply(cross, 0.5 * p, out=cross)
            np.square(sq_f, out=sq_f)
            abs_f = np.add(sq_f[:, 0::2], sq_f[:, 1::2], out=cross)  # |P|^2
            spent = sq_g.reshape(-1)[: abs_f.size].reshape(abs_f.shape)
            both *= _sq_pow(abs_f, p - 2.0, spent)
            out.append(np.mean(both, axis=1))
    return _finite(np.concatenate(out), "y^2 Phi''")


def bergman_norm(
    P: ComplexPolynomial,
    alpha: float | tuple[float | None, ...],
    p: float,
    nodes: int | None = None,
    angles: int | None = None,
) -> NormResult:
    """Quadrature A^p_alpha(D^n) norm over the tensor rule.

    ``alpha`` is one weight or one per variable, None for a circle.  At
    even p = 2s on the default grid, below the node cap of ``_grid_rule``,
    the rule is exact for |P|^p, with the least node count that is,
    ceil((d*s + 1)/2) on an axis of degree d, and d*s + 1 angles, the
    least exact count, rounded up to a 5-smooth one on an axis summed by
    FFT; the result is exact up to rounding, so est_error = 0 is honest.
    Elsewhere (other p, capped high degree, pinned nodes or angles)
    est_error is also reported as 0 but bounds nothing.
    One ``sweep.map_on_pool`` call computes each distinct call once (see
    ``memo_scope``; a raise stores nothing); outside a pool every call computes.
    """
    memo = _MEMO.get(None)  # outside any scope no key is built or hashed
    key = None if memo is None else (P, alpha, float(p), nodes, angles)
    if key is None or key not in memo:
        grid = _grid_rule(P.variable_degrees(), alpha, p, nodes, angles)
        result = _quadrature_norm(P, grid, p)
        if key is None:
            return result
        memo[key] = result
    return memo[key]


def hardy_norm(P: ComplexPolynomial, p: float, angles: int | None = None) -> NormResult:
    """H^p norm on the unit circle: ``bergman_norm`` on one circle axis."""
    return bergman_norm(P, (None,), p, angles=angles)


def _ladder(degree: int, cap: tuple[int, int]):
    """The rungs of the companion-grid ladder below a cap of (nodes, angles),
    for polynomials whose largest variable degree is ``degree``.

    Yields (nodes, angles) pairs to pin on every disk axis, with the cap's
    half being its node count and its angle count halved ((M + 1) // 2):

    * the companion, degree // 2 + 1 nodes and 2 degree + 1 angles, the grid
      that integrates |P|^2 exactly, so that no two rungs alias P alike;
    * each next rung doubling both counts (k nodes and m angles become 2 k
      and 2 m - 1) while it stays within the cap's half;
    * the cap's half, unless the last doubling is it;

    then None for the cap itself, which its caller evaluates on its default
    grid.  So the last two rungs always differ by about a doubling of both
    counts.  The companion is clipped to the cap's half.
    """
    half = ((cap[0] + 1) // 2, (cap[1] + 1) // 2)
    rung = (min(degree // 2 + 1, half[0]), min(2 * degree + 1, half[1]))
    yield rung
    while 2 * rung[0] <= half[0] and 2 * rung[1] - 1 <= half[1]:
        rung = (2 * rung[0], 2 * rung[1] - 1)
        yield rung
    if rung != half:
        yield half
    yield None


def _climb(
    degree: int, cap: tuple[int, int], values_on, settled
) -> tuple[tuple[float, ...], float]:
    """The one climb of ``_ladder(degree, cap)``: ``values_on(rung)`` is a
    tuple of floats on a rung (None for the cap), and the climb stops at the
    first rung after the companion where settled(*values, gap) holds, gap
    being the sum of the entries' |changes| from the rung before, else at
    the cap.  Returns (values, gap) of the last rung: the gap is the coarser
    rung's error less the finer one's, so it bounds the finer one's wherever
    the step at least halves the error.  With ``settled`` None only the
    cap's half and the cap, the last two rungs, are evaluated.
    """
    rungs = list(_ladder(degree, cap))
    if settled is None:  # no rule can stop the climb below the cap
        rungs = rungs[-2:]
    last = None
    for rung in rungs:
        values = values_on(rung)
        if last is not None:
            gap = sum(abs(new - old) for new, old in zip(values, last))
            if settled is not None and settled(*values, gap):
                break
        last = values
    return values, gap


def _gap_settled(value: float, gap: float) -> bool:
    """``_climb``'s stop for one norm: two rungs agree to ``_MIXED_GAP_TOL``."""
    return gap <= _MIXED_GAP_TOL * value


def _climbed_norms(sides, judge, settled=None, nodes=None, angles=None) -> tuple:
    """judge(*norms) of the ``bergman_norm`` of each (P, alpha, p) side, a
    tuple of floats, and its gap: a check row's norms, or the mixed norm.

    On a grid pinned by ``nodes`` or ``angles`` each side is one
    ``bergman_norm`` there, and the gap is 0.0.  Otherwise a side at even p
    is one ``bergman_norm`` on its exact default grid.  The sides at other
    p climb ``_climb`` together, each rung one ``bergman_norm`` per such
    side with the rung's counts pinned (see ``_grid_rule``); the cap is the
    largest counts of their default grids, which ``_grid_rule`` checks and
    ``_refuse_oversized`` refuses above _GRID_BYTES_BUDGET before any rung.
    The climb stops where ``settled`` holds (see ``_climb``); without a
    rule it evaluates the cap's half and the cap, whose values are the
    default grids'.  The gap is 0.0 where every side is at even p.
    """
    if nodes is not None or angles is not None:
        return judge(*(bergman_norm(*side, nodes, angles).value for side in sides)), 0.0
    fixed, caps = [], []
    for P, alpha, p in sides:
        if _even_half(p) is not None:
            fixed.append(bergman_norm(P, alpha, p).value)
            continue
        grid = _grid_rule(P.variable_degrees(), alpha, p)
        _refuse_oversized(P, grid, p)
        fixed.append(None)
        caps.extend(axis[1:] for axis in grid)
    if not caps:
        return judge(*fixed), 0.0
    degree = max(max(P.variable_degrees()) for P, _, _ in sides)
    cap = (max(k for k, _ in caps), max(m for _, m in caps))

    def values_on(rung):
        counts = rung or (None, None)
        return judge(*(
            bergman_norm(*side, *counts).value if value is None else value
            for side, value in zip(sides, fixed)
        ))

    return _climb(degree, cap, values_on, settled)


def mixed_norm(Q: ComplexPolynomial, alpha: float, p: float) -> NormResult:
    """Mixed norm with the last variable on the circle, the rest on disks.

    The side (Q, (alpha, ..., alpha, None), p) of ``_climbed_norms``: the
    circle is one more axis of the tensor rule, one angle off the disks'
    grids at other than even p (see ``_grid_rule``), so agreement with the
    plain Bergman norm is a genuine consistency check rather than a grid
    coincidence.  At even p the default grid is exact (est_error = 0).  At
    other p it is the cap of ``_ladder``, d being the largest of Q's
    variable degrees, the circle's included, and the climb stops at
    ``_gap_settled``.  On a zero-free Q, |Q|^p is analytic and both rules
    converge geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014), so a
    few coarse rungs settle it; where Q has zeros on the polydisc, |Q|^p has
    cusps or kinks there and the ladder climbs higher, often to the cap.
    """
    if Q.nvars < 2:
        raise ValueError("mixed_norm needs at least one disk variable plus w")
    side = (Q, (alpha,) * (Q.nvars - 1) + (None,), p)
    (value,), gap = _climbed_norms([side], lambda v: (v,), _gap_settled)
    return NormResult(value, "quadrature", gap)


def bergman_norm_mc(
    P: ComplexPolynomial, p: float, sampler: McSampler, n_samples: int
) -> NormResult:
    """Monte Carlo A^p_alpha(D^n) norm of the ComplexPolynomial P in the
    sampler's n variables, alpha being the sampler's; est_error is the
    delta-method 1-sigma.  |P|^2 is the control variate of ``_mc_norm``,
    its exact mean being exact_norm_p2(P)^2.
    """
    p, n_samples = _mc_counts(p, n_samples)
    if P.nvars != sampler.nvars:
        raise ValueError("sampler dimension does not match the polynomial")
    if P.is_zero:
        return NormResult(0.0, "monte-carlo", 0.0)
    control = exact_norm_p2(P, sampler.alpha).value ** 2
    return _mc_norm(P.evaluate_many, p, sampler, n_samples, control)


def _mc_counts(p: float, n_samples: int) -> tuple[float, int]:
    """p and n_samples checked: p in (0, 64] and at least two samples."""
    p = _check_p(p)
    n_samples = int(n_samples)
    if n_samples < 2:
        raise ValueError("need at least two samples")
    return p, n_samples


def _mc_norm(
    evaluate,
    p: float,
    sampler: McSampler,
    n_samples: int,
    control_mean: float | None = None,
) -> NormResult:
    """The A^p norm of f from its values at the sampler's first n_samples points.

    ``evaluate`` maps an (N, n) array of points to f's values there.  Given
    ``control_mean``, the exact mean of y = |f|^2, y is a control variate
    for x = |f|^p (Glasserman, Monte Carlo Methods in Financial Engineering,
    2004, section 4.1): the mean of x is estimated as mean(x) - b (mean(y) -
    control_mean) with b = cov(x, y) / var(y), and its 1-sigma is that of
    the residuals x - b y over n - 2 degrees of freedom.  b is fitted on the
    same samples, which biases the estimate by O(1/N), well below its
    1-sigma (tests/test_norms.py measures it).  At p = 2, where the control
    would be x itself, and below three samples the mean is plain.  est_error
    carries the 1-sigma of the mean to the norm by the delta method.  An
    estimate that is not finite, as when the sum of x overflows, is refused
    with a ValueError, as a non-finite ``NormResult`` is; a finite estimate
    that is not positive raises a RuntimeError.  When only the sum of x^2
    overflows, the estimate stands and est_error is inf.
    """
    p, n_samples = _mc_counts(p, n_samples)
    fit = control_mean is not None and p != 2.0 and n_samples > 2
    chunk = 16384
    acc = acc_sq = 0.0  # sums of x and x^2
    acc_d = acc_dd = acc_xd = 0.0  # sums of d = y - control_mean, d^2 and x d
    for lo in range(0, n_samples, chunk):
        count = min(chunk, n_samples - lo)
        values = np.asarray(evaluate(sampler.sample_block(lo, count)))
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            if fit:
                y = _abs_pow(values, 2.0)
                x = _sq_pow(y.copy(), p)
                d = y - control_mean
                acc_d += float(d.sum())
                acc_dd += float((d * d).sum())
                acc_xd += float((x * d).sum())
            else:
                x = _abs_pow(values, p)
            acc += float(x.sum())
            acc_sq += float((x * x).sum())
    mean = acc / n_samples
    sxx = acc_sq - n_samples * mean * mean
    if mean == 0.0:
        # a nonzero integrand hit zero at every sample point
        raise RuntimeError("degenerate Monte Carlo estimate: all samples are zero")
    dof = n_samples - 1
    if fit:
        mean_d = acc_d / n_samples
        sdd = acc_dd - n_samples * mean_d * mean_d
        if sdd > 0.0:
            b = (acc_xd - n_samples * mean * mean_d) / sdd
            mean -= b * mean_d
            sxx -= b * b * sdd
            dof -= 1
    if not math.isfinite(mean):
        d = "(|f|^2 - E|f|^2)"
        sums = ((acc, f"|f|^{p:g}"), (acc_xd, f"|f|^{p:g} {d}"), (acc_d, d),
                (acc_dd, f"{d}^2"))
        what = next((f"sum of {name}" for total, name in sums
                     if not math.isfinite(total)), "control-variate fit")
        raise ValueError(f"Monte Carlo {what} not finite at p = {p:g}")
    if not mean > 0.0:
        raise RuntimeError(f"control-variate estimate {mean!r} is not positive")
    spread = max(sxx, 0.0) if math.isfinite(acc_sq) else math.inf
    se_mean = math.sqrt(spread / dof / n_samples)
    value = mean ** (1.0 / p)
    est = se_mean * value / (p * mean)
    return NormResult(value, "monte-carlo", est)
