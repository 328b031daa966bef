"""Weighted Bergman, Hardy, and mixed norms of polynomials.

Four evaluation routes are provided and never silently substituted for one
another:

* ``exact_norm_p2``: Parseval route at p = 2 from monomial moments;
* ``exact_norm_even_p``: the exact route for every even p, the one callers
  use; p = 2 is ``exact_norm_p2`` and larger p reduce to it via
  |P|^p = |P^(p/2)|^2.  Its cost is expanding P^(p/2) by repeated squaring,
  and each product (see ``poly``) is one vectorised multiply-add over the
  second factor's coefficients per term of the first, so squaring a
  degree-d univariate P takes about d^2 flops in numpy and d Python steps;
* ``bergman_norm``: tensor Gauss x equispaced quadrature;
* ``bergman_norm_mc``: Monte Carlo with a counter-based sampler, whose
  alpha and variable count it takes.

All quadrature (Bergman, Hardy and mixed norms, and the circle profile of
the inequality checks) goes through one kernel, ``_power_mean`` with its
streaming tile evaluator ``_tiles``, the only place where coefficients
become grid values.  It evaluates P one axis at a time: scale the
coefficients by the radial powers t^(a/2), then sum over the equispaced
angles, by a (g x M) Fourier matmul when the axis has few coefficients and
by an inverse FFT when it has many (on equispaced angles the two are the
same DFT).  The last axis is streamed in tiles of about 2^16 grid points,
so the full grid is never held in memory.  A circle variable is one more
axis with the single node t = 1.  Each tile is reduced at once, to circle
means of |P|^p by ``_shell_means``, or, for the profile's Phi'', together
with the tile of z P' by the Laplacian identity (``circle_curvature``).
|P|^p is formed from s = re^2 + im^2 by products and square roots of s
when 2p is a positive integer and by np.power otherwise, so exact zeros of
P stay exactly zero.

``_grid_rule`` is the one place where grids are sized: it turns the
variables' degrees, alpha, p and the optional node and angle counts into
the (t, w, M) triple of each axis, for ``bergman_norm``, the disk and
circle axes of ``mixed_norm``, ``hardy_norm`` and the circle profile
``circle_means`` and ``circle_curvature``, and refuses counts below 1.
Only ``bergman_norm`` (nodes and angles) and ``hardy_norm`` (angles) take
counts from their callers; the mixed norm and the circle profile always
use the default grid.  ``_quadrature_norm`` refuses, before allocating
anything, a grid whose kernel arrays (the Fourier matrices and the first
streamed tile included) would take more than ``_GRID_BYTES_BUDGET`` at
once; ``_grid_bytes`` counts them.

When a quadrature norm is exact: at even p = 2s, |P|^p = |P^s|^2 is a
polynomial, and the default grid sizes each axis from its own degree d so
that it integrates that polynomial exactly (see ``_grid_rule``), as long as
d*s <= 2K - 1 for the table's radial node count K; above that the node count
is capped at K.  There, and only there, the reported ``est_error = 0.0`` is
honest: the value is exact up to rounding.  At other p, at capped high
degree, and on grids pinned by explicit ``nodes``/``angles``, exactness is
not guaranteed and ``est_error = 0.0`` states no bound.

One ``sweep.map_on_pool`` call computes each distinct ``bergman_norm`` once
(see ``memo_scope``); a call outside any pool always computes.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .measures import McSampler, check_alpha, check_counts, radial_rule
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
# the cost is multiplicative.  Circle variables use the univariate floor.  At
# even p the grid is sized from the degree instead, and the node count here
# only caps it, so high degrees cost no more than the table.
_TENSOR_DEFAULTS = {1: (64, 257), 2: (32, 65), 3: (16, 33)}

# The angle floor of a single variable at p < 1, where |P|^p has cusps at the
# zeros of P on the circles; extra angles are cheap for one variable.
_CUSP_FLOOR = 1025

# The mixed norm wraps a circle average around the disk rule, so its inner
# grids are leaner again; key is the number of disk variables.
_MIXED_DEFAULTS = {1: (64, 257), 2: (24, 33), 3: (12, 17)}

# The kernel streams the last axis in blocks of about this many grid points.
_BLOCK_POINTS = 1 << 16

# An axis with g coefficients and M angles is summed by FFT once g exceeds
# this many times log2(M), by a (g x M) Fourier matmul below that.  The matmul
# costs about g multiply-adds per grid point and the FFT a larger constant
# times log2(M); 16 is the crossover measured with numpy 2.4's pocketfft
# against OpenBLAS 0.3.31 on a 2-core Xeon VM for M from 257 to 12001.
_FFT_COEFFS_PER_LOG2_ANGLE = 16

# A quadrature norm whose kernel arrays (see ``_grid_bytes``) would take more
# than this many bytes at once is refused with a ValueError before any of
# them, or the coefficient array, is allocated.  No acceptance criterion or
# benchmark workload counts more than 4.8 MiB, and no test that expects a
# value more than 67 MiB (trivariate degree 6 at p = 3); bivariate degree
# (1000, 1000) at p = 4 counts 1.9 GiB, and one variable at 10^9 angles
# about 75 GiB, nearly all of it the Fourier matrix while it is built.
_GRID_BYTES_BUDGET = 1 << 29

# The (t, w) pair of a circle variable: one node at |z| = 1.
_CIRCLE = (np.ones(1), np.ones(1))

_MEMO: ContextVar[dict] = ContextVar("bergman_norm_memo")


@contextmanager
def memo_scope():
    """A memo of ``bergman_norm`` results for the body, or the outer scope's."""
    token = _MEMO.set(_MEMO.get({}))
    try:
        yield
    finally:
        _MEMO.reset(token)


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
    large k.
    """
    check_alpha(alpha)
    k = int(k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k <= 64:
        out = 1.0
        for j in range(1, k + 1):
            out *= j / (alpha - 1.0 + j)
        return out
    return math.exp(
        math.lgamma(k + 1) + math.lgamma(alpha) - math.lgamma(alpha + k)
    )


def exact_norm_p2(P: ComplexPolynomial, alpha: float) -> NormResult:
    """A^2_alpha norm from coefficient orthogonality of the monomials."""
    check_alpha(alpha)
    total = 0.0
    for gamma, c in P.terms:
        mom = 1.0
        for e in gamma:
            mom *= monomial_norm_sq(e, alpha)
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


def _sq_pow(s: np.ndarray, p: float) -> np.ndarray:
    """s^(p/2) for s >= 0, computed in place in s.

    When 2p is an integer, s^(p/2) = (s^(1/4))^(2p) is an integer power of
    s, sqrt(s) or sqrt(sqrt(s)), whichever root suffices: s itself at p = 2,
    s^k when p/2 = k.  Square roots and products cost a fraction of a
    general np.power, which handles every other p, p <= 0 included.
    """
    quarters = 2.0 * float(p)
    if quarters <= 0.0 or not quarters.is_integer():
        return np.power(s, 0.5 * float(p), out=s)
    k, roots = int(quarters), 2
    while roots and k % 2 == 0:
        k, roots = k // 2, roots - 1
    for _ in range(roots):
        np.sqrt(s, out=s)
    odd = None  # product of the factors s^(2^j) for the set low bits of k
    while k > 1:
        if k & 1:
            odd = s.copy() if odd is None else np.multiply(odd, s, out=odd)
        np.square(s, out=s)
        k >>= 1
    return s if odd is None else np.multiply(s, odd, out=s)


def _radial_powers(t: np.ndarray, g: int) -> np.ndarray:
    """(K, g) table of t_k^(a/2): |z|^a on the shell |z|^2 = t_k."""
    return np.power(t[:, None], 0.5 * np.arange(g)[None, :])


def _uses_fft(g: int, m: int) -> bool:
    """True where an FFT is cheaper than a (g x m) Fourier matmul.

    The matrix also covers g > m, where coefficients alias onto the same
    angles and a length-m FFT would drop them.
    """
    return _FFT_COEFFS_PER_LOG2_ANGLE * math.log2(m) < g <= m


def _fourier_matrix(g: int, m: int) -> np.ndarray | None:
    """(g x m) matrix exp(2 pi i a j / m), or None where ``_uses_fft``."""
    if _uses_fft(g, m):
        return None
    phase = np.outer(np.arange(g), np.arange(m)) % m
    return np.exp((2j * np.pi / m) * phase)


def _angular_sum(
    shells: np.ndarray,
    fourier: np.ndarray | None,
    m: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """sum_a shells[..., a] exp(2 pi i a j / m) for j < m, along the last axis.

    Multiplies by ``fourier`` from _fourier_matrix, writing to ``out`` when
    given, or where that is None takes the unnormalized inverse FFT, the same
    DFT on equispaced angles.  The result has shape (rows, m), rows being
    the product of the lead axes.
    """
    shells = shells.reshape(-1, shells.shape[-1])
    if fourier is None:
        return np.fft.ifft(shells, n=m, axis=-1, norm="forward")
    return np.matmul(shells, fourier, out=out)


def _lead_values(
    coeff: np.ndarray, triples: list[tuple[np.ndarray, np.ndarray, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate every axis but the last on its grid, one axis at a time.

    Returns (values, weights): values has shape (R, g_last), one row per
    lead grid point (radial-major, angle-minor, axes in order), holding the
    coefficients of the last variable there; weights (R,) are the products
    of the lead axes' quadrature weights w_k / M.
    """
    values = coeff
    weights = np.ones(1)
    for t, w, m in triples:
        coeffs = np.moveaxis(values, 0, -1)
        g = coeffs.shape[-1]
        shells = coeffs[..., None, :] * _radial_powers(t, g)
        values = _angular_sum(shells, _fourier_matrix(g, m), m)
        values = values.reshape(*coeffs.shape[:-1], len(t) * m)
        weights = np.multiply.outer(weights, np.repeat(w / m, m)).ravel()
    return np.moveaxis(values, 0, -1).reshape(-1, coeff.shape[-1]), weights


def _tile_shape(rows: int, nodes: int, m: int) -> tuple[int, int]:
    """(lead rows, radial nodes) of a full tile of about _BLOCK_POINTS points."""
    nodes_step = min(nodes, max(1, _BLOCK_POINTS // m))
    return min(rows, max(1, _BLOCK_POINTS // (nodes_step * m))), nodes_step


def _tiles(lead: np.ndarray, t: np.ndarray, m: int):
    """Stream the last axis: P's values on tiles of lead rows x radial nodes.

    Yields (r0, k0, (rows, nodes), values) per tile of about _BLOCK_POINTS
    points, values[i * nodes + j] holding the m angles at lead row r0 + i and
    node k0 + j.  The values buffer is reused, so it is only valid (and may
    be overwritten) until the next tile.
    """
    g = lead.shape[1]
    radial = _radial_powers(t, g)
    fourier = _fourier_matrix(g, m)
    rows_step, nodes_step = _tile_shape(lead.shape[0], len(t), m)
    values = np.empty((rows_step * nodes_step, m), dtype=complex)
    for r0 in range(0, lead.shape[0], rows_step):
        rows = lead[r0 : r0 + rows_step, None, :]
        for k0 in range(0, len(t), nodes_step):
            shells = rows * radial[k0 : k0 + nodes_step]
            size = shells.shape[0] * shells.shape[1]
            grid = _angular_sum(shells, fourier, m, out=values[:size])
            yield r0, k0, shells.shape[:2], grid


def _shell_means(lead: np.ndarray, t: np.ndarray, m: int, p: float):
    """Yields (r0, k0, means) per tile of ``_tiles``, means[i, j] being the
    circle mean of |P|^p at lead row r0 + i and node k0 + j."""
    powers = None
    mean_weights = np.full(m, 1.0 / m)
    pair_weights = np.full(2 * m, 1.0 / m)
    for r0, k0, shape, grid in _tiles(lead, t, m):
        # re^2 and im^2 in place, a contiguous pass; at p = 2 the angle mean
        # sums them directly, otherwise they are paired into s first
        parts = grid.view(np.float64)
        np.square(parts, out=parts)
        if p == 2.0:
            means = parts @ pair_weights
        else:
            if powers is None:  # the first tile is the largest
                powers = np.empty(grid.shape)
            sq = np.add(parts[:, 0::2], parts[:, 1::2], out=powers[: len(grid)])
            means = _sq_pow(sq, p) @ mean_weights
        yield r0, k0, means.reshape(shape)


def _axis_order(triples) -> list[int]:
    """Axes by grid size, smallest first: the last one is streamed."""
    return sorted(range(len(triples)), key=lambda i: len(triples[i][0]) * triples[i][2])


def _fourier_bytes(g: int, m: int) -> tuple[int, int]:
    """(while built, once built) bytes of ``_fourier_matrix(g, m)``: an
    8-byte phase table and two 16-byte complex tables, then one of these."""
    return (0, 0) if _uses_fft(g, m) else (40 * g * m, 16 * g * m)


def _grid_bytes(shape, triples) -> int:
    """Bytes that ``_power_mean`` holds at once at its peak, worked out from
    the coefficient shape and the (t, w, M) triples alone, at 16 bytes a
    complex value.  Counted: each lead step's input beside its Fourier
    matrix, first while that is built, then with the step's output; and the
    lead array with the last axis's radial power table beside its Fourier
    matrix, likewise, then with the first streamed tile (shells and values).
    Smaller temporaries are left out, so the count is a lower bound.
    """
    order = _axis_order(triples)
    dims = [shape[i] for i in order]
    largest = 0
    for j, i in enumerate(order[:-1]):
        held = 16 * math.prod(dims)
        building, built = _fourier_bytes(shape[i], triples[i][2])
        dims[j] = len(triples[i][0]) * triples[i][2]
        largest = max(largest, held + building, held + built + 16 * math.prod(dims))
    g, (t, _, m) = shape[order[-1]], triples[order[-1]]
    rows = math.prod(dims[:-1])
    held = 16 * rows * g + 8 * len(t) * g
    building, built = _fourier_bytes(g, m)
    tile_rows, tile_nodes = _tile_shape(rows, len(t), m)
    tile = 16 * tile_rows * tile_nodes * (g + m)
    return max(largest, held + building, held + built + tile)


def _quadrature_norm(P: ComplexPolynomial, triples, p: float) -> NormResult:
    """The norm of P on the tensor rule, refused above _GRID_BYTES_BUDGET
    before the coefficient array or any grid array is allocated."""
    if P.is_zero:
        return NormResult(0.0, "quadrature", 0.0)
    shape = tuple(d + 1 for d in P.variable_degrees())
    need = _grid_bytes(shape, triples)
    if need > _GRID_BYTES_BUDGET:
        sizes = ", ".join(f"({len(t)}, {m})" for t, _, m in triples)
        raise ValueError(
            f"quadrature grid too large: (nodes, angles) {sizes} need about "
            f"{need >> 20} MiB, above the budget of {_GRID_BYTES_BUDGET >> 20} MiB"
        )
    mean = _power_mean(P.coeff_array(), triples, p)
    return NormResult(mean ** (1.0 / p), "quadrature", 0.0)


def _power_mean(
    coeff: np.ndarray, triples: list[tuple[np.ndarray, np.ndarray, int]], p: float
) -> float:
    """Mean of |P|^p over the tensor rule described by (t, w, M) triples.

    Axes are reordered by grid size so that the largest one is streamed and
    the lead array, (product of the other grids) x (last degree + 1), stays
    small.
    """
    if coeff.ndim != len(triples):
        raise ValueError("rule does not match variable count")
    order = _axis_order(triples)
    lead, w_lead = _lead_values(
        coeff.transpose(order), [triples[i] for i in order[:-1]]
    )
    t, w, m = triples[order[-1]]
    total = 0.0
    for r0, k0, means in _shell_means(lead, t, m, p):
        rows, nodes = means.shape
        total += float(w_lead[r0 : r0 + rows] @ means @ w[k0 : k0 + nodes])
    return total


def _grid_rule(
    degrees,
    alpha: float | None,
    p: float,
    nodes: int | None = None,
    angles: int | None = None,
    defaults: dict = _TENSOR_DEFAULTS,
) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """The (t, w, M) triple of each variable, given its degree.

    A disk variable (alpha given) takes the Gauss rule of that weight with
    ``nodes`` radial nodes and ``angles`` angles; with alpha None each
    variable is a circle, the single node t = 1.  Counts left at None are
    sized per axis.  At even p = 2s an axis of degree d carries |P^s|^2, of
    degree d*s in t = |z|^2 and trigonometric degree d*s in the angle, so
    ceil((d*s + 1)/2) Gauss nodes (capped at the table's node count) and
    M = 2*d*s + 1 > d*s angles integrate it exactly.  At other p no finite
    rule is exact: the nodes come from ``defaults`` for this many variables
    and the angles are 4*d*ceil(p/2) + 1 (p taken as at least 2), at least
    the table's floor, or _CUSP_FLOOR for a single variable at p < 1.
    """
    check_counts(nodes=nodes, angles=angles)
    if len(degrees) not in defaults:
        raise ValueError(
            f"tensor quadrature takes at most 3 disk variables, got {len(degrees)}"
        )
    k_table, floor = defaults[len(degrees)]
    if p < 1.0 and len(degrees) == 1:
        floor = _CUSP_FLOOR
    s = _even_half(p)
    triples = []
    for d in degrees:
        if s is not None:
            k, m = min(d * s // 2 + 1, k_table), 2 * d * s + 1
        else:
            k, m = k_table, max(floor, 4 * d * math.ceil(max(p, 2.0) / 2.0) + 1)
        t, w = _CIRCLE if alpha is None else radial_rule(alpha, nodes or k)
        triples.append((t, w, int(angles or m)))
    return triples


def circle_means(P: ComplexPolynomial, p: float, radii_sq: np.ndarray) -> np.ndarray:
    """Mean of |P|^p on each circle |z|^2 = y, over the angles ``_grid_rule``
    gives a circle variable of P's degree (exact at even p)."""
    coeffs = P.dense_coeffs()  # univariate P only
    [(_, _, m)] = _grid_rule((P.degree,), None, p)
    tiles = _shell_means(coeffs.reshape(1, -1), radii_sq, m, p)
    return np.concatenate([means[0] for _, _, means in tiles])


def circle_curvature(P: ComplexPolynomial, p: float, radii_sq: np.ndarray) -> np.ndarray:
    """y^2 Phi''(y) on each circle |z|^2 = y, Phi being ``circle_means``.

    With g = z P', Delta |P|^p = p^2 |P|^(p-2) |P'|^2 makes y^2 Phi'' the
    mean of |P|^(p-2) ((p^2/4) |g|^2 - (p/2) Re(conj(P) g)) over the angles
    of ``circle_means``, which integrate it exactly at even p.  P and g are
    evaluated in lockstep on the same tiles.
    """
    coeffs = P.dense_coeffs().reshape(1, -1)  # univariate P only
    [(_, _, m)] = _grid_rule((P.degree,), None, p)
    slopes = coeffs * np.arange(coeffs.shape[1])
    out = []
    tiles = zip(_tiles(coeffs, radii_sq, m), _tiles(slopes, radii_sq, m))
    for (*_, f), (*_, g) in tiles:
        cross = f.real * g.real + f.imag * g.imag
        both = (0.25 * p * p) * _abs_pow(g, 2.0) - (0.5 * p) * cross
        out.append(np.mean(_abs_pow(f, p - 2.0) * both, axis=1))
    return np.concatenate(out)


def bergman_norm(
    P: ComplexPolynomial,
    alpha: float,
    p: float,
    nodes: int | None = None,
    angles: int | None = None,
) -> NormResult:
    """Quadrature A^p_alpha(D^n) norm over the tensor rule.

    At even p on the default grid, below the node cap of ``_grid_rule``, the
    rule is exact for |P|^p and the result is exact up to rounding, so
    est_error = 0 is honest.  Elsewhere (other p, capped high degree, pinned
    nodes or angles) est_error is also reported as 0 but bounds nothing.
    One ``sweep.map_on_pool`` call computes each distinct call once (see
    ``memo_scope``; a raise stores nothing); outside a pool every call computes.
    """
    check_alpha(alpha)
    _check_p(p)
    memo = _MEMO.get({})  # a throwaway dict outside any scope
    key = (P, float(alpha), float(p), nodes, angles)
    if key not in memo:
        triples = _grid_rule(P.variable_degrees(), alpha, p, nodes, angles)
        memo[key] = _quadrature_norm(P, triples, p)
    return memo[key]


def hardy_norm(P: ComplexPolynomial, p: float, angles: int | None = None) -> NormResult:
    """H^p norm on the unit circle via the equispaced rule."""
    _check_p(p)
    if P.nvars != 1:
        raise ValueError("hardy_norm expects a univariate polynomial")
    triples = _grid_rule(P.variable_degrees(), None, p, angles=angles)
    return _quadrature_norm(P, triples, p)


def mixed_norm(Q: ComplexPolynomial, alpha: float, p: float) -> NormResult:
    """Mixed norm with the last variable on the circle, the rest on disks.

    The circle variable is one more axis of the tensor rule, on the grid
    ``_grid_rule`` sizes with the ``_MIXED_DEFAULTS`` table.  At even p its
    angle count comes from its own degree, which is exact; at other p it is
    one less than the first disk axis's, incommensurate with the disk
    angular grids, so agreement with the plain Bergman norm is a genuine
    consistency check rather than a grid coincidence.
    """
    check_alpha(alpha)
    _check_p(p)
    if Q.nvars < 2:
        raise ValueError("mixed_norm needs at least one disk variable plus w")
    *disk, d_w = Q.variable_degrees()
    triples = _grid_rule(disk, alpha, p, defaults=_MIXED_DEFAULTS)
    circle_angles = None if _even_half(p) is not None else max(triples[0][2] - 1, 8)
    triples += _grid_rule((d_w,), None, p, angles=circle_angles)
    return _quadrature_norm(Q, triples, p)


def bergman_norm_mc(P, p: float, sampler: McSampler, n_samples: int) -> NormResult:
    """Monte Carlo A^p_alpha(D^n) norm, alpha and n being the sampler's;
    est_error is the delta-method 1-sigma.

    P may be a ComplexPolynomial in the sampler's n variables or a callable
    mapping an (N, n) complex array to values of the function.
    """
    _check_p(p)
    n_samples = int(n_samples)
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if isinstance(P, ComplexPolynomial):
        if P.nvars != sampler.nvars:
            raise ValueError("sampler dimension does not match the polynomial")
        if P.is_zero:
            return NormResult(0.0, "monte-carlo", 0.0)
        evaluate = P.evaluate_many
    else:
        evaluate = P
    chunk = 16384
    acc = 0.0
    acc_sq = 0.0
    for lo in range(0, n_samples, chunk):
        count = min(chunk, n_samples - lo)
        vals = _abs_pow(np.asarray(evaluate(sampler.sample_block(lo, count))), p)
        acc += float(vals.sum())
        acc_sq += float((vals * vals).sum())
    mean = acc / n_samples
    var = max(acc_sq - n_samples * mean * mean, 0.0) / (n_samples - 1)
    se_mean = math.sqrt(var / n_samples)
    if mean == 0.0:
        # a nonzero integrand hit zero at every sample point
        raise RuntimeError("degenerate Monte Carlo estimate: all samples are zero")
    value = mean ** (1.0 / p)
    est = se_mean * value / (p * mean)
    return NormResult(value, "monte-carlo", est)
