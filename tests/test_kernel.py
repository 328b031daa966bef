"""The tensor-grid kernel against brute-force evaluation on the explicit grid."""
import itertools
import math
import sys
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from berglab import acceptance, norms
from berglab.measures import radial_rule
from berglab.norms import (
    _TABLE_CACHE_BYTES,
    _TableCache,
    _abs_pow,
    _angle_weights,
    _axis_order,
    _fourier_matrix,
    _grid_rule,
    _lead_values,
    _power_mean,
    _quadrature_norm,
    _radial_powers,
    _shell_means,
    _tile_shape,
    _tiles,
    _uses_fft,
    bergman_norm,
    circle_curvature,
    circle_means,
    hardy_norm,
    mixed_norm,
)
from berglab.poly import ComplexPolynomial, parse_polynomial


def dense_polynomial(degrees, seed):
    """Polynomial with every coefficient up to the given per-variable degrees."""
    rng = np.random.default_rng(seed)
    coeffs = {
        gamma: complex(rng.standard_normal(), rng.standard_normal())
        for gamma in itertools.product(*(range(d + 1) for d in degrees))
    }
    return ComplexPolynomial.from_terms(len(degrees), coeffs)


def brute_power_mean(P, grid, p):
    """Weighted mean of |P|^p over the explicit tensor grid of (alpha, nodes,
    angles) axes, alpha None being a circle."""
    axes = []
    for alpha, nodes, m in grid:
        t, w = (np.ones(1),) * 2 if alpha is None else radial_rule(alpha, nodes)
        theta = 2.0 * np.pi * np.arange(m) / m
        z = (np.sqrt(t)[:, None] * np.exp(1j * theta)[None, :]).ravel()
        axes.append((z, np.repeat(w / m, m)))
    points = np.array(list(itertools.product(*(z for z, _ in axes))))
    weights = np.array([np.prod(c) for c in itertools.product(*(w for _, w in axes))])
    return float(weights @ (np.abs(P.evaluate_many(points)) ** p))


# (per-variable degrees, per-variable (nodes, angles)); a degree-120 axis
# with 129 angles is past the matmul/FFT switch, once streamed and once as a
# lead axis (the larger grid is streamed); the degree-9 and degree-59 axes
# alias onto fewer angles than coefficients, below and above the switch,
# and a degree-9 lead axis aliases too.
CASES = [
    ((5,), ((6, 17),)),
    ((120,), ((3, 129),)),
    ((9,), ((5, 7),)),
    ((59,), ((3, 9),)),
    ((3, 4), ((4, 13), (3, 11))),
    ((120, 2), ((2, 129), (3, 9))),
    ((120, 2), ((2, 129), (30, 9))),
    ((2, 1, 3), ((3, 7), (2, 5), (3, 9))),
    ((9, 3), ((5, 7), (6, 9))),
]


@pytest.mark.parametrize("degrees,grid", CASES)
@pytest.mark.parametrize("p", [0.5, 2.0, 3.0, 4.0])
def test_power_mean_matches_brute_force(degrees, grid, p):
    P = dense_polynomial(degrees, seed=sum(degrees))
    axes = [(2.5, k, m) for k, m in grid]
    got = _power_mean(P.coeff_array(), axes, p)
    want = brute_power_mean(P, axes, p)
    assert got == pytest.approx(want, rel=1e-12)


def test_cases_cover_both_angular_methods():
    # every axis is summed by the Fourier matmul or the FFT; the streamed
    # axes of the cases take the FFT, the matmul, and the matmul where g > M
    # aliases, and so do their lead axes
    sizes = [(d + 1, m) for degrees, grid in CASES for d, (_, m) in zip(degrees, grid)]
    assert any(_fourier_matrix(g, m) is None for g, m in sizes)
    assert any(_fourier_matrix(g, m) is not None for g, m in sizes)
    routes = set()
    lead_routes = set()
    for degrees, grid in CASES:
        *lead, i = _axis_order([(2.5, *axis) for axis in grid])
        g, m = degrees[i] + 1, grid[i][1]
        routes.add("fft" if _uses_fft(g, m) else "aliased" if g > m else "matmul")
        for j in lead:
            g, m = degrees[j] + 1, grid[j][1]
            lead_routes.add("fft" if _uses_fft(g, m) else "aliased" if g > m else "matmul")
    assert routes == {"fft", "matmul", "aliased"}
    assert lead_routes == {"fft", "matmul", "aliased"}


def test_a_lead_step_that_spans_many_tiles_matches_einsum():
    # a lead axis of 40 nodes x 2049 angles is evaluated in tiles of 1 row x
    # 31 nodes, which split both its 3 rows and its nodes
    rng = np.random.default_rng(11)
    coeff = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    (t, w), m = radial_rule(2.0, 40), 2049
    assert _tile_shape(3, 40, m) == (1, 31)
    values, weights = _lead_values(coeff, [(t, w, m)])
    a = np.arange(4)
    radial = t[:, None] ** (a / 2.0)
    phases = np.exp(2j * np.pi * np.outer(a, np.arange(m)) / m)
    want = np.einsum("ab,ka,aj->kjb", coeff, radial, phases).reshape(-1, 3)
    assert np.max(np.abs(values - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(weights, np.repeat(w / m, m))


@pytest.mark.parametrize("coeffs, angles", [((-1, 0, 0, 0, 0, 1), None), ((1, 1), 64)])
def test_exact_zeros_of_p_on_the_grid(coeffs, angles):
    # z^5 - 1 vanishes on 5 of its default 1025 angles and 1 + z on one of
    # 64; |P|^0.5 is steepest there, so a rounding residue would show
    P = ComplexPolynomial.from_coeffs(coeffs)
    [(_, _, m)] = _grid_rule((P.degree,), None, 0.5, angles=angles)
    assert m == (angles or 1025)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hardy_norm(P, 0.5, angles=angles).value
    with mpmath.workdps(40):
        root = mpmath.mpf(0)
        for j in range(m):
            z = mpmath.expjpi(mpmath.mpf(2 * j) / m)
            root += mpmath.sqrt(abs(mpmath.polyval(list(reversed(coeffs)), z)))
        want = float((root / m) ** 2)
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=1e-12)


@st.composite
def shell_inputs(draw):
    """(coefficient rows, nodes, M): up to 4 rows of up to 12 coefficients
    of modulus at most 1, nodes t in [0, 1], and M up to 40, a multiple of 4
    every other draw, so that quarter-turn twiddles occur."""
    g = draw(st.integers(1, 12))
    row = st.lists(st.complex_numbers(max_magnitude=1.0), min_size=g, max_size=g)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    t = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    m = draw(st.one_of(st.integers(1, 40), st.integers(1, 10).map(lambda k: 4 * k)))
    return np.array(rows, dtype=complex), np.array(t), m


@given(shell_inputs())
def test_shell_means_at_p2_match_long_double_evaluation(inputs):
    # the circle means of |P|^2 against their long-double values.  With
    # S = sum_b |u_b| for the coefficients u_b = v_b t^(b/2) on a circle,
    # each of P's values there is a sum of g products, each of a rounded u_b
    # (2 eps) and a rounded root of unity (2 eps), so it is off by at most
    # d = 4 (g + 2) eps S (an over-count of the complex dot product's
    # error); |P|^2 is then off by 2 S d + d^2, and squaring, pairing and
    # the 2M-term weighted mean add (2M + 4) eps S^2.  Never negative or NaN.
    v, t, m = inputs
    g = v.shape[1]
    got = np.empty((len(v), len(t)))
    for r0, k0, means in _shell_means(v, t, m, 2.0):
        got[r0 : r0 + means.shape[0], k0 : k0 + means.shape[1]] = means
    assert not np.any(np.isnan(got)) and np.all(got >= 0.0)
    pi = 4 * np.arctan(np.longdouble(1))
    phase = (np.outer(np.arange(g), np.arange(m)) % m).astype(np.longdouble)
    radial = np.sqrt(t.astype(np.longdouble))[:, None] ** np.arange(g)
    u = v[:, None, :] * radial  # (rows, nodes, g)
    want = np.mean(np.abs(u @ np.exp(2j * pi * phase / m)) ** 2, axis=-1)
    eps = np.finfo(float).eps
    mass = np.sum(np.abs(u), axis=-1).astype(float)
    d = 4 * (g + 2) * eps * mass
    tol = 2 * mass * d + d * d + (2 * m + 4) * eps * mass * mass
    assert np.all(np.abs(got - want) <= tol + np.finfo(float).tiny)


def test_power_mean_streams_many_blocks():
    # 72 lead rows x 2 x 1025 streamed points make three blocks
    P = dense_polynomial((3, 2), seed=3)
    grid = [(2.0, 2, 1025), (2.0, 8, 9)]
    got = _power_mean(P.coeff_array(), grid, 3.0)
    assert got == pytest.approx(brute_power_mean(P, grid, 3.0), rel=1e-12)


def substitute_last_reference(Q, alpha, p, nodes, angles, angles_w):
    """The mixed norm as a loop over circle points w, one disk norm each."""
    disk = [(alpha, nodes, angles)] * (Q.nvars - 1)
    acc = 0.0
    for j in range(angles_w):
        wj = complex(np.exp(2j * np.pi * j / angles_w))
        acc += brute_power_mean(Q.substitute_last(wj), disk, p)
    return (acc / angles_w) ** (1.0 / p)


@pytest.mark.parametrize("degrees", [(2, 3), (1, 2, 2)])
@pytest.mark.parametrize("p", [0.5, 2.0, 3.0, 4.0])
def test_mixed_norm_matches_substitute_last_loop(degrees, p):
    # the kernel with the last axis on the circle, as mixed_norm runs it
    Q = dense_polynomial(degrees, seed=7)
    grid = ((2.0, 4, 9),) * (Q.nvars - 1) + ((None, 1, 11),)
    got = _quadrature_norm(Q, grid, p).value
    want = substitute_last_reference(Q, 2.0, p, 4, 9, 11)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("q", [0.5, 2.0, 3.0, 4.0])
def test_phi_values_match_brute_force(q):
    f = dense_polynomial((6,), seed=11)
    ys = np.array([0.0, 0.1, 0.55, 0.9])
    [(_, _, m)] = _grid_rule((6,), None, q)
    theta = 2.0 * np.pi * np.arange(m) / m
    want = [
        float(np.mean(np.abs(f.evaluate_many(
            (math.sqrt(y) * np.exp(1j * theta))[:, None])) ** q))
        for y in ys
    ]
    got = circle_means(f, q, ys)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


# On the default angles, 6000 radii at q = 2 (13 angles) and 3000 at q = 3
# and 4 (257 and 25 angles) span several tiles; degree 200 (401 to 1601
# angles) is summed by FFT.
@pytest.mark.parametrize(
    "q, degree, count",
    [(2.0, 6, 6000), (3.0, 6, 3000), (4.0, 6, 3000),
     (2.0, 200, 5), (3.0, 200, 5), (4.0, 200, 5)],
)
def test_circle_curvature_matches_brute_force(q, degree, count):
    f = dense_polynomial((degree,), seed=11)
    c = f.dense_coeffs()
    ys = np.linspace(0.01, 0.95, count)
    [(_, _, m)] = _grid_rule((degree,), None, q)
    theta = 2.0 * np.pi * np.arange(m) / m
    zs = np.sqrt(ys)[:, None] * np.exp(1j * theta)[None, :]
    values = np.polynomial.polynomial.polyval(zs, c)
    g = zs * np.polynomial.polynomial.polyval(zs, np.polynomial.polynomial.polyder(c))
    weight = np.abs(values) ** (q - 2.0)
    square = (q * q / 4.0) * np.abs(g) ** 2
    cross = (q / 2.0) * (np.conj(values) * g).real
    want = np.mean(weight * (square - cross), axis=1)
    scale = np.mean(weight * (square + np.abs(cross)), axis=1)
    got = circle_curvature(f, q, ys)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@pytest.mark.parametrize("profile", [circle_means, circle_curvature])
def test_the_circle_profile_is_checked_and_sized_like_a_norm(monkeypatch, profile):
    # its circles are the nodes of one circle axis: p is checked and the
    # grid refused above the byte budget before any tile is evaluated
    def no_tiles(*args):
        raise AssertionError("a tile was evaluated before the refusal")

    monkeypatch.setattr(norms, "_tiles", no_tiles)
    ys = np.linspace(0.05, 0.9, 35)
    with pytest.raises(ValueError, match=r"\(nodes, angles\) \(35, 32000001\)"):
        profile(parse_polynomial("(1000000):1"), 64.0, ys)
    with pytest.raises(ValueError, match="exponent p must lie in"):
        profile(ComplexPolynomial.from_coeffs((1, 1)), 100.0, ys)


@pytest.mark.parametrize(
    "profile, name", [(circle_means, "circle mean"), (circle_curvature, "y\\^2 Phi''")]
)
def test_a_profile_value_that_is_not_finite_raises(profile, name):
    # |f|^64 = 10^320 overflows on every circle, as a norm value would
    f = ComplexPolynomial.from_coeffs((1e5, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=f"{name} not finite on every circle"):
            profile(f, 64.0, np.array([0.25, 0.5]))


def test_abs_pow_keeps_exact_zeros():
    values = np.array([0.0, 0j, 3.0 + 4.0j, -2.0j])
    got = _abs_pow(values, 0.5)
    assert got[0] == 0.0 and got[1] == 0.0
    assert not np.any(np.isnan(got))
    assert got[2:] == pytest.approx([math.sqrt(5.0), math.sqrt(2.0)], rel=1e-15)


@pytest.mark.parametrize(
    "p", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 3.7, 4.0, 5.5, 6.0, 7.0, 7.5, 64.0]
)
def test_abs_pow_matches_abs_power(p):
    rng = np.random.default_rng(1)
    values = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    values[::9] = 0.0
    keep = values.copy()
    got = _abs_pow(values, p)
    assert np.array_equal(values, keep)
    assert np.allclose(got, np.abs(values) ** p, rtol=1e-13, atol=0.0)


@pytest.fixture
def fresh_tables(monkeypatch):
    """An empty table cache of the module's bound in place of the shared one."""
    tables = _TableCache(_TABLE_CACHE_BYTES)
    monkeypatch.setattr(norms, "_TABLES", tables)
    return tables


def kept_bytes(tables):
    """The bytes of the tables a cache keeps, with their keys, recounted."""
    return sum(
        sys.getsizeof(table) + sum(map(sys.getsizeof, key))
        for key, (table, _) in tables._entries.items()
    )


def test_cached_tables_are_read_only(fresh_tables):
    t = radial_rule(2.0, 4)[0]
    tables = [_fourier_matrix(5, 17), _radial_powers(t, 5), _angle_weights(17)]
    again = [_fourier_matrix(5, 17), _radial_powers(t.copy(), 5), _angle_weights(17)]
    assert all(a is b for a, b in zip(tables, again))
    assert len(fresh_tables._entries) == 3
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            table *= 2.0


def test_table_cache_keeps_within_its_bound(fresh_tables):
    # tables above a sixteenth of the bound are built and never kept: a
    # (400 x 100) aliasing Fourier matrix (640 kB) and (300 x 200) radial
    # powers (480 kB)
    big = [_fourier_matrix(400, 100), _radial_powers(np.linspace(0.0, 1.0, 300), 200)]
    assert all(table is not None and not table.flags.writeable for table in big)
    assert fresh_tables.nbytes == 0 and not fresh_tables._entries
    # then about 10 MB of small Fourier matrices and angle weights: the least
    # recently used go, and what is kept stays within the bound
    for m in range(3, 400):
        _fourier_matrix(8, m)
        _angle_weights(m)
        assert fresh_tables.nbytes <= _TABLE_CACHE_BYTES
    assert fresh_tables.nbytes == kept_bytes(fresh_tables)
    assert fresh_tables.nbytes > _TABLE_CACHE_BYTES - _TABLE_CACHE_BYTES // 16
    assert ("fourier", 8, 3) not in fresh_tables._entries
    assert _fourier_matrix(8, 399) is _fourier_matrix(8, 399)
    assert max(size for _, size in fresh_tables._entries.values()) <= _TABLE_CACHE_BYTES // 16


def cold_and_warm(fn, *args):
    """fn's result from empty caches, then from the caches that call filled."""
    norms._TABLES.clear()
    return fn(*args), fn(*args)


@pytest.mark.parametrize(
    "fn, args",
    [
        (hardy_norm, (ComplexPolynomial.from_coeffs((1, 1)), 0.5, 64)),
        (bergman_norm, (dense_polynomial((5,), seed=5), 2.0, 3.0)),
        (bergman_norm, (dense_polynomial((5,), seed=5), 2.0, 0.5)),
        (bergman_norm, (dense_polynomial((3, 4), seed=2), 1.5, 2.5)),
        (bergman_norm, (dense_polynomial((2, 1, 3), seed=4), 3.0, 4.0)),
        (mixed_norm, (dense_polynomial((2, 3), seed=6), 2.0, 3.0)),
        (circle_means, (dense_polynomial((6,), seed=11), 3.0, np.linspace(0, 1, 7))),
    ],
    ids=[
        "hardy-1+z-64", "univariate-p3", "univariate-p0.5", "bivariate",
        "trivariate", "mixed", "circle",
    ],
)
def test_a_warm_cache_gives_the_cold_value_bit_for_bit(fn, args):
    cold, warm = (np.asarray(getattr(r, "value", r)) for r in cold_and_warm(fn, *args))
    assert cold.tobytes() == warm.tobytes()


def test_the_cached_fourier_matrix_keeps_the_zero_of_1_plus_z_at_pi(fresh_tables):
    # 1 + z on 64 angles is exactly 0 at theta = pi, from a kept matrix
    kept = _fourier_matrix(2, 64)
    assert _fourier_matrix(2, 64) is kept and kept[1, 32] == -1.0
    coeffs = np.ones((1, 2), dtype=complex)
    [(_, _, _, grid)] = list(_tiles(coeffs, np.ones(1), 64))
    assert grid[0, 32] == 0.0


@pytest.mark.parametrize(
    "call",
    [
        lambda: bergman_norm(parse_polynomial("(1000,1000):1"), 2.0, 4.0),
        lambda: hardy_norm(ComplexPolynomial.from_coeffs((1, 1)), 2.0, angles=10**9),
        lambda: mixed_norm(parse_polynomial("(400,400,400):1"), 2.0, 3.0),
    ],
    ids=["bivariate", "angles", "mixed-cap"],
)
def test_a_refused_grid_adds_nothing_to_the_table_cache(fresh_tables, call):
    with pytest.raises(ValueError, match="quadrature grid too large"):
        call()
    assert fresh_tables.nbytes == 0 and not fresh_tables._entries


class CountingTables(_TableCache):
    """A table cache that counts the builds of each key."""

    def __init__(self) -> None:
        super().__init__(_TABLE_CACHE_BYTES)
        self.builds = Counter()

    def get(self, key, build, *args):
        def counted(*args):
            self.builds[key] += 1
            return build(*args)

        return super().get(key, counted, *args)


def test_a_serial_suite_pass_builds_each_table_once(monkeypatch):
    # every criterion inline, so no two threads miss one key at once: each
    # table is built once per key, and the suite's tables are all kept
    tables = CountingTables()
    monkeypatch.setattr(norms, "_TABLES", tables)
    for cid in acceptance.CRITERION_IDS:
        assert acceptance.run_criterion(cid, seed=1729).passed
    assert set(tables.builds.values()) == {1}
    assert {key[0] for key in tables.builds} == {"fourier", "radial", "angles"}
    assert all(
        isinstance(table, np.ndarray) and not table.flags.writeable
        for table, _ in tables._entries.values()
    )
    assert len(tables._entries) == len(tables.builds)
    assert tables.nbytes <= _TABLE_CACHE_BYTES
