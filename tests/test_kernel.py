"""The tensor-grid kernel against brute-force evaluation on the explicit grid."""
import itertools
import math

import numpy as np
import pytest

from berglab.measures import radial_rule
from berglab.norms import (
    _CIRCLE,
    _abs_pow,
    _fourier_matrix,
    _grid_rule,
    _power_mean,
    _quadrature_norm,
    circle_curvature,
    circle_means,
)
from berglab.poly import ComplexPolynomial


def dense_polynomial(degrees, seed):
    """Polynomial with every coefficient up to the given per-variable degrees."""
    rng = np.random.default_rng(seed)
    coeffs = {
        gamma: complex(rng.standard_normal(), rng.standard_normal())
        for gamma in itertools.product(*(range(d + 1) for d in degrees))
    }
    return ComplexPolynomial.from_terms(len(degrees), coeffs)


def brute_power_mean(P, triples, p):
    """Weighted mean of |P|^p over the explicit tensor grid of (t, w, M) triples."""
    axes = []
    for t, w, m in triples:
        theta = 2.0 * np.pi * np.arange(m) / m
        z = (np.sqrt(t)[:, None] * np.exp(1j * theta)[None, :]).ravel()
        axes.append((z, np.repeat(w / m, m)))
    points = np.array(list(itertools.product(*(z for z, _ in axes))))
    weights = np.array([np.prod(c) for c in itertools.product(*(w for _, w in axes))])
    return float(weights @ (np.abs(P.evaluate_many(points)) ** p))


def rule(alpha, nodes, m):
    t, w = radial_rule(alpha, nodes)
    return (t, w, m)


# (per-variable degrees, per-variable (nodes, angles)); a degree-120 axis
# with 129 angles is past the matmul/FFT switch, once streamed and once as a
# lead axis (the larger grid is streamed); the degree-9 and degree-59 axes
# alias onto fewer angles than coefficients, below and above the switch.
CASES = [
    ((5,), ((6, 17),)),
    ((120,), ((3, 129),)),
    ((9,), ((5, 7),)),
    ((59,), ((3, 9),)),
    ((3, 4), ((4, 13), (3, 11))),
    ((120, 2), ((2, 129), (3, 9))),
    ((120, 2), ((2, 129), (30, 9))),
    ((2, 1, 3), ((3, 7), (2, 5), (3, 9))),
]


@pytest.mark.parametrize("degrees,grid", CASES)
@pytest.mark.parametrize("p", [0.5, 2.0, 3.0, 4.0])
def test_power_mean_matches_brute_force(degrees, grid, p):
    P = dense_polynomial(degrees, seed=sum(degrees))
    triples = [rule(2.5, k, m) for k, m in grid]
    got = _power_mean(P.coeff_array(), triples, p)
    want = brute_power_mean(P, triples, p)
    assert got == pytest.approx(want, rel=1e-12)


def test_cases_cover_both_angular_methods():
    sizes = [(d + 1, m) for degrees, grid in CASES for d, (_, m) in zip(degrees, grid)]
    assert any(_fourier_matrix(g, m) is None for g, m in sizes)
    assert any(_fourier_matrix(g, m) is not None for g, m in sizes)


def test_power_mean_streams_many_blocks():
    # 72 lead rows x 2 x 1025 streamed points make three blocks
    P = dense_polynomial((3, 2), seed=3)
    triples = [rule(2.0, 2, 1025), rule(2.0, 8, 9)]
    got = _power_mean(P.coeff_array(), triples, 3.0)
    assert got == pytest.approx(brute_power_mean(P, triples, 3.0), rel=1e-12)


def substitute_last_reference(Q, alpha, p, nodes, angles, angles_w):
    """The mixed norm as a loop over circle points w, one disk norm each."""
    disk = [rule(alpha, nodes, angles)] * (Q.nvars - 1)
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
    triples = [rule(2.0, 4, 9)] * (Q.nvars - 1) + [(*_CIRCLE, 11)]
    got = _quadrature_norm(Q, triples, p).value
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


def test_abs_pow_keeps_exact_zeros():
    values = np.array([0.0, 0j, 3.0 + 4.0j, -2.0j])
    got = _abs_pow(values, 0.5)
    assert got[0] == 0.0 and got[1] == 0.0
    assert not np.any(np.isnan(got))
    assert got[2:] == pytest.approx([math.sqrt(5.0), math.sqrt(2.0)], rel=1e-15)


@pytest.mark.parametrize(
    "p", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.7, 4.0, 6.0, 7.0, 64.0]
)
def test_abs_pow_matches_abs_power(p):
    rng = np.random.default_rng(1)
    values = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    values[::9] = 0.0
    keep = values.copy()
    got = _abs_pow(values, p)
    assert np.array_equal(values, keep)
    assert np.allclose(got, np.abs(values) ** p, rtol=1e-13, atol=0.0)
