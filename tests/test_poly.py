"""Polynomial arithmetic, dilation, homogenization, parsing."""
import itertools
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from berglab import poly
from berglab.corpus import multi_indices
from berglab.poly import (
    ComplexPolynomial,
    _dense_product,
    _dense_product_fits,
    _pair_product,
    parse_polynomial,
)

finite = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def polynomials(draw, nvars=None, max_degree=4, max_terms=5):
    n = nvars if nvars is not None else draw(st.integers(1, 3))
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        gamma = tuple(draw(st.integers(0, max_degree)) for _ in range(n))
        terms[gamma] = complex(draw(finite), draw(finite))
    return ComplexPolynomial.from_terms(n, terms)


def exponents(P: ComplexPolynomial) -> set:
    return {g for g, _ in P.terms}


def coeffs_close(a: ComplexPolynomial, b: ComplexPolynomial, tol=1e-13) -> bool:
    if a.nvars != b.nvars:
        return False
    keys = exponents(a) | exponents(b)
    scale = 1.0 + max((abs(c) for _, c in a.terms), default=0.0)
    return all(abs(a.coeff(g) - b.coeff(g)) <= tol * scale for g in keys)


@given(polynomials(nvars=2), polynomials(nvars=2))
def test_multiplication_commutes(P, Q):
    assert coeffs_close(P * Q, Q * P)


@given(polynomials(nvars=2), polynomials(nvars=2), polynomials(nvars=2))
def test_multiplication_associates(P, Q, R):
    lhs = (P * Q) * R
    rhs = P * (Q * R)
    scale = 1.0 + max((abs(c) for _, c in lhs.terms), default=0.0)
    keys = exponents(lhs) | exponents(rhs)
    assert all(abs(lhs.coeff(g) - rhs.coeff(g)) <= 1e-12 * scale for g in keys)


@given(polynomials(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_dilation_semigroup(P, r, s):
    once = P.dilate(r).dilate(s)
    joint = P.dilate(r * s)
    assert exponents(once) <= exponents(P)
    assert coeffs_close(once, joint)


@given(polynomials(max_degree=3))
def test_cube_matches_repeated_product(P):
    assert coeffs_close(P ** 3, P * P * P, tol=1e-11)


@given(polynomials(nvars=2, max_degree=3))
def test_homogenization_degree_and_slice(P):
    m = max(P.degree, 1)
    Q = P.homogenize(m)
    assert Q.nvars == P.nvars + 1
    assert all(sum(g) == m for g, _ in Q.terms)
    pts = np.array([[0.3 + 0.1j, -0.2 + 0.4j]])
    lifted = np.concatenate([pts, np.ones((1, 1))], axis=1)
    assert abs(Q.evaluate_many(lifted)[0] - P.evaluate_many(pts)[0]) < 1e-14


def test_json_input_format():
    text = (
        '{"nvars": 2, "terms": [{"gamma": [0, 0], "re": 1.0, "im": 0.0},'
        ' {"gamma": [2, 1], "re": 0.5, "im": -0.25}]}'
    )
    P = parse_polynomial(text)
    assert P.nvars == 2
    assert P.terms == (((0, 0), 1 + 0j), ((2, 1), 0.5 - 0.25j))


@given(polynomials())
def test_text_round_trip(P):
    back = parse_polynomial(P.to_text())
    assert back.nvars == P.nvars
    assert back.terms == P.terms


def test_dense_parse_univariate():
    P = parse_polynomial("1, 0, 2.5")
    assert P.nvars == 1
    assert P.coeff((0,)) == 1.0
    assert P.coeff((2,)) == 2.5
    assert P.degree == 2


def test_sparse_parse_multivariate():
    P = parse_polynomial("(1,2):0.5+0.5i (0,0):1")
    assert P.nvars == 2
    assert P.coeff((1, 2)) == 0.5 + 0.5j
    assert P.coeff((0, 0)) == 1.0


def test_zero_polynomial_conventions():
    Z = ComplexPolynomial.zero(2)
    assert Z.is_zero
    assert Z.degree == 0
    assert (Z * Z).is_zero
    assert Z.dilate(0.3).is_zero


def test_evaluate_many_matches_scalar():
    P = ComplexPolynomial.from_terms(2, {(2, 1): 1.5 - 1.0j, (0, 0): 0.25})
    pts = np.array(
        [[0.1 + 0.2j, 0.3 - 0.1j], [0.0 + 0.0j, 0.9 + 0.0j], [-0.5 + 0.5j, 0.2 + 0.2j]]
    )
    vals = P.evaluate_many(pts)
    for row, v in zip(pts, vals):
        scalar = sum(c * row[0] ** g[0] * row[1] ** g[1] for g, c in P.terms)
        assert abs(scalar - v) < 1e-14


def test_substitute_last_closes_homogenization():
    P = parse_polynomial("1,1,1")
    Q = P.homogenize(2)
    assert coeffs_close(Q.substitute_last(1.0), P)


def test_degree_bookkeeping():
    P = ComplexPolynomial.from_terms(2, {(3, 1): 1.0, (0, 2): 1.0})
    assert P.degree == 4
    assert P.variable_degrees() == (3, 2)


def test_variable_degrees_are_kept_outside_the_fields():
    # worked out once, and neither == nor hash sees the kept tuple
    P = ComplexPolynomial.from_terms(2, {(3, 1): 1.0, (0, 2): 1.0})
    Q = ComplexPolynomial.from_terms(2, {(0, 2): 1.0, (3, 1): 1.0})
    assert P.variable_degrees() is P.variable_degrees() == (3, 2)
    assert P == Q and hash(P) == hash(Q) and repr(P) == repr(Q)
    assert (P * P).variable_degrees() == (6, 4)
    assert ComplexPolynomial.zero(3).variable_degrees() == (0, 0, 0)


def test_dilation_radius_validation():
    P = ComplexPolynomial.from_terms(2, {(1, 2): 1.0})
    for r in (1.5, -0.1):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            P.dilate(r)


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(polynomials(nvars=n), polynomials(nvars=n))
    )
)
def test_dense_product_same_bits_as_pair_product(factors):
    P, Q = factors
    assert _dense_product(P, Q).terms == _pair_product(P, Q).terms


@pytest.mark.parametrize("nvars,degree", [(1, 40), (2, 6), (3, 3)])
def test_dense_powers_same_bits_as_pair_powers(nvars, degree):
    # coefficients spread over ten decades so that every sum rounds
    rng = np.random.default_rng(nvars)
    shape = (degree + 1,) * nvars
    mags = 10.0 ** rng.integers(-5, 5, size=(2,) + shape)
    vals = rng.standard_normal((2,) + shape) * mags
    P = ComplexPolynomial.from_terms(
        nvars,
        {g: complex(vals[0][g], vals[1][g]) for g in np.ndindex(*shape)},
    )
    assert _dense_product_fits(P, P)
    square = _pair_product(P, P)
    assert _dense_product(P, P).terms == square.terms
    assert (P ** 2).terms == square.terms
    cube = _pair_product(P, square)
    assert _dense_product(P, square).terms == cube.terms
    assert (P ** 3).terms == cube.terms


def bits(P: ComplexPolynomial) -> tuple:
    """P's terms with each part as its exact bits, signed zeros told apart."""
    return tuple((g, c.real.hex(), c.imag.hex()) for g, c in P.terms)


def pair_power(P: ComplexPolynomial, k: int) -> ComplexPolynomial:
    """P^k by term-pair products alone, squared and multiplied in the order of
    ``__pow__`` but begun from the constant 1, which P ** k must match bit
    for bit."""
    result, base = ComplexPolynomial.constant(1.0, P.nvars), P
    while k:
        if k & 1:
            result = _pair_product(result, base)
        base = _pair_product(base, base)
        k >>= 1
    return result


@given(polynomials())
def test_powers_same_bits_as_pair_products_from_one(P):
    assert (P ** 0).terms == (((0,) * P.nvars, 1 + 0j),)
    assert P ** 1 is P
    for k in range(1, 6):
        assert bits(P ** k) == bits(pair_power(P, k))


@pytest.mark.parametrize("text", ["1, 0.5, -2j, 0, 3+1j", "(0,0):1 (1,0):2 (2,3):-1j"])
def test_a_power_makes_only_its_squarings_and_multiplies(monkeypatch, text):
    # k = 5 is P * (P^2)^2: two squarings and one multiply, none by the
    # constant 1, which P^0 is without any product
    P = parse_polynomial(text)
    one = ComplexPolynomial.constant(1.0, P.nvars)
    factors = []

    def counted(route):
        def product(a, b):
            factors.extend((a, b))
            return route(a, b)

        return product

    monkeypatch.setattr(poly, "_dense_product", counted(_dense_product))
    monkeypatch.setattr(poly, "_pair_product", counted(_pair_product))
    for k in range(6):
        factors.clear()
        assert bits(P ** k) == bits(pair_power(P, k))
        assert len(factors) == 2 * (k.bit_count() + k.bit_length() - 2 if k else 0)
        assert one not in factors


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(polynomials(nvars=n), polynomials(nvars=n))
    )
)
def test_dense_product_terms_are_canonical_as_built(factors):
    P, Q = factors
    product = _dense_product(P, Q)
    assert bits(product) == bits(ComplexPolynomial(product.nvars, product.terms))
    assert all(type(e) is int for g, _ in product.terms for e in g)


def test_product_drops_exact_cancellation():
    one = ComplexPolynomial.constant(1.0)
    z = ComplexPolynomial.variable()
    P, Q = one + z, one - z
    assert _dense_product_fits(P, Q)
    assert (P * Q).terms == (((0,), 1 + 0j), ((2,), -1 + 0j))
    assert (P * Q).coeff((1,)) == 0


def test_product_zero_constant_scalar_and_mismatch():
    P = ComplexPolynomial.from_terms(
        2, {(0, 0): 0.25, (1, 0): 1.5 - 1.0j, (0, 1): -2.0, (1, 1): 0.5j}
    )
    zero = ComplexPolynomial.zero(2)
    assert (P * zero).is_zero and (zero * P).is_zero
    c = ComplexPolynomial.constant(2.0 - 1.0j, 2)
    assert _dense_product_fits(c, P) and _dense_product_fits(P, c)
    expected = tuple((g, (2.0 - 1.0j) * v) for g, v in P.terms)
    assert (c * P).terms == expected
    assert (P * c).terms == expected
    assert (P * (2.0 - 1.0j)).terms == expected
    assert ((2.0 - 1.0j) * P).terms == expected
    assert (3 * P).terms == tuple((g, 3 * v) for g, v in P.terms)
    with pytest.raises(ValueError, match="variable count mismatch"):
        P * ComplexPolynomial.variable()


def test_sparse_many_variable_square_takes_pair_loop():
    # the n = 16, m = 2 extremal square has 256 term pairs but a 3^16 box
    unit = lambda i: tuple(int(j == i) for j in range(16))
    base = ComplexPolynomial.from_terms(16, {unit(i): 0.25 for i in range(16)})
    assert len(base.terms) == 16
    assert not _dense_product_fits(base, base)
    assert not _dense_product_fits(ComplexPolynomial.constant(1.0, 16), base)


@pytest.mark.parametrize("nvars, max_degree", [(1, 0), (1, 12), (2, 6), (3, 4), (5, 3)])
def test_multi_indices_are_the_sorted_tuples_of_bounded_degree(nvars, max_degree):
    box = itertools.product(range(max_degree + 1), repeat=nvars)
    expected = sorted(g for g in box if sum(g) <= max_degree)
    assert multi_indices(nvars, max_degree) == expected


def test_multi_indices_never_walk_the_box():
    # the box (max_degree + 1)^nvars holds 3^40 tuples, the answer 861
    start = time.perf_counter()
    assert len(multi_indices(40, 2)) == 861
    assert time.perf_counter() - start < 1.0
