"""Deterministic random polynomial corpora for the verification drivers.

Two kinds are available:

* ``unit-box``: every coefficient with multi-index of total degree up to
  max_degree, real and imaginary parts uniform on [-1, 1).
* ``zero-free``: constant term 1, remaining coefficients damped and rescaled
  so that sum_{gamma != 0} |c_gamma| 2^{|gamma|} <= 0.8.  Such a polynomial
  has no zeros on the closed polydisc of radius 2, so |P|^p is smooth on the
  integration domain for every p > 0 and quadrature converges spectrally.
  This is the corpus to use when a check needs tight tolerances at
  non-even p.

Both kinds are pure functions of (count, nvars, max_degree, seed, kind): the
coefficients come from one labeled counter-based stream.
"""
from __future__ import annotations

import itertools
import math
import operator

from .measures import unit_uniforms
from .poly import ComplexPolynomial

__all__ = ["KINDS", "multi_indices", "random_polynomials"]

KINDS = ("unit-box", "zero-free")


# Most exponent entries a corpus holds: count * C(nvars + max_degree, nvars)
# coefficients of nvars exponents each.  The suite's largest corpora hold
# 1,300 and 1,120, and one polynomial of degree 1,500 holds 1,501.
_CORPUS_ENTRIES_CAP = 100_000


def multi_indices(nvars: int, max_degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples with total degree <= max_degree, sorted.

    The prefix sums of such a tuple are a nondecreasing sequence in
    [0, max_degree], and both orders agree, so each tuple is built once.
    """
    sums = itertools.combinations_with_replacement(range(max_degree + 1), nvars)
    return [tuple(map(operator.sub, s, (0, *s))) for s in sums]


def random_polynomials(
    count: int,
    nvars: int,
    max_degree: int,
    seed: int,
    kind: str = "unit-box",
) -> list[ComplexPolynomial]:
    if count < 0:
        raise ValueError("count must be nonnegative")
    if nvars < 1 or max_degree < 0:
        raise ValueError("need nvars >= 1 and max_degree >= 0")
    if kind not in KINDS:
        raise ValueError(f"unknown corpus kind {kind!r}")
    if count == 0:
        return []
    # C(n + d, n) >= 2^min(n, d), so from min(n, d) = 17 on any corpus is
    # over the cap and math.comb is never asked for a huge binomial
    small = min(nvars, max_degree) < 17
    terms = math.comb(nvars + max_degree, nvars) if small else math.inf
    if count * terms * nvars > _CORPUS_ENTRIES_CAP:
        raise ValueError(
            f"{count} polynomials in {nvars} variables of degree {max_degree} "
            f"exceed {_CORPUS_ENTRIES_CAP} exponent entries"
        )
    gammas = multi_indices(nvars, max_degree)
    label = f"corpus/{kind}/n{nvars}/d{max_degree}"
    draws = unit_uniforms(seed, label, 2 * count * len(gammas))
    polys = []
    pos = 0
    for _ in range(count):
        coeffs = {}
        for g in gammas:
            re = 2.0 * draws[pos] - 1.0
            im = 2.0 * draws[pos + 1] - 1.0
            pos += 2
            coeffs[g] = complex(re, im)
        if kind == "zero-free":
            zero = (0,) * nvars
            weighted = 0.0
            for g, c in coeffs.items():
                if g != zero:
                    coeffs[g] = c * 2.0 ** (-sum(g))
                    weighted += abs(coeffs[g]) * 2.0 ** sum(g)
            scale = 0.8 / weighted if weighted > 0.8 else 1.0
            for g in coeffs:
                coeffs[g] = coeffs[g] * scale if g != zero else 1.0 + 0j
        polys.append(ComplexPolynomial.from_terms(nvars, coeffs))
    return polys
