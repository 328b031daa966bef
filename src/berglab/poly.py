"""Sparse complex polynomials in one or several variables.

A polynomial is stored as a sorted tuple of (exponent-tuple, coefficient)
pairs.  For example 17 + 2*z1*z2 - 0.5j*z2**3 in two variables is

    (((0, 0), 17+0j), ((1, 1), 2+0j), ((0, 3), -0.5j))

Coefficients are double-precision complex.  Structural operations (multiply,
power, dilate, homogenize) are exact on the term structure; coefficient
arithmetic carries ordinary floating-point rounding.

A product P*Q is formed by shift-and-add over the dense coefficient box of
the result, prod_i (deg_i P + deg_i Q + 1) entries: for each term c z^g of P
in order, c times Q's coefficient array is added into the box at offset g,
with the real and imaginary parts formed as Python's complex product forms
them (re = a.re*b.re - a.im*b.im, im = a.re*b.im + a.im*b.re, no fused
multiply-add).  Each coefficient thus receives the same roundings in the
same order as in a term-pair loop over a dict, so the two routes give the
same bits.  Both parts of each term's product are written through two
scratch arrays allocated once per product, and the result is read off the
box's nonzero entries in C order, which are already sorted and unique, so
it is not sorted again.  The term-pair loop is kept where the box would
hold more entries than there are term pairs, as for sparse products in
many variables.  P ** k squares and multiplies from P itself, so it takes
popcount(k) + bitlength(k) - 2 products and none by the constant 1.

Three textual formats are accepted by :func:`parse_polynomial`:

* dense univariate coefficient list: ``"1, 0.5, 0, 2j"`` means
  1 + 0.5 z + 2j z^3;
* sparse exponent map: ``"(1,2):0.5+0.3i (0,0):1"`` (``i`` or ``j`` works);
* JSON: ``{"nvars": 1, "terms": [{"gamma": [2], "re": 1.0, "im": -0.5}]}``
  means (1 - 0.5j) z^2.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "ComplexPolynomial",
    "parse_polynomial",
]


def _canonical_terms(
    nvars: int, items: Iterable[tuple[Sequence[int], complex]]
) -> tuple[tuple[tuple[int, ...], complex], ...]:
    acc: dict[tuple[int, ...], complex] = {}
    for gamma, coeff in items:
        g = tuple(int(e) for e in gamma)
        if len(g) != nvars:
            raise ValueError(f"exponent {g} has {len(g)} entries, expected {nvars}")
        if any(e < 0 for e in g):
            raise ValueError(f"negative exponent in {g}")
        acc[g] = acc.get(g, 0j) + complex(coeff)
    # exact zeros are dropped so the representation is canonical
    return tuple(sorted((g, c) for g, c in acc.items() if c != 0))


@dataclass(frozen=True)
class ComplexPolynomial:
    """Immutable sparse polynomial with complex coefficients."""

    nvars: int
    terms: tuple[tuple[tuple[int, ...], complex], ...]

    # ``variable_degrees()``, kept on the instance at its first call; a class
    # attribute, not a field, so ``==``, ``hash`` and ``repr`` do not see it
    _variable_degrees = None

    def __post_init__(self) -> None:
        if self.nvars < 1:
            raise ValueError("nvars must be >= 1")
        object.__setattr__(self, "terms", _canonical_terms(self.nvars, self.terms))

    # ---------------------------------------------------------------- builders

    @classmethod
    def from_terms(
        cls, nvars: int, mapping: Mapping[Sequence[int], complex]
    ) -> "ComplexPolynomial":
        return cls(nvars, tuple(mapping.items()))

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[complex]) -> "ComplexPolynomial":
        """Dense univariate constructor: coeffs[k] multiplies z^k."""
        return cls(1, tuple(((k,), complex(c)) for k, c in enumerate(coeffs)))

    @classmethod
    def zero(cls, nvars: int = 1) -> "ComplexPolynomial":
        return cls(nvars, ())

    @classmethod
    def constant(cls, value: complex, nvars: int = 1) -> "ComplexPolynomial":
        return cls(nvars, (((0,) * nvars, complex(value)),))

    @classmethod
    def variable(cls, index: int = 0, nvars: int = 1) -> "ComplexPolynomial":
        gamma = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, ((gamma, 1 + 0j),))

    @classmethod
    def _canonical(cls, nvars: int, terms) -> "ComplexPolynomial":
        """A polynomial from terms already canonical (sorted, unique and
        nonzero, as ``_canonical_terms`` returns them), kept as given."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "terms", terms)
        return poly

    # ------------------------------------------------------------- inspection

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(sum(g) for g, _ in self.terms)

    def variable_degrees(self) -> tuple[int, ...]:
        """The largest exponent of each variable (0 for the zero polynomial),
        worked out once per polynomial."""
        degrees = self._variable_degrees
        if degrees is None:
            degrees = tuple(
                max((g[i] for g, _ in self.terms), default=0)
                for i in range(self.nvars)
            )
            object.__setattr__(self, "_variable_degrees", degrees)
        return degrees

    def coeff(self, gamma: Sequence[int]) -> complex:
        key = tuple(int(e) for e in gamma)
        for g, c in self.terms:
            if g == key:
                return c
        return 0j

    def coeff_array(self) -> np.ndarray:
        """Dense coefficient array, one axis per variable."""
        shape = tuple(d + 1 for d in self.variable_degrees())
        out = np.zeros(shape, dtype=complex)
        for g, c in self.terms:
            out[g] = c
        return out

    def dense_coeffs(self) -> np.ndarray:
        if self.nvars != 1:
            raise ValueError("dense_coeffs is univariate only")
        return self.coeff_array()

    # ------------------------------------------------------------- arithmetic

    def __add__(self, other: "ComplexPolynomial") -> "ComplexPolynomial":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        return ComplexPolynomial(self.nvars, self.terms + other.terms)

    def __sub__(self, other: "ComplexPolynomial") -> "ComplexPolynomial":
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, ComplexPolynomial):
            if self.nvars != other.nvars:
                raise ValueError("variable count mismatch")
            if _dense_product_fits(self, other):
                return _dense_product(self, other)
            return _pair_product(self, other)
        return ComplexPolynomial(
            self.nvars, tuple((g, complex(other) * c) for g, c in self.terms)
        )

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ComplexPolynomial":
        if k < 0 or k != int(k):
            raise ValueError("exponent must be a nonnegative integer")
        k = int(k)
        if k == 0:
            return ComplexPolynomial.constant(1.0, self.nvars)
        result = None
        base = self
        while True:  # square-and-multiply, from the lowest set bit's power
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    # ------------------------------------------------------------- operations

    def dilate(self, r: float) -> "ComplexPolynomial":
        """P(r z) for one radius r in [0, 1]: c_gamma -> c_gamma * prod_i r^gamma_i."""
        r = float(r)
        if not (0.0 <= r <= 1.0):
            raise ValueError(f"dilation radius {r} outside [0, 1]")
        new = tuple((g, c * np.prod([r ** e for e in g])) for g, c in self.terms)
        return ComplexPolynomial(self.nvars, new)

    def homogenize(self, m: int) -> "ComplexPolynomial":
        """Append a new last variable w and pad each term to total degree m."""
        if m < self.degree:
            raise ValueError(f"m={m} below degree {self.degree}")
        new = tuple((g + (m - sum(g),), c) for g, c in self.terms)
        return ComplexPolynomial(self.nvars + 1, new)

    def substitute_last(self, value: complex) -> "ComplexPolynomial":
        """Evaluate the last variable at a fixed complex number."""
        if self.nvars < 2:
            raise ValueError("substitute_last needs at least two variables")
        w = complex(value)
        acc: dict[tuple[int, ...], complex] = {}
        for g, c in self.terms:
            key = g[:-1]
            acc[key] = acc.get(key, 0j) + c * w ** g[-1]
        return ComplexPolynomial.from_terms(self.nvars - 1, acc)

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (N, nvars) array of complex points."""
        pts = np.asarray(points, dtype=complex)
        if pts.ndim != 2 or pts.shape[1] != self.nvars:
            raise ValueError(f"points must have shape (N, {self.nvars})")
        out = np.zeros(pts.shape[0], dtype=complex)
        degs = self.variable_degrees()
        # one power table per variable, reused across terms
        pows = [
            np.power(pts[:, i][:, None], np.arange(degs[i] + 1)[None, :])
            for i in range(self.nvars)
        ]
        for g, c in self.terms:
            term = np.full(pts.shape[0], c, dtype=complex)
            for i, e in enumerate(g):
                if e:
                    term = term * pows[i][:, e]
            out += term
        return out

    # -------------------------------------------------------------- formats

    @classmethod
    def from_json(cls, text: str) -> "ComplexPolynomial":
        payload = json.loads(text)
        try:
            nvars = int(payload["nvars"])
            items = [
                (tuple(t["gamma"]), complex(float(t["re"]), float(t["im"])))
                for t in payload["terms"]
            ]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed polynomial JSON: {exc}") from exc
        return cls(nvars, tuple(items))

    def to_text(self) -> str:
        if not self.terms:
            return "(" + ",".join("0" * self.nvars) + "):0"
        parts = []
        for g, c in self.terms:
            gs = ",".join(str(e) for e in g)
            parts.append(f"({gs}):{_format_complex(c)}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_text()


def _dense_product_fits(a: ComplexPolynomial, b: ComplexPolynomial) -> bool:
    """True when the coefficient box of a*b holds no more entries than there
    are term pairs, so that shift-and-add over the box costs no more than
    the term-pair loop."""
    box = math.prod(
        x + y + 1 for x, y in zip(a.variable_degrees(), b.variable_degrees())
    )
    return box <= len(a.terms) * len(b.terms)


def _pair_product(a: ComplexPolynomial, b: ComplexPolynomial) -> ComplexPolynomial:
    """a*b by a loop over term pairs, summed per exponent in a dict."""
    prod: dict[tuple[int, ...], complex] = {}
    for g1, c1 in a.terms:
        for g2, c2 in b.terms:
            g = tuple(x + y for x, y in zip(g1, g2))
            prod[g] = prod.get(g, 0j) + c1 * c2
    return ComplexPolynomial.from_terms(a.nvars, prod)


def _dense_product(a: ComplexPolynomial, b: ComplexPolynomial) -> ComplexPolynomial:
    """a*b by shift-and-add over the dense box; same bits as the pair loop."""
    coeffs = b.coeff_array()
    n = coeffs.shape
    # the parts of c*b are c.re*(b.re, b.im) + c.im*(-b.im, b.re), with the
    # same bits as c.re*b.re - c.im*b.im and c.re*b.im + c.im*b.re
    parts = np.stack((coeffs.real, coeffs.imag))
    turned = np.stack((-coeffs.imag, coeffs.real))
    box = np.zeros((2,) + tuple(d + m for d, m in zip(a.variable_degrees(), n)))
    left = np.empty_like(parts)  # scratch for each term's products
    right = np.empty_like(parts)
    for g, c in a.terms:
        np.multiply(parts, c.real, out=left)
        np.multiply(turned, c.imag, out=right)
        left += right
        box[(slice(None),) + tuple(slice(e, e + m) for e, m in zip(g, n))] += left
    # the box's nonzero entries in C order: sorted, unique exponents, and no
    # entry is -0.0, as each is a sum begun at +0.0
    real, imag = box
    nonzero = np.nonzero((real != 0) | (imag != 0))
    exponents = zip(*(axis.tolist() for axis in nonzero))
    values = map(complex, real[nonzero].tolist(), imag[nonzero].tolist())
    return ComplexPolynomial._canonical(a.nvars, tuple(zip(exponents, values)))


def _format_complex(c: complex) -> str:
    if c.imag == 0:
        return repr(c.real)
    if c.real == 0:
        return f"{c.imag!r}i"
    sign = "+" if c.imag >= 0 else "-"
    return f"{c.real!r}{sign}{abs(c.imag)!r}i"


_SPARSE_TERM = re.compile(r"\(\s*([0-9,\s]*)\s*\)\s*:\s*([^\s;()]+)")


def _parse_complex(token: str) -> complex:
    cleaned = token.strip().replace("i", "j").replace("J", "j")
    try:
        return complex(cleaned)
    except ValueError as exc:
        raise ValueError(f"cannot parse coefficient {token!r}") from exc


def parse_polynomial(text: str) -> ComplexPolynomial:
    """Parse the dense, sparse, or JSON polynomial format."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if s.startswith("{"):
        return ComplexPolynomial.from_json(s)
    if "(" in s:
        matches = _SPARSE_TERM.findall(s)
        leftover = _SPARSE_TERM.sub("", s).replace(";", "").strip()
        if not matches or leftover:
            raise ValueError(f"cannot parse sparse polynomial {text!r}")
        items = []
        for gamma_text, coeff_text in matches:
            gamma = tuple(
                int(x) for x in gamma_text.split(",") if x.strip() != ""
            )
            items.append((gamma, _parse_complex(coeff_text)))
        widths = {len(g) for g, _ in items}
        if len(widths) != 1:
            raise ValueError("inconsistent exponent lengths")
        width = widths.pop()
        return ComplexPolynomial(width, tuple(items))
    coeffs = [_parse_complex(tok) for tok in s.split(",")]
    return ComplexPolynomial.from_coeffs(coeffs)
