"""Quadrature rules and samplers for the weighted disk measure.

The measure on the unit disk is dA_alpha(z) = (alpha-1)(1-|z|^2)^(alpha-2) dA(z)
with dA normalized area; it is a probability measure for alpha > 1.  In the
radial-squared coordinate t = |z|^2 the density is (alpha-1)(1-t)^(alpha-2) on
[0, 1], so the radial factor is a Gauss-Jacobi rule (weight exponent alpha-2
at the right endpoint, 0 at the left) mapped to [0, 1] and normalized to total
mass one.  The angular factor is the M-point equispaced rule on the circle.

Monte Carlo sampling uses the counter-based Philox generator so that a sample
is a pure function of (seed, stream_id, index): results do not depend on chunk
sizes or thread schedules.
"""
from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

__all__ = [
    "ALPHA_MIN",
    "McSampler",
    "radial_rule",
    "circle_rule",
    "stream_for",
]

# API boundary for the weight parameter; the measure degenerates as alpha -> 1.
ALPHA_MIN = 1.0 + 1e-6

# Largest radial rule built.  scipy's roots_jacobi takes time about
# quadratic in the node count: about 0.1 s at 1,501 and 2,048 nodes and
# 0.6 s at 4,096 on a 2-core Xeon VM, but 33 s at 32,000.
_RADIAL_NODES_CAP = 4096

_MASK64 = 0xFFFFFFFFFFFFFFFF


def check_alpha(alpha: float) -> float:
    a = float(alpha)
    if not (a >= ALPHA_MIN):
        raise ValueError(f"alpha must be >= {ALPHA_MIN}, got {alpha}")
    return a


def check_counts(**counts: int | None) -> None:
    """Refuse a grid count given below 1, naming the argument."""
    for name, count in counts.items():
        if count is not None and count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")


def radial_rule(alpha: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for the density (alpha-1)(1-t)^(alpha-2) dt on [0, 1].

    Returns (t_nodes, weights) with weights summing to 1; exact for
    polynomials in t of degree <= 2*nodes - 1.  Rules are cached per
    (alpha, nodes) and shared between callers, so the arrays are read-only.
    More than _RADIAL_NODES_CAP nodes are refused before anything is built.
    """
    a = check_alpha(alpha)
    check_counts(nodes=nodes)
    if nodes > _RADIAL_NODES_CAP:
        raise ValueError(f"nodes must be at most {_RADIAL_NODES_CAP}, got {nodes}")
    return _radial_rule(a, int(nodes))


@functools.lru_cache(maxsize=128)
def _radial_rule(alpha: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = roots_jacobi(nodes, alpha - 2.0, 0.0)
    t = 0.5 * (x + 1.0)
    weights = (alpha - 1.0) * 2.0 ** (1.0 - alpha) * w
    t.setflags(write=False)
    weights.setflags(write=False)
    return t, weights


def circle_rule(count: int) -> tuple[np.ndarray, float]:
    """Equispaced angles on [0, 2 pi) with uniform weight 1/count."""
    check_counts(count=count)
    return 2.0 * np.pi * np.arange(count) / count, 1.0 / count


# ----------------------------------------------------------------- sampling


def stream_for(label: str) -> int:
    """Stable 64-bit stream id from a text label."""
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class McSampler:
    """Deterministic sampler for the product measure dA_alpha on D^nvars.

    Each sample point is a pure function of (seed, stream_id, index).  The
    radial-squared coordinate uses the inverse CDF t = 1 - (1-u)^(1/(alpha-1));
    the angle is uniform.
    """

    alpha: float
    nvars: int
    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        check_alpha(self.alpha)
        if self.nvars < 1:
            raise ValueError("nvars must be >= 1")

    def _words_per_sample(self) -> int:
        need = 2 * self.nvars
        return -(-need // 4) * 4  # padded to the Philox counter granularity

    def sample_block(self, start: int, count: int) -> np.ndarray:
        """Samples with indices start .. start+count-1, shape (count, nvars)."""
        if start < 0 or count < 0:
            raise ValueError("start and count must be nonnegative")
        if count == 0:
            return np.empty((0, self.nvars), dtype=complex)
        wps = self._words_per_sample()
        n = self.nvars
        gen = _philox(self.seed, self.stream_id, start * (wps // 4))
        raw = gen.random_raw(count * wps).reshape(count, wps)
        raw >>= np.uint64(11)
        # Two (count, nvars) buffers, every ufunc in place.  The 2**-53
        # scaling and the zero parts of 1j*theta and of t are exact, so the
        # bits are those of sqrt(1 - (1-u)**(1/(alpha-1))) * exp(1j*theta);
        # tests/test_measures.py pins them.
        t = np.multiply(raw[:, 1 : 2 * n : 2], 2.0**-53)
        np.subtract(1.0, t, out=t)
        np.power(t, 1.0 / (self.alpha - 1.0), out=t)
        np.subtract(1.0, t, out=t)
        np.sqrt(t, out=t)
        z = np.zeros((count, n), dtype=complex)
        np.multiply(raw[:, 0 : 2 * n : 2], 2.0**-53, out=z.imag)
        np.multiply(z.imag, 2.0 * np.pi, out=z.imag)
        np.exp(z, out=z)
        np.multiply(z, t, out=z)
        return z


def _philox(seed: int, stream_id: int, counter: int) -> np.random.Philox:
    """Philox keyed by the two words (seed, stream_id).

    Each key word carries one input, so distinct (seed, stream_id) pairs never
    share a key; a folded key such as seed ^ stream_id would make (a, b) and
    (b, a) draw the same numbers.
    """
    key = np.array([seed & _MASK64, stream_id & _MASK64], dtype=np.uint64)
    return np.random.Philox(counter=counter, key=key)


def unit_uniforms(seed: int, label: str, count: int) -> np.ndarray:
    """count uniforms in [0, 1) from the labeled Philox stream."""
    gen = _philox(seed, stream_for(label), 0)
    return (gen.random_raw(count) >> np.uint64(11)) * 2.0 ** -53
