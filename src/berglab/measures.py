"""Quadrature rules and samplers for the weighted disk measure.

The measure on the unit disk is dA_alpha(z) = (alpha-1)(1-|z|^2)^(alpha-2) dA(z)
with dA normalized area; it is a probability measure for alpha > 1.  In the
radial-squared coordinate t = |z|^2 the density is (alpha-1)(1-t)^(alpha-2) on
[0, 1], so the radial factor is a Gauss-Jacobi rule (weight exponent alpha-2
at the right endpoint, 0 at the left) mapped to [0, 1] and normalized to total
mass one.  The angular factor is the M-point equispaced rule on the circle.

The Gauss-Jacobi rule is built with numpy alone, in the way of Hale &
Townsend, "Fast and accurate computation of Gauss-Legendre and Gauss-Jacobi
quadrature nodes and weights", SIAM J. Sci. Comput. 35 (2013).  Its nodes are
the eigenvalues of the Jacobi matrix of Golub & Welsch, Math. Comp. 23
(1969), found as the roots of p_n: all n at once by Newton steps with the
Ehrlich-Aberth correction (Aberth, Math. Comp. 27 (1973)), p_n and p_n'
evaluated by the orthonormal three-term recurrence, started from the
Gatteschi-Pittaluga asymptotic guesses and finished with one plain Newton
step.  A root stops moving once its step is below _NODE_SETTLED.  The
weights are the Christoffel numbers 1 / sum_{j<n} p_j(x_k)^2, divided by
their sum.  Near alpha = 1 that division takes out most of the rounding of
the weight of the node nearest t = 1, which carries almost all the mass.

Monte Carlo sampling uses the counter-based Philox generator so that a sample
is a pure function of (seed, stream_id, index): results do not depend on chunk
sizes or thread schedules.
"""
from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ALPHA_MIN",
    "McSampler",
    "radial_rule",
    "circle_rule",
    "stream_for",
]

# API boundary for the weight parameter; the measure degenerates as alpha -> 1.
ALPHA_MIN = 1.0 + 1e-6

# Largest radial rule built.  _gauss_jacobi's time grows about as the square
# of the node count.  On a 2-core Xeon VM it takes 0.12-0.14 s at 1,501 nodes
# and 0.38-0.51 s at 4,096 for alpha <= 10, and 0.29 s and 1.1 s at
# alpha = 100, where the roots need the most steps.
_RADIAL_NODES_CAP = 4096

# Newton-Aberth steps allowed before a rule counts as unconverged.  From the
# Gatteschi-Pittaluga guesses, up to 4,096 nodes, alpha <= 8 takes at most
# 3 steps, alpha = 30 at most 8, alpha = 100 at most 19 and alpha = 1000 at
# most 94; alpha = 2000 with 257 nodes would need 163 and is refused.  Only
# the nodes still moving are stepped, so the late steps are cheap.
_NEWTON_STEPS = 128

# A node stops moving once its step is at most this.  For alpha <= 100 a
# further step after one that small is at most 1.2e-14 (5.6e-16 for
# alpha <= 30), and the closing Newton step squares what is left.
_NODE_SETTLED = 1e-9

# The Christoffel numbers of a Gauss rule sum to the mass, 1.  Rounding
# leaves them 2.5e-10 off at alpha = ALPHA_MIN and 4,096 nodes; a missed or
# doubled root, or a recurrence swamped by rounding, leaves more.
_MASS_TOL = 1e-8

# Elements of the node-difference matrix formed at once (8 MiB).
_PAIR_BLOCK = 1 << 20

# Largest sample block drawn at once: its Philox words and its two
# (count, nvars) buffers, complex and real.  c7's blocks of 16,384 samples
# in 64 variables take 40 MiB.
_BLOCK_BYTES_BUDGET = 1 << 28

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


def check_nodes(nodes: int) -> None:
    """Refuse a radial node count below 1 or above _RADIAL_NODES_CAP."""
    check_counts(nodes=nodes)
    if nodes > _RADIAL_NODES_CAP:
        raise ValueError(f"nodes must be at most {_RADIAL_NODES_CAP}, got {nodes}")


def radial_rule(alpha: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for the density (alpha-1)(1-t)^(alpha-2) dt on [0, 1].

    Returns (t_nodes, weights) with weights summing to 1; exact for
    polynomials in t of degree <= 2*nodes - 1.  Rules are cached per
    (alpha, nodes) and shared between callers, so the arrays are read-only.
    More than _RADIAL_NODES_CAP nodes are refused before anything is built.
    """
    a = check_alpha(alpha)
    check_nodes(nodes)
    return _radial_rule(a, int(nodes))


@functools.lru_cache(maxsize=128)
def _radial_rule(alpha: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, weights = _gauss_jacobi(alpha, nodes)
    t = 0.5 * (x + 1.0)
    t.setflags(write=False)
    weights.setflags(write=False)
    return t, weights


def _gauss_jacobi(alpha: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for the probability density of (1-x)^(alpha-2) on [-1, 1].

    Returns the nodes in increasing order and weights summing to 1.  Raises
    RuntimeError if the roots do not settle within _NEWTON_STEPS steps or
    the rule they give is not a Gauss rule.
    """
    a, b = _jacobi_recurrence(alpha, nodes)
    x = _jacobi_guesses(alpha, nodes)
    moving = np.arange(nodes)
    for _ in range(_NEWTON_STEPS):
        newton = _jacobi_sweep(x[moving], a, b)[0]
        step = newton / (1.0 - newton * _repulsion(x, moving))
        x[moving] -= step
        moving = moving[~(np.abs(step) <= _NODE_SETTLED)]
        if not moving.size:
            break
    else:
        raise RuntimeError(
            f"the Gauss-Jacobi rule for alpha={alpha}, nodes={nodes} did not "
            f"settle in {_NEWTON_STEPS} Newton steps"
        )
    newton, christoffel = _jacobi_sweep(x, a, b)
    x -= newton
    order = np.argsort(x)
    x, weights = x[order], christoffel[order]
    lo, hi, mass = float(x[0]), float(x[-1]), float(weights.sum())
    inside = -1.0 < lo and hi < 1.0 and np.all(np.diff(x) > 0.0)
    if not (inside and abs(mass - 1.0) <= _MASS_TOL):
        raise RuntimeError(
            f"the Gauss-Jacobi rule for alpha={alpha}, nodes={nodes} is not a "
            f"Gauss rule: nodes from {lo!r} to {hi!r}, weights summing to {mass!r}"
        )
    return x, weights / mass


def _jacobi_recurrence(alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """a_0..a_{n-1} and b_1..b_n of the orthonormal recurrence for weight
    (1-x)^(alpha-2), written in c = alpha - 1 so that c -> 0 loses nothing."""
    c = alpha - 1.0
    k = np.arange(1.0, n + 1.0)
    b = 2.0 * k * (k - 1.0 + c) / (
        (2.0 * k - 1.0 + c) * np.sqrt((2.0 * k - 2.0 + c) * (2.0 * k + c))
    )
    a = np.empty(n)
    a[0] = (1.0 - c) / (1.0 + c)
    a[1:] = -((c - 1.0) ** 2) / ((2.0 * k[:-1] - 1.0 + c) * (2.0 * k[:-1] + 1.0 + c))
    return a, b


def _jacobi_guesses(alpha: float, n: int) -> np.ndarray:
    """Gatteschi-Pittaluga estimates of the n roots, in increasing order."""
    e = alpha - 2.0
    rho = n + 0.5 * (e + 1.0)
    phi = (np.arange(n, 0, -1) + 0.5 * e - 0.25) * (np.pi / rho)
    half = np.tan(0.5 * phi)
    return np.cos(phi + ((0.25 - e * e) / half - 0.25 * half) / (4.0 * rho * rho))


def _jacobi_sweep(
    x: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(p_n / p_n', 1 / sum_{j<n} p_j^2) at the points x.

    The p_j are orthonormal, b_{j+1} p_{j+1} = (x - a_j) p_j - b_j p_{j-1}
    from p_0 = 1 and p_{-1} = 0, and their derivatives run alongside.  Every
    8 steps each point's running values are scaled by a power of two, which
    is exact: unscaled, sum p_j^2 passes 1e308 near x = 1 at alpha = 100.
    """
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    d_prev, d = np.zeros_like(x), np.zeros_like(x)
    total = np.zeros_like(x)
    shift = np.zeros(x.shape, dtype=np.int64)
    c, tmp = np.empty_like(x), np.empty_like(x)
    inv_b = (1.0 / b).tolist()
    a_over_b = (a / b).tolist()
    b_ratio = [0.0] + (b[:-1] / b[1:]).tolist()
    for k in range(len(a)):
        np.multiply(p, p, out=tmp)
        total += tmp
        np.multiply(x, inv_b[k], out=c)
        c -= a_over_b[k]
        # d_{k+1} = c d_k + p_k / b_{k+1} - (b_k / b_{k+1}) d_{k-1}, into d_prev
        d_prev *= -b_ratio[k]
        np.multiply(c, d, out=tmp)
        d_prev += tmp
        np.multiply(p, inv_b[k], out=tmp)
        d_prev += tmp
        # p_{k+1} = c p_k - (b_k / b_{k+1}) p_{k-1}, into p_prev
        p_prev *= -b_ratio[k]
        np.multiply(c, p, out=tmp)
        p_prev += tmp
        p, p_prev, d, d_prev = p_prev, p, d_prev, d
        if k % 8 == 7:
            e = np.frexp(total)[1] // 2
            for v in (p, p_prev, d, d_prev):
                np.ldexp(v, -e, out=v)
            np.ldexp(total, -2 * e, out=total)
            shift += e
    return p / d, np.ldexp(1.0 / total, -2 * shift)


def _repulsion(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum over j != i of 1 / (x_i - x_j), for each i in rows."""
    out = np.empty(len(rows))
    block = max(1, _PAIR_BLOCK // len(x))
    for lo in range(0, len(rows), block):
        sel = rows[lo : lo + block]
        diff = x[sel, None] - x
        diff[np.arange(len(sel)), sel] = np.inf
        out[lo : lo + block] = np.sum(1.0 / diff, axis=1)
    return out


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
        """Samples with indices start .. start+count-1, shape (count, nvars).

        A block above _BLOCK_BYTES_BUDGET is refused before anything is drawn.
        """
        if start < 0 or count < 0:
            raise ValueError("start and count must be nonnegative")
        if count == 0:
            return np.empty((0, self.nvars), dtype=complex)
        wps = self._words_per_sample()
        n = self.nvars
        need = count * (8 * wps + 24 * n)
        if need > _BLOCK_BYTES_BUDGET:
            raise ValueError(
                f"a block of {count} samples in n={n} variables needs "
                f"{need >> 20} MiB, above the budget of {_BLOCK_BYTES_BUDGET >> 20} MiB"
            )
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
