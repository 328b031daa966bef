"""Quadrature rules and the deterministic sampler."""
import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import roots_jacobi

from berglab import measures
from berglab.measures import (
    McSampler,
    circle_rule,
    radial_rule,
    stream_for,
    unit_uniforms,
)


def radial_moment(alpha: float, k: int) -> float:
    """Closed form for the k-th moment of t = |z|^2 under the weight."""
    return math.exp(
        math.lgamma(k + 1.0) + math.lgamma(alpha) - math.lgamma(alpha + k)
    )


def radial_moments(alpha: float, count: int) -> np.ndarray:
    """The first count moments as the running product m_k = m_{k-1} k/(alpha+k-1):
    within 1.7e-12 at k = 3000 for alpha near 1, where the lgamma form errs by 6e-12."""
    return np.cumprod([1.0] + [k / (alpha + k - 1.0) for k in range(1, count)])


def test_radial_rule_first_moment_alpha3():
    t, w = radial_rule(3.0, 32)
    assert float(w @ t) == pytest.approx(1.0 / 3.0, abs=1e-14)


# The weight parameters alpha the reference tests run over, ALPHA_MIN to 100.
REFERENCE_ALPHAS = [1.0 + 1e-6, 1.01, 1.3, 2.0, 4.0, 8.0, 30.0, 100.0]


@pytest.mark.parametrize("alpha", sorted({1.25, 3.0, 5.5, *REFERENCE_ALPHAS}))
def test_radial_rule_moment_table(alpha):
    K = 12
    t, w = radial_rule(alpha, K)
    assert float(w.sum()) == pytest.approx(1.0, abs=1e-13)
    for k in range(2 * K):
        exact = radial_moment(alpha, k)
        assert float(w @ t ** k) == pytest.approx(exact, rel=1e-13)


def test_radial_rule_refuses_more_nodes_than_the_cap_before_building(monkeypatch):
    # the cap admits the 1,501-node rule of a degree-1500 axis at p = 2
    assert measures._RADIAL_NODES_CAP >= 1501
    assert len(radial_rule(2.0, 1501)[0]) == 1501

    def no_build(*args):
        raise AssertionError("_gauss_jacobi called above the cap")

    monkeypatch.setattr(measures, "_gauss_jacobi", no_build)
    for nodes in (measures._RADIAL_NODES_CAP + 1, 100_000):
        message = f"nodes must be at most {measures._RADIAL_NODES_CAP}, got {nodes}"
        with pytest.raises(ValueError, match=message):
            radial_rule(3.5, nodes)


@pytest.mark.parametrize("alpha", REFERENCE_ALPHAS)
def test_radial_rule_matches_scipy_roots_jacobi(alpha):
    for nodes in (1, 2, 3, 5, 13, 64, 257, 1501):
        t, w = radial_rule(alpha, nodes)
        x, ref = roots_jacobi(nodes, alpha - 2.0, 0.0)
        assert np.max(np.abs(t - 0.5 * (x + 1.0))) <= 4.5e-16
        ref = (alpha - 1.0) * 2.0 ** (1.0 - alpha) * ref
        # below alpha = 1.3 the weight of the node nearest t = 1 is the
        # sensitive one, and there scipy's rule is the one that misses the
        # moments (see the next test)
        assert np.max(np.abs(w - ref)) <= (1e-6 if alpha < 1.3 else 1e-9)


@pytest.mark.parametrize("alpha", [1.0 + 1e-6, 1.01])
@pytest.mark.parametrize("nodes", [257, 1501])
def test_radial_rule_moments_near_alpha_min(alpha, nodes):
    # every moment the rule should integrate; the rule meets them to
    # 1.1e-12, scipy's roots_jacobi only to 2.4e-10 (257 nodes) and 2.1e-7
    # (1,501 nodes)
    t, w = radial_rule(alpha, nodes)
    exact = radial_moments(alpha, 2 * nodes)
    got = np.array([float(w @ t ** k) for k in range(2 * nodes)])
    assert np.max(np.abs(got / exact - 1.0)) <= 1e-11


def test_radial_rule_at_alpha_1000():
    # up to 94 Newton steps, where scipy's roots_jacobi returns nan nodes;
    # moments below 1e-280 would lose their relative precision and are left out
    t, w = radial_rule(1000.0, 257)
    exact = radial_moments(1000.0, 514)
    got = np.array([float(w @ t ** k) for k in range(514)])
    kept = exact > 1e-280
    assert kept.sum() > 100
    assert np.max(np.abs(got[kept] / exact[kept] - 1.0)) <= 1e-11


def test_largest_rule_at_alpha_100_stays_finite():
    # unscaled, sum p_j^2 near t = 1 passes the float range here
    measures._radial_rule.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t, w = radial_rule(100.0, measures._RADIAL_NODES_CAP)
    assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
    assert float(w.sum()) == pytest.approx(1.0, abs=1e-14)
    assert np.all(np.diff(t) > 0.0) and t[0] > 0.0 and t[-1] < 1.0


@pytest.mark.parametrize("alpha, nodes", [(1.0 + 1e-6, 257), (2.0, 64), (30.0, 257)])
def test_rebuilt_radial_rule_is_bit_identical(alpha, nodes):
    t, w = (a.copy() for a in radial_rule(alpha, nodes))
    measures._radial_rule.cache_clear()
    t2, w2 = radial_rule(alpha, nodes)
    assert t.tobytes() == t2.tobytes() and w.tobytes() == w2.tobytes()


def test_unsettled_or_broken_rule_raises(monkeypatch):
    # alpha = 1e6 is beyond what the recurrence in x resolves: the roots
    # settle, but the weights do not sum to 1
    with pytest.raises(RuntimeError, match="is not a Gauss rule"):
        measures._gauss_jacobi(1e6, 5)
    monkeypatch.setattr(measures, "_NEWTON_STEPS", 2)
    with pytest.raises(RuntimeError, match="did not settle in 2 Newton steps"):
        measures._gauss_jacobi(30.0, 64)


def test_importing_berglab_does_not_import_scipy():
    # a fresh process, importing the berglab this process tests
    src = str(Path(measures.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    code = (
        "import sys, berglab, berglab.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    argv = [sys.executable, "-c", code]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "[]\n"


def test_radial_rule_nodes_inside_unit_interval():
    t, w = radial_rule(1.5, 48)
    assert np.all(t > 0.0) and np.all(t < 1.0)
    assert np.all(w > 0.0)


def test_cached_radial_rule_is_read_only():
    t, w = radial_rule(2.75, 10)
    keep_t, keep_w = t.copy(), w.copy()
    with pytest.raises(ValueError):
        t[0] = 0.5
    with pytest.raises(ValueError):
        w *= 2.0
    t2, w2 = radial_rule(2.75, 10)
    assert np.array_equal(t2, keep_t) and np.array_equal(w2, keep_w)


def test_circle_rule_uniform():
    thetas, wt = circle_rule(8)
    assert wt == pytest.approx(1.0 / 8.0)
    assert thetas[0] == 0.0
    assert np.allclose(np.diff(thetas), math.pi / 4.0)


def test_product_moment_two_factors():
    # E[|z1|^2 |z2|^4] factorizes over independent disk coordinates
    alpha = 2.0
    s = McSampler(alpha, 2, seed=11)
    z = s.sample_block(0, 200_000)
    est = float(np.mean(np.abs(z[:, 0]) ** 2 * np.abs(z[:, 1]) ** 4))
    exact = radial_moment(alpha, 1) * radial_moment(alpha, 2)
    spread = float(np.std(np.abs(z[:, 0]) ** 2 * np.abs(z[:, 1]) ** 4))
    assert abs(est - exact) <= 4.0 * spread / math.sqrt(len(z))


def test_sampler_bitwise_determinism():
    a = McSampler(2.0, 2, seed=7).sample_block(0, 64)
    b = McSampler(2.0, 2, seed=7).sample_block(0, 64)
    assert np.array_equal(a, b)
    c = McSampler(2.0, 2, seed=8).sample_block(0, 64)
    assert not np.array_equal(a, c)


def test_sampler_block_splitting_invariance():
    s = McSampler(1.7, 3, seed=5)
    whole = s.sample_block(0, 100)
    parts = np.concatenate([s.sample_block(0, 37), s.sample_block(37, 63)])
    assert np.array_equal(whole, parts)


def test_sampler_streams_are_independent_addresses():
    base = McSampler(3.0, 1, seed=9, stream_id=0).sample_block(0, 16)
    other = McSampler(3.0, 1, seed=9, stream_id=stream_for("x")).sample_block(0, 16)
    assert not np.array_equal(base, other)


def test_swapped_seed_and_stream_do_not_alias():
    # with a folded key seed ^ stream these pairs would draw the same numbers
    a, b = 5, stream_for("x")
    one = McSampler(2.0, 1, seed=a, stream_id=b).sample_block(0, 16)
    two = McSampler(2.0, 1, seed=b, stream_id=a).sample_block(0, 16)
    assert not np.array_equal(one, two)
    u = unit_uniforms(stream_for("y"), "x", 16)
    v = unit_uniforms(stream_for("x"), "y", 16)
    assert not np.array_equal(u, v)


def test_sampler_points_in_closed_disk():
    # for alpha < 2 the boundary-heavy law can round t to exactly 1.0, and
    # cos^2 + sin^2 may add an ulp; allow that, nothing more
    z = McSampler(1.2, 2, seed=3).sample_block(0, 10_000)
    assert float(np.abs(z).max()) <= 1.0 + 4e-16
    z = McSampler(2.0, 1, seed=3).sample_block(0, 10_000)
    assert float(np.abs(z).max()) < 1.0


def test_sampler_radial_law_moment():
    # |z|^2 has mean 1/alpha; 4-sigma box at 1e5 samples
    alpha = 2.5
    z = McSampler(alpha, 1, seed=123).sample_block(0, 100_000)[:, 0]
    t = np.abs(z) ** 2
    est = float(t.mean())
    sigma = float(t.std()) / math.sqrt(len(t))
    assert abs(est - 1.0 / alpha) <= 4.0 * sigma


# sha256 of sample_block(1001, 257).view(np.uint64) for seed 1729 and stream
# stream_for("pin"): the sampler's output bits, recorded before the in-place
# rewrite of sample_block.  alpha != 2 takes the np.power path with an
# exponent other than 1.
SAMPLER_SHA256 = {
    (1.7, 1): "a870784fd3297f405bcfd1d18157153723b629663d64b75b935f5bc936e84d68",
    (1.7, 3): "c0117a500a99b317124982aaec4c0cfd3da7886dbba56a602660f3d362fce73b",
    (1.7, 64): "390c201574a07a7096af4dda4a374ff1db8066baca717a2bc30930900952c961",
    (2.0, 1): "d18d9ff8b00e599a8aabee9ad42771789b07b97cc8357fb678b6ec54db05618d",
    (2.0, 3): "ee09f1e161bd6b762ae5c8c18f07028681e99c04f24c3f07873188071a0f5323",
    (2.0, 64): "6b600dd9f594cfbbc9f6669927b4ec1522e71ca6b5bfb893c0b0e16bb61ea68b",
    (3.0, 1): "6fbd148ae0e1094dd4efa5eb7720844a2dde1a227d9fa1f9a6c019ee21ae6c3f",
    (3.0, 3): "74b68bbaa9c36fefccf2850b3ee263c91a2a45f04c4f19ef05fff259d5b4bf61",
    (3.0, 64): "ee823c6225ad4bb7919c7c2a3224da92d47202e59e1d0692821cd5e2f994e6df",
}


@pytest.mark.parametrize("alpha, nvars", sorted(SAMPLER_SHA256))
def test_sampler_bits_are_pinned(alpha, nvars):
    s = McSampler(alpha, nvars, seed=1729, stream_id=stream_for("pin"))
    block = s.sample_block(1001, 257)
    assert block.shape == (257, nvars) and block.dtype == np.complex128
    digest = hashlib.sha256(block.view(np.uint64).tobytes()).hexdigest()
    assert digest == SAMPLER_SHA256[(alpha, nvars)]


def test_sample_point_agrees_with_block():
    s = McSampler(2.0, 2, seed=21)
    block = s.sample_block(0, 5)
    for i in range(5):
        assert np.array_equal(s.sample_block(i, 1)[0], block[i])


@given(st.integers(0, 2 ** 31), st.text(max_size=12))
def test_unit_uniforms_deterministic_and_bounded(seed, label):
    u1 = unit_uniforms(seed, label, 32)
    u2 = unit_uniforms(seed, label, 32)
    assert np.array_equal(u1, u2)
    assert np.all(u1 >= 0.0) and np.all(u1 < 1.0)


def test_stream_for_stability():
    assert stream_for("a") != stream_for("b")
    assert stream_for("extremal-q") == stream_for("extremal-q")


def test_invalid_alpha_rejected():
    with pytest.raises(ValueError):
        radial_rule(1.0, 8)
    with pytest.raises(ValueError):
        McSampler(0.5, 1, seed=0)
