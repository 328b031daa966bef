"""Quadrature rules and the deterministic sampler."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

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


def test_radial_rule_first_moment_alpha3():
    t, w = radial_rule(3.0, 32)
    assert float(w @ t) == pytest.approx(1.0 / 3.0, abs=1e-14)


@pytest.mark.parametrize("alpha", [1.25, 2.0, 3.0, 5.5])
def test_radial_rule_moment_table(alpha):
    K = 12
    t, w = radial_rule(alpha, K)
    assert float(w.sum()) == pytest.approx(1.0, abs=1e-13)
    for k in range(2 * K):
        exact = radial_moment(alpha, k)
        assert float(w @ t ** k) == pytest.approx(exact, rel=1e-13)


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


def test_sample_point_agrees_with_block():
    s = McSampler(2.0, 2, seed=21)
    block = s.sample_block(0, 5)
    for i in range(5):
        assert np.array_equal(s.sample_point(i), block[i])


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
