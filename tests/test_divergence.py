import math

import numpy as np
import pytest

from grasp.divergence import (
    KL,
    TV,
    HELLINGER,
    bernoulli_divergence_many,
    custom_divergence,
    discrete_divergence_to_uniform,
    get_divergence,
)

ALL = [KL, TV, HELLINGER]


def test_f_eval_examples():
    assert KL.f(np.asarray(1.0)) == 0.0
    assert TV.f(np.asarray(3.0)) == 1.0
    assert HELLINGER.f(np.asarray(4.0)) == 1.0
    assert np.array_equal(TV.f(np.array([0.5, 1.0, 3.0])), [0.25, 0.0, 1.0])


def test_f_eval_boundary_extensions():
    # the continuous extension at t = 0, also inside an array
    assert KL.f(np.asarray(0.0)) == 0.0
    assert TV.f(np.asarray(0.0)) == 0.5
    assert HELLINGER.f(np.asarray(0.0)) == 1.0
    assert np.array_equal(KL.f(np.array([0.0, 1.0])), [0.0, 0.0])


def test_derivative_examples():
    assert KL.f_prime(np.asarray(1.0)) == pytest.approx(1.0, abs=1e-12)
    assert KL.f_second(np.asarray(2.0)) == pytest.approx(0.5, abs=1e-12)
    assert HELLINGER.f_prime(np.asarray(4.0)) == pytest.approx(0.5, abs=1e-12)
    assert HELLINGER.f_second(np.asarray(1.0)) == pytest.approx(0.5, abs=1e-12)
    assert TV.f_prime(np.asarray(0.25)) == -0.5
    assert TV.f_prime(np.asarray(1.0)) == 0.0
    assert TV.f_prime(np.asarray(3.0)) == 0.5
    assert TV.f_second(np.asarray(3.0)) == 0.0
    # the right limits at 0 that let the per-bin minimum stay interior
    assert KL.f_prime(np.asarray(0.0)) == -math.inf
    assert HELLINGER.f_prime(np.asarray(0.0)) == -math.inf


def test_derivatives_match_finite_differences():
    ts = np.linspace(0.05, 10.0, 97)
    ts = ts[np.abs(ts - 1.0) > 1e-3]  # off TV's kink
    h = 1e-6
    for div in ALL:
        fd1 = (div.f(ts + h) - div.f(ts - h)) / (2 * h)
        fd2 = (div.f_prime(ts + h) - div.f_prime(ts - h)) / (2 * h)
        assert np.max(np.abs(div.f_prime(ts) - fd1)) < 1e-6, div.kind
        assert np.max(np.abs(div.f_second(ts) - fd2)) < 1e-4, div.kind


def test_subgradient_inequality_property():
    # f'(q) is a subgradient: f(s) - f(q) >= f'(q) (s - q) for all s >= 0
    rng = np.random.default_rng(11)
    ss = rng.uniform(0.0, 12.0, size=100)
    for div in ALL:
        for q in np.concatenate([rng.uniform(0.01, 6.0, size=20), [1.0]]):
            v = div.f_prime(np.asarray(q))
            lhs = div.f(ss) - div.f(np.asarray(q))
            assert np.all(lhs >= v * (ss - q) - 1e-9), (div.kind, q)


def test_bernoulli_examples():
    assert bernoulli_divergence_many(TV, 0.8, 0.3) == pytest.approx(0.5)
    assert bernoulli_divergence_many(KL, 0.37, 0.37) == 0.0
    assert bernoulli_divergence_many(KL, 0.9, 0.1) == pytest.approx(0.8 * math.log(9.0), abs=1e-12)
    got = bernoulli_divergence_many(KL, [0.37, 0.9], [0.37, 0.1])
    assert got[0] == 0.0 and got[1] == pytest.approx(0.8 * math.log(9.0), abs=1e-12)


def test_bernoulli_nonnegative_and_zero_at_equal():
    rng = np.random.default_rng(5)
    a = rng.uniform(0, 1, 200)
    b = rng.uniform(0, 1, 200)
    for div in ALL:
        vals = bernoulli_divergence_many(div, a, b)
        assert np.all(vals >= 0)
        assert np.all(bernoulli_divergence_many(div, a, a) == 0.0)


def test_bernoulli_degenerate_edges():
    assert bernoulli_divergence_many(KL, 0.5, 0.0) == math.inf
    assert bernoulli_divergence_many(KL, 0.0, 0.0) == 0.0
    assert bernoulli_divergence_many(KL, 1.0, 1.0) == 0.0
    assert bernoulli_divergence_many(TV, 1.0, 0.0) == 1.0
    assert bernoulli_divergence_many(HELLINGER, 1.0, 0.0) == pytest.approx(2.0)
    assert np.array_equal(
        bernoulli_divergence_many(KL, [0.5, 0.0, 0.3], [0.0, 0.0, 0.3]), [math.inf, 0.0, 0.0]
    )


def test_kl_equals_cross_entropy_excess():
    rng = np.random.default_rng(7)
    a = rng.uniform(0.02, 0.98, 300)
    b = rng.uniform(0.02, 0.98, 300)

    def ce(model, truth):
        return -np.mean(truth * np.log(model) + (1 - truth) * np.log(1 - model))

    excess = ce(b, a) - ce(a, a)
    assert np.mean(bernoulli_divergence_many(KL, a, b)) == pytest.approx(excess, abs=1e-10)


def test_hellinger_closed_form_identity():
    rng = np.random.default_rng(9)
    a = rng.uniform(0, 1, 300)
    b = rng.uniform(0, 1, 300)
    expected = (np.sqrt(a) - np.sqrt(b)) ** 2 + (np.sqrt(1 - a) - np.sqrt(1 - b)) ** 2
    assert np.array_equal(bernoulli_divergence_many(HELLINGER, a, b), expected)


def test_discrete_divergence_examples():
    for div in ALL:
        assert discrete_divergence_to_uniform(div, np.full(8, 0.125)) == pytest.approx(0.0)
    assert discrete_divergence_to_uniform(KL, [1.0, 0.0]) == pytest.approx(math.log(2.0))
    assert discrete_divergence_to_uniform(TV, [0.5, 0.5, 0.0, 0.0]) == pytest.approx(0.5)


def test_discrete_divergence_rejects_non_simplex():
    with pytest.raises(ValueError):
        discrete_divergence_to_uniform(KL, [0.5, 0.6])
    with pytest.raises(ValueError):
        discrete_divergence_to_uniform(KL, [-0.1, 1.1])


def test_builtin_generators_validate():
    for div in ALL:
        div.validate()


def test_get_divergence_tokens():
    assert get_divergence("KL") is KL
    assert get_divergence("tv") is TV
    assert get_divergence("hellinger") is HELLINGER
    with pytest.raises(ValueError, match="kl"):
        get_divergence("chi2")


def test_custom_divergence_roundtrip():
    clone = custom_divergence(
        f=KL.f, f_prime=KL.f_prime, f_second=KL.f_second, recession_slope=math.inf
    )
    assert bernoulli_divergence_many(clone, 0.9, 0.2) == pytest.approx(
        bernoulli_divergence_many(KL, 0.9, 0.2), rel=1e-12
    )


def test_custom_clones_match_builtins_bernoulli_many():
    # the generic q f(p/q) path, with its b -> 0 and b -> 1 limits, on a grid
    # that includes a, b in {0, 1}
    grid = np.linspace(0.0, 1.0, 11)
    a, b = (g.ravel() for g in np.meshgrid(grid, grid))
    for div in (KL, HELLINGER):
        clone = custom_divergence(
            f=div.f, f_prime=div.f_prime, f_second=div.f_second,
            recession_slope=div.recession_slope,
        )
        got = bernoulli_divergence_many(clone, a, b)
        want = bernoulli_divergence_many(div, a, b)
        assert np.array_equal(np.isinf(got), np.isinf(want)), div.kind
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15, err_msg=div.kind)
        for ai, bi, gi in zip(a, b, got):
            assert bernoulli_divergence_many(clone, ai, bi) == gi


def test_custom_divergence_rejects_nonconvex():
    with pytest.raises(ValueError):
        custom_divergence(
            f=lambda t: -np.abs(np.asarray(t) - 1.0),
            f_prime=lambda t: -np.sign(np.asarray(t) - 1.0),
            f_second=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        )
