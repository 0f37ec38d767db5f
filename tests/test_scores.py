import numpy as np
import pytest

from grasp.sampling import EvalSample, RngStream, grasp_counts_df
from grasp.scores import (
    DatasetScoreFn,
    ProbModel,
    ScoreFn,
    dataset_score_mse,
    fit_linear_score,
    score_agnostic_modelx,
    score_identity,
    score_linear_residual,
    score_optimal_oracle,
    sigmoid,
)


def test_identity_examples():
    x = np.zeros((1, 3))
    assert score_identity(x, 0.42) == 0.42
    assert score_identity(x, 0.0) == 0.0
    assert score_identity(x, 1.0) == 1.0


def test_agnostic_examples():
    assert score_agnostic_modelx(0.5, 0.2) == pytest.approx(1.0)
    assert score_agnostic_modelx(0.8, 0.9) == pytest.approx(2.5)
    assert score_agnostic_modelx(0.8, 0.3) == pytest.approx(0.625)


def test_oracle_examples():
    for w in (0.0, 0.3, 0.77, 1.0):
        assert score_optimal_oracle(0.6, 0.6, w) == pytest.approx(1.0)
    assert score_optimal_oracle(0.9, 0.5, 0.2) == pytest.approx(1.8)
    assert score_optimal_oracle(0.9, 0.5, 0.7) == pytest.approx(0.2)


def test_tie_at_eta_hat_takes_right_branch():
    assert score_agnostic_modelx(0.8, 0.8) == pytest.approx(2.5)
    assert score_optimal_oracle(0.9, 0.5, 0.5) == pytest.approx(0.2)


def test_agnostic_equals_oracle_at_half():
    gen = np.random.default_rng(0)
    eta_hat = gen.uniform(0, 1, 500)
    w = gen.uniform(0, 1, 500)
    assert np.array_equal(
        score_agnostic_modelx(eta_hat, w), score_optimal_oracle(0.5, eta_hat, w)
    )


def test_scores_finite_in_clamped_range():
    gen = np.random.default_rng(1)
    eta_hat = np.concatenate([[0.0, 1.0], gen.uniform(0, 1, 100)])
    w = gen.uniform(0, 1, eta_hat.size)
    assert np.all(np.isfinite(score_agnostic_modelx(eta_hat, w)))
    assert np.all(np.isfinite(score_optimal_oracle(0.3, eta_hat, w)))


def test_residual_examples():
    theta = np.array([1.0, -1.0])
    x = np.array([[0.2, 0.1]])
    assert score_linear_residual(theta, x, x @ theta) == pytest.approx(0.0)
    assert score_linear_residual(np.zeros(2), x, 0.3) == pytest.approx(0.3)
    assert score_linear_residual(theta, x, 0.4)[0] == pytest.approx(0.3)


def test_residual_dimension_mismatch():
    with pytest.raises(ValueError):
        score_linear_residual(np.zeros(3), np.zeros((1, 2)), 0.5)


def test_fit_linear_score_interpolates():
    gen = np.random.default_rng(2)
    theta_true = gen.normal(size=4)
    X = gen.normal(size=(50, 4))
    w = X @ theta_true
    theta = fit_linear_score(X, w, ridge=0.0)
    assert np.max(np.abs(theta - theta_true)) < 1e-8


def test_fit_linear_score_independent_response():
    gen = np.random.default_rng(3)
    X = gen.normal(size=(10_000, 10))
    w = gen.uniform(-0.5, 0.5, size=10_000)
    theta = fit_linear_score(X, w)
    assert float(np.linalg.norm(theta)) < 0.05


def test_fit_linear_score_ridge_shrinks_to_zero():
    gen = np.random.default_rng(4)
    X = gen.normal(size=(30, 3))
    w = gen.uniform(size=30)
    theta = fit_linear_score(X, w, ridge=1e12)
    assert float(np.linalg.norm(theta)) < 1e-6


def test_fit_linear_score_singular_advises_ridge():
    X = np.ones((5, 2))  # rank deficient
    with pytest.raises(np.linalg.LinAlgError, match="ridge"):
        fit_linear_score(X, np.ones(5), ridge=0.0)
    fit_linear_score(X, np.ones(5), ridge=1e-6)


def test_prob_model_logistic():
    model = ProbModel.logistic_linear(np.array([2.0, -1.0]))
    vals = model.evaluate(np.array([[0.0, 0.0], [10.0, 0.0]]))
    assert vals[0] == pytest.approx(0.5)
    assert 0.0 < vals[1] < 1.0
    assert sigmoid(0.0) == 0.5


def test_dataset_score_perfect_regressor_is_zero():
    gen = np.random.default_rng(5)
    x = gen.normal(size=(40, 2))
    w = x @ np.array([0.2, -0.1]) + 0.5  # exactly linear with intercept
    assert DatasetScoreFn.linear_mse().score(x, w) == pytest.approx(0.0, abs=1e-18)


def test_dataset_score_zero_regressor_second_moment():
    # huge ridge shrinks all coefficients to zero: MSE -> E[w^2] = 1/3
    gen = np.random.default_rng(6)
    x = gen.normal(size=(10_000, 3))
    w = gen.uniform(size=10_000)
    val = dataset_score_mse((x, w), (x, w), DatasetScoreFn.linear_mse(ridge=1e14))
    assert val == pytest.approx(1.0 / 3.0, abs=0.02)


def test_dataset_score_empty_eval_errors():
    x = np.zeros((3, 1))
    w = np.zeros(3)
    with pytest.raises(ValueError):
        dataset_score_mse((x, w), (np.zeros((0, 1)), np.zeros(0)), DatasetScoreFn.linear_mse())


def _random_samples(n, seed):
    gen = np.random.default_rng(seed)
    eta = gen.uniform(0.1, 0.9, n)
    return [
        EvalSample(
            x=gen.normal(size=3),
            y=int(gen.uniform() < eta[j]),
            eta_hat=float(eta[j]),
            eta=float(eta[j]),
        )
        for j in range(n)
    ]


def test_monotone_transform_leaves_counts_unchanged():
    # rank-based binning only sees the ordering of scores
    base = ScoreFn.agnostic()
    transformed = ScoreFn.custom(
        lambda x, w, eta_hat, eta: 2.0 * base.evaluate(x, w, eta_hat, eta) + 7.0,
        needs=("eta_hat",),
    )
    for seed in range(3):
        samples = _random_samples(120, seed)
        c1 = grasp_counts_df(samples, base, L=6, K=3, rng=RngStream(100 + seed))
        c2 = grasp_counts_df(samples, transformed, L=6, K=3, rng=RngStream(100 + seed))
        assert np.array_equal(c1.counts, c2.counts)


def test_external_score_missing_entry():
    fn = ScoreFn.external({(0, 0): 1.0})
    assert fn.external_lookup(0, 0) == 1.0
    with pytest.raises(ValueError):
        fn.external_lookup(0, 1)
    fn = ScoreFn.external({(0, 0): 1.0, (0, 1): 2.0})
    assert fn.external_scores(1, 2).tolist() == [[1.0, 2.0]]
    with pytest.raises(ValueError, match=r"\(0, 1\) lies outside 1 samples x 1 candidates"):
        fn.external_scores(1, 1)


def test_directions_follow_reads_and_theta():
    theta = np.array([0.5, -1.0, 2.0])
    for score in (ScoreFn.identity(), ScoreFn.agnostic(), ScoreFn.oracle()):
        assert "x" not in score.reads and score.directions(3).shape == (3, 0)
    assert ScoreFn.agnostic().reads == {"eta_hat"}
    assert ScoreFn.oracle().reads == {"eta_hat", "eta"}
    residual = ScoreFn.linear_residual(theta)
    assert residual.reads == {"x"}
    assert np.array_equal(residual.directions(3), theta[:, None])
    custom = ScoreFn.custom(lambda x, w, eta_hat, eta: w, needs=("eta",))
    assert custom.reads == {"x", "eta"}
    assert np.array_equal(custom.directions(3), np.eye(3))
    assert ScoreFn.external({(0, 0): 1.0}).fn is None
