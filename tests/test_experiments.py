import warnings

import numpy as np
import pytest
import scipy.stats

from grasp.divergence import KL, TV
from grasp.experiments import (
    ExperimentSpec,
    gen_logistic_data,
    make_theta0,
    run_power_table,
    run_size_table,
    tau0_monte_carlo,
)
from grasp.inference import evaluate_counts
from grasp.sampling import BinCounts, RngStream
from grasp.scores import sigmoid


def test_gen_logistic_zero_theta_gives_half():
    data = gen_logistic_data(np.zeros(3), 50, RngStream(0))
    assert all(s.eta == 0.5 and s.eta_hat == 0.5 for s in data)


def test_gen_logistic_label_mean_near_half():
    theta = make_theta0(50, 0.25, RngStream(1, 0))
    data = gen_logistic_data(theta, 100_000, RngStream(1, 1))
    assert abs(np.mean([s.y for s in data]) - 0.5) < 0.01


def test_gen_logistic_deterministic():
    theta = np.array([0.5, -0.25])
    d1 = gen_logistic_data(theta, 20, RngStream(7, 3), theta1=-theta)
    d2 = gen_logistic_data(theta, 20, RngStream(7, 3), theta1=-theta)
    assert all(np.array_equal(a.x, b.x) and a.y == b.y for a, b in zip(d1, d2))
    assert d1[0].eta_hat == pytest.approx(float(sigmoid(-d1[0].x @ theta)))


def test_tau0_same_models_exactly_zero():
    theta = make_theta0(20, 0.25, RngStream(2, 0))
    est, se = tau0_monte_carlo(theta, theta, KL, 10_000, RngStream(2, 1))
    assert est == 0.0 and se == 0.0


def test_tau0_symmetric_flip_positive():
    theta = make_theta0(20, 0.25, RngStream(3, 0))
    est, se = tau0_monte_carlo(theta, -theta, TV, 50_000, RngStream(3, 1))
    assert est > 0 and se > 0
    assert est <= 1.0  # TV distance bound


def _label_uniformity(counts):
    """Pearson's statistic against the uniform multinomial and its chi-square
    p-value: the asym statistic at tau = 0."""
    outcome = evaluate_counts("asym", counts, 0.0, KL, 0.1)
    return outcome.statistic, outcome.p_value


def test_label_uniformity_examples():
    stat, p = _label_uniformity(BinCounts(np.full(4, 25)))
    assert stat == 0.0 and p == pytest.approx(1.0)
    stat, _ = _label_uniformity(BinCounts(np.array([10, 0])))
    assert stat == pytest.approx(10.0)


def test_label_uniformity_pvalue_keeps_far_tail_precision():
    # 1 - cdf rounds this tail to 0.0
    stat, p = _label_uniformity(BinCounts(np.array([300, 0, 0, 0, 0])))
    assert stat == pytest.approx(1200.0)
    assert p == pytest.approx(scipy.stats.chi2.sf(1200.0, 4), rel=1e-6)
    assert p > 0.0


def test_label_uniformity_pvalues_uniform_under_null():
    # null counts are uniform-multinomial; p-values should look Unif[0,1]
    gen = np.random.default_rng(30)
    n, L, trials = 50_000, 50, 200
    ps = []
    for _ in range(trials):
        counts = BinCounts(gen.multinomial(n, np.full(L, 1.0 / L)))
        ps.append(_label_uniformity(counts)[1])
    ps = np.sort(ps)
    grid = np.arange(1, trials + 1) / trials
    ks = max(
        float(np.max(np.abs(ps - grid))),
        float(np.max(np.abs(ps - (grid - 1.0 / trials)))),
    )
    assert ks < 0.05


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(n=0, d=1, L=2, trials=1, seed=0)
    with pytest.raises(ValueError):
        ExperimentSpec(n=50_000, d=1, L=2, trials=1, seed=0)
    ExperimentSpec(n=50_000, d=1, L=2, trials=1, seed=0, extended=True)
    with pytest.raises(ValueError):
        ExperimentSpec(n=10, d=1, L=2, trials=1, seed=0, theta1_rule="inverted")
    with pytest.raises(ValueError):
        ExperimentSpec(n=10, d=1, L=2, trials=1, seed=0, divergence="chi2")
    with pytest.raises(ValueError):
        ExperimentSpec(n=10, d=1, L=2, trials=1, seed=0, alphas=(1.5,))
    for bad in (
        dict(tau_grid=(float("nan"),)),
        dict(tau_grid=(0.1, float("inf"))),
        dict(sigma_theta=float("nan")),
        dict(sigma_theta=float("inf")),
        dict(theta1_scale=float("nan")),
    ):
        with pytest.raises(ValueError, match="finite"):
            ExperimentSpec(n=10, d=1, L=2, trials=1, seed=0, **bad)


def test_run_size_table_guards():
    spec = ExperimentSpec(n=10, d=2, L=2, trials=1, seed=0, theta1_rule="negated")
    with pytest.raises(ValueError):
        run_size_table(spec)
    spec = ExperimentSpec(n=10, d=2, L=2, trials=1, seed=0, tau_grid=(0.1,))
    with pytest.raises(ValueError):
        run_size_table(spec)


def test_run_power_table_guards_and_warning():
    spec = ExperimentSpec(n=10, d=2, L=2, trials=1, seed=0)
    with pytest.raises(ValueError):
        run_power_table(spec)
    spec = ExperimentSpec(
        n=200, d=2, L=2, trials=1, seed=0, theta1_rule="negated",
        divergence="tv", tau_grid=(0.99,),
    )
    with pytest.warns(UserWarning, match="power may be trivial"):
        run_power_table(spec)


def test_single_trial_rates_are_binary():
    spec = ExperimentSpec(n=500, d=5, L=10, trials=1, seed=11)
    rows = run_size_table(spec)
    for row in rows:
        assert row.rejection_rate_asym in (0.0, 1.0)
        assert row.rejection_rate_finite in (0.0, 1.0)


def test_size_table_shares_trials_across_alphas():
    spec = ExperimentSpec(n=800, d=5, L=10, trials=6, seed=12, alphas=(0.05, 0.1, 0.15))
    rows = run_size_table(spec)
    assert [r.alpha for r in rows] == [0.05, 0.1, 0.15]
    # stricter alpha can never reject more often on the same trials
    assert rows[0].rejection_rate_asym <= rows[1].rejection_rate_asym <= rows[2].rejection_rate_asym


def test_size_table_deterministic():
    spec = ExperimentSpec(n=400, d=4, L=8, trials=4, seed=13)
    r1 = run_size_table(spec)
    r2 = run_size_table(spec)
    assert r1 == r2


def test_power_monotone_in_tau_with_common_randomness():
    spec = ExperimentSpec(
        n=1000, d=20, L=20, trials=8, seed=14, theta1_rule="negated",
        divergence="kl", tau_grid=(0.2, 0.5, 0.9, 1.4), alphas=(0.1,),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = run_power_table(spec)
    asym = [r.rejection_rate_asym for r in rows]
    fin = [r.rejection_rate_finite for r in rows]
    assert asym == sorted(asym, reverse=True)
    assert fin == sorted(fin, reverse=True)


def test_modelx_size_runs():
    spec = ExperimentSpec(
        n=400, d=5, L=8, K=2, trials=3, seed=15, mode="modelx", score="agnostic"
    )
    rows = run_size_table(spec)
    assert len(rows) == 1
    assert 0.0 <= rows[0].rejection_rate_asym <= 1.0


def test_modelx_oracle_score_at_least_as_powerful_as_identity():
    # directional check below the true divergence; allow one grid violation
    taus = (0.3, 0.6)
    common = dict(
        n=2000, d=20, L=20, K=1, trials=30, seed=16, theta1_rule="negated",
        divergence="kl", tau_grid=taus, alphas=(0.1,), mode="modelx",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        oracle_rows = run_power_table(ExperimentSpec(score="oracle", **common))
        ident_rows = run_power_table(ExperimentSpec(score="identity", **common))
    violations = sum(
        1
        for o, i in zip(oracle_rows, ident_rows)
        if o.rejection_rate_asym < i.rejection_rate_asym - 1e-9
    )
    assert violations <= 1


def test_residual_score_df_runs():
    spec = ExperimentSpec(
        n=300, d=4, L=6, K=2, trials=2, seed=17, mode="df", score="residual", aux_size=200
    )
    rows = run_size_table(spec)
    assert rows[0].trials == 2


def test_tau0_projection_matches_full_feature_draws():
    # tau0_monte_carlo draws (x.theta0, x.theta1); drawing all of x must
    # give the same expectation
    theta0 = make_theta0(6, 0.8, RngStream(5, 0))
    est, se = tau0_monte_carlo(theta0, -0.5 * theta0, KL, 200_000, RngStream(5, 1))
    x = np.random.default_rng(6).standard_normal((200_000, 6))
    p, q = sigmoid(x @ theta0), sigmoid(x @ (-0.5 * theta0))
    vals = p * np.log(p / q) + (1 - p) * np.log((1 - p) / (1 - q))
    full_se = float(np.std(vals)) / np.sqrt(vals.size)
    assert abs(est - float(np.mean(vals))) < 4.0 * np.hypot(se, full_se)


def test_modelx_scores_reading_two_directions_run():
    # oracle: (x.theta1, x.theta0) with theta1 = -2 theta0 is singular;
    # residual: the score's own theta, no model needed
    common = dict(n=300, d=4, L=5, K=2, trials=2, mode="modelx")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = run_power_table(ExperimentSpec(
            seed=18, score="oracle", theta1_rule="negated_scaled", theta1_scale=2.0,
            tau_grid=(0.1,), **common,
        ))
    assert rows[0].rejection_rate_asym in (0.0, 0.5, 1.0)
    rows = run_size_table(ExperimentSpec(seed=19, score="residual", aux_size=200, **common))
    assert rows[0].trials == 2
