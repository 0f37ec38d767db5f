import json
import math

import numpy as np
import pytest
import scipy.stats

from grasp.divergence import KL, TV
from grasp.inference import (
    ConfidenceBound,
    TestOutcome,
    chi2_cdf,
    chi2_quantile,
    ci_lower,
    crt_pvalue,
    perfect_fit_test,
    pvalue_asym,
    pvalue_finite,
    evaluate_counts,
    threshold,
)
from grasp.sampling import BinCounts, EvalSample, RngStream, grasp_counts_simple
from grasp.scores import DatasetScoreFn


def test_chi2_cdf_examples():
    assert chi2_cdf(0.0, 5) == 0.0
    assert chi2_cdf(2.0 * math.log(2.0), 2) == pytest.approx(0.5, abs=1e-12)
    assert chi2_cdf(62.04, 49) == pytest.approx(0.90, abs=1e-3)


def test_chi2_cdf_matches_scipy():
    gen = np.random.default_rng(0)
    for _ in range(200):
        k = int(gen.integers(1, 300))
        x = float(gen.uniform(0, 3 * k + 20))
        ours = chi2_cdf(x, k)
        ref = scipy.stats.chi2.cdf(x, k)
        assert abs(ours - ref) <= 1e-10 * max(1.0, abs(ref)) + 1e-12


def test_chi2_quantile_examples():
    assert chi2_quantile(0.95, 1) == pytest.approx(3.84146, abs=1e-4)
    assert chi2_quantile(0.9, 49) == pytest.approx(scipy.stats.chi2.ppf(0.9, 49), abs=0.01)


def test_chi2_quantile_roundtrip():
    gen = np.random.default_rng(1)
    for _ in range(50):
        k = int(gen.integers(1, 200))
        beta = float(gen.uniform(0.01, 0.99))
        assert chi2_cdf(chi2_quantile(beta, k), k) == pytest.approx(beta, abs=1e-8)


def test_chi2_domain_errors():
    with pytest.raises(ValueError):
        chi2_quantile(0.0, 3)
    with pytest.raises(ValueError):
        chi2_quantile(1.0, 3)
    with pytest.raises(ValueError):
        chi2_cdf(-1.0, 3)


def test_decide_examples():
    thr = threshold("finite", 50, 0.1)
    assert thr == pytest.approx(50 + math.sqrt(1000.0))
    assert 82.0 >= thr
    assert not 50.0 >= thr
    assert threshold("asym", 50, 0.1) == pytest.approx(scipy.stats.chi2.ppf(0.9, 49), abs=1e-8)
    with pytest.raises(ValueError):
        threshold("finite", 50, 1.0)
    with pytest.raises(ValueError):
        threshold("asym", 1, 0.1)


def test_decide_ties_reject():
    # an outcome whose statistic equals the threshold is a reject
    thr = threshold("finite", 50, 0.1)
    assert thr == 50 + math.sqrt(2 * 50 / 0.1)
    fields = dict(threshold=thr, p_value=0.1, variant="finite", tau=0.0, alpha=0.1,
                  L=50, K=None, n=100, divergence="kl", seed=0)
    assert TestOutcome(statistic=thr, reject=True, **fields).reject
    with pytest.raises(ValueError, match="inconsistent"):
        TestOutcome(statistic=thr, reject=False, **fields)


def test_pvalue_finite_examples():
    assert pvalue_finite(30.0, 50) == 1.0
    u = 50 + math.sqrt(2 * 50 / 0.1)
    assert pvalue_finite(u, 50) == pytest.approx(0.1, abs=1e-12)
    assert pvalue_finite(50 + math.sqrt(100.0), 50) == 1.0


def test_pvalue_asym_examples():
    assert pvalue_asym(0.0, 50) == 1.0
    u = chi2_quantile(0.9, 49)
    assert pvalue_asym(u, 50) == pytest.approx(0.1, abs=1e-8)
    assert pvalue_asym(1e4, 50) == pytest.approx(0.0, abs=1e-12)
    # far in the tail, where 1 - cdf would lose every digit
    assert pvalue_asym(746.2, 50) == pytest.approx(2.1402018e-125, rel=1e-6)
    assert pvalue_asym(140.0, 50) == pytest.approx(1.0766487e-10, rel=1e-6)


def test_pvalues_nonincreasing_in_u():
    us = np.linspace(0, 200, 300)
    for L in (10, 50):
        pf = [pvalue_finite(float(u), L) for u in us]
        pa = [pvalue_asym(float(u), L) for u in us]
        assert all(b <= a + 1e-15 for a, b in zip(pf, pf[1:]))
        assert all(b <= a + 1e-15 for a, b in zip(pa, pa[1:]))


def test_pvalue_decision_coherence():
    gen = np.random.default_rng(2)
    for _ in range(300):
        L = int(gen.integers(2, 120))
        alpha = float(gen.uniform(0.01, 0.5))
        u = float(gen.uniform(0, 4 * L))
        asym_reject = u >= threshold("asym", L, alpha)
        assert asym_reject == (pvalue_asym(u, L) <= alpha + 1e-12)
        fin_reject = u >= threshold("finite", L, alpha)
        if u > L:
            assert fin_reject == (2 * L / (u - L) ** 2 <= alpha)
        else:
            assert not fin_reject


def test_evaluate_counts_outcome_schema():
    samples = [
        EvalSample(x=np.zeros(1), y=int(y), eta_hat=0.5, eta=0.5)
        for y in np.random.default_rng(3).integers(0, 2, 400)
    ]
    counts = grasp_counts_simple(samples, L=10, rng=RngStream(4))
    out = evaluate_counts("asym", counts, 0.0, KL, 0.1, seed=4)
    payload = out.to_json_dict()
    assert set(payload) == {
        "statistic", "threshold", "reject", "p_value", "variant",
        "tau", "alpha", "L", "K", "n", "divergence", "seed",
    }
    assert payload["n"] == 400 and payload["variant"] == "asym"
    assert out.reject == (out.statistic >= out.threshold)
    json.dumps(payload)


def test_outcome_invariant_enforced():
    with pytest.raises(ValueError):
        TestOutcome(
            statistic=1.0, threshold=2.0, reject=True, p_value=0.5, variant="asym",
            tau=0.0, alpha=0.1, L=5, K=None, n=10, divergence="kl", seed=0,
        )


def test_ci_lower_uniform_counts_is_zero():
    counts = BinCounts(counts=np.full(10, 20), n=200, L=10)
    for variant in ("asym", "finite"):
        bound = ci_lower(variant, counts, 0.1, KL)
        assert bound.tau_lower == 0.0


def test_ci_lower_positive_when_rejecting():
    counts = BinCounts(counts=np.array([150, 20, 10, 10, 10]), n=200, L=5)
    bound = ci_lower("asym", counts, 0.1, KL)
    assert bound.tau_lower > 0.01


def test_ci_lower_monotone_in_alpha():
    counts = BinCounts(counts=np.array([150, 20, 10, 10, 10]), n=200, L=5)
    for variant in ("asym", "finite"):
        lo_strict = ci_lower(variant, counts, 0.05, KL).tau_lower
        lo_loose = ci_lower(variant, counts, 0.2, KL).tau_lower
        assert lo_strict <= lo_loose + 1e-4


def test_ci_lower_bound_below_empirical_radius():
    counts = BinCounts(counts=np.array([150, 20, 10, 10, 10]), n=200, L=5)
    from grasp.divergence import discrete_divergence_to_uniform

    for div in (KL, TV):
        bound = ci_lower("asym", counts, 0.1, div)
        assert bound.tau_lower <= discrete_divergence_to_uniform(div, counts.counts / 200)


def test_crt_pvalue_examples():
    assert crt_pvalue(0.0, np.ones(9)) == pytest.approx(0.1)
    assert crt_pvalue(2.0, np.ones(9)) == 1.0
    assert crt_pvalue(0.5, np.array([1.0])) == 0.5
    with pytest.raises(ValueError):
        crt_pvalue(0.5, np.array([]))


def test_crt_pvalue_null_uniform_on_grid():
    # exchangeable scores: p lands uniformly on {1/(M+1), ..., 1}
    gen = np.random.default_rng(5)
    M = 9
    ps = []
    for _ in range(2000):
        scores = gen.normal(size=M + 1)
        ps.append(crt_pvalue(scores[0], scores[1:]))
    ps = np.asarray(ps)
    for t in (0.1, 0.2, 0.5):
        assert np.mean(ps <= t) <= t + 3 * math.sqrt(t * (1 - t) / 2000)


def _logistic_samples(n, theta, rng, flip=False):
    gen = rng.generator()
    x = gen.normal(size=(n, theta.size))
    z = x @ theta
    eta = 1.0 / (1.0 + np.exp(-z))
    y = (gen.uniform(size=n) < eta).astype(int)
    eta_hat = 1.0 / (1.0 + np.exp(z)) if flip else eta
    return [
        EvalSample(x=x[j], y=int(y[j]), eta_hat=float(eta_hat[j]), eta=float(eta[j]))
        for j in range(n)
    ]


def test_perfect_fit_deterministic_and_m1():
    theta = np.array([1.0, -0.5])
    data = _logistic_samples(40, theta, RngStream(6))
    o1 = perfect_fit_test(data, 50, DatasetScoreFn.linear_mse(), RngStream(7))
    o2 = perfect_fit_test(data, 50, DatasetScoreFn.linear_mse(), RngStream(7))
    assert o1.p_value == o2.p_value
    assert o1.M == 50 and o1.variant == "crt"
    o3 = perfect_fit_test(data, 1, DatasetScoreFn.linear_mse(), RngStream(8))
    assert o3.p_value in (0.5, 1.0)


def test_perfect_fit_rejects_flipped_model():
    theta = np.array([1.5, -2.0])
    rejections = 0
    for trial in range(20):
        data = _logistic_samples(128, theta, RngStream(60 + trial), flip=True)
        out = perfect_fit_test(data, 99, DatasetScoreFn.linear_mse(), RngStream(600 + trial))
        rejections += out.reject
    assert rejections >= 15


def test_confidence_bound_validation():
    with pytest.raises(ValueError):
        ConfidenceBound(tau_lower=-0.1, alpha=0.1, variant="asym")
