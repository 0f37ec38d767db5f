import numpy as np
import pytest
from scipy.stats import chi2_contingency

from grasp.inference import chi2_quantile
from grasp.sampling import (
    BinCounts,
    EvalSample,
    FeatureSampler,
    RngStream,
    assign_label,
    grasp_counts_df,
    grasp_counts_modelx,
    grasp_counts_simple,
    rank,
)
from grasp import sampling
from grasp.scores import ProbModel, ScoreFn, score_agnostic_modelx, sigmoid


def _sample(y, eta_hat, x=None, eta=None):
    return EvalSample(x=np.asarray(x if x is not None else [0.0]), y=y, eta_hat=eta_hat, eta=eta)


def _null_samples(n, seed=0):
    # eta_hat equals the true conditional probability
    gen = np.random.default_rng(seed)
    eta = gen.uniform(0.05, 0.95, size=n)
    y = (gen.uniform(size=n) < eta).astype(int)
    x = gen.normal(size=(n, 2))
    return [EvalSample(x=x[j], y=int(y[j]), eta_hat=float(eta[j]), eta=float(eta[j])) for j in range(n)]


def test_draw_w_interval_bounds():
    # w ~ Unif[0, eta_hat] for y = 1 and Unif[eta_hat, 1] for y = 0
    u = RngStream(1).generator().uniform(size=1000)
    w = sampling._w_from_uniform(u, 1, 0.5)
    assert np.all((0.0 <= w) & (w <= 0.5)) and w.max() > 0.49
    w0 = sampling._w_from_uniform(u, 0, 0.0)
    assert np.all((0.0 <= w0) & (w0 <= 1.0)) and w0.max() > 0.99
    # with L = 2 the bin boundary is 1/2, so the pipeline bins by the label
    ones = grasp_counts_simple([_sample(1, 0.5)] * 200, 2, RngStream(1))
    zeros = grasp_counts_simple([_sample(0, 0.5)] * 200, 2, RngStream(1))
    assert ones.counts.tolist() == [200, 0] and zeros.counts.tolist() == [0, 200]


def test_draw_w_degenerate_endpoints():
    u = np.array([0.0, 0.3, 0.999])
    assert np.array_equal(sampling._w_from_uniform(u, 1, 0.0), np.zeros(3))
    assert np.array_equal(sampling._w_from_uniform(u, 0, 1.0), np.ones(3))
    counts = grasp_counts_simple([_sample(1, 0.0), _sample(0, 1.0)], 4, RngStream(2))
    assert counts.counts.tolist() == [1, 0, 0, 1]  # w = 0 clips into the first bin


def test_draw_w_deterministic():
    samples = _null_samples(200, seed=3)
    first = grasp_counts_simple(samples, 10, RngStream(42, 3)).counts
    assert np.array_equal(first, grasp_counts_simple(samples, 10, RngStream(42, 3)).counts)
    assert not np.array_equal(first, grasp_counts_simple(samples, 10, RngStream(42, 4)).counts)


def test_draw_w_uniform_under_null_ks():
    # pooled w over matched-model data is Unif[0,1]: KS distance < 0.02 at n=1e4
    n = 10_000
    y, eta_hat = sampling._labels(_null_samples(n, seed=10))
    ws = sampling._w_from_uniform(RngStream(77).generator().uniform(size=n), y, eta_hat)
    sorted_w = np.sort(ws)
    grid = (np.arange(1, n + 1)) / n
    ks = max(
        float(np.max(np.abs(sorted_w - grid))),
        float(np.max(np.abs(sorted_w - (grid - 1.0 / n)))),
    )
    assert ks < 0.02


def test_rank_examples():
    assert rank(5.0, np.array([1.0, 2.0, 3.0])) == 4
    assert rank(0.0, np.array([0.5, 1.0, 2.0])) == 1
    assert rank(2.0, np.array([2.0, 3.0])) == 2


def test_assign_label_examples():
    assert assign_label(3, K=2, L=5) == 2
    assert assign_label(1, K=2, L=5) == 1
    assert assign_label(10, K=2, L=5) == 5


def test_assign_label_out_of_range():
    with pytest.raises(RuntimeError):
        assign_label(11, K=2, L=5)
    with pytest.raises(RuntimeError):
        assign_label(0, K=2, L=5)


def test_rank_range_invariant():
    gen = np.random.default_rng(3)
    for _ in range(200):
        M = int(gen.integers(1, 30))
        r = rank(float(gen.normal()), gen.normal(size=M))
        assert 1 <= r <= M + 1


def test_bincounts_validation():
    for bad in ([[1, 2]], [], [1.0, 2.0], [1, -2]):
        with pytest.raises(ValueError):
            BinCounts(np.array(bad))
    with pytest.raises(ValueError):
        BinCounts(np.array([1, 2]), K=0)
    ok = BinCounts(np.array([1, 2]), K=2)
    assert (ok.n, ok.L, ok.K) == (3, 2, 2)
    simple = BinCounts([4, 0, 1])
    assert (simple.n, simple.L, simple.K) == (5, 3, None)
    assert simple.counts.dtype == np.int64


def test_counts_sum_and_determinism_df():
    samples = _null_samples(7, seed=1)
    c1 = grasp_counts_df(samples, ScoreFn.identity(), L=3, K=2, rng=RngStream(5))
    c2 = grasp_counts_df(samples, ScoreFn.identity(), L=3, K=2, rng=RngStream(5))
    assert int(c1.counts.sum()) == 7
    assert np.array_equal(c1.counts, c2.counts)
    c3 = grasp_counts_df(samples, ScoreFn.identity(), L=3, K=2, rng=RngStream(6))
    assert c1.n == c3.n == 7
    # K = L = 1 leaves no counterfeits: every sample has rank 1
    c4 = grasp_counts_df(samples, ScoreFn.agnostic(), L=1, K=1, rng=RngStream(6))
    assert c4.L == 1 and c4.counts.tolist() == [7]


def test_simple_binning_convention():
    # w = 0.31 with L = 10 lands in bin 4 = (0.3, 0.4]
    sample = _sample(1, 0.31)  # y=1, eta_hat=0.31: w = u * 0.31 <= 0.31
    counts = grasp_counts_simple([sample], L=10, rng=RngStream(0))
    assert counts.counts.sum() == 1
    label = int(np.argmax(counts.counts)) + 1
    assert 1 <= label <= 4


def test_simple_counts_sum():
    samples = _null_samples(500, seed=2)
    counts = grasp_counts_simple(samples, L=13, rng=RngStream(9))
    assert int(counts.counts.sum()) == 500
    assert counts.K is None


def test_df_null_counts_uniform_pearson():
    # matched model, identity score: counts are uniform-multinomial
    n, L, K = 20_000, 50, 2
    samples = _null_samples(n, seed=21)
    counts = grasp_counts_df(samples, ScoreFn.identity(), L=L, K=K, rng=RngStream(13))
    expected = n / L
    pearson = float(np.sum((counts.counts - expected) ** 2) / expected)
    assert pearson < chi2_quantile(0.99, L - 1)


def test_simple_null_frequencies_near_uniform():
    n, L = 50_000, 50
    samples = _null_samples(n, seed=22)
    counts = grasp_counts_simple(samples, L=L, rng=RngStream(14))
    freqs = counts.counts / n
    assert float(np.max(np.abs(freqs - 1.0 / L))) < 3.0 * np.sqrt(L / n)


def test_modelx_counts_sum_and_boundary_score():
    samples = _null_samples(50, seed=4)
    model = ProbModel.logistic_linear(np.array([0.3, -0.2]))
    px = FeatureSampler.gaussian_iso(np.zeros(2), 1.0)
    counts = grasp_counts_modelx(
        samples, ScoreFn.agnostic(), model, px, L=5, K=2, rng=RngStream(3)
    )
    assert int(counts.counts.sum()) == 50
    assert (counts.n, counts.L, counts.K) == (50, 5, 2)
    single = grasp_counts_modelx(samples, ScoreFn.agnostic(), model, px, L=1, K=1, rng=RngStream(3))
    assert single.counts.tolist() == [50]


def test_modelx_reduces_to_df_with_paired_features():
    # px=None keeps each counterfeit at its own sample's features and eta_hat
    samples = _null_samples(400, seed=6)
    for score in (ScoreFn.identity(), ScoreFn.agnostic()):
        cx = grasp_counts_modelx(samples, score, None, None, L=10, K=2, rng=RngStream(8))
        cdf = grasp_counts_df(samples, score, L=10, K=2, rng=RngStream(8))
        assert np.array_equal(cx.counts, cdf.counts)


def test_modelx_needs_model_for_agnostic():
    samples = _null_samples(5, seed=7)
    px = FeatureSampler.gaussian_iso(np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        grasp_counts_modelx(samples, ScoreFn.agnostic(), None, px, L=2, K=1, rng=RngStream(0))


def test_empirical_pool_sampler():
    pool = np.arange(12.0).reshape(6, 2)
    px = FeatureSampler.empirical_pool(pool)
    # with V = I the projections are the drawn rows themselves
    draws = px.projector(np.eye(2))(RngStream(4).generator(), (100,))
    assert draws.shape == (100, 2)
    assert all(any(np.array_equal(row, p) for p in pool) for row in draws[:10])
    # a projection is the projection of a pool row
    theta = np.array([0.5, -2.0])
    proj = px.projector(theta[:, None])(RngStream(4).generator(), (10, 7))
    assert proj.shape == (10, 7, 1)
    assert set(proj.ravel().tolist()) <= set((pool @ theta).tolist())
    with pytest.raises(ValueError):
        FeatureSampler.empirical_pool(np.empty((0, 2)))


def test_external_score_pipeline():
    samples = _null_samples(3, seed=8)
    j, i = np.divmod(np.arange(18), 6)
    score = np.where(i == 0, 10.0, i)  # originals always above the counterfeits
    order = np.random.default_rng(9).permutation(18)  # rows in any order
    external = ScoreFn.external(j[order], i[order], score[order])
    assert np.array_equal(external.external_scores(3, 6), score.reshape(3, 6))
    counts = grasp_counts_df(samples, external, L=3, K=2, rng=RngStream(11))
    assert counts.counts[-1] == 3  # rank 6 of 6 lands in the last bin


def test_eval_sample_validation():
    with pytest.raises(ValueError):
        EvalSample(x=np.array([0.0]), y=2, eta_hat=0.5)
    with pytest.raises(ValueError):
        EvalSample(x=np.array([0.0]), y=1, eta_hat=1.5)


def _logistic_samples(n, theta0, theta1, seed):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, theta0.size))
    eta = sigmoid(x @ theta0)
    y = (gen.uniform(size=n) < eta).astype(int)
    eta_hat = sigmoid(x @ theta1)
    return [
        EvalSample(x=x[j], y=int(y[j]), eta_hat=float(eta_hat[j]), eta=float(eta[j]))
        for j in range(n)
    ]


def test_projected_counts_follow_the_full_draw_law():
    # the agnostic score reads counterfeit features only through x.theta1;
    # a custom score that computes eta_hat from all of x draws full rows
    # (V = I_d), so both pipelines must give counts of one law
    theta0 = np.array([1.2, -0.7, 0.4])
    theta1 = -0.8 * theta0
    n, L = 20_000, 10
    samples = _logistic_samples(n, theta0, theta1, seed=40)
    model = ProbModel.logistic_linear(theta1)
    px = FeatureSampler.gaussian_iso(np.zeros(3), 1.0)
    full = ScoreFn.custom(lambda x, w, eta_hat, eta: score_agnostic_modelx(sigmoid(x @ theta1), w))
    projected = grasp_counts_modelx(samples, ScoreFn.agnostic(), model, px, L, 1, RngStream(41))
    drawn = grasp_counts_modelx(samples, full, model, px, L, 1, RngStream(42))
    assert chi2_contingency(np.stack([projected.counts, drawn.counts]))[1] > 1e-4
    # the same comparison sees a counterfeit law off by a feature scale of 1.5
    wide = FeatureSampler.gaussian_iso(np.zeros(3), 1.5)
    off = grasp_counts_modelx(samples, full, model, wide, L, 1, RngStream(43))
    assert chi2_contingency(np.stack([projected.counts, off.counts]))[1] < 1e-6


def test_oracle_score_with_negated_model_has_singular_covariance():
    # theta1 = -theta0: (x.theta1, x.theta0) has a singular covariance
    theta0 = np.array([0.9, 0.3, -0.5])
    samples = _logistic_samples(300, theta0, -theta0, seed=44)
    score = ScoreFn.oracle(ProbModel.logistic_linear(theta0))
    model = ProbModel.logistic_linear(-theta0)
    px = FeatureSampler.gaussian_iso(np.zeros(3), 1.0)
    counts = grasp_counts_modelx(samples, score, model, px, L=5, K=2, rng=RngStream(45))
    assert int(counts.counts.sum()) == 300
    z = px.projector(np.column_stack([-theta0, theta0]))(RngStream(46).generator(), (1000,))
    assert np.allclose(z[:, 0], -z[:, 1], atol=1e-9)
    assert np.std(z[:, 1]) == pytest.approx(np.linalg.norm(theta0), rel=0.1)


def test_oracle_score_needs_the_true_model_for_fresh_features():
    samples = _null_samples(5, seed=47)
    model = ProbModel.logistic_linear(np.array([0.3, -0.2]))
    px = FeatureSampler.gaussian_iso(np.zeros(2), 1.0)
    with pytest.raises(ValueError, match="true model"):
        grasp_counts_modelx(samples, ScoreFn.oracle(), model, px, L=2, K=1, rng=RngStream(0))
    # paired counterfeits reuse each sample's own eta
    counts = grasp_counts_df(samples, ScoreFn.oracle(), L=2, K=1, rng=RngStream(0))
    assert int(counts.counts.sum()) == 5


def test_external_score_missing_entry_raises_in_pipeline():
    samples = _null_samples(3, seed=8)
    j, i = np.divmod(np.arange(18), 6)
    keep = (j != 1) | (i != 3)
    external = ScoreFn.external(j[keep], i[keep], i[keep].astype(float))
    with pytest.raises(ValueError, match=r"missing entry \(1, 3\)"):
        grasp_counts_df(samples, external, L=3, K=2, rng=RngStream(11))


def test_counts_do_not_depend_on_the_block_size(monkeypatch):
    theta = np.array([0.3, -0.2])
    samples = _null_samples(300, seed=48)
    model = ProbModel.logistic_linear(theta)
    residual = ScoreFn.linear_residual(theta)
    pool = np.random.default_rng(49).normal(size=(40, 2))
    cases = [
        (ScoreFn.agnostic(), FeatureSampler.gaussian_iso(np.zeros(2), 1.0)),
        (ScoreFn.agnostic(), FeatureSampler.empirical_pool(pool)),
        (residual, FeatureSampler.gaussian_iso(np.zeros(2), 1.0)),
        (residual, None),
    ]
    before = [grasp_counts_modelx(samples, s, model, px, 4, 2, RngStream(50)) for s, px in cases]
    monkeypatch.setattr(sampling, "_BLOCK", 7 * 7)  # 7 rows of 7 counterfeits a block
    after = [grasp_counts_modelx(samples, s, model, px, 4, 2, RngStream(50)) for s, px in cases]
    for b, a in zip(before, after):
        assert np.array_equal(b.counts, a.counts)


def test_pipelines_match_a_per_sample_loop():
    # reference loop over the documented draw order, all from one generator:
    # w (n,), then w~ (n, M), then the features' projections (n, M, 1)
    samples = _null_samples(200, seed=51)
    n, L, K = len(samples), 5, 2
    M = K * L - 1
    theta = np.array([0.3, -0.2])
    gen = RngStream(52).generator(sampling._COUNTS)
    u, w_cf = gen.uniform(size=n), gen.uniform(size=(n, M))
    z = gen.standard_normal((n, M)) * np.linalg.norm(theta)
    simple = np.zeros(L, dtype=np.int64)
    ranked = np.zeros(L, dtype=np.int64)
    modelx = np.zeros(L, dtype=np.int64)
    for j, s in enumerate(samples):
        w = u[j] * s.eta_hat if s.y == 1 else s.eta_hat + u[j] * (1.0 - s.eta_hat)
        simple[min(max(1, int(np.ceil(w * L))), L) - 1] += 1
        r = 1 + sum(w >= v for v in w_cf[j])
        ranked[(r + K - 1) // K - 1] += 1
        t = score_agnostic_modelx(s.eta_hat, w)
        r = 1 + sum(t >= v for v in score_agnostic_modelx(sigmoid(z[j]), w_cf[j]))
        modelx[(r + K - 1) // K - 1] += 1
    assert np.array_equal(grasp_counts_simple(samples, L, RngStream(52)).counts, simple)
    counts = grasp_counts_df(samples, ScoreFn.identity(), L, K, RngStream(52))
    assert np.array_equal(counts.counts, ranked)
    model = ProbModel.logistic_linear(theta)
    px = FeatureSampler.gaussian_iso(np.zeros(2), 1.0)
    counts = grasp_counts_modelx(samples, ScoreFn.agnostic(), model, px, L, K, RngStream(52))
    assert np.array_equal(counts.counts, modelx)
