"""Counterfeit sampling, scoring, ranking and binning pipelines.

Produces the multinomial bin-count statistic V = (V_1, ..., V_L) from
held-out samples: each observation yields a randomized value w whose
conditional law matches Unif[0,1] exactly when the model under test equals
the true conditional probability, plus M counterfeit draws.  The original's
score rank among its counterfeits assigns it to one of L bins.

Each pipeline call runs vectorized over all n samples on one generator, the
counts substream of its ``RngStream``, in a fixed draw order: the (n,)
uniforms behind w, then the (n, M) counterfeit w-values, then, in the
model-X variant, the counterfeit features.  Row j of each array belongs to
sample j.  Counterfeit features are drawn only as the projections
x_tilde @ V that the score and the models read (V holds theta of the model
under test, of the true model for the oracle score, and of the residual
score; the identity for custom scores).  This is exact in law: for
x_tilde ~ N(m, s^2 I), x_tilde @ V ~ N(m @ V, s^2 V'V).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .scores import ProbModel, ScoreFn, sigmoid

__all__ = [
    "RngStream",
    "EvalSample",
    "BinCounts",
    "FeatureSampler",
    "rank",
    "assign_label",
    "grasp_counts_df",
    "grasp_counts_simple",
    "grasp_counts_modelx",
]

# Substream key of the count pipelines: callers often draw their data from
# the same RngStream's ``generator()``, which the pipelines must not replay.
_COUNTS = 0
# Counterfeit projections scored at once, in floats: bounds the memory the
# score's temporaries take, whatever M and the number of projections.
_BLOCK = 1 << 13


@dataclass(frozen=True)
class RngStream:
    """Deterministic stream addressed by (seed, stream_id).

    Identical (seed, stream_id) produce identical draw sequences, and
    ``generator(*key)`` addresses independent substreams that are stable
    across platforms and process layouts.
    """

    seed: int
    stream_id: int = 0

    def generator(self, *key: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id, *key))
        )


@dataclass(frozen=True)
class EvalSample:
    """One held-out observation: features, binary label, model score.

    ``eta`` optionally records the true conditional probability; synthetic
    generators fill it so oracle scores can be evaluated in experiments.
    """

    x: np.ndarray
    y: int
    eta_hat: float
    eta: Optional[float] = None

    def __post_init__(self) -> None:
        if self.y not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.y}")
        if not (0.0 <= self.eta_hat <= 1.0):
            raise ValueError(f"eta_hat out of [0,1]: {self.eta_hat}")


@dataclass(frozen=True)
class BinCounts:
    """Multinomial counts over L rank-bins.

    ``K`` is the number of ranks per bin; ``K=None`` marks the simple
    variant (score T(x, w) = w binned directly), which corresponds to the
    K -> infinity limit and has no counterfeit count M.
    """

    counts: np.ndarray
    n: int
    L: int
    K: Optional[int] = None
    M: Optional[int] = None

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if self.L < 1 or counts.shape != (self.L,):
            raise ValueError("counts must have shape (L,) with L >= 1")
        if int(counts.sum()) != self.n:
            raise ValueError(f"counts sum {int(counts.sum())} != n {self.n}")
        if self.K is not None:
            if self.K < 1:
                raise ValueError("K must be >= 1")
            if self.M != self.K * self.L - 1:
                raise ValueError("M must equal K*L - 1")


@dataclass(frozen=True)
class FeatureSampler:
    """Distribution of counterfeit feature rows for the model-X variant.

    Modes: ``gaussian_iso`` is N(mean, sigma^2 I_d); ``pool`` draws rows
    with replacement from an unlabeled feature matrix; ``paired`` gives each
    counterfeit its original sample's own features and eta_hat (a
    degenerate one-row pool per sample, which reduces model-X to the
    fixed-feature case).
    """

    mode: str
    mean: Optional[np.ndarray] = None
    sigma: float = 1.0
    pool: Optional[np.ndarray] = None

    @classmethod
    def gaussian_iso(cls, mean: np.ndarray, sigma: float) -> "FeatureSampler":
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        return cls(mode="gaussian_iso", mean=np.asarray(mean, dtype=float), sigma=sigma)

    @classmethod
    def empirical_pool(cls, pool: np.ndarray) -> "FeatureSampler":
        pool = np.asarray(pool, dtype=float)
        if pool.ndim != 2 or pool.shape[0] == 0:
            raise ValueError("pool must be a nonempty 2-D array")
        return cls(mode="pool", pool=pool)

    @classmethod
    def paired_original(cls) -> "FeatureSampler":
        return cls(mode="paired")

    @property
    def dim(self) -> int:
        if self.mode == "gaussian_iso":
            return self.mean.shape[0]
        if self.mode == "pool":
            return self.pool.shape[1]
        raise ValueError(f"feature-sampler mode {self.mode!r} has no dimension of its own")

    def projector(
        self, V: np.ndarray
    ) -> Callable[[np.random.Generator, Tuple[int, ...]], np.ndarray]:
        """``draw(gen, shape)``: x_tilde @ V for independent rows x_tilde,
        one per index of ``shape``, as an array of shape shape + (k,).

        Successive draws continue one stream, so a shape drawn in blocks of
        leading rows gives the same array as drawn at once.
        """
        V = np.asarray(V, dtype=float)
        if self.mode == "gaussian_iso":
            loc = self.mean @ V
            root = self.sigma * _psd_sqrt(V.T @ V)
            return lambda gen, shape: loc + gen.standard_normal(shape + (V.shape[1],)) @ root
        if self.mode == "pool":
            table = self.pool @ V
            return lambda gen, shape: table[gen.integers(0, table.shape[0], size=shape)]
        raise ValueError(f"feature-sampler mode {self.mode!r} draws no fresh features")


def _psd_sqrt(gram: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix, by eigh: the Gram matrix of
    theta_1 = -theta_0 is singular, which Cholesky rejects."""
    lam, Q = np.linalg.eigh(gram)
    return (Q * np.sqrt(np.clip(lam, 0.0, None))) @ Q.T


def _w_from_uniform(u, y, eta_hat):
    """u * eta_hat where y = 1, eta_hat + u * (1 - eta_hat) where y = 0; elementwise."""
    return np.where(np.asarray(y) == 1, u * eta_hat, eta_hat + u * (1.0 - eta_hat))


def rank(t_orig, t_counterfeits):
    """1 + #{i : t_orig >= t_counterfeits[..., i]}; ties count toward the original.

    Vectorized: t_orig of shape s against counterfeits of shape s + (M,).
    """
    t_orig = np.asarray(t_orig, dtype=float)
    return 1 + np.count_nonzero(t_orig[..., None] >= np.asarray(t_counterfeits), axis=-1)


def assign_label(r, K: int, L: int):
    """Map ranks r in [1, K*L] to their bins ceil(r / K); elementwise."""
    r = np.asarray(r)
    bad = np.atleast_1d(r)[np.atleast_1d((r < 1) | (r > K * L))]
    if bad.size:
        raise RuntimeError(f"rank {bad[0]} outside [1, {K * L}]; rank computation is broken")
    return (r + K - 1) // K


def _require_samples(samples: Sequence[EvalSample]) -> None:
    if len(samples) == 0:
        raise ValueError("samples must be nonempty")


def _labels(samples: Sequence[EvalSample]) -> Tuple[np.ndarray, np.ndarray]:
    n = len(samples)
    y = np.fromiter((s.y for s in samples), dtype=np.int64, count=n)
    eta_hat = np.fromiter((s.eta_hat for s in samples), dtype=float, count=n)
    return y, eta_hat


def grasp_counts_simple(
    samples: Sequence[EvalSample],
    L: int,
    rng: RngStream,
) -> BinCounts:
    """Bin counts with the score T(x, w) = w: bin l covers ((l-1)/L, l/L].

    Equivalent in distribution to the ranked pipeline with the identity
    score as K grows; K is recorded as None since no counterfeits exist.
    """
    _require_samples(samples)
    if L < 1:
        raise ValueError("L must be >= 1")
    y, eta_hat = _labels(samples)
    w = _w_from_uniform(rng.generator(_COUNTS).uniform(size=len(samples)), y, eta_hat)
    labels = np.clip(np.ceil(w * L), 1, L).astype(np.int64)
    counts = np.bincount(labels - 1, minlength=L)
    return BinCounts(counts=counts, n=len(samples), L=L, K=None, M=None)


def grasp_counts_df(
    samples: Sequence[EvalSample],
    score: ScoreFn,
    L: int,
    K: int,
    rng: RngStream,
) -> BinCounts:
    """Bin counts in the fixed-feature setting: the model-X pipeline with
    every counterfeit at its sample's own features and eta_hat."""
    return grasp_counts_modelx(samples, score, None, FeatureSampler.paired_original(), L, K, rng)


def grasp_counts_modelx(
    samples: Sequence[EvalSample],
    score: ScoreFn,
    model: Optional[ProbModel],
    px: FeatureSampler,
    L: int,
    K: int,
    rng: RngStream,
) -> BinCounts:
    """Bin counts in the known-feature-distribution setting.

    For each sample: draw w and M = K*L - 1 counterfeit pairs
    (x_tilde ~ P_X, w_tilde ~ Unif[0,1]), score all candidates, rank the
    original and count the bin holding its rank block.  The model under
    test must be evaluable at counterfeit features whenever the score needs
    eta_hat there.
    """
    _require_samples(samples)
    if K < 1 or L < 1:
        raise ValueError("K and L must be >= 1")
    if "eta_hat" in score.reads and model is None and px.mode != "paired":
        raise ValueError(f"score {score.kind!r} needs a model to score counterfeit features")
    M = K * L - 1
    n = len(samples)
    if score.table is not None:
        t = score.external_scores(n, M + 1)
        ranks = rank(t[:, 0], t[:, 1:])
    else:
        ranks = _ranks(samples, score, model, px, M, rng.generator(_COUNTS))
    counts = np.bincount(assign_label(ranks, K, L) - 1, minlength=L)
    return BinCounts(counts=counts, n=n, L=L, K=K, M=M)


def _ranks(samples, score, model, px, M, gen) -> np.ndarray:
    n = len(samples)
    y, eta_hat = _labels(samples)
    eta = None
    if "eta" in score.reads:
        if any(s.eta is None for s in samples):
            raise ValueError(f"score {score.kind!r} requires samples with true eta set")
        eta = np.fromiter((s.eta for s in samples), dtype=float, count=n)
    w = _w_from_uniform(gen.uniform(size=n), y, eta_hat)
    w_cf = gen.uniform(size=(n, M))
    paired = px.mode == "paired"
    V = score.directions(samples[0].x.size if paired else px.dim)
    k = V.shape[1]
    xv = np.zeros((n, 0))
    if k:
        x = np.stack([s.x for s in samples])
        if x.shape[1] != V.shape[0]:
            raise ValueError(
                f"score reads {V.shape[0]}-dimensional features, samples have {x.shape[1]}"
            )
        xv = x @ V
    t_orig = score.evaluate(xv, w, eta_hat, eta)
    block = _paired(xv, eta_hat, eta) if paired else _fresh(score, model, px, V, gen)
    ranks = np.empty(n, dtype=np.int64)
    rows = max(1, _BLOCK // max(1, M * max(k, 1)))
    for lo in range(0, n, rows):
        hi = min(n, lo + rows)
        m = (hi - lo) * M
        x_cf, eta_hat_cf, eta_cf = block(lo, hi, M)
        t_cf = score.evaluate(
            x_cf.reshape(m, k),
            w_cf[lo:hi].reshape(m),
            eta_hat_cf.reshape(m),
            None if eta_cf is None else eta_cf.reshape(m),
        )
        ranks[lo:hi] = rank(t_orig[lo:hi], t_cf.reshape(hi - lo, M))
    return ranks


def _paired(xv, eta_hat, eta):
    """Counterfeits of samples lo..hi at their sample's own projections,
    eta_hat and eta."""

    def block(lo, hi, M):
        def spread(a):
            return np.broadcast_to(a[lo:hi, None], (hi - lo, M) + a.shape[1:])

        return spread(xv), spread(eta_hat), None if eta is None else spread(eta)

    return block


def _fresh(score, model, px, V, gen):
    """Counterfeits of samples lo..hi at fresh features x_tilde ~ P_X, drawn
    as the projections x_tilde @ [V, theta_1, theta_0] the score reads."""
    k = V.shape[1]
    cols = [V]
    i_hat = i_eta = None
    if "eta_hat" in score.reads:
        i_hat = k
        cols.append(model.theta[:, None])
    if "eta" in score.reads:
        if score.truth is None:
            raise ValueError(f"score {score.kind!r} needs the true model to score counterfeit features")
        truth = score.truth.theta
        if i_hat is not None and np.array_equal(truth, model.theta):
            i_eta = i_hat  # one column, so eta equals eta_hat as on the originals
        else:
            i_eta = k + len(cols) - 1  # after V and theta_1, if drawn
            cols.append(truth[:, None])
    V_all = np.hstack(cols)
    draw = px.projector(V_all) if V_all.shape[1] else None

    def block(lo, hi, M):
        shape = (hi - lo, M)
        z = draw(gen, shape) if draw else np.zeros(shape + (0,))
        eta_hat_cf = np.zeros(shape) if i_hat is None else sigmoid(z[..., i_hat])
        eta_cf = None if i_eta is None else sigmoid(z[..., i_eta])
        return z[..., :k], eta_hat_cf, eta_cf

    return block
