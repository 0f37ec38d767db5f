"""Synthetic logistic benchmarks: data generation, Monte-Carlo tolerance
estimation, and the size/power simulation harness.

The benchmark draws features from an isotropic Gaussian and labels from a
logistic model with a coefficient vector drawn once per suite from
N(0, sigma^2 I_d) and persisted; the model under test is another logistic
model related to the truth by a configurable rule (identical for size
studies, negated or negated-and-scaled for power studies).  Trials share a
base seed, each trial running on its own stream, and the whole tau grid
within a trial reuses the same bin counts (the counts do not depend on tau),
which is also what makes power monotone across the grid trial-by-trial.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .divergence import FDivergence, bernoulli_divergence_many, get_divergence
from .inference import threshold
from .sampling import (
    BinCounts,
    EvalSample,
    FeatureSampler,
    RngStream,
    _labels,
    _w_from_uniform,
    grasp_counts_modelx,
    grasp_counts_simple,
)
from .scores import ProbModel, ScoreFn, fit_linear_score, sigmoid
from .solver import StatVariant, u_stat_exceeds

__all__ = [
    "ExperimentSpec",
    "ResultRow",
    "make_theta0",
    "theta1_from_rule",
    "gen_logistic_data",
    "tau0_monte_carlo",
    "run_size_table",
    "run_power_table",
]

# Desk-scale cap; larger n is allowed only in extended mode.
_N_CAP = 20_000
# Monte-Carlo draws of tau0_monte_carlo per block: bounds its memory.
_TAU0_BLOCK = 20_000

_THETA_RULES = ("same", "negated", "negated_scaled")
_MODES = ("df", "modelx")
_SCORES = ("identity", "agnostic", "oracle", "residual")


@dataclass(frozen=True)
class ExperimentSpec:
    """Configuration of one size/power simulation suite."""

    n: int
    d: int
    L: int
    trials: int
    seed: int
    sigma_theta: float = 0.25
    theta1_rule: str = "same"
    theta1_scale: float = 1.0
    K: int = 1
    divergence: str = "kl"
    tau_grid: Tuple[float, ...] = (0.0,)
    alphas: Tuple[float, ...] = (0.1,)
    mode: str = "df"
    score: str = "identity"
    variants: Tuple[str, ...] = ("asym", "finite")
    aux_size: int = 4000
    extended: bool = False

    def __post_init__(self) -> None:
        for name in ("n", "d", "L", "K", "trials", "seed", "aux_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if min(self.n, self.d, self.L, self.K, self.trials, self.aux_size) < 1:
            raise ValueError("n, d, L, K, trials and aux_size must all be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not isinstance(self.extended, bool):
            raise ValueError("extended must be true or false")
        if not (self.tau_grid and self.alphas and self.variants):
            raise ValueError("tau_grid, alphas and variants must be nonempty")
        if not all(math.isfinite(v) for v in (self.sigma_theta, self.theta1_scale, *self.tau_grid)):
            raise ValueError("sigma_theta, theta1_scale and tau values must be finite")
        if self.n > _N_CAP and not self.extended:
            raise ValueError(f"n > {_N_CAP} requires extended=True")
        if self.sigma_theta <= 0:
            raise ValueError("sigma_theta must be positive")
        if self.theta1_rule not in _THETA_RULES:
            raise ValueError(f"theta1_rule must be one of {_THETA_RULES}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if self.score not in _SCORES:
            raise ValueError(f"score must be one of {_SCORES}")
        for a in self.alphas:
            if not 0.0 < a < 1.0:
                raise ValueError("alphas must lie strictly inside (0, 1)")
        for t in self.tau_grid:
            if t < 0:
                raise ValueError("tau values must be nonnegative")
        for v in self.variants:
            StatVariant(v)
        if not isinstance(self.divergence, str):
            raise ValueError(f"divergence must be a name, got {self.divergence!r}")
        get_divergence(self.divergence)


@dataclass(frozen=True)
class ResultRow:
    """One simulation cell: configuration echo plus rejection rates."""

    mode: str
    score: str
    divergence: str
    n: int
    d: int
    L: int
    K: Optional[int]
    tau: float
    alpha: float
    trials: int
    seed: int
    rejection_rate_asym: float
    rejection_rate_finite: float


def make_theta0(d: int, sigma: float, rng: RngStream) -> np.ndarray:
    """The persisted coefficient draw from N(0, sigma^2 I_d)."""
    return sigma * rng.generator().standard_normal(d)


def theta1_from_rule(theta0: np.ndarray, rule: str, scale: float = 1.0) -> np.ndarray:
    """The test model's coefficients: theta0 itself, -theta0, or -scale * theta0."""
    if rule == "same":
        return theta0
    if rule == "negated":
        return -theta0
    return -scale * theta0


def gen_logistic_data(
    theta0: np.ndarray,
    n: int,
    rng: RngStream,
    theta1: Optional[np.ndarray] = None,
) -> List[EvalSample]:
    """Draw x ~ N(0, I_d), y ~ Bern(sigmoid(x.theta0)); record the true
    probability on each sample and attach the test model's score."""
    if n < 1:
        raise ValueError("n must be >= 1")
    theta0 = np.asarray(theta0, dtype=float)
    gen = rng.generator()
    x = gen.standard_normal((n, theta0.shape[0]))
    eta = sigmoid(x @ theta0)
    y = (gen.uniform(size=n) < eta).astype(int)
    eta_hat = eta if theta1 is None else sigmoid(x @ np.asarray(theta1, dtype=float))
    return [
        EvalSample(x=row, y=label, eta_hat=score, eta=truth)
        for row, label, score, truth in zip(x, y.tolist(), eta_hat.tolist(), eta.tolist())
    ]


def tau0_monte_carlo(
    theta0: np.ndarray,
    theta1: np.ndarray,
    div: FDivergence,
    samples: int,
    rng: RngStream,
) -> Tuple[float, float]:
    """Monte-Carlo estimate (with standard error) of the expected Bernoulli
    divergence between the two logistic models over x ~ N(0, I_d).

    The models read x only through (x.theta0, x.theta1), so that 2-D
    Gaussian is drawn instead of x; equal coefficient vectors share one
    column, which keeps the divergence of equal models exactly 0.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    theta0 = np.asarray(theta0, dtype=float)
    theta1 = np.asarray(theta1, dtype=float)
    V = theta0[:, None] if np.array_equal(theta0, theta1) else np.column_stack([theta0, theta1])
    draw = FeatureSampler.gaussian_iso(np.zeros(theta0.shape[0]), 1.0).projector(V)
    gen = rng.generator()
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        m = min(_TAU0_BLOCK, samples - done)
        z = draw(gen, (m,))
        vals = bernoulli_divergence_many(div, sigmoid(z[:, 0]), sigmoid(z[:, -1]))
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
        done += m
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0)
    return mean, math.sqrt(var / samples)


def _trial_counts(
    spec: ExperimentSpec, theta0: np.ndarray, theta1: np.ndarray, trial: int
) -> BinCounts:
    rng = RngStream(spec.seed, stream_id=trial + 1)
    samples = gen_logistic_data(theta0, spec.n, rng, theta1=theta1)
    if spec.mode == "df" and spec.score == "identity":
        return grasp_counts_simple(samples, spec.L, rng)
    score = _make_score(spec, theta0, theta1, trial)
    if spec.mode == "df":
        model, px = None, None
    else:
        model = ProbModel.logistic_linear(theta1)
        px = FeatureSampler.gaussian_iso(np.zeros(spec.d), 1.0)
    return grasp_counts_modelx(samples, score, model, px, spec.L, spec.K, rng)


def _make_score(
    spec: ExperimentSpec, theta0: np.ndarray, theta1: np.ndarray, trial: int
) -> ScoreFn:
    if spec.score == "identity":
        return ScoreFn.identity()
    if spec.score == "agnostic":
        return ScoreFn.agnostic()
    if spec.score == "oracle":
        return ScoreFn.oracle(ProbModel.logistic_linear(theta0))
    # residual: fit w on x on a fresh auxiliary set drawn within the trial;
    # stream ids >= 1e9 are reserved for auxiliary draws (trials use 1..trials)
    aux_rng = RngStream(spec.seed, stream_id=1_000_000_000 + trial)
    aux = gen_logistic_data(theta0, spec.aux_size, aux_rng, theta1=theta1)
    u = aux_rng.generator().uniform(size=spec.aux_size)
    w = _w_from_uniform(u, *_labels(aux))
    theta = fit_linear_score(np.stack([s.x for s in aux]), w, ridge=1e-8)
    return ScoreFn.linear_residual(theta)


def _decide_trial(
    spec: ExperimentSpec, counts: BinCounts, tau: float, variant: StatVariant, alphas
) -> List[bool]:
    div = get_divergence(spec.divergence)
    return [
        u_stat_exceeds(variant, counts, tau, threshold(variant, spec.L, a), div)
        for a in alphas
    ]


def _run_table(spec: ExperimentSpec) -> List[ResultRow]:
    theta0 = make_theta0(spec.d, spec.sigma_theta, RngStream(spec.seed, 0))
    theta1 = theta1_from_rule(theta0, spec.theta1_rule, spec.theta1_scale)
    variants = [StatVariant(v) for v in spec.variants]
    rejects = {
        (tau, a, v.value): 0 for tau in spec.tau_grid for a in spec.alphas for v in variants
    }
    for trial in range(spec.trials):
        counts = _trial_counts(spec, theta0, theta1, trial)
        for tau in spec.tau_grid:
            for variant in variants:
                flags = _decide_trial(spec, counts, tau, variant, spec.alphas)
                for a, flag in zip(spec.alphas, flags):
                    rejects[(tau, a, variant.value)] += int(flag)
    rows = []
    for tau in spec.tau_grid:
        for a in spec.alphas:
            rates = {
                v.value: rejects[(tau, a, v.value)] / spec.trials for v in variants
            }
            rows.append(
                ResultRow(
                    mode=spec.mode,
                    score=spec.score,
                    divergence=spec.divergence,
                    n=spec.n,
                    d=spec.d,
                    L=spec.L,
                    K=None if (spec.mode == "df" and spec.score == "identity") else spec.K,
                    tau=tau,
                    alpha=a,
                    trials=spec.trials,
                    seed=spec.seed,
                    rejection_rate_asym=rates.get("asym", math.nan),
                    rejection_rate_finite=rates.get("finite", math.nan),
                )
            )
    return rows


def run_size_table(spec: ExperimentSpec) -> List[ResultRow]:
    """Null-model rejection rates (the test model equals the truth, tau = 0)."""
    if spec.theta1_rule != "same":
        raise ValueError("size runs require theta1_rule='same'")
    if tuple(spec.tau_grid) != (0.0,):
        raise ValueError("size runs require tau_grid=(0.0,)")
    return _run_table(spec)


def run_power_table(spec: ExperimentSpec) -> List[ResultRow]:
    """Rejection rates under a misspecified test model across the tau grid."""
    if spec.theta1_rule == "same":
        raise ValueError("power runs require theta1_rule='negated' or 'negated_scaled'")
    theta0 = make_theta0(spec.d, spec.sigma_theta, RngStream(spec.seed, 0))
    tau0, _ = tau0_monte_carlo(
        theta0,
        theta1_from_rule(theta0, spec.theta1_rule, spec.theta1_scale),
        get_divergence(spec.divergence),
        50_000,
        RngStream(spec.seed, stream_id=2_000_000_000),
    )
    for tau in spec.tau_grid:
        if tau > tau0:
            warnings.warn(
                f"tau={tau} exceeds the estimated true divergence {tau0:.4f}; power may be trivial",
                stacklevel=2,
            )
    return _run_table(spec)

