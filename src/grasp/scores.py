"""Score functions T(x, w) for the ranked pipelines, plus dataset-level scores.

Bin assignments depend only on the relative ranking of scores, so any
strictly increasing transform of a score function yields identical counts.
The model-agnostic score is the rank-optimal score with the unknown true
probability replaced by 1/2; the oracle variant keeps the true probability
and is available only in synthetic experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "ScoreFn",
    "ProbModel",
    "DatasetScoreFn",
    "sigmoid",
    "score_agnostic_modelx",
    "score_optimal_oracle",
    "fit_linear_score",
]


def sigmoid(z):
    """Numerically stable logistic function: 1/(1 + e^-z) for z >= 0 and
    e^z/(1 + e^z) below."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return float(out) if out.ndim == 0 else out

# Clamp applied to eta_hat inside score formulas only; stored data is never
# altered, this just guards the divisions at eta_hat in {0, 1}.
_EPS = 1e-12


def _clamp_prob(eta_hat: np.ndarray) -> np.ndarray:
    return np.clip(np.asarray(eta_hat, dtype=float), _EPS, 1.0 - _EPS)


def score_optimal_oracle(eta, eta_hat, w) -> np.ndarray:
    """Rank-optimal score (eta/eta_hat) below eta_hat, ((1-eta)/(1-eta_hat)) at or above.

    Values w exactly equal to eta_hat take the right branch.
    """
    eta = np.asarray(eta, dtype=float)
    eta_hat = _clamp_prob(eta_hat)
    w = np.asarray(w, dtype=float)
    return np.where(w < eta_hat, eta / eta_hat, (1.0 - eta) / (1.0 - eta_hat))


def score_agnostic_modelx(eta_hat, w) -> np.ndarray:
    """Model-agnostic score: the rank-optimal score with eta replaced by 1/2."""
    return score_optimal_oracle(0.5, eta_hat, w)


def fit_linear_score(
    aux_x: np.ndarray, aux_w: np.ndarray, ridge: float = 0.0
) -> np.ndarray:
    """Least-squares fit of w on x with optional ridge penalty.

    Solves (X'X + ridge*I) theta = X'w by a symmetric positive-definite
    solve; a singular Gram matrix with ridge = 0 raises with advice.  An
    (n, m) w fits its m columns at once, giving a (d, m) theta.
    """
    X = np.asarray(aux_x, dtype=float)
    w = np.asarray(aux_w, dtype=float)
    if X.ndim != 2 or X.shape[0] != w.shape[0]:
        raise ValueError("aux data must be (n, d) features with matching responses")
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    gram = X.T @ X + ridge * np.eye(X.shape[1])
    rhs = X.T @ w
    try:
        L = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(
            "singular Gram matrix; pass ridge > 0 or add more rows"
        ) from None
    return np.linalg.solve(L.T, np.linalg.solve(L, rhs))


@dataclass(frozen=True)
class ProbModel:
    """The logistic-linear classifier under test: 1/(1 + exp(-x.theta))."""

    theta: np.ndarray

    @classmethod
    def logistic_linear(cls, theta: np.ndarray) -> "ProbModel":
        return cls(theta=np.asarray(theta, dtype=float))


@dataclass(frozen=True)
class ScoreFn:
    """A score T(x, w) as plain data: its function and what it reads.

    ``fn(x, w, eta_hat, eta)`` is vectorized over candidates.  ``reads``
    names the inputs the score looks at besides w, drawn from "x",
    "eta_hat" and "eta"; the pipelines compute eta_hat and eta at
    counterfeit features only for scores that read them.  A score that
    reads "x" sees the features through the linear functionals
    ``directions(d)``: theta for the residual score, all of x (the identity
    matrix) otherwise, and fn's x holds the candidates' projections
    ``x @ directions(d)``, shape (m, k), the other arguments shape (m,).
    The oracle's ``truth`` is the true model, needed where counterfeits get
    fresh features.  An external score has no fn: its ``table`` holds the
    columns (sample_index, candidate_index, score), index 0 meaning the
    original.  ``kind`` labels the score in messages.
    """

    kind: str
    fn: Optional[Callable] = None
    reads: frozenset = frozenset()
    theta: Optional[np.ndarray] = None
    truth: Optional[ProbModel] = None
    table: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    @classmethod
    def identity(cls) -> "ScoreFn":
        return cls("identity", lambda x, w, eta_hat, eta: w)

    @classmethod
    def agnostic(cls) -> "ScoreFn":
        return cls(
            "agnostic",
            lambda x, w, eta_hat, eta: score_agnostic_modelx(eta_hat, w),
            frozenset({"eta_hat"}),
        )

    @classmethod
    def oracle(cls, truth: Optional[ProbModel] = None) -> "ScoreFn":
        return cls(
            "oracle",
            lambda x, w, eta_hat, eta: score_optimal_oracle(eta, eta_hat, w),
            frozenset({"eta_hat", "eta"}),
            truth=truth,
        )

    @classmethod
    def linear_residual(cls, theta: np.ndarray) -> "ScoreFn":
        """|w - x.theta| for a fitted linear predictor theta."""
        return cls(
            "residual",
            lambda x, w, eta_hat, eta: np.abs(np.asarray(w, dtype=float) - x[:, 0]),
            frozenset({"x"}),
            theta=np.asarray(theta, dtype=float),
        )

    @classmethod
    def external(cls, sample_index, cand_index, score) -> "ScoreFn":
        table = (
            np.asarray(sample_index, dtype=np.int64),
            np.asarray(cand_index, dtype=np.int64),
            np.asarray(score, dtype=float),
        )
        return cls("external", table=table)

    @classmethod
    def custom(cls, fn: Callable, needs: Tuple[str, ...] = ()) -> "ScoreFn":
        """Arbitrary vectorized score fn(x, w, eta_hat, eta) that reads all
        of x, plus eta_hat and eta where ``needs`` names them; used in tests."""
        return cls("custom", fn, frozenset(needs) | {"x"})

    def directions(self, d: int) -> np.ndarray:
        """The (d, k) matrix whose columns are the functionals of x read."""
        if "x" not in self.reads:
            return np.zeros((d, 0))
        return np.eye(d) if self.theta is None else self.theta[:, None]

    def external_scores(self, n: int, m: int) -> np.ndarray:
        """The table as an (n, m) array.  Raises on the first missing entry
        in row-major order, then on the first entry outside the n samples
        and m candidates in table order, then on the first repeated entry."""
        j, i, score = self.table
        # scatter only entries in range: numpy would wrap an index of -1 to the last row
        inside = (0 <= j) & (j < n) & (0 <= i) & (i < m)
        t = np.full((n, m), np.nan)
        t[j[inside], i[inside]] = score[inside]
        if np.isnan(t).any():
            a, b = np.argwhere(np.isnan(t))[0]
            raise ValueError(f"external score table missing entry ({a}, {b})")
        if not inside.all():
            k = np.argmin(inside)
            raise ValueError(
                f"external score table entry ({j[k]}, {i[k]}) lies outside {n} samples x {m} candidates"
            )
        if j.size > n * m:
            first = np.zeros(j.size, dtype=bool)
            first[np.unique(j * m + i, return_index=True)[1]] = True
            k = np.argmin(first)
            raise ValueError(f"external score table repeats entry ({j[k]}, {i[k]})")
        return t

    def evaluate(
        self,
        x: np.ndarray,
        w: np.ndarray,
        eta_hat: np.ndarray,
        eta: Optional[np.ndarray],
    ) -> np.ndarray:
        return np.asarray(self.fn(x, w, eta_hat, eta), dtype=float)


@dataclass(frozen=True)
class DatasetScoreFn:
    """Dataset-level score for the perfect-fit randomization test.

    Each candidate w-vector is regressed on the shared features (intercept
    appended) and scored by its in-sample mean squared error; every
    candidate dataset goes through the identical procedure, which is what
    keeps the original and its counterfeits exchangeable under the null.
    Smaller scores mean better fit.
    """

    ridge: float = 0.0

    def __post_init__(self) -> None:
        if self.ridge < 0:
            raise ValueError("ridge must be nonnegative")

    @classmethod
    def linear_mse(cls, ridge: float = 0.0) -> "DatasetScoreFn":
        return cls(ridge=ridge)

    def scores(self, x: np.ndarray, W: np.ndarray) -> np.ndarray:
        """In-sample MSE of each column of the (n, m) matrix W, by one
        least-squares solve on the (n, d) features x."""
        W = np.asarray(W, dtype=float)
        X = np.column_stack([np.asarray(x, dtype=float), np.ones(W.shape[0])])
        theta = fit_linear_score(X, W, ridge=self.ridge)
        return np.mean((W - X @ theta) ** 2, axis=0)
