"""Score functions T(x, w) for the ranked pipelines, plus dataset-level scores.

Bin assignments depend only on the relative ranking of scores, so any
strictly increasing transform of a score function yields identical counts.
The model-agnostic score is the rank-optimal score with the unknown true
probability replaced by 1/2; the oracle variant keeps the true probability
and is available only in synthetic experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "ScoreFn",
    "ProbModel",
    "DatasetScoreFn",
    "sigmoid",
    "score_identity",
    "score_agnostic_modelx",
    "score_optimal_oracle",
    "score_linear_residual",
    "fit_linear_score",
    "dataset_score_mse",
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


def score_identity(x: np.ndarray, w) -> np.ndarray:
    """T(x, w) = w."""
    return np.asarray(w, dtype=float)


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


def score_linear_residual(theta: np.ndarray, x: np.ndarray, w) -> np.ndarray:
    """|w - x. theta| for a fitted linear predictor theta."""
    theta = np.asarray(theta, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != theta.shape[0]:
        raise ValueError(f"theta dimension {theta.shape[0]} != feature dimension {x.shape[1]}")
    return np.abs(np.asarray(w, dtype=float) - x @ theta)


def fit_linear_score(
    aux_x: np.ndarray, aux_w: np.ndarray, ridge: float = 0.0
) -> np.ndarray:
    """Least-squares fit of w on x with optional ridge penalty.

    Solves (X'X + ridge*I) theta = X'w by a symmetric positive-definite
    solve; a singular Gram matrix with ridge = 0 raises with advice.
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

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        return sigmoid(x @ self.theta)


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
    fresh features.  An external score has no fn: its ``table`` is looked
    up by (sample_index, candidate_index), index 0 meaning the original.
    ``kind`` labels the score in messages.
    """

    kind: str
    fn: Optional[Callable] = None
    reads: frozenset = frozenset()
    theta: Optional[np.ndarray] = None
    truth: Optional[ProbModel] = None
    table: Optional[Dict[Tuple[int, int], float]] = None

    @classmethod
    def identity(cls) -> "ScoreFn":
        return cls("identity", lambda x, w, eta_hat, eta: score_identity(x, w))

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
        return cls(
            "residual",
            lambda x, w, eta_hat, eta: np.abs(np.asarray(w, dtype=float) - x[:, 0]),
            frozenset({"x"}),
            theta=np.asarray(theta, dtype=float),
        )

    @classmethod
    def external(cls, table: Dict[Tuple[int, int], float]) -> "ScoreFn":
        return cls("external", table=dict(table))

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

    def external_lookup(self, sample_index: int, cand_index: int) -> float:
        try:
            return self.table[(sample_index, cand_index)]
        except KeyError:
            raise ValueError(
                f"external score table missing entry ({sample_index}, {cand_index})"
            ) from None

    def external_scores(self, n: int, m: int) -> np.ndarray:
        """The table as an (n, m) array; raises on the first missing entry
        and on an entry outside the n samples and m candidates."""
        t = np.array([[self.external_lookup(j, i) for i in range(m)] for j in range(n)])
        if len(self.table) > n * m:
            j, i = next(k for k in self.table if not (0 <= k[0] < n and 0 <= k[1] < m))
            raise ValueError(
                f"external score table entry ({j}, {i}) lies outside {n} samples x {m} candidates"
            )
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

    ``linear_mse`` regresses the candidate w-vector on the shared features
    (intercept appended) and reports in-sample mean squared error; every
    candidate dataset goes through the identical procedure, which is what
    keeps the original and its counterfeits exchangeable under the null.
    Smaller scores mean better fit.
    """

    kind: str = "linear_mse"
    ridge: float = 0.0
    fn: Optional[Callable[[np.ndarray, np.ndarray], float]] = None

    def __post_init__(self) -> None:
        if self.ridge < 0:
            raise ValueError("ridge must be nonnegative")

    @classmethod
    def linear_mse(cls, ridge: float = 0.0) -> "DatasetScoreFn":
        return cls(kind="linear_mse", ridge=ridge)

    @classmethod
    def external(cls, fn: Callable[[np.ndarray, np.ndarray], float]) -> "DatasetScoreFn":
        """fn(x_matrix, w_vector) -> score; must treat every candidate alike."""
        return cls(kind="external", fn=fn)

    def score(self, x: np.ndarray, w: np.ndarray) -> float:
        """In-sample score: fit and evaluate on the same (x, w)."""
        return dataset_score_mse((x, w), (x, w), self)


def dataset_score_mse(
    train: Tuple[np.ndarray, np.ndarray],
    eval_pairs: Tuple[np.ndarray, np.ndarray],
    cfg: DatasetScoreFn,
) -> float:
    """Fit the configured regressor on train pairs, return MSE on eval pairs."""
    x_tr, w_tr = train
    x_ev, w_ev = eval_pairs
    w_ev = np.asarray(w_ev, dtype=float)
    if w_ev.size == 0:
        raise ValueError("eval set must be nonempty")
    if cfg.kind == "external":
        return float(cfg.fn(np.asarray(x_ev, dtype=float), w_ev))
    X_tr = np.column_stack([np.asarray(x_tr, dtype=float), np.ones(len(w_tr))])
    X_ev = np.column_stack([np.asarray(x_ev, dtype=float), np.ones(len(w_ev))])
    theta = fit_linear_score(X_tr, w_tr, ridge=cfg.ridge)
    resid = w_ev - X_ev @ theta
    return float(np.mean(resid**2))
