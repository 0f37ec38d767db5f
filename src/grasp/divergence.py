"""f-divergence generators with their first two derivatives.

Each divergence bundles the generator f (convex on [0, inf), f(1) = 0) with
f' and f''.  The U_tau solver minimizes a per-bin Lagrangian by Newton steps
on h'(p) + mu + lam f'(L p) = 0, so a custom divergence supplies f, f' and
f'', with f twice differentiable on (0, inf).  f'(0) may be -inf (KL,
Hellinger) or finite, in which case the per-bin minimum can sit at p = 0.
Total variation is the one built-in kind with a kink: the solver treats it
in closed form, and its f' returns the subgradients -1/2, 0 (at t = 1) and
1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "FDivergence",
    "BernoulliPair",
    "KL",
    "TV",
    "HELLINGER",
    "DIVERGENCES",
    "get_divergence",
    "f_eval",
    "bernoulli_divergence",
    "bernoulli_divergence_many",
    "discrete_divergence_to_uniform",
]

_SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class FDivergence:
    """A divergence generator with its first and second derivatives.

    ``f`` is the generator on t >= 0 with the continuous extension at t = 0.
    ``f_prime`` and ``f_second`` are f' and f'' on t > 0, vectorized;
    ``f_prime(0)`` is the right limit of f' (possibly -inf).
    """

    kind: str
    f: Callable[[np.ndarray], np.ndarray]
    f_prime: Callable[[np.ndarray], np.ndarray]
    f_second: Callable[[np.ndarray], np.ndarray]
    # lim_{t->inf} f(t)/t; used for the b -> 0 continuous extension of the
    # Bernoulli form.  None means "estimate numerically" (custom kinds).
    recession_slope: Optional[float] = None

    def validate(self, grid: Optional[np.ndarray] = None) -> None:
        """Spot-check convexity on a grid and f(1) = 0 exactly."""
        if abs(float(self.f(np.asarray(1.0)))) > 1e-12:
            raise ValueError(f"divergence {self.kind!r}: f(1) != 0")
        if grid is None:
            grid = np.linspace(0.05, 8.0, 120)
        vals = self.f(grid)
        mid = self.f((grid[:-2] + grid[2:]) / 2.0)
        if np.any(mid > (vals[:-2] + vals[2:]) / 2.0 + 1e-9):
            raise ValueError(f"divergence {self.kind!r}: midpoint convexity fails")


@dataclass(frozen=True)
class BernoulliPair:
    """True and estimated success probabilities, both in [0, 1]."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.a <= 1.0 and 0.0 <= self.b <= 1.0):
            raise ValueError(f"probabilities out of [0,1]: a={self.a}, b={self.b}")


def _kl_f(t):
    t = np.asarray(t, dtype=float)
    safe = np.where(t > 0, t, 1.0)
    return np.where(t > 0, safe * np.log(safe), 0.0)


def _kl_prime(t):
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(t, dtype=float)) + 1.0


def _kl_second(t):
    with np.errstate(divide="ignore"):
        return 1.0 / np.asarray(t, dtype=float)


def _tv_f(t):
    return 0.5 * np.abs(np.asarray(t, dtype=float) - 1.0)


def _tv_prime(t):
    return 0.5 * np.sign(np.asarray(t, dtype=float) - 1.0)


def _tv_second(t):
    return np.zeros_like(np.asarray(t, dtype=float))


def _hellinger_f(t):
    return (np.sqrt(np.asarray(t, dtype=float)) - 1.0) ** 2


def _hellinger_prime(t):
    with np.errstate(divide="ignore"):
        return 1.0 - 1.0 / np.sqrt(np.asarray(t, dtype=float))


def _hellinger_second(t):
    with np.errstate(divide="ignore"):
        return 0.5 * np.asarray(t, dtype=float) ** -1.5


KL = FDivergence("kl", _kl_f, _kl_prime, _kl_second, recession_slope=math.inf)
TV = FDivergence("tv", _tv_f, _tv_prime, _tv_second, recession_slope=0.5)
HELLINGER = FDivergence(
    "hellinger", _hellinger_f, _hellinger_prime, _hellinger_second, recession_slope=1.0
)

DIVERGENCES = {"kl": KL, "tv": TV, "hellinger": HELLINGER}


def get_divergence(token: str) -> FDivergence:
    """Look up a built-in divergence by its string token."""
    try:
        return DIVERGENCES[token.lower()]
    except KeyError:
        raise ValueError(
            f"unknown divergence {token!r}; valid tokens: {', '.join(sorted(DIVERGENCES))}"
        ) from None


def custom_divergence(
    f: Callable,
    f_prime: Callable,
    f_second: Callable,
    recession_slope: Optional[float] = None,
) -> FDivergence:
    """Build a custom divergence from f, f' and f'' (twice differentiable on (0, inf))."""
    div = FDivergence(
        kind="custom", f=f, f_prime=f_prime, f_second=f_second, recession_slope=recession_slope
    )
    div.validate()
    return div


def f_eval(div: FDivergence, t) -> float:
    """Evaluate the generator f at t >= 0 (continuous extension at 0)."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("f is defined on t >= 0")
    out = div.f(t_arr)
    return float(out) if np.ndim(t) == 0 else out


def bernoulli_divergence(div: FDivergence, pair: BernoulliPair) -> float:
    """D_f between Bernoulli(a) and Bernoulli(b); see bernoulli_divergence_many."""
    return float(bernoulli_divergence_many(div, pair.a, pair.b))


def bernoulli_divergence_many(div: FDivergence, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized D_f(Bern(a_i) || Bern(b_i)) for probability arrays.

    Built-in kinds use exact closed forms (TV reduces to |a - b|, KL to the
    cross-entropy excess, Hellinger to the squared-root differences); other
    kinds sum q f(p/q) over both outcomes.  Both cover the degenerate
    b in {0, 1} by continuous extension.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if div.kind == "tv":
        return np.abs(a - b)
    if div.kind == "kl":
        def xlogx_over(p, q):
            ratio = np.where((p > 0) & (q > 0), p / np.where(q > 0, q, 1.0), 1.0)
            out = np.where(p > 0, p * np.log(ratio), 0.0)
            return np.where((p > 0) & (q == 0), np.inf, out)

        return xlogx_over(a, b) + xlogx_over(1.0 - a, 1.0 - b)
    if div.kind == "hellinger":
        return (np.sqrt(a) - np.sqrt(b)) ** 2 + (np.sqrt(1 - a) - np.sqrt(1 - b)) ** 2
    slope = div.recession_slope
    if slope is None:
        slope = float(div.f(np.asarray(1e12))) / 1e12

    def term(p, q):
        # q * f(p/q); for q -> 0 the limit is p * lim f(t)/t, and 0 where p = 0 too.
        safe = np.where(q > 0, q, 1.0)
        with np.errstate(invalid="ignore"):  # 0 * inf, discarded
            limit = np.where(p > 0, p * slope, 0.0)
        return np.where(q > 0, safe * div.f(p / safe), limit)

    return term(a, b) + term(1.0 - a, 1.0 - b)


def discrete_divergence_to_uniform(div: FDivergence, p) -> float:
    """(1/L) * sum_l f(L * p_l) for a probability vector p of length L."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("p must be a nonempty 1-D probability vector")
    if np.any(p < 0) or abs(float(p.sum()) - 1.0) > _SIMPLEX_TOL:
        raise ValueError("p is not on the probability simplex")
    L = p.size
    return float(np.sum(div.f(L * p)) / L)
