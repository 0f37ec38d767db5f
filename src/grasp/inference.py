"""Decision rules, p-values, confidence bounds, and the perfect-fit test.

The finite-sample rule rejects when U_tau >= L + sqrt(2L/alpha) and is valid
at every sample size; the asymptotic rule rejects when U_tau >= the
(1-alpha) chi-square quantile with L-1 degrees of freedom.  Chi-square
numerics are computed from the regularized lower incomplete gamma function
(series for x < k+1, continued fraction otherwise); the upper tail is
computed directly, so p-values keep their relative precision far out.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .divergence import FDivergence, discrete_divergence_to_uniform
from .sampling import BinCounts, EvalSample, _labels, _w_from_uniform
from .scores import DatasetScoreFn
from .solver import StatVariant, solve_u_stat, u_stat_exceeds

__all__ = [
    "TestOutcome",
    "ConfidenceBound",
    "chi2_cdf",
    "chi2_quantile",
    "threshold",
    "pvalue_finite",
    "pvalue_asym",
    "evaluate_counts",
    "ci_lower",
    "crt_pvalue",
    "perfect_fit_test",
]


# --- chi-square numerics ----------------------------------------------------

_ITMAX = 1000
_REL_EPS = 1e-15


def _gamma_series(a: float, x: float) -> float:
    ap = a
    total = 1.0 / a
    delta = total
    for _ in range(_ITMAX):
        ap += 1.0
        delta *= x / ap
        total += delta
        if abs(delta) < abs(total) * _REL_EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_cont_fraction(a: float, x: float) -> float:
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _ITMAX):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < _REL_EPS:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def _reg_lower_gamma(a: float, x: float) -> float:
    if a <= 0 or x < 0:
        raise ValueError("requires a > 0 and x >= 0")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return min(_gamma_series(a, x), 1.0)
    return min(max(1.0 - _gamma_cont_fraction(a, x), 0.0), 1.0)


def _reg_upper_gamma(a: float, x: float) -> float:
    """Q(a, x) = 1 - P(a, x), from the continued fraction where it is small."""
    if x < a + 1.0:
        return 1.0 - _reg_lower_gamma(a, x)
    return min(_gamma_cont_fraction(a, x), 1.0)


def chi2_cdf(x: float, k: int) -> float:
    """CDF of the chi-square distribution with k degrees of freedom."""
    if k < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if x < 0:
        raise ValueError("x must be nonnegative")
    return _reg_lower_gamma(k / 2.0, x / 2.0)


@lru_cache(maxsize=4096)
def chi2_quantile(beta: float, k: int) -> float:
    """x with chi2_cdf(x, k) = beta, by bracketed bisection."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly inside (0, 1)")
    if k < 1:
        raise ValueError("degrees of freedom must be >= 1")
    hi = k + 10.0 * math.sqrt(2.0 * k) + 10.0
    while chi2_cdf(hi, k) < beta:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf(mid, k) < beta:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * (1.0 + hi):
            break
    return 0.5 * (lo + hi)


# --- decisions and p-values -------------------------------------------------


def finite_threshold(L: int, alpha: float) -> float:
    return L + math.sqrt(2.0 * L / alpha)


def asym_threshold(L: int, alpha: float) -> float:
    if L < 2:
        raise ValueError("asymptotic rule needs L >= 2")
    return chi2_quantile(1.0 - alpha, L - 1)


def threshold(variant: StatVariant, L: int, alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    if StatVariant(variant) is StatVariant.FINITE:
        return finite_threshold(L, alpha)
    return asym_threshold(L, alpha)


def pvalue_finite(u: float, L: int) -> float:
    """1 when u <= L, else min(1, 2L / (u - L)^2)."""
    if u < 0:
        raise ValueError("u must be nonnegative")
    if u <= L:
        return 1.0
    return min(1.0, 2.0 * L / (u - L) ** 2)


def pvalue_asym(u: float, L: int) -> float:
    """Upper chi-square tail 1 - F_{L-1}(u)."""
    if u < 0:
        raise ValueError("u must be nonnegative")
    if L < 2:
        raise ValueError("asymptotic p-value needs L >= 2")
    return _reg_upper_gamma((L - 1) / 2.0, u / 2.0)


def pvalue(variant: StatVariant, u: float, L: int) -> float:
    if StatVariant(variant) is StatVariant.FINITE:
        return pvalue_finite(u, L)
    return pvalue_asym(u, L)


# --- outcomes ---------------------------------------------------------------


@dataclass(frozen=True)
class TestOutcome:
    """Result of one test invocation, with enough provenance to rerun."""

    __test__ = False  # not a pytest class despite the name

    statistic: float
    threshold: float
    reject: bool
    p_value: float
    variant: str
    tau: float
    alpha: float
    L: Optional[int]
    K: Optional[int]
    n: int
    divergence: Optional[str]
    seed: Optional[int]
    M: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p_value must lie in [0, 1]")
        if self.reject != (self.statistic >= self.threshold):
            raise ValueError("decision inconsistent with statistic and threshold")

    def to_json_dict(self) -> dict:
        """The fields, without M when no counterfeit count applies."""
        out = asdict(self)
        if self.M is None:
            del out["M"]
        return out


@dataclass(frozen=True)
class ConfidenceBound:
    tau_lower: float
    alpha: float
    variant: str

    def __post_init__(self) -> None:
        if self.tau_lower < 0:
            raise ValueError("tau_lower must be nonnegative")


def evaluate_counts(
    variant: StatVariant,
    counts: BinCounts,
    tau: float,
    div: FDivergence,
    alpha: float,
    seed: Optional[int] = None,
) -> TestOutcome:
    """Solve the test statistic for the counts and package the decision.

    The decision follows the solver's certified bounds: reject iff the lower
    bound reaches the threshold, accept iff the reported statistic (an upper
    bound) stays below it.  A threshold inside the final gap is settled by
    refining the bounds; SolverError if the solver's iteration cap cannot.
    """
    variant = StatVariant(variant)
    thr = threshold(variant, counts.L, alpha)
    result = solve_u_stat(variant, counts, tau, div)
    if result.decision(thr) is None:
        result = solve_u_stat(variant, counts, tau, div, certify_threshold=thr)
    reject = result.certified(thr)
    return TestOutcome(
        statistic=result.value,
        threshold=thr,
        reject=reject,
        p_value=pvalue(variant, result.value, counts.L),
        variant=variant.value,
        tau=tau,
        alpha=alpha,
        L=counts.L,
        K=counts.K,
        n=counts.n,
        divergence=div.kind,
        seed=seed,
    )


# Width of the bracket at which ci_lower's bisection stops.
_CI_TOL = 1e-4


def ci_lower(variant: StatVariant, counts: BinCounts, alpha: float, div: FDivergence) -> ConfidenceBound:
    """One-sided lower confidence bound sup{tau >= 0 : U_tau >= threshold}.

    U_tau is nonincreasing in tau, so bisection between 0 and the radius at
    which the empirical frequencies become feasible (where U_tau = 0) is
    valid; it stops within _CI_TOL of the crossing, at a certified reject.
    Returns 0 when the rule does not reject even at tau = 0.
    """
    variant = StatVariant(variant)
    thr = threshold(variant, counts.L, alpha)
    if not u_stat_exceeds(variant, counts, 0.0, thr, div):
        return ConfidenceBound(0.0, alpha, variant.value)
    tau_max = discrete_divergence_to_uniform(div, counts.counts / counts.n)
    lo, hi = 0.0, tau_max
    for _ in range(60):
        if hi - lo <= _CI_TOL:
            break
        mid = 0.5 * (lo + hi)
        if u_stat_exceeds(variant, counts, mid, thr, div):
            lo = mid
        else:
            hi = mid
    return ConfidenceBound(lo, alpha, variant.value)


# --- perfect-fit randomization test -----------------------------------------


def crt_pvalue(orig_score: float, counterfeit_scores) -> float:
    """(1 + #{j : orig >= counterfeit_j}) / (M + 1).

    Scores must follow the residual convention: smaller means better fit,
    so a well-fitted original sits below its counterfeits and the count
    stays small.
    """
    cf = np.asarray(counterfeit_scores, dtype=float)
    if cf.size < 1:
        raise ValueError("need at least one counterfeit score")
    return (1.0 + float(np.count_nonzero(orig_score >= cf))) / (cf.size + 1.0)


def perfect_fit_test(
    samples: Sequence[EvalSample],
    M: int,
    dscore: DatasetScoreFn,
    rng,
    alpha: float = 0.1,
) -> TestOutcome:
    """Randomization test of exact fit using a dataset-level score.

    Draws the randomized w-vector for the originals, M i.i.d. Unif[0,1]^n
    counterfeit vectors, scores all M + 1 candidate datasets by the
    identical procedure in one call, and converts the original's rank into
    a p-value.  The reported statistic is 1 - p so that
    reject <=> statistic >= threshold.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if len(samples) == 0:
        raise ValueError("samples must be nonempty")
    n = len(samples)
    x = np.stack([s.x for s in samples])
    gen = rng.generator()
    u = gen.uniform(size=n)
    w = _w_from_uniform(u, *_labels(samples))
    w_cf = gen.uniform(size=(M, n))
    scores = dscore.scores(x, np.column_stack([w, w_cf.T]))
    p = crt_pvalue(scores[0], scores[1:])
    return TestOutcome(
        statistic=1.0 - p,
        threshold=1.0 - alpha,
        reject=p <= alpha,
        p_value=p,
        variant="crt",
        tau=0.0,
        alpha=alpha,
        L=None,
        K=None,
        n=n,
        divergence=None,
        seed=rng.seed,
        M=M,
    )
