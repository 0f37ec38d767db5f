"""Reference minimiser of U_tau, written apart from the library's solver.

U_tau(V) = min_p (1/n) sum_l (V_l - n p_l)^2 / d_l(p) over probability
vectors p with (1/L) sum_l f(L p_l) <= tau, where d_l = p_l + 1/L for the
finite rule and p_l for the asym rule.  This module solves it with scipy's
SLSQP in the ratio variables r = L p (so uniform is r = 1 and every
coordinate is of order one), with the objective scaled by its value at the
start point.  Total variation is written as linear constraints on slack
variables s_l >= |r_l - 1|, so SLSQP never meets the kink.  The returned
point is checked for feasibility with this module's own divergence
formulas and contracted toward uniform if round-off left it outside the
ball, so every reported value is attained by a feasible point.

Nothing here imports the library: the benchmark compares the library's
answers against these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# scipy is imported inside the functions that use it, so importing this
# module costs nothing inside the benchmark's timed set-up

KINDS = ("kl", "tv", "hellinger")
_FLOOR = 1e-12  # lower bound on r where f' or the asym objective blow up at 0
_FEAS_TOL = 1e-9


def f_div(kind: str, t: np.ndarray) -> np.ndarray:
    """Generator f with f(1) = 0, continuous at t = 0."""
    t = np.asarray(t, dtype=float)
    if kind == "kl":
        return np.where(t > 0, t * np.log(np.where(t > 0, t, 1.0)), 0.0)
    if kind == "tv":
        return 0.5 * np.abs(t - 1.0)
    if kind == "hellinger":
        return (np.sqrt(t) - 1.0) ** 2
    raise ValueError(f"unknown divergence {kind!r}")


def div_to_uniform(kind: str, p: np.ndarray) -> float:
    """(1/L) sum_l f(L p_l)."""
    p = np.asarray(p, dtype=float)
    return float(np.sum(f_div(kind, p.size * p)) / p.size)


def objective(variant: str, V: np.ndarray, p: np.ndarray) -> float:
    V = np.asarray(V, dtype=float)
    n, L = V.sum(), V.size
    dev2 = (V - n * p) ** 2
    if variant == "finite":
        return float(np.sum(dev2 / (p + 1.0 / L)) / n)
    if variant != "asym":
        raise ValueError(f"unknown rule {variant!r}")
    if np.any((p <= 0) & (V > 0)):
        return math.inf
    return float(np.sum(np.where(p > 0, dev2 / np.where(p > 0, p, 1.0), 0.0)) / n)


def threshold(variant: str, L: int, alpha: float) -> float:
    """L + sqrt(2L/alpha) for the finite rule; the chi-square quantile for asym."""
    from scipy.stats import chi2

    if variant == "finite":
        return L + math.sqrt(2.0 * L / alpha)
    return float(chi2.ppf(1.0 - alpha, L - 1))


def p_value(variant: str, u: float, L: int) -> float:
    from scipy.stats import chi2

    if variant == "finite":
        return 1.0 if u <= L else min(1.0, 2.0 * L / (u - L) ** 2)
    return float(chi2.sf(u, L - 1))


@dataclass(frozen=True)
class RefSolve:
    value: float
    point: np.ndarray
    divergence: float  # of the returned point, by this module's formula


def _toward_uniform(kind: str, p: np.ndarray, tau: float) -> np.ndarray:
    """Largest step from uniform toward p that stays inside the tau-ball
    (the divergence to uniform is convex along the ray and 0 at uniform)."""
    uni = np.full(p.size, 1.0 / p.size)
    if div_to_uniform(kind, p) <= tau:
        return p
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if div_to_uniform(kind, uni + mid * (p - uni)) <= tau:
            lo = mid
        else:
            hi = mid
    return uni + lo * (p - uni)


def _scaled_objective(variant: str, V: np.ndarray):
    n, L = V.sum(), V.size
    c = 1.0 if variant == "finite" else 0.0

    def fun(r):
        d = r + c
        return float(np.sum((L * V - n * r) ** 2 / d)) / (n * L)

    def jac(r):
        d = r + c
        e = L * V - n * r
        return (-2.0 * n * e * d - e**2) / (d**2 * n * L)

    return fun, jac


def _ball_constraints(kind: str, L: int, tau: float):
    """Constraints on r (length L) or on (r, s) for TV (length 2L)."""
    if kind == "tv":
        eye = np.eye(L)
        return [
            {"type": "eq", "fun": lambda z: np.array([z[:L].sum() - L]),
             "jac": lambda z: np.concatenate([np.ones(L), np.zeros(L)])[None, :]},
            {"type": "ineq", "fun": lambda z: np.array([tau - 0.5 * z[L:].sum() / L]),
             "jac": lambda z: np.concatenate([np.zeros(L), np.full(L, -0.5 / L)])[None, :]},
            # s - (r - 1) >= 0 and s + (r - 1) >= 0
            {"type": "ineq", "fun": lambda z: z[L:] - z[:L] + 1.0,
             "jac": lambda z: np.hstack([-eye, eye])},
            {"type": "ineq", "fun": lambda z: z[L:] + z[:L] - 1.0,
             "jac": lambda z: np.hstack([eye, eye])},
        ]
    if kind == "kl":
        dfun = lambda r: np.log(r) + 1.0
    else:
        dfun = lambda r: 1.0 - 1.0 / np.sqrt(r)
    return [
        {"type": "eq", "fun": lambda r: np.array([r.sum() - L]),
         "jac": lambda r: np.ones((1, L))},
        {"type": "ineq", "fun": lambda r: np.array([tau - float(np.sum(f_div(kind, r))) / L]),
         "jac": lambda r: -dfun(r)[None, :] / L},
    ]


def solve(variant: str, V, tau: float, kind: str) -> RefSolve:
    """Minimum of the rule's objective over the tau-ball, at a feasible point."""
    from scipy.optimize import minimize

    V = np.asarray(V, dtype=float)
    n, L = V.sum(), V.size
    uni = np.full(L, 1.0 / L)
    empirical = V / n
    if tau <= 0.0 or L == 1:
        return RefSolve(objective(variant, V, uni), uni, 0.0)
    emp_div = div_to_uniform(kind, empirical)
    if emp_div <= tau:
        return RefSolve(0.0, empirical, emp_div)
    # start on the boundary point of the segment from uniform to the
    # empirical frequencies, the unconstrained minimiser of both rules
    start = _toward_uniform(kind, empirical, tau)
    r0 = np.maximum(L * start, _FLOOR if kind != "tv" else 0.0)
    fun, jac = _scaled_objective(variant, V)
    scale = max(fun(r0), 1e-300)
    floor = 0.0 if (kind == "tv" and variant == "finite") else _FLOOR
    if kind == "tv":
        z0 = np.concatenate([r0, np.abs(r0 - 1.0)])
        obj = lambda z: fun(z[:L]) / scale
        grad = lambda z: np.concatenate([jac(z[:L]), np.zeros(L)]) / scale
        bounds = [(floor, None)] * L + [(0.0, None)] * L
    else:
        z0 = r0
        obj = lambda z: fun(z) / scale
        grad = lambda z: jac(z) / scale
        bounds = [(floor, None)] * L
    res = minimize(
        obj, z0, jac=grad, method="SLSQP", bounds=bounds,
        constraints=_ball_constraints(kind, L, tau),
        options={"maxiter": 2000, "ftol": 1e-15},
    )
    best = start
    cand = np.maximum(np.asarray(res.x[:L], dtype=float), 0.0) / L
    cand = _toward_uniform(kind, cand / cand.sum(), tau)
    if objective(variant, V, cand) < objective(variant, V, best):
        best = cand
    d = div_to_uniform(kind, best)
    if d > tau + _FEAS_TOL or abs(best.sum() - 1.0) > 1e-9 or np.any(best < 0):
        raise RuntimeError(f"reference point infeasible: divergence {d} > tau {tau}")
    return RefSolve(objective(variant, V, best), best, d)


def crossing(variant: str, V, kind: str, thr: float) -> float:
    """sup{tau >= 0 : U_tau >= thr}: 0 when U_0 < thr, else the root of
    U_tau = thr below the empirical divergence (U is continuous and
    nonincreasing in tau)."""
    from scipy.optimize import brentq

    V = np.asarray(V, dtype=float)
    if solve(variant, V, 0.0, kind).value < thr:
        return 0.0
    hi = div_to_uniform(kind, V / V.sum())
    return float(brentq(lambda t: solve(variant, V, t, kind).value - thr, 0.0, hi, xtol=1e-7))


# --- the law of the bin counts ------------------------------------------------
#
# Each sample draws w ~ Unif[0, eta_hat] when y = 1 and w ~ Unif[eta_hat, 1]
# when y = 0, independently of the others, so the expected bin counts of the
# pipelines below are exact sums over the samples' (y, eta_hat).  They do not
# depend on how a pipeline draws its random numbers.


def expected_counts_simple(y, eta_hat, L: int) -> np.ndarray:
    """Expected counts of the simple pipeline, whose bin l holds w in ((l-1)/L, l/L]."""
    y = np.asarray(y)
    eta_hat = np.asarray(eta_hat, dtype=float)
    lo = np.where(y == 1, 0.0, eta_hat)
    hi = np.where(y == 1, eta_hat, 1.0)
    edges = np.arange(L + 1) / L
    overlap = np.clip(np.minimum(hi[:, None], edges[1:]) - np.maximum(lo[:, None], edges[:-1]), 0.0, None)
    width = hi - lo
    wide = width > 0
    probs = np.zeros((y.size, L))
    probs[wide] = overlap[wide] / width[wide, None]
    # a degenerate interval puts w at its endpoint
    point = np.clip(np.ceil(lo[~wide] * L).astype(int), 1, L) - 1
    probs[np.flatnonzero(~wide), point] = 1.0
    return probs.sum(axis=0)


def expected_counts_agnostic(y, eta_hat, L: int, eta_cf=None) -> np.ndarray:
    """Expected counts of the ranked pipelines with the model-agnostic score and K = 1.

    The score is 0.5/eta_hat for w below eta_hat and 0.5/(1 - eta_hat) at or
    above, so the original scores 0.5/eta_hat when y = 1 and 0.5/(1 - eta_hat)
    when y = 0.  A counterfeit (eta', w' ~ Unif[0, 1]) scores 0.5/eta' with
    probability eta' and 0.5/(1 - eta') otherwise.  ``eta_cf`` is None for
    fixed features (eta' is the sample's own eta_hat) or the model's
    probabilities at the pool rows, which counterfeits draw uniformly.  With q
    the chance that a counterfeit scores at most the original (ties count
    toward the original), rank - 1 ~ Binomial(L - 1, q), and with K = 1 the
    bin is the rank.
    """
    from scipy.stats import binom

    y = np.asarray(y)
    eta_hat = np.asarray(eta_hat, dtype=float)
    low, high = 0.5 / eta_hat, 0.5 / (1.0 - eta_hat)
    t = np.where(y == 1, low, high)
    if eta_cf is None:
        q = np.where(low <= t, eta_hat, 0.0) + np.where(high <= t, 1.0 - eta_hat, 0.0)
    else:
        eta_cf = np.asarray(eta_cf, dtype=float)
        values = np.concatenate([0.5 / eta_cf, 0.5 / (1.0 - eta_cf)])
        weights = np.concatenate([eta_cf, 1.0 - eta_cf]) / eta_cf.size
        order = np.argsort(values)
        below = np.concatenate([[0.0], np.cumsum(weights[order])])
        q = below[np.searchsorted(values[order], t, side="right")]
    q = np.clip(q, 0.0, 1.0)
    return binom.pmf(np.arange(L)[None, :], L - 1, q[:, None]).sum(axis=0)


def counts_pvalue(V, expected, min_expected: float = 5.0) -> float:
    """Pearson chi-square p-value of counts against expected counts, after
    merging adjacent bins until each group expects at least ``min_expected``.

    The counts are sums of independent but not identical categorical draws,
    whose variance is at most the multinomial one, so the chi-square law
    is conservative here.
    """
    from scipy.stats import chi2

    groups_v, groups_e = [], []
    v = e = 0.0
    for vi, ei in zip(np.asarray(V, dtype=float), np.asarray(expected, dtype=float)):
        v, e = v + vi, e + ei
        if e >= min_expected:
            groups_v.append(v)
            groups_e.append(e)
            v = e = 0.0
    if groups_e:
        groups_v[-1] += v
        groups_e[-1] += e
    if len(groups_e) < 2:
        return 1.0
    gv, ge = np.array(groups_v), np.array(groups_e)
    return float(chi2.sf(float(np.sum((gv - ge) ** 2 / ge)), len(ge) - 1))


def tau0_negated(norm_sq: float, kind: str) -> float:
    """E[D_f(Bern(eta(X)) || Bern(eta_hat(X)))] for eta = sigmoid(x.theta0),
    eta_hat = sigmoid(-x.theta0) and x ~ N(0, I), where x.theta0 ~ N(0, |theta0|^2).

    With a = sigmoid(z) and b = 1 - a the Bernoulli divergences are
    (2a - 1) z for KL, |2a - 1| for TV and 2 (sqrt(a) - sqrt(b))^2 for
    squared Hellinger; the expectation is one Gaussian quadrature.
    """
    from scipy.integrate import quad
    from scipy.special import expit
    from scipy.stats import norm

    s = math.sqrt(norm_sq)
    forms = {
        "kl": lambda z: (2.0 * expit(z) - 1.0) * z,
        "tv": lambda z: abs(2.0 * expit(z) - 1.0),
        "hellinger": lambda z: 2.0 * (math.sqrt(expit(z)) - math.sqrt(expit(-z))) ** 2,
    }
    g = forms[kind]
    # the integrand is even in z
    val, _ = quad(lambda z: g(z) * norm.pdf(z, scale=s), 0.0, math.inf, epsabs=1e-12, epsrel=1e-12)
    return 2.0 * val
