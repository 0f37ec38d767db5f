"""Minimization of chi-square-type objectives over f-divergence balls.

Computes U_tau(V) = min_p sum_l h_l(p_l) over probability vectors p with
(1/L) sum_l f(L p_l) <= tau, where h_l(p) = (V_l - n p)^2 / (n (p + c)),
c = 1/L for the finite-sample variant and c = 0 for the asymptotic one.

The program is separable, so it is solved through its Lagrangian dual
(Patriksson, "A survey on the continuous nonlinear resource allocation
problem", EJOR 185, 2008).  For a ball multiplier lam > 0 and a simplex
multiplier mu, each bin minimizes h_l(p) + mu p + (lam/L) f(L p) over
p in [0, 1] on its own.  Its stationarity condition is
h_l'(p) + mu + lam f'(L p) = 0 with h_l'(p) = n - a_l^2 / (n (p + c)^2)
and a_l = V_l + n c.  For a differentiable generator (KL, Hellinger, custom)
vectorized safeguarded Newton steps in log p solve it; for total variation
it has a closed form: h_l' inverted at -mu + lam/2 left of the kink, at
-mu - lam/2 right of it, or the kink p = 1/L itself.  For fixed lam, mu is
the root of sum_l p_l = 1, and lam is the root of (1/L) sum_l f(L p_l) =
tau.  Both maps are monotone, and both roots are found by safeguarded
Newton steps whose derivatives come from implicit differentiation through
the per-bin solves.

Every lam iterate certifies two bounds on U_tau.  The dual value g(lam, mu)
is a lower bound for any multipliers (weak duality; Boyd & Vandenberghe,
Convex Optimization, section 5.2).  Each per-bin minimum in it is replaced
by the tangent bound at the computed point, so an inexact per-bin solve
cannot overstate it.  The objective at a feasible point -- the per-bin
solution normalized onto the simplex and contracted toward uniform into the
ball -- is an upper bound.  Decisions against a threshold follow these
bounds only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .divergence import FDivergence, discrete_divergence_to_uniform
from .sampling import BinCounts

__all__ = [
    "StatVariant",
    "SolverConfig",
    "SolverError",
    "UStatResult",
    "objective",
    "gradient",
    "u_stat",
    "u_stat_exceeds",
    "solve_u_stat",
]

_U_MIN = -700.0  # floor on log p: keeps f'(L p) and f''(L p) finite
_P_MIN = math.exp(_U_MIN)
_BIN_STEPS = 100
_MU_STEPS = 200
_MU_TOL = 1e-13  # on |sum p - 1|
_LAM_STEP = 4.0  # largest log-lam step while the root is not bracketed
_EPS = np.finfo(float).eps


class StatVariant(str, Enum):
    FINITE = "finite"
    ASYM = "asym"


class SolverError(RuntimeError):
    """Raised when the solver cannot certify a decision."""


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 500
    gap_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.max_iters < 1 or self.gap_tol <= 0:
            raise ValueError("max_iters >= 1 and a positive gap_tol required")


@dataclass(frozen=True)
class UStatResult:
    """Solve outcome: lower <= U_tau <= value, where value is the objective
    at the feasible point ``minimizer``; gap = value - lower.

    ``converged`` says the solve met its stopping rule: gap <= gap_tol, or,
    with a certify threshold, bounds that decide it.
    """

    value: float
    lower: float
    minimizer: np.ndarray
    iterations: int
    gap: float
    converged: bool

    def decision(self, threshold: float) -> Optional[bool]:
        """True if U_tau >= threshold is certified, False if U_tau < threshold
        is, None while the bounds straddle the threshold."""
        if self.lower >= threshold:
            return True
        if self.value < threshold:
            return False
        return None

    def certified(self, threshold: float) -> bool:
        """The certified answer to U_tau >= threshold; SolverError while the
        bounds straddle the threshold."""
        decided = self.decision(threshold)
        if decided is None:
            raise SolverError(
                f"U_tau bounds [{self.lower:.10g}, {self.value:.10g}] still straddle "
                f"the threshold {threshold:.10g} after {self.iterations} iterations"
            )
        return decided


def _counts(V) -> Tuple[np.ndarray, int, int]:
    if isinstance(V, BinCounts):
        return V.counts.astype(float), V.n, V.L
    arr = np.asarray(V, dtype=float)
    return arr, int(round(float(arr.sum()))), arr.size


def _offset(variant: StatVariant, L: int) -> float:
    return 1.0 / L if StatVariant(variant) is StatVariant.FINITE else 0.0


def _objective(v: np.ndarray, n: int, c: float, p: np.ndarray) -> float:
    dev2 = (v - n * p) ** 2
    if c > 0.0:
        return float(np.sum(dev2 / (p + c)) / n)
    zero = p <= 0.0
    if np.any(zero & (v > 0.0)):
        return math.inf
    terms = np.divide(dev2, p, out=np.zeros_like(dev2), where=~zero)
    return float(terms.sum() / n)


def objective(variant: StatVariant, V, p) -> float:
    """The variant's chi-square-type objective at p (extended-real)."""
    v, n, L = _counts(V)
    return _objective(v, n, _offset(variant, L), np.asarray(p, dtype=float))


def gradient(variant: StatVariant, V, p) -> np.ndarray:
    """Analytic gradient of the variant objective; asym needs interior p."""
    v, n, L = _counts(V)
    p = np.asarray(p, dtype=float)
    if StatVariant(variant) is StatVariant.ASYM:
        if np.any(p <= 0.0):
            raise ValueError("asym gradient undefined on the simplex boundary")
        return n - v**2 / (n * p**2)
    denom = p + 1.0 / L
    return (n * p - v) * (n * p + v + 2.0 * n / L) / (n * denom**2)


# ---------------------------------------------------------------------------
# The Lagrangian, bin by bin
# ---------------------------------------------------------------------------


class _Lagrangian:
    """sum_l [h_l(p_l) + mu p_l + (lam/L) f(L p_l)] - mu - lam tau for one
    instance, with the per-bin minimizers over p_l in [0, 1]."""

    def __init__(self, v: np.ndarray, n: int, c: float, tau: float, div: FDivergence):
        self.v, self.n, self.c, self.tau, self.div = v, n, c, tau, div
        self.L = v.size
        self.a = v + n * c
        self.tv = div.kind == "tv"
        self.kink = 1.0 / self.L
        # h'(1/L) + lam f'(1) brackets the simplex multiplier (see solve_mu)
        self.h_kink = self._h1(np.full(self.L, self.kink))
        self.f_kink = float(div.f_prime(np.asarray(1.0)))
        self.u = np.full(self.L, math.log(self.kink))  # warm start of the per-bin Newton

    def _h1(self, p: np.ndarray) -> np.ndarray:
        """h_l'(p); n where a_l = 0 (asym, empty bin: h_l is linear)."""
        pull = np.where(self.a > 0.0, self.a**2 / (self.n * (p + self.c) ** 2), 0.0)
        return self.n - pull

    def _h2(self, p: np.ndarray) -> np.ndarray:
        return np.where(self.a > 0.0, 2.0 * self.a**2 / (self.n * (p + self.c) ** 3), 0.0)

    def distance(self, p: np.ndarray) -> float:
        return float(np.sum(self.div.f(self.L * p)) / self.L)

    def bins(self, lam: float, mu: float) -> np.ndarray:
        return self._tv_bins(lam, mu) if self.tv else self._newton_bins(lam, mu)

    def _tv_bins(self, lam: float, mu: float) -> np.ndarray:
        left = self.h_kink + mu - 0.5 * lam > 0.0  # slope just left of the kink
        right = self.h_kink + mu + 0.5 * lam < 0.0  # slope just right of it
        p = np.full(self.L, self.kink)
        p = np.where(left, np.clip(self._h1_inverse(0.5 * lam - mu), 0.0, self.kink), p)
        return np.where(right, np.clip(self._h1_inverse(-0.5 * lam - mu), self.kink, 1.0), p)

    def _h1_inverse(self, s: float) -> np.ndarray:
        """p with h_l'(p) = s, below 0 where h_l' > s everywhere and +inf
        where h_l' < s everywhere."""
        p = self.a / np.sqrt(self.n * (self.n - s)) - self.c
        return np.where(s < self.n, p, np.inf)

    def _newton_bins(self, lam: float, mu: float) -> np.ndarray:
        L, f1, f2 = self.L, self.div.f_prime, self.div.f_second
        empty = self.a <= 0.0  # asym, V_l = 0: h_l is linear
        log_a2n = np.log(np.where(empty, 1.0, self.a**2 / self.n))

        def condition(u):
            """A function of u = log p with the sign of the stationarity
            condition h'(p) + mu + lam f'(L p), and its u-derivative.  Where
            a_l > 0 it is log(n + mu + lam f'(L p)) + 2 log(p + c) -
            log(a_l^2 / n): nearly linear in u, so Newton does not crawl
            back from the steep far left of h_l'."""
            p = np.exp(u)
            b = self.n + mu + lam * f1(L * p)
            db = lam * L * p * f2(L * p)
            phi = np.where(b > 0.0, np.log(b) + 2.0 * np.log(p + self.c) - log_a2n, -np.inf)
            dphi = db / b + 2.0 * p / (p + self.c)
            return np.where(empty, b, phi), np.where(empty, db, dphi)

        # the box ends settle the bins whose condition keeps one sign on [0, 1]
        lo, hi = np.full(L, _U_MIN), np.zeros(L)
        at_lo, at_hi = condition(lo)[0] >= 0.0, condition(hi)[0] <= 0.0
        inside = ~(at_lo | at_hi)
        u = np.where(at_lo, _U_MIN, np.where(at_hi, 0.0, np.clip(self.u, _U_MIN, 0.0)))
        for _ in range(_BIN_STEPS):
            g, dg = condition(u)
            lo = np.where(g < 0.0, u, lo)
            hi = np.where(g > 0.0, u, hi)
            step = u - g / dg
            step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
            new = np.where(inside, step, u)
            done = np.all(np.abs(new - u) <= 1e-12)
            u = new
            if done:
                break
        self.u = u
        return np.exp(u)

    def slope(self, p: np.ndarray, lam: float, mu: float) -> np.ndarray:
        """The element of each per-bin subdifferential nearest 0 at p."""
        base = self._h1(p) + mu
        if not self.tv:
            return base + lam * self.div.f_prime(self.L * p)
        lo, hi = base - 0.5 * lam, base + 0.5 * lam
        return np.where(p < self.kink, lo, np.where(p > self.kink, hi, np.clip(0.0, lo, hi)))

    def weights(self, p: np.ndarray, lam: float) -> np.ndarray:
        """-dp_l/dmu: the inverse curvature of each interior bin, 0 at the box
        ends and the TV kink, inf where the bin's minimizer is not unique."""
        if self.tv:
            interior = (p > 0.0) & (p < 1.0) & (p != self.kink)
            curv = self._h2(p)
        else:
            interior = (p > _P_MIN) & (p < 1.0)
            curv = self._h2(p) + lam * self.L * self.div.f_second(self.L * p)
        return np.where(interior, 1.0 / curv, 0.0)

    def solve_mu(self, lam: float, mu: float) -> Tuple[float, np.ndarray]:
        """mu with sum_l p_l(lam, mu) = 1, from the guess mu; returns (mu, p)."""
        # at mu = -max(h'(1/L) + lam f'(1)) every bin sits at or right of
        # 1/L, so sum p >= 1; at -min(...) every bin sits at or left of it
        base = self.h_kink + lam * self.f_kink
        lo, hi = -float(base.max()), -float(base.min())
        p_lo = p_hi = None
        mu = min(max(mu, lo), hi)
        for _ in range(_MU_STEPS):
            p = self.bins(lam, mu)
            excess = float(p.sum()) - 1.0
            if abs(excess) <= _MU_TOL:
                return mu, p
            if excess > 0.0:
                lo, p_lo = mu, p
            else:
                hi, p_hi = mu, p
            w = float(self.weights(p, lam).sum())
            new = mu + excess / w if w > 0.0 else math.nan
            if not lo < new < hi:
                new = 0.5 * (lo + hi)
            if new == mu or hi - lo <= 4.0 * _EPS * max(abs(lo), abs(hi), 1.0):
                break
            mu = new
        # sum p jumps across the root: under TV and the asym rule an empty
        # bin's minimizer is any point of [0, 1/L] where n + mu = lam/2.
        # Mix the bracket ends to hit 1.
        p_lo = self.bins(lam, lo) if p_lo is None else p_lo
        p_hi = self.bins(lam, hi) if p_hi is None else p_hi
        s_lo, s_hi = float(p_lo.sum()), float(p_hi.sum())
        theta = (1.0 - s_hi) / (s_lo - s_hi) if s_lo > s_hi else 0.0
        return 0.5 * (lo + hi), p_hi + theta * (p_lo - p_hi)

    def distance_slope(self, p: np.ndarray, lam: float) -> Tuple[float, float]:
        """(dD/dlam, dmu/dlam) along mu(lam), D = (1/L) sum f(L p)."""
        w = self.weights(p, lam)
        fp = self.div.f_prime(self.L * p)
        free = np.isinf(w)
        if free.any():  # the jump bins absorb any change of sum p
            mean = float(fp[free].mean())
            w = np.where(free, 0.0, w)
        elif w.sum() > 0.0:
            mean = float(np.sum(w * fp) / w.sum())
        else:
            return 0.0, -self.f_kink
        return -float(np.sum(w * (fp - mean) ** 2)), -mean

    def dual_value(self, p: np.ndarray, lam: float, mu: float) -> float:
        """g(lam, mu), each per-bin minimum bounded below by the tangent at p
        over [0, 1]."""
        s = self.slope(p, lam, mu)
        tangent = np.minimum(-s * p, s * (1.0 - p))
        return (
            _objective(self.v, self.n, self.c, p)
            + mu * (float(p.sum()) - 1.0)
            + lam * (self.distance(p) - self.tau)
            + float(tangent.sum())
        )


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def solve_u_stat(
    variant: StatVariant,
    V,
    tau: float,
    div: FDivergence,
    cfg: Optional[SolverConfig] = None,
    certify_threshold: Optional[float] = None,
) -> UStatResult:
    """Minimize the variant objective over the ball, with certified bounds.

    Iterates on the ball multiplier until upper - lower <= ``cfg.gap_tol``;
    with ``certify_threshold`` it stops as soon as the bounds decide
    U_tau >= threshold, and runs past the tolerance until they do.
    ``iterations`` counts ball-multiplier iterates.
    """
    cfg = cfg or SolverConfig()
    variant = StatVariant(variant)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    v, n, L = _counts(V)
    c = _offset(variant, L)
    uniform = np.full(L, 1.0 / L)

    if tau == 0.0 or L == 1:
        value = _objective(v, n, c, uniform)
        return UStatResult(value, value, uniform, 0, 0.0, True)
    empirical = v / n
    radius = discrete_divergence_to_uniform(div, empirical)
    if radius <= tau:
        return UStatResult(0.0, 0.0, empirical, 0, 0.0, True)

    lag = _Lagrangian(v, n, c, tau, div)
    upper, best = _objective(v, n, c, uniform), uniform
    lower = 0.0
    # U_tau is convex in tau, from U_0 at 0 down to 0 at the radius: its
    # secant slope is the first guess of lam = -dU/dtau
    t = math.log(upper / radius)
    t_lo, t_hi = -math.inf, math.inf
    mu = -math.exp(t) * lag.f_kink
    iterations, done = 0, False
    for iterations in range(1, cfg.max_iters + 1):
        lam = math.exp(t)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            mu, p = lag.solve_mu(lam, mu)
            lower = max(lower, lag.dual_value(p, lam, mu))
            slope, mu_slope = lag.distance_slope(p, lam)
        q = p / float(p.sum())
        dist = lag.distance(q)
        if dist > tau:  # the ball is convex and holds uniform: this stays inside
            q = uniform + (tau / dist) * (q - uniform)
        value = _objective(v, n, c, q)
        if value < upper:
            upper, best = value, q
        if certify_threshold is None:
            done = upper - lower <= cfg.gap_tol
        else:
            done = lower >= certify_threshold or upper < certify_threshold
        if done:
            break
        excess = lag.distance(p) - tau
        if excess > 0.0:
            t_lo = t
        else:
            t_hi = t
        new = math.nan
        if slope < 0.0:
            new = t + max(-_LAM_STEP, min(_LAM_STEP, -excess / (lam * slope)))
        if not t_lo < new < t_hi:
            if math.isinf(t_lo) or math.isinf(t_hi):
                new = t + (_LAM_STEP if excess > 0.0 else -_LAM_STEP)
            else:
                new = 0.5 * (t_lo + t_hi)
        if new == t:
            break
        mu += (math.exp(new) - lam) * mu_slope  # first-order warm start
        t = new
    return UStatResult(upper, lower, best, iterations, upper - lower, done)


def u_stat(variant: StatVariant, V, tau: float, div: FDivergence, cfg: Optional[SolverConfig] = None) -> float:
    """Minimum of the variant objective over the f-divergence ball."""
    return solve_u_stat(variant, V, tau, div, cfg).value


def u_stat_exceeds(
    variant: StatVariant,
    V,
    tau: float,
    threshold: float,
    div: FDivergence,
    cfg: Optional[SolverConfig] = None,
) -> bool:
    """Whether U_tau(V) >= threshold, as certified by the solver's bounds.

    Raises SolverError when ``cfg.max_iters`` iterates leave the threshold
    between the bounds.
    """
    return solve_u_stat(variant, V, tau, div, cfg, certify_threshold=threshold).certified(threshold)
