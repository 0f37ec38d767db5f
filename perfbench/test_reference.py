"""Tests of the benchmark's reference solver and of its bin-count laws.

Run from the repository root:
    PYTHONPATH=src python3 -m pytest -q perfbench/test_reference.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
from grasp.divergence import get_divergence  # noqa: E402
from oracles import u_stat_grid_oracle  # noqa: E402

RULES = ("finite", "asym")


@pytest.mark.parametrize("kind", reference.KINDS)
def test_matches_grid_oracle_small_L(kind):
    gen = np.random.default_rng(31)
    for _ in range(6):
        L = int(gen.integers(2, 4))
        n = int(gen.integers(20, 200))
        V = gen.multinomial(n, gen.dirichlet(2.0 * np.ones(L))).astype(float)
        tau = float(gen.choice([0.01, 0.05, 0.2]))
        for rule in RULES:
            ref = reference.solve(rule, V, tau, kind).value
            oracle = u_stat_grid_oracle(rule, V, tau, get_divergence(kind), step=0.002)
            # the grid oracle is itself an upper bound, so the reference may
            # only sit below it by the grid's resolution
            assert ref <= oracle + 1e-9, (kind, rule, V, tau, ref, oracle)
            assert oracle - ref <= max(1e-3, 1e-3 * oracle), (kind, rule, V, tau, ref, oracle)


@pytest.mark.parametrize("kind", reference.KINDS)
def test_tau_zero_is_objective_at_uniform(kind):
    V = np.array([30.0, 5.0, 0.0, 12.0, 53.0])
    n, L = V.sum(), V.size
    closed = {
        "finite": float(np.sum((V - n / L) ** 2) / (n * 2.0 / L)),
        "asym": float(np.sum((V - n / L) ** 2) / (n / L)),  # Pearson
    }
    for rule in RULES:
        assert reference.solve(rule, V, 0.0, kind).value == pytest.approx(closed[rule], rel=1e-12)


@pytest.mark.parametrize("kind", reference.KINDS)
def test_zero_once_the_empirical_frequencies_are_feasible(kind):
    V = np.array([30.0, 5.0, 1.0, 12.0, 52.0])
    emp = reference.div_to_uniform(kind, V / V.sum())
    for rule in RULES:
        for tau in (emp, emp * 1.5):
            assert reference.solve(rule, V, tau, kind).value == 0.0
        # just inside, the minimum is small but positive
        assert reference.solve(rule, V, 0.98 * emp, kind).value > 0.0


@pytest.mark.parametrize("kind", reference.KINDS)
def test_points_are_feasible_and_values_nonincreasing(kind):
    gen = np.random.default_rng(5)
    V = gen.multinomial(4000, gen.dirichlet(np.ones(50))).astype(float)
    emp = reference.div_to_uniform(kind, V / V.sum())
    for rule in RULES:
        prev = np.inf
        for tau in np.linspace(0.05, 0.95, 5) * emp:
            sol = reference.solve(rule, V, tau, kind)
            assert sol.divergence <= tau + 1e-9
            assert reference.objective(rule, V, sol.point) == sol.value
            assert sol.value <= prev
            prev = sol.value


def test_crossing_brackets_the_threshold():
    gen = np.random.default_rng(9)
    V = gen.multinomial(3000, gen.dirichlet(np.ones(20))).astype(float)
    for kind in reference.KINDS:
        for rule in RULES:
            thr = reference.threshold(rule, V.size, 0.1)
            c = reference.crossing(rule, V, kind, thr)
            assert c > 0
            assert reference.solve(rule, V, c - 1e-5, kind).value >= thr
            assert reference.solve(rule, V, c + 1e-5, kind).value < thr


def test_thresholds_and_p_values():
    assert reference.threshold("finite", 50, 0.1) == pytest.approx(50 + np.sqrt(1000.0))
    assert reference.threshold("asym", 50, 0.1) == pytest.approx(62.0375, abs=1e-4)
    assert reference.p_value("finite", 40.0, 50) == 1.0
    assert reference.p_value("finite", 100.0, 50) == pytest.approx(100.0 / 2500.0)
    assert reference.p_value("asym", 746.2, 50) == pytest.approx(2.1e-125, rel=0.05)


def test_simple_bin_law_closed_forms():
    got = reference.expected_counts_simple([1, 0, 1], [0.5, 0.25, 0.0], 4)
    # Unif[0, 0.5] -> bins 1-2; Unif[0.25, 1] -> bins 2-4; w = 0 -> bin 1
    assert got == pytest.approx([0.5 + 1.0, 0.5 + 1 / 3, 1 / 3, 1 / 3])


def test_agnostic_bin_law_closed_forms():
    L = 5
    # fixed features, y = 1, eta_hat = 0.3: the original's 0.5/0.3 is the
    # larger score, so every counterfeit ties or loses and the bin is L
    assert reference.expected_counts_agnostic([1], [0.3], L) == pytest.approx([0, 0, 0, 0, 1])
    # y = 1, eta_hat = 0.8: a counterfeit scores at most 0.5/0.8 with chance 0.8
    binom = [math.comb(L - 1, k) * 0.8**k * 0.2 ** (L - 1 - k) for k in range(L)]
    assert reference.expected_counts_agnostic([1], [0.8], L) == pytest.approx(binom)
    # a pool whose probabilities are all eta_hat is the fixed-feature case
    for y in (0, 1):
        pooled = reference.expected_counts_agnostic([y], [0.8], L, eta_cf=np.full(3, 0.8))
        assert pooled == pytest.approx(reference.expected_counts_agnostic([y], [0.8], L))


def _simulated_counts(gen, y, eta_hat, L, eta_cf):
    """The ranked pipeline with the agnostic score and K = 1, drawn directly."""
    def score(eta, w):
        return np.where(w < eta, 0.5 / eta, 0.5 / (1.0 - eta))

    u = gen.uniform(size=y.size)
    w = np.where(y == 1, u * eta_hat, eta_hat + u * (1.0 - eta_hat))
    t = score(eta_hat, w)
    if eta_cf is None:
        eta_c = np.repeat(eta_hat[:, None], L - 1, axis=1)
    else:
        eta_c = eta_cf[gen.integers(0, eta_cf.size, size=(y.size, L - 1))]
    t_cf = score(eta_c, gen.uniform(size=eta_c.shape))
    ranks = 1 + np.count_nonzero(t[:, None] >= t_cf, axis=1)
    return np.bincount(ranks - 1, minlength=L)


@pytest.mark.parametrize("pooled", [False, True])
def test_agnostic_bin_law_fits_direct_draws_and_rejects_a_wrong_law(pooled):
    gen = np.random.default_rng(17)
    L, n = 10, 20000
    eta_hat = 1.0 / (1.0 + np.exp(-2.0 * gen.standard_normal(n)))
    y = (gen.uniform(size=n) < 1.0 - eta_hat).astype(int)
    eta_cf = 1.0 / (1.0 + np.exp(-2.0 * gen.standard_normal(300))) if pooled else None
    V = _simulated_counts(gen, y, eta_hat, L, eta_cf)
    expected = reference.expected_counts_agnostic(y, eta_hat, L, eta_cf)
    assert expected.sum() == pytest.approx(n)
    assert reference.counts_pvalue(V, expected) > 1e-3
    assert reference.counts_pvalue(np.roll(V, 1), expected) < 1e-6


def test_simple_bin_law_fits_direct_draws_and_rejects_a_wrong_law():
    gen = np.random.default_rng(23)
    L, n = 50, 5000
    eta_hat = 1.0 / (1.0 + np.exp(-2.0 * gen.standard_normal(n)))
    y = (gen.uniform(size=n) < 1.0 - eta_hat).astype(int)
    u = gen.uniform(size=n)
    w = np.where(y == 1, u * eta_hat, eta_hat + u * (1.0 - eta_hat))
    V = np.bincount(np.clip(np.ceil(w * L).astype(int), 1, L) - 1, minlength=L)
    expected = reference.expected_counts_simple(y, eta_hat, L)
    assert reference.counts_pvalue(V, expected) > 1e-3
    # w = u alone, as if y and eta_hat were ignored
    wrong = np.bincount(np.clip(np.ceil(u * L).astype(int), 1, L) - 1, minlength=L)
    assert reference.counts_pvalue(wrong, expected) < 1e-6
