import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasp.divergence import KL, TV, HELLINGER, custom_divergence, discrete_divergence_to_uniform
from grasp.inference import evaluate_counts
from grasp.sampling import BinCounts
import grasp.solver as solver
from grasp.solver import (
    SolverError,
    StatVariant,
    gradient,
    objective,
    solve_u_stat,
    u_stat,
    u_stat_exceeds,
)
from oracles import u_stat_grid_oracle

ALL = [KL, TV, HELLINGER]

# simple-pipeline counts of the seed-89 synthetic benchmark (n = 5000, L = 50)
TV_COUNTS = [
    1112, 259, 170, 115, 84, 80, 54, 75, 64, 53, 44, 34, 37, 38, 23, 21, 37, 26, 30, 20,
    24, 20, 22, 19, 27, 21, 20, 19, 26, 25, 26, 9, 31, 25, 22, 19, 38, 25, 45, 35,
    39, 39, 47, 68, 72, 98, 122, 167, 276, 1198,
]


def test_objective_hand_values():
    V = np.array([7.0, 3.0])
    uniform = np.array([0.5, 0.5])
    assert objective("asym", V, uniform) == pytest.approx(1.6)
    assert objective("finite", V, uniform) == pytest.approx(0.8)
    assert objective("asym", V, V / 10.0) == pytest.approx(0.0)
    assert objective("finite", V, V / 10.0) == pytest.approx(0.0)


def test_objective_boundary_extension():
    V = np.array([4.0, 0.0])
    p = np.array([1.0, 0.0])
    assert np.isfinite(objective("asym", V, p))
    assert objective("asym", np.array([3.0, 1.0]), p) == math.inf


def test_gradient_zero_at_empirical():
    V = np.array([12.0, 6.0, 6.0])
    p = V / V.sum()
    assert np.max(np.abs(gradient("asym", V, p))) < 1e-9
    assert np.max(np.abs(gradient("finite", V, p))) < 1e-9


def test_gradient_boundary_error():
    with pytest.raises(ValueError):
        gradient("asym", np.array([1.0, 1.0]), np.array([1.0, 0.0]))


def test_gradient_matches_finite_differences():
    gen = np.random.default_rng(12)
    h = 1e-6
    for _ in range(40):
        L = int(gen.integers(2, 7))
        n = int(gen.integers(10, 500))
        V = gen.multinomial(n, gen.dirichlet(np.ones(L))).astype(float)
        p = gen.dirichlet(2.0 * np.ones(L))
        p = 0.9 * p + 0.1 / L  # keep strictly interior
        for variant in ("asym", "finite"):
            g = gradient(variant, V, p)
            for i in range(L):
                e = np.zeros(L)
                e[i] = h
                fd = (objective(variant, V, p + e) - objective(variant, V, p - e)) / (2 * h)
                assert abs(g[i] - fd) < 1e-4 * max(1.0, abs(fd))


def test_lmo_constant_input_returns_uniform():
    # equal counts: the empirical point is uniform and attains U_tau = 0
    for div in ALL:
        for variant in ("asym", "finite"):
            res = solve_u_stat(variant, np.full(5, 7.0), 0.4, div)
            assert np.allclose(res.minimizer, 0.2)
            assert res.value == pytest.approx(0.0, abs=1e-12)


def test_lmo_tau_zero_returns_uniform():
    V = np.array([5.0, 1.0, 2.0])
    for div in ALL:
        for variant in ("asym", "finite"):
            res = solve_u_stat(variant, V, 0.0, div)
            assert np.allclose(res.minimizer, 1.0 / 3)
            assert res.lower == res.value == pytest.approx(objective(variant, V, np.full(3, 1.0 / 3)))
            # a tiny ball keeps the minimizer next to uniform
            near = solve_u_stat(variant, V, 1e-10, div)
            assert np.max(np.abs(near.minimizer - 1.0 / 3)) < 1e-4


def test_lmo_large_ball_reaches_vertex():
    # all mass in one bin: as tau nears the vertex's radius the minimizer
    # moves onto that vertex and U_tau falls toward 0
    V = np.array([40.0, 0.0, 0.0])
    vertex = np.array([1.0, 0.0, 0.0])
    for div in ALL:
        radius = discrete_divergence_to_uniform(div, vertex)
        res = solve_u_stat("asym", V, 0.999 * radius, div)
        oracle = u_stat_grid_oracle("asym", V, 0.999 * radius, div)
        assert res.converged
        assert res.minimizer[0] > 0.99, div.kind
        assert res.lower <= oracle + 1e-9
        assert abs(res.value - oracle) <= max(1e-3, 1e-3 * oracle)
        above = solve_u_stat("asym", V, 1.01 * radius, div)
        assert np.array_equal(above.minimizer, vertex) and above.value == 0.0


def test_lmo_generic_dual_path_matches_fast_paths():
    # custom clones of KL and Hellinger, given f, f' and f'', solve to the
    # same U_tau as the built-in divergences
    kl_clone = custom_divergence(
        f=KL.f, f_prime=KL.f_prime, f_second=KL.f_second, recession_slope=math.inf
    )
    hell_clone = custom_divergence(
        f=HELLINGER.f, f_prime=HELLINGER.f_prime, f_second=HELLINGER.f_second, recession_slope=1.0
    )
    gen = np.random.default_rng(5)
    for clone, builtin in [(kl_clone, KL), (hell_clone, HELLINGER)]:
        for _ in range(6):
            L = int(gen.integers(2, 6))
            V = gen.multinomial(int(gen.integers(20, 300)), gen.dirichlet(np.ones(L))).astype(float)
            tau = float(gen.choice([0.02, 0.1, 0.3]))
            for variant in ("asym", "finite"):
                generic = solve_u_stat(variant, V, tau, clone)
                fast = solve_u_stat(variant, V, tau, builtin)
                assert generic.converged and fast.converged
                assert generic.value == pytest.approx(fast.value, abs=5e-5)
                assert generic.lower <= fast.value + 1e-9 and fast.lower <= generic.value + 1e-9


def test_custom_divergence_matches_grid_oracle():
    # chi-square: f'(0) = -2 is finite, so per-bin minima can sit at p = 0
    chi2 = custom_divergence(
        f=lambda t: (np.asarray(t, dtype=float) - 1.0) ** 2,
        f_prime=lambda t: 2.0 * (np.asarray(t, dtype=float) - 1.0),
        f_second=lambda t: np.full_like(np.asarray(t, dtype=float), 2.0),
    )
    gen = np.random.default_rng(5)
    for _ in range(6):
        L = int(gen.integers(2, 4))
        V = gen.multinomial(int(gen.integers(20, 200)), gen.dirichlet(np.ones(L))).astype(float)
        tau = float(gen.uniform(0.05, 0.8)) * discrete_divergence_to_uniform(chi2, V / V.sum())
        for variant in ("asym", "finite"):
            res = solve_u_stat(variant, V, tau, chi2)
            oracle = u_stat_grid_oracle(variant, V, tau, chi2)
            assert abs(res.value - oracle) <= max(1e-3, 1e-3 * oracle)
            assert res.lower <= oracle + 1e-9


def test_u_stat_tau_zero_closed_forms():
    V = np.array([2.0, 2.0, 2.0, 2.0])
    assert u_stat("asym", V, 0.0, KL) == pytest.approx(0.0)
    assert u_stat("finite", V, 0.0, KL) == pytest.approx(0.0)
    V = np.array([7.0, 3.0])
    # uniform is the only feasible point: value equals the objective there
    assert u_stat("asym", V, 0.0, KL) == pytest.approx(1.6)
    assert u_stat("finite", V, 0.0, KL) == pytest.approx(0.8)


def test_u_stat_feasible_empirical_is_zero():
    V = np.array([11.0, 9.0])
    for div in ALL:
        assert u_stat("asym", V, 0.5, div) == 0.0


def test_u_stat_pinned_example_vs_oracle():
    V = np.array([20.0, 5.0, 5.0])
    for variant in ("asym", "finite"):
        fw = u_stat(variant, V, 0.05, KL)
        oracle = u_stat_grid_oracle(variant, V, 0.05, KL)
        assert fw == pytest.approx(oracle, rel=1e-3)


def test_u_stat_randomized_vs_oracle():
    gen = np.random.default_rng(99)
    for trial in range(10):
        L = int(gen.integers(2, 4))
        n = int(gen.integers(20, 200))
        V = gen.multinomial(n, gen.dirichlet(3.0 * np.ones(L))).astype(float)
        tau = float(gen.choice([0.01, 0.05, 0.2]))
        div = ALL[trial % 3]
        for variant in ("asym", "finite"):
            fw = u_stat(variant, V, tau, div)
            oracle = u_stat_grid_oracle(variant, V, tau, div)
            assert abs(fw - oracle) <= max(1e-3, 1e-3 * oracle)


def test_u_stat_nonincreasing_in_tau():
    gen = np.random.default_rng(17)
    taus = [0.0, 0.01, 0.05, 0.1, 0.3, 0.8]
    for div in ALL:
        V = gen.multinomial(300, gen.dirichlet(np.ones(5))).astype(float)
        for variant in ("asym", "finite"):
            vals = [u_stat(variant, V, t, div) for t in taus]
            for a, b in zip(vals, vals[1:]):
                assert b <= a + 1e-6


def test_finite_dominated_by_asym():
    gen = np.random.default_rng(23)
    for trial in range(12):
        L = int(gen.integers(2, 8))
        V = gen.multinomial(int(gen.integers(30, 400)), gen.dirichlet(np.ones(L))).astype(float)
        tau = float(gen.uniform(0, 0.4))
        div = ALL[trial % 3]
        assert u_stat("finite", V, tau, div) <= u_stat("asym", V, tau, div) + 1e-7


def test_minimizer_feasibility():
    gen = np.random.default_rng(31)
    for div in ALL:
        V = gen.multinomial(250, gen.dirichlet(np.ones(6))).astype(float)
        res = solve_u_stat("asym", V, 0.07, div)
        p = res.minimizer
        assert np.all(p >= -1e-9)
        assert abs(float(p.sum()) - 1.0) <= 1e-9
        assert discrete_divergence_to_uniform(div, np.maximum(p, 0) / p.sum()) <= 0.07 + 1e-6


def test_value_improves_with_iterations(monkeypatch):
    V = np.array([60.0, 25.0, 15.0])
    prev = math.inf
    for iters in (3, 20, 200):
        monkeypatch.setattr(solver, "_MAX_ITERS", iters)
        val = u_stat("asym", V, 0.05, KL)
        assert val <= prev + 1e-12
        prev = val


def test_u_stat_exceeds_matches_exact_solve():
    gen = np.random.default_rng(41)
    for trial in range(10):
        L = int(gen.integers(2, 12))
        V = gen.multinomial(int(gen.integers(50, 800)), gen.dirichlet(np.ones(L))).astype(float)
        tau = float(gen.uniform(0.0, 0.3))
        div = ALL[trial % 3]
        value = u_stat("asym", V, tau, div)
        for thr in (0.5 * value + 0.1, 2.0 * value + 1.0):
            assert u_stat_exceeds("asym", V, tau, thr, div) == (value >= thr)


def test_solver_reports_diagnostics():
    res = solve_u_stat("finite", np.array([40.0, 10.0, 10.0]), 0.02, KL)
    assert res.iterations >= 1
    assert res.gap >= 0.0
    assert res.converged


def test_negative_tau_rejected():
    with pytest.raises(ValueError):
        u_stat("asym", np.array([2.0, 2.0]), -0.1, KL)


def test_variant_tokens():
    assert StatVariant("finite") is StatVariant.FINITE
    assert StatVariant("asym") is StatVariant.ASYM
    with pytest.raises(ValueError):
        StatVariant("bogus")


def _tv_outcome(variant):
    counts = BinCounts(np.array(TV_COUNTS))
    return evaluate_counts(variant, counts, 0.44, TV, 0.1)


def test_tv_finite_instance_accepts():
    # a feasible point with objective 75.4653 lies below the threshold 81.62
    out = _tv_outcome("finite")
    assert out.statistic == pytest.approx(75.4653, rel=1e-3)
    assert out.threshold == pytest.approx(81.62, abs=0.01)
    assert not out.reject


def test_tv_asym_instance_value():
    assert _tv_outcome("asym").statistic == pytest.approx(150.5092, rel=1e-3)


def test_asym_empty_bins_match_grid_oracle():
    # h_l is linear in an empty bin under the asym rule; for TV its per-bin
    # minimizer is the kink 1/L while n + mu - lam/2 < 0 < n + mu + lam/2
    for V in ([10.0, 0.0], [5.0, 0.0, 0.0], [3.0, 0.0, 4.0], [40.0, 0.0, 9.0], [0.0, 0.0, 9.0]):
        V = np.array(V)
        for div in ALL:
            radius = discrete_divergence_to_uniform(div, V / V.sum())
            for frac in (0.1, 0.5, 0.9):
                tau = frac * radius
                res = solve_u_stat("asym", V, tau, div)
                oracle = u_stat_grid_oracle("asym", V, tau, div)
                assert res.converged
                assert abs(res.value - oracle) <= max(1e-3, 1e-3 * oracle), (V, div.kind, frac)
                assert res.lower <= oracle + 1e-9


def test_undecided_threshold_raises(monkeypatch):
    V = np.array(TV_COUNTS, dtype=float)
    monkeypatch.setattr(solver, "_MAX_ITERS", 1)
    res = solve_u_stat("finite", V, 0.44, TV)
    thr = 1000.0
    assert res.lower < thr <= res.value
    assert res.decision(thr) is None
    with pytest.raises(SolverError):
        u_stat_exceeds("finite", V, 0.44, thr, TV)
    alpha = 2 * 50 / (thr - 50) ** 2  # finite threshold L + sqrt(2L/alpha) = thr
    with pytest.raises(SolverError):
        evaluate_counts("finite", BinCounts(V.astype(int)), 0.44, TV, alpha)


def test_decisions_follow_bounds():
    V = np.array(TV_COUNTS, dtype=float)
    for div in ALL:
        res = solve_u_stat("finite", V, 0.3, div)
        assert res.lower <= res.value <= res.lower + 1e-6
        for thr, expected in ((res.lower, True), (res.value * (1 + 1e-9), False)):
            early = solve_u_stat("finite", V, 0.3, div, certify_threshold=thr)
            assert early.converged and early.decision(thr) is expected
            assert u_stat_exceeds("finite", V, 0.3, thr, div) is expected


def test_lower_bound_never_exceeds_value_under_rounding(monkeypatch):
    # at a gap tolerance of 1e-12 the dual value rounded up to 2.3e-12 above
    # the feasible objective (9e-13 at tau=0.05); a threshold between them
    # would be both rejected and accepted
    monkeypatch.setattr(solver, "_GAP_TOL", 1e-12)
    V = np.array(TV_COUNTS, dtype=float)
    for tau in (0.1, 0.05):
        res = solve_u_stat("finite", V, tau, TV)
        assert res.lower <= res.value
        assert res.gap >= 0.0


_instances = st.tuples(
    st.lists(st.integers(0, 60), min_size=2, max_size=3).filter(lambda v: sum(v) > 0),
    # the 0.002-step grid oracle is itself off by more than its tolerance
    # close to the radius when a count of 1 sits next to large ones
    st.floats(0.02, 0.9),
    st.sampled_from(ALL),
    st.sampled_from(["finite", "asym"]),
)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_instances)
def test_property_bounds_bracket_grid_oracle(instance):
    counts, frac, div, variant = instance
    V = np.array(counts, dtype=float)
    tau = frac * discrete_divergence_to_uniform(div, V / V.sum())
    res = solve_u_stat(variant, V, tau, div)
    oracle = u_stat_grid_oracle(variant, V, tau, div)
    assert res.lower <= oracle + 1e-9
    assert abs(res.value - oracle) <= max(1e-3, 1e-3 * oracle)
    p = res.minimizer
    assert abs(float(p.sum()) - 1.0) <= 1e-9
    assert discrete_divergence_to_uniform(div, p) <= tau + 1e-9


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_instances, st.floats(0.0, 1.0))
def test_property_nonincreasing_in_tau(instance, other):
    counts, frac, div, variant = instance
    V = np.array(counts, dtype=float)
    radius = discrete_divergence_to_uniform(div, V / V.sum())
    lo, hi = sorted((frac * radius, other * radius))
    assert u_stat(variant, V, hi, div) <= u_stat(variant, V, lo, div) + 1e-7
