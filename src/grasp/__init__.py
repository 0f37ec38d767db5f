"""Tolerance goodness-of-fit testing for binary classifiers.

Tests whether the expected Bernoulli f-divergence between a black-box
classifier and the true conditional label law exceeds a tolerance, from
held-out data alone.  Provides a fixed-feature (distribution-free) variant,
a known-feature-distribution variant, one-sided confidence bounds, and a
dataset-level randomization test of exact fit, all backed by an
exact Lagrangian-dual solver over f-divergence balls that certifies each
decision with a lower and an upper bound on the statistic.
"""

__version__ = "0.1.0"

from .divergence import (
    KL,
    TV,
    HELLINGER,
    BernoulliPair,
    FDivergence,
    bernoulli_divergence,
    bernoulli_divergence_many,
    discrete_divergence_to_uniform,
    f_eval,
    get_divergence,
)
from .experiments import (
    ExperimentSpec,
    ResultRow,
    gen_logistic_data,
    label_uniformity_check,
    make_theta0,
    run_power_table,
    run_size_table,
    tau0_monte_carlo,
)
from .inference import (
    ConfidenceBound,
    TestOutcome,
    chi2_cdf,
    chi2_quantile,
    ci_lower,
    crt_pvalue,
    decide,
    perfect_fit_test,
    pvalue_asym,
    pvalue_finite,
    evaluate_counts,
)
from .sampling import (
    BinCounts,
    EvalSample,
    FeatureSampler,
    RngStream,
    assign_label,
    draw_w,
    grasp_counts_df,
    grasp_counts_modelx,
    grasp_counts_simple,
    rank,
)
from .scores import (
    DatasetScoreFn,
    ProbModel,
    ScoreFn,
    dataset_score_mse,
    fit_linear_score,
    score_agnostic_modelx,
    score_identity,
    score_linear_residual,
    score_optimal_oracle,
    sigmoid,
)
from .solver import (
    SolverConfig,
    SolverError,
    StatVariant,
    UStatResult,
    gradient,
    objective,
    solve_u_stat,
    u_stat,
    u_stat_exceeds,
)

__all__ = [name for name in dir() if not name.startswith("_")]
