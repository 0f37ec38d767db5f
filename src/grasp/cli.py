"""Command-line interface.

Commands: ``test`` (fixed-feature tolerance test), ``modelx-test`` (known
feature distribution), ``perfect-fit`` (dataset-level randomization test),
``ci`` (one-sided lower confidence bound), ``simulate`` (size/power
tables), ``tau0`` (Monte-Carlo estimate of the true divergence for the
synthetic logistic benchmark).

Exit codes: 0 the computation ran (the accept/reject decision lives in the
payload), 2 malformed input or flags, 3 solver failure.  Identical
invocations (flags, files, seed) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from typing import Optional

from . import __version__
from .dataio import (
    InputError,
    dump_json,
    read_pool_csv,
    read_samples_csv,
    read_scores_csv,
    read_theta,
    parse_flat_config,
    rows_to_csv,
    rows_to_json,
    rows_to_plot_data,
    spec_from_config,
)
from .divergence import get_divergence
from .experiments import make_theta0, run_power_table, run_size_table, tau0_monte_carlo, theta1_from_rule
from .inference import ci_lower, perfect_fit_test, evaluate_counts
from .sampling import FeatureSampler, RngStream, grasp_counts_df, grasp_counts_modelx, grasp_counts_simple
from .scores import DatasetScoreFn, ProbModel, ScoreFn
from .solver import SolverConfig, SolverError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3


def _write(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _write_payload(args: argparse.Namespace, payload: dict) -> int:
    """Write a JSON payload with its provenance: the version and every flag."""
    flags = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    payload["provenance"] = {"version": __version__, "flags": flags}
    _write(dump_json(payload), args.out)
    return EXIT_OK


def _make_score(args: argparse.Namespace) -> ScoreFn:
    if args.score == "identity":
        return ScoreFn.identity()
    if args.score == "agnostic":
        return ScoreFn.agnostic()
    if args.score == "residual":
        if args.theta is None:
            raise InputError("--score residual requires --theta (fitted coefficients)")
        return ScoreFn.linear_residual(read_theta(args.theta))
    if args.score == "external":
        if args.scores_file is None:
            raise InputError("--score external requires --scores-file")
        return ScoreFn.external(*read_scores_csv(args.scores_file))
    raise InputError(f"unknown score token {args.score!r}")


def _variants(token: str):
    if token == "both":
        return ["asym", "finite"]
    if token in ("asym", "finite"):
        return [token]
    raise InputError("--variant must be finite, asym, or both")


def _write_per_variant(args: argparse.Namespace, result) -> int:
    """Write result(variant) for each --variant: the one result, or all of
    them keyed by variant."""
    results = {variant: result(variant) for variant in _variants(args.variant)}
    return _write_payload(args, next(iter(results.values())) if len(results) == 1 else results)


def _counts_from_args(args: argparse.Namespace, samples, px, model):
    """Counts for --score.  With fixed features (px None): the simple
    pipeline for the identity score, else the ranked one with --K.  With a
    feature sampler px: the ranked pipeline with counterfeit features from
    px, where model gives eta_hat."""
    rng = RngStream(args.seed)
    score = _make_score(args)
    if px is None and args.score == "identity":
        return grasp_counts_simple(samples, args.L, rng)
    if args.K is None:
        raise InputError(f"--score {args.score} requires --K")
    if px is None:
        return grasp_counts_df(samples, score, args.L, args.K, rng)
    if model is None and "eta_hat" in score.reads:
        raise InputError(
            f"--score {args.score} needs eta_hat at counterfeit features; pass --theta "
            "(logistic coefficients) or use --score identity"
        )
    return grasp_counts_modelx(samples, score, model, px, args.L, args.K, rng)


def _write_outcomes(args: argparse.Namespace, counts, div) -> int:
    return _write_per_variant(
        args,
        lambda variant: evaluate_counts(
            variant, counts, args.tau, div, args.alpha, SolverConfig(), seed=args.seed
        ).to_json_dict(),
    )


def cmd_test(args: argparse.Namespace) -> int:
    samples = read_samples_csv(args.input)
    div = get_divergence(args.divergence)
    return _write_outcomes(args, _counts_from_args(args, samples, None, None), div)


def cmd_modelx_test(args: argparse.Namespace) -> int:
    samples = read_samples_csv(args.input)
    div = get_divergence(args.divergence)
    if args.pool is None:
        raise InputError("modelx-test requires --pool (unlabeled feature CSV)")
    pool = read_pool_csv(args.pool)
    if samples[0].x.size and pool.shape[1] != samples[0].x.size:
        raise InputError(
            f"pool feature dimension {pool.shape[1]} != sample dimension {samples[0].x.size}"
        )
    # --theta is the model under test, read only by scores that read eta_hat
    # (the residual score takes its own coefficients from the same flag)
    model = None if args.theta is None else ProbModel.logistic_linear(read_theta(args.theta))
    counts = _counts_from_args(args, samples, FeatureSampler.empirical_pool(pool), model)
    return _write_outcomes(args, counts, div)


def cmd_perfect_fit(args: argparse.Namespace) -> int:
    samples = read_samples_csv(args.input)
    if samples[0].x.size == 0:
        raise InputError("perfect-fit requires feature columns x0..x{d-1}")
    rng = RngStream(args.seed)
    dscore = DatasetScoreFn.linear_mse(ridge=args.ridge)
    outcome = perfect_fit_test(samples, args.M, dscore, rng, alpha=args.alpha)
    return _write_payload(args, outcome.to_json_dict())


def cmd_ci(args: argparse.Namespace) -> int:
    samples = read_samples_csv(args.input)
    div = get_divergence(args.divergence)
    counts = _counts_from_args(args, samples, None, None)
    return _write_per_variant(
        args, lambda variant: asdict(ci_lower(variant, counts, args.alpha, div, SolverConfig()))
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    with open(args.config) as fh:
        kind, spec = spec_from_config(parse_flat_config(fh.read()))
    rows = run_size_table(spec) if kind == "size" else run_power_table(spec)
    if args.plot_data:
        text = rows_to_plot_data(rows, fmt=args.format)
    else:
        text = rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows)
    _write(text, args.out)
    return EXIT_OK


def cmd_tau0(args: argparse.Namespace) -> int:
    div = get_divergence(args.divergence)
    if args.theta0_file is not None:
        theta0 = read_theta(args.theta0_file)
    else:
        theta0 = make_theta0(args.d, args.sigma, RngStream(args.seed, 0))
    theta1 = theta1_from_rule(theta0, args.theta1_rule, args.theta1_scale)
    est, se = tau0_monte_carlo(
        theta0, theta1, div, args.samples, RngStream(args.seed, stream_id=2_000_000_000)
    )
    payload = {
        "estimate": est,
        "std_error": se,
        "divergence": div.kind,
        "samples": args.samples,
        "d": int(theta0.size),
        "theta1_rule": args.theta1_rule,
    }
    return _write_payload(args, payload)


def _add_common_test_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="held-out samples CSV (y, eta_hat, x0..)")
    p.add_argument("--divergence", default="kl", help="kl | tv | hellinger")
    p.add_argument("--tau", type=float, default=0.0, help="tolerance under test")
    p.add_argument("--alpha", type=float, default=0.1, help="significance level")
    p.add_argument("--L", type=int, default=50, help="number of bins")
    p.add_argument("--K", type=int, default=None, help="ranks per bin (scored pipelines)")
    p.add_argument("--variant", default="both", help="finite | asym | both")
    p.add_argument(
        "--score",
        default="identity",
        help="identity | agnostic | residual | external",
    )
    p.add_argument("--theta", default=None, help="coefficient file (one float per line)")
    p.add_argument("--scores-file", dest="scores_file", default=None, help="external scores CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (stdout when omitted)")
    p.add_argument("--format", default="json", choices=["json"], help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grasp",
        description="Tolerance goodness-of-fit tests for binary classifiers",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="fixed-feature tolerance test from a CSV")
    _add_common_test_flags(p)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("modelx-test", help="tolerance test with counterfeit features")
    _add_common_test_flags(p)
    p.add_argument("--pool", default=None, help="unlabeled feature pool CSV")
    p.set_defaults(func=cmd_modelx_test)

    p = sub.add_parser("perfect-fit", help="dataset-level randomization test of exact fit")
    p.add_argument("--input", required=True)
    p.add_argument("--M", type=int, default=200, help="counterfeit datasets")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--ridge", type=float, default=0.0, help="ridge penalty of the score regression")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--format", default="json", choices=["json"])
    p.set_defaults(func=cmd_perfect_fit)

    p = sub.add_parser("ci", help="one-sided lower confidence bound for the divergence")
    _add_common_test_flags(p)
    p.set_defaults(func=cmd_ci)

    p = sub.add_parser("simulate", help="run a size/power simulation from a config file")
    p.add_argument("--config", required=True, help="flat key = value experiment config")
    p.add_argument("--out", default=None)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--plot-data", dest="plot_data", action="store_true",
                   help="emit (tau, power) series per rule/divergence instead of the cell table")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tau0", help="Monte-Carlo estimate of the true logistic divergence")
    p.add_argument("--d", type=int, default=200)
    p.add_argument("--sigma", type=float, default=0.25)
    p.add_argument("--divergence", default="kl")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--theta0-file", dest="theta0_file", default=None)
    p.add_argument("--theta1-rule", dest="theta1_rule", default="negated",
                   choices=["same", "negated", "negated_scaled"])
    p.add_argument("--theta1-scale", dest="theta1_scale", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.add_argument("--format", default="json", choices=["json"])
    p.set_defaults(func=cmd_tau0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags already; keep that convention
        return int(exc.code) if exc.code else 0
    try:
        _validate_common(args)
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (FileNotFoundError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def _validate_common(args: argparse.Namespace) -> None:
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise InputError(f"--{name.replace('_', '-')} must be finite")
    alpha = getattr(args, "alpha", None)
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise InputError("--alpha must lie strictly inside (0, 1)")
    tau = getattr(args, "tau", None)
    if tau is not None and tau < 0:
        raise InputError("--tau must be nonnegative")
    L = getattr(args, "L", None)
    if L is not None and L < 1:
        raise InputError("--L must be >= 1")
    K = getattr(args, "K", None)
    if K is not None and K < 1:
        raise InputError("--K must be >= 1")
    M = getattr(args, "M", None)
    if M is not None and M < 1:
        raise InputError("--M must be >= 1")


if __name__ == "__main__":
    sys.exit(main())
