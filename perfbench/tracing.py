"""Spans around the library's layers, recorded from outside the library.

The traced run wraps public functions at every name a caller looks them up
by: the defining module, every module that imported the name (including
the ``grasp`` package and the benchmark's own modules), or the class for a
method.  Spans (layer, start, end, parent) stay in memory; ``write`` saves
them at the end.  A target missing from the library (renamed or removed by
a later change) is listed as absent and its metrics read 0.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional


def _samples(args, kwargs, result):
    return {"samples": len(args[0] if args else kwargs["samples"])}


def _solve(args, kwargs, result):
    return {"iterations": result.iterations, "unconverged": int(not result.converged)}


@dataclass(frozen=True)
class Target:
    layer: str
    module: str
    qualname: str  # "function" or "Class.method"
    count: Optional[Callable] = None  # (args, kwargs, result) -> {counter: amount}


TARGETS = (
    Target("cli", "grasp.cli", "main"),
    Target("dataio.read_samples", "grasp.dataio", "read_samples_csv",
           lambda a, k, r: {"rows": len(r)}),
    Target("dataio.read_pool", "grasp.dataio", "read_pool_csv",
           lambda a, k, r: {"rows": len(r)}),
    Target("sampling.counts", "grasp.sampling", "grasp_counts_simple", _samples),
    Target("sampling.counts", "grasp.sampling", "grasp_counts_df", _samples),
    Target("sampling.counts", "grasp.sampling", "grasp_counts_modelx", _samples),
    Target("sampling.feature_draw", "grasp.sampling", "FeatureSampler.draw",
           lambda a, k, r: {"feature_draws": len(r)}),
    Target("scores.evaluate", "grasp.scores", "ScoreFn.evaluate"),
    Target("scores.model_eval", "grasp.scores", "ProbModel.evaluate"),
    Target("experiments.gen", "grasp.experiments", "gen_logistic_data",
           lambda a, k, r: {"trials": 1}),
    Target("experiments.tau0", "grasp.experiments", "tau0_monte_carlo"),
    Target("solver.solve", "grasp.solver", "solve_u_stat", _solve),
    Target("solver.lmo", "grasp.solver", "lmo_fdiv_ball"),
    Target("inference.evaluate", "grasp.inference", "evaluate_counts"),
    Target("inference.ci", "grasp.inference", "ci_lower"),
)

# per-layer metric -> (layer whose self time it is) or counter name
SELF_TIMES = {
    "cli.self_s": "cli",
    "dataio.read_samples_s": "dataio.read_samples",
    "dataio.read_pool_s": "dataio.read_pool",
    "sampling.counts_s": "sampling.counts",
    "sampling.feature_draw_s": "sampling.feature_draw",
    "scores.evaluate_s": "scores.evaluate",
    "scores.model_eval_s": "scores.model_eval",
    "experiments.gen_s": "experiments.gen",
    "experiments.tau0_s": "experiments.tau0",
    "solver.solve_s": "solver.solve",
    "solver.lmo_s": "solver.lmo",
    "inference.evaluate_s": "inference.evaluate",
    "inference.ci_self_s": "inference.ci",
}
COUNTERS = {
    "dataio.rows": "rows",
    "sampling.samples": "samples",
    "sampling.feature_draws": "feature_draws",
    "experiments.trials": "trials",
    "solver.iterations": "iterations",
    "solver.unconverged": "unconverged",
}
CALLS = {"solver.solves": "solver.solve", "solver.lmo_calls": "solver.lmo"}


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []  # [layer, start, end, parent index, counters]
        self.stack: List[int] = []
        self.absent: List[str] = []
        self._undo: List[tuple] = []

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([target.layer, time.perf_counter(), None, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if target.count is not None:
                spans[idx][4] = target.count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for target in TARGETS:
            owner_name, _, attr = target.qualname.rpartition(".")
            try:
                owner = importlib.import_module(target.module)
                if owner_name:
                    owner = getattr(owner, owner_name)
                fn = owner.__dict__[attr] if owner_name else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{target.module}.{target.qualname}")
                continue
            wrapper = self._wrap(target, fn)
            if owner_name:
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for name, value in list(namespace.items()):
                    if value is fn:
                        self._undo.append((module, name, fn))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)
        self._undo.clear()

    def write(self, path: Path, passes: List[tuple], meta: dict) -> None:
        out = dict(meta, absent=self.absent, passes=[
            [[s[0], s[1], s[2], s[3] - lo if s[3] >= 0 else -1] for s in self.spans[lo:hi]]
            for lo, hi in passes
        ])
        path.write_text(json.dumps(out))


def layer_metrics(spans: List[list], lo: int, hi: int) -> Dict[str, float]:
    """Per-layer self times and counts of the spans spans[lo:hi] (one pass).

    A span's self time is its duration minus its direct children's.
    """
    child_time = defaultdict(float)
    for layer, start, end, parent, _ in spans[lo:hi]:
        if parent >= 0:
            child_time[parent] += end - start
    self_time = defaultdict(float)
    counters = defaultdict(float)
    calls = defaultdict(int)
    ci_solves = 0
    for i in range(lo, hi):
        layer, start, end, parent, counts = spans[i]
        self_time[layer] += end - start - child_time[i]
        calls[layer] += 1
        for key, amount in (counts or {}).items():
            counters[key] += amount
        if layer == "solver.solve":
            while parent >= 0 and spans[parent][0] != "inference.ci":
                parent = spans[parent][3]
            ci_solves += parent >= 0
    out = {name: self_time[layer] for name, layer in SELF_TIMES.items()}
    out.update({name: counters[key] for name, key in COUNTERS.items()})
    out.update({name: calls[layer] for name, layer in CALLS.items()})
    out["inference.ci_solves"] = ci_solves / calls["inference.ci"] if calls["inference.ci"] else 0
    return out
