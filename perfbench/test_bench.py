"""Tests of the benchmark's tracer, its checker process and BENCHMARK.json's metric list.

Run from the repository root:
    PYTHONPATH=src python3 -m pytest -q perfbench/test_bench.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402

# reported by run.py next to tracing.layer_metrics
RUN_EXTRAS = {"ci_s", "trace.overhead_s"}


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    measured = set(tracing.layer_metrics([], 0, 0)) | RUN_EXTRAS
    assert declared == measured


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["inference.ci", 0.0, 10.0, -1, None],
        ["solver.solve", 1.0, 4.0, 0, {"iterations": 7, "unconverged": 1}],
        ["solver.lmo", 2.0, 3.0, 1, None],
        ["solver.solve", 5.0, 6.0, 0, {"iterations": 3, "unconverged": 0}],
        ["solver.solve", 11.0, 12.0, -1, {"iterations": 2, "unconverged": 0}],
    ]
    m = tracing.layer_metrics(spans, 0, len(spans))
    assert m["inference.ci_self_s"] == 10.0 - 3.0 - 1.0
    assert m["solver.solve_s"] == (3.0 - 1.0) + 1.0 + 1.0
    assert m["solver.lmo_s"] == 1.0
    assert m["solver.solves"] == 3 and m["solver.iterations"] == 12 and m["solver.unconverged"] == 1
    assert m["inference.ci_solves"] == 2  # the third solve is outside any ci_lower


def test_wrappers_reach_every_binding_and_come_off():
    import grasp
    import grasp.inference
    import grasp.solver

    original = grasp.solver.solve_u_stat
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert grasp.inference.solve_u_stat is not original
        assert grasp.solver.solve_u_stat is grasp.inference.solve_u_stat is grasp.solve_u_stat
        grasp.solver.u_stat("finite", [30.0, 10.0, 20.0], 0.05, grasp.KL)
    finally:
        tracer.uninstall()
    assert grasp.inference.solve_u_stat is original and grasp.solve_u_stat is original
    layers = [s[0] for s in tracer.spans]
    assert layers[0] == "solver.solve" and "solver.lmo" in layers
    assert tracer.absent == []


def test_checker_runs_checks_in_a_reaped_child():
    import os

    import run
    from workloads import Op

    class Fake:
        def prepare(self):
            return [Op("even", "test", (2,), lambda r, _all: [] if r % 2 == 0 else [f"{r} is odd"]),
                    Op("sum", "ci", (), lambda r, rs: [] if r == rs["even"] + 1 else ["sum is off"], "x")]

    checker = run.Checker(Fake())
    try:
        assert [(op.name, op.args, op.check, op.known_fault) for op in checker.ops] == [
            ("even", (2,), None, None), ("sum", (), None, "x")]
        assert checker.check({"even": 4, "sum": 5}) == {"even": [], "sum": []}
        assert checker.check({"even": 3, "sum": 9}) == {"even": ["3 is odd"], "sum": ["sum is off"]}
    finally:
        checker.close()
    try:
        os.waitpid(checker.pid, os.WNOHANG)
    except ChildProcessError:
        pass  # already reaped by close()
    else:
        raise AssertionError("the checker process was not reaped")
