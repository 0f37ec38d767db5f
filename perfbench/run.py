"""grasp-gof benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload {cli-eval,solve,simulate-modelx} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the library is imported from ./src.  One run
builds the workload's inputs from the seed (timed from the process's start
as ``setup_s``), forks a checker process that computes the reference
answers, then repeats timed passes over the workload's fixed list of
operations while another whole pass fits in ``--seconds``.  Every operation
of every pass is checked, in the checker, so the measured process never
imports scipy nor holds the reference's data.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  With ``--trace 0`` the metrics are the end-to-end ones, each a
median over the run's passes; with ``--trace 1`` half the time runs
untraced and half traced, and the metrics are the per-layer ones.
See README.md in this directory.
"""

from __future__ import annotations

import os
import sys
import time


def process_age() -> float:
    """Seconds since this process started (Linux: /proc/self/stat field 22)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


# BLAS threads are capped at the CPUs this process may use; set before
# numpy is imported
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import multiprocessing.connection  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["cli-eval", "solve", "simulate-modelx"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


class Checker:
    """The reference answers and every check, in a child forked after set-up.

    The child runs ``workload.prepare()``, sends the operations back without
    their checks, and then answers each pass's results with the problems
    found.  The measured process waits while the child works, so the two
    never compete for a CPU, and its peak memory holds neither scipy nor the
    reference's data.
    """

    def __init__(self, workload) -> None:
        self.conn, child = multiprocessing.connection.Pipe()
        self.pid = os.fork()
        if self.pid == 0:
            self.conn.close()
            code = 0
            try:
                self._serve(workload, child)
            except BaseException:
                import traceback

                traceback.print_exc()
                code = 1
            finally:
                os._exit(code)
        child.close()
        try:
            self.ops = self.conn.recv()
        except EOFError:
            self.close()
            raise RuntimeError("the checker process failed before sending the operations") from None

    @staticmethod
    def _serve(workload, conn) -> None:
        ops = workload.prepare()
        conn.send([dataclasses.replace(op, check=None) for op in ops])
        checks = {op.name: op.check for op in ops}
        while True:
            try:
                results = conn.recv()
            except EOFError:
                return
            problems = {}
            for name, result in results.items():
                try:
                    problems[name] = checks[name](result, results)
                except Exception as exc:  # output the check cannot read, e.g. a changed payload
                    problems[name] = [f"check raised {type(exc).__name__}: {exc}"]
            conn.send(problems)

    def check(self, results: dict) -> dict:
        self.conn.send(results)
        return self.conn.recv()

    def close(self) -> None:
        self.conn.close()
        os.waitpid(self.pid, 0)


def run_pass(workload, ops):
    """One timed pass; returns (wall, seconds per kind, results, errors)."""
    results, errors = {}, {}
    by_kind = {"test": 0.0, "ci": 0.0}
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            results[op.name] = workload.run(op.args)
        except Exception as exc:  # an operation that raises is a failed operation
            errors[op.name] = f"raised {type(exc).__name__}: {exc}"
        by_kind[op.kind] += time.perf_counter() - t0
    return time.perf_counter() - start, by_kind, results, errors


class Tally:
    """Attempted and failed operations, and problems not explained by a known fault."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.reported = set()

    def count(self, ops, problems_by_name, errors) -> None:
        for op in ops:
            self.attempted += 1
            problems = [errors[op.name]] if op.name in errors else problems_by_name[op.name]
            if not problems:
                continue
            self.failed += 1
            self.unexpected += op.known_fault is None
            if op.name not in self.reported:
                self.reported.add(op.name)
                why = f" [known fault: {op.known_fault}]" if op.known_fault else ""
                print(f"FAILED {op.name}: {'; '.join(problems)}{why}", file=sys.stderr)


def measure(workload, checker: Checker, seconds: float, tally: Tally, on_pass=None) -> list:
    """Whole passes while another one fits in ``seconds``; at least one."""
    passes = []
    spent = 0.0
    while not passes or spent + passes[-1][0] <= seconds:
        wall, by_kind, results, errors = run_pass(workload, checker.ops)
        passes.append((wall, by_kind))
        spent += wall
        if on_pass is not None:
            on_pass()
        tally.count(checker.ops, checker.check(results), errors)
    return passes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "grasp" / "__init__.py").is_file():
        print(f"error: the library is not at {SRC}/grasp; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import grasp
    if Path(grasp.__file__).resolve().parent != SRC / "grasp":
        print(f"error: imported grasp from {grasp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    out_dir = HERE / ".out"
    workdir = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    checker = None
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        setup_s = process_age()
        checker = Checker(workload)
        tally = Tally()
        if not args.trace:
            passes = measure(workload, checker, args.seconds, tally)
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (statistics.median(p[0] for p in passes), "s"),
                "test_s": (statistics.median(p[1]["test"] for p in passes), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        else:
            metrics = traced_run(workload, checker, args, tally, out_dir)
    finally:
        if checker is not None:
            checker.close()
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_run(workload, checker: Checker, args, tally: Tally, out_dir: Path) -> dict:
    import tracing

    plain = measure(workload, checker, args.seconds / 2, tally)
    tracer = tracing.Tracer()
    tracer.install()
    bounds = []

    def close_pass():
        bounds.append((bounds[-1][1] if bounds else 0, len(tracer.spans)))

    try:
        traced = measure(workload, checker, args.seconds / 2, tally, on_pass=close_pass)
    finally:
        tracer.uninstall()
    if tracer.absent:
        print(f"absent from the library, reported as 0: {', '.join(tracer.absent)}", file=sys.stderr)
    per_pass = [tracing.layer_metrics(tracer.spans, lo, hi) for lo, hi in bounds]
    metrics = {
        name: (statistics.median(p[name] for p in per_pass),
               "s" if name.endswith("_s") else "count")
        for name in per_pass[0]
    }
    metrics["ci_s"] = (statistics.median(p[1]["ci"] for p in plain), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(p[0] for p in traced) - statistics.median(p[0] for p in plain), "s")
    tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.json", bounds,
                 {"workload": args.workload, "seed": args.seed})
    return metrics


if __name__ == "__main__":
    sys.exit(main())
