#!/usr/bin/env python3
"""Benchmark for frot: one workload, one seed, one process.

    python3 bench/run.py --workload fw_entropic --seed 0 --seconds 20 --trace 0

Run from the root of a source tree (``src/frot`` is imported from there,
never from an installed copy).  The run sets up the workload's inputs, runs
whole rounds of operations until the rounds have taken ``--seconds``,
checks each round's outputs between rounds, outside the timed phase, and
prints one JSON object as its last line: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` every
round runs twice, untraced and then traced, and the metrics are the
per-layer ones read from the traced rounds.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = BENCH_DIR / "runs"

#: the workload names and the metric names and units, as BENCHMARK.json
#: declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])

#: fresh processes that repeat the set-up, spread over the timed phase
SETUP_PROBES = 7
#: one BLAS thread: the instances are 50 x 50, and a second thread only
#: adds scheduling noise on a shared machine
BLAS_THREADS = "1"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time import and input set-up, print it, exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup(name, seed):
    """Import frot and build the workload's inputs; returns (workload, s)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.build(name, seed, RUNS / f"{name}-{seed}-{os.getpid()}")
    return workload, time.perf_counter() - start


def probe_setup(name, seed) -> float:
    """Set-up time of a fresh process, as that process measured it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def run_round(ops, run):
    """Runs ``run`` on each op; returns [(op, out, error, s)] and the wall time."""
    results = []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out, error = run(op), None
        except Exception as exc:  # a raising operation is counted as failed
            out, error = None, f"{type(exc).__name__}: {exc}"
        results.append((op, out, error, time.perf_counter() - t0))
    return results, time.perf_counter() - start


def count_failed(workload, results, notes) -> int:
    """Checks a round's outputs; prints each failure to stderr."""
    failed = 0
    for op, out, error, _ in results:
        if error is not None:
            problems = [error]
        else:
            try:
                problems = workload.check(op, out, notes)
            except Exception as exc:  # malformed output: the op failed
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failed += 1
            print(f"op {op!r} failed: {problems[0]}", file=sys.stderr)
    return failed


def layer_metrics(tracer, ops, notes, untraced_s, traced_s) -> dict:
    times = tracer.self_times()
    counts = tracer.counts

    def calls(layer):
        return times[layer][0] / ops

    def self_s(layer):
        return times[layer][1] / ops

    def ratio(x, y):
        return x / y if y else 0.0

    sweeps = counts["sinkhorn.sweeps"] / ops
    pivots = counts["simplex.pivots"] / ops
    values = {
        "sinkhorn.calls": calls("sinkhorn"),
        "sinkhorn.sweeps": sweeps,
        "sinkhorn.self_s": self_s("sinkhorn"),
        "sinkhorn.us_per_sweep": 1e6 * ratio(self_s("sinkhorn"), sweeps),
        "sinkhorn.converged_ratio": ratio(counts["sinkhorn.converged"] / ops, calls("sinkhorn")),
        "sinkhorn.residual_max": counts["sinkhorn.residual_max"],
        "emd.calls": calls("emd"),
        "emd.self_s": self_s("emd"),
        "emd.ms_per_call": 1e3 * ratio(self_s("emd"), calls("emd")),
        "simplex.calls": calls("simplex"),
        "simplex.pivots": pivots,
        "simplex.self_s": self_s("simplex"),
        "simplex.us_per_pivot": 1e6 * ratio(self_s("simplex"), pivots),
        "lp.self_s": self_s("lp"),
        "fw.calls": calls("fw"),
        "fw.iterations": counts["fw.iterations"] / ops,
        "fw.self_s": self_s("fw"),
        "fw.rel_gap_lp": max(notes.get("rel_gap_lp", [0.0])),
        "cost.self_s": self_s("cost"),
        "plan.calls": calls("plan"),
        "plan.self_s": self_s("plan"),
        "distances.self_s": self_s("distances"),
        "features.self_s": self_s("features"),
        "io.bytes_written": statistics.fmean(notes.get("bytes_written", [0])),
        "io.self_s": self_s("io"),
        "experiments.self_s": self_s("experiments"),
        "synthetic.self_s": self_s("synthetic"),
        "cli.self_s": self_s("cli"),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_share": ratio(traced_s - untraced_s, untraced_s),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in SPEC["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "frot" / "__init__.py").is_file():
        print(f"error: no frot sources under {SRC}; run from a frot source tree",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS

    # a probe reports this set-up; a run's own may compile byte code, so a
    # run reports the median of its probes instead
    workload, own_setup_s = setup(args.workload, args.seed)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup_s}))
            return 0

        from tracing import Tracer
        tracer = Tracer() if args.trace else None
        notes, probes, op_seconds = {}, [], []
        op_index = itertools.count()
        attempted = failed = traced_ops = 0
        untraced_s = traced_s = 0.0
        r = 0
        # only the rounds are timed: checks and probes run between them,
        # and each round's outputs are dropped once checked
        while untraced_s + traced_s < args.seconds:
            ops = workload.round_ops(r)
            results, seconds = run_round(ops, workload.run)
            untraced_s += seconds
            op_seconds += [s for *_, s in results]
            if tracer is not None:
                tracer.install()
                try:
                    traced, seconds = run_round(
                        ops, lambda op: tracer.op(next(op_index), workload.run, op))
                finally:
                    tracer.uninstall()
                traced_s += seconds
                traced_ops += len(traced)
                results += traced
            attempted += len(results)
            failed += count_failed(workload, results, notes)
            due = min(SETUP_PROBES, SETUP_PROBES * untraced_s / args.seconds)
            if not args.trace and len(probes) < due:
                probes.append(probe_setup(args.workload, args.seed))
            r += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while not args.trace and len(probes) < SETUP_PROBES:
            probes.append(probe_setup(args.workload, args.seed))

        run_problems = workload.check_run(notes)
        for problem in run_problems:
            print(f"run check failed: {problem}", file=sys.stderr)
    finally:
        workload.close()

    if tracer is not None:
        RUNS.mkdir(exist_ok=True)
        tracer.dump(RUNS / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = layer_metrics(tracer, traced_ops, notes, untraced_s, traced_s)
    else:
        values = {
            "setup_s": statistics.median(probes),
            "ops_per_s": attempted / untraced_s,
            "op_ms_p50": 1e3 * statistics.median(op_seconds),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
    print(json.dumps({"correct": not run_problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
