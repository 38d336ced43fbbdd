"""pdqsort benchmark: one workload per run, one JSON result line.

Run from the repository root:

    python3 benchmark/run.py --workload random_int --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` next to this directory; nothing is
installed. With ``--trace 0`` the run reports the end-to-end metrics of
the workload; with ``--trace 1`` a separate traced run reports the
per-layer metrics. Every sort's output is checked against
``sorted(input)`` outside the timed region. The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it stamp the run and list each metric with its unit.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import sys
import traceback
import tracemalloc
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter, perf_counter_ns

sys.dont_write_bytecode = True
SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import pdqsort  # noqa: E402

if Path(pdqsort.__file__).resolve().parent.parent != SRC:
    sys.exit(f"pdqsort was imported from {pdqsort.__file__}, not from {SRC}")

from isolate import isolated_kernels  # noqa: E402
from layers import Tracer, fold, layer_metrics  # noqa: E402
from reference import SpeedReference  # noqa: E402
from workloads import N, WORKLOADS, build_pool  # noqa: E402

SETUP_REPEATS = 3
NLOG2N = N * math.log2(N)


class Checks:
    """Counts checked sorts and the ones whose output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, ok):
        self.attempted += 1
        self.failed += not ok

    def sort(self, sorter, data, expected):
        """Run ``sorter(data)`` and check it; returns the in-sort ns.

        A sort that raises counts as failed and the run goes on.
        """
        failure = None
        start = perf_counter_ns()
        try:
            sorter(data)
        except Exception as exc:
            failure = exc
        elapsed = perf_counter_ns() - start
        if failure is not None:
            traceback.print_exception(failure)
        self(failure is None and data == expected)
        return elapsed


def setup(workload, seed, reference):
    """Build the pool ``SETUP_REPEATS`` times; report the median times,
    corrected to reference speed.

    Every repeat must produce the same pool: the inputs are a function of
    the seed alone.
    """
    pools, totals, generate, adversary = [], [], [], []
    reference.restart()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        pool, generate_s, adversary_s = build_pool(workload, seed)
        elapsed = perf_counter() - start
        factor = reference.factor()
        totals.append(elapsed * factor)
        generate.append(generate_s * factor)
        adversary.append(adversary_s * factor)
        pools.append(pool)
    deterministic = all(pool == pools[0] for pool in pools)
    return pools[0], deterministic, {
        "setup_s": median(totals),
        "datagen.generate_s": median(generate),
        "instrumentation.adversary_input_s": median(adversary),
    }


def timed_sorts(workload, pool, expected, seconds, checks, reference):
    """Sort whole passes over the pool until ``seconds`` have passed.

    Returns the in-sort ns of every sort and of every pass, each sort
    corrected to reference speed.
    """
    sorter = workload.sorter
    sorts, passes = [], []
    gc.collect()
    reference.restart()
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        pass_ns = 0
        for data, want in zip(pool, expected):
            elapsed = checks.sort(sorter, list(data), want) * reference.factor()
            sorts.append(elapsed)
            pass_ns += elapsed
        passes.append(pass_ns)
    return sorts, passes


def comparisons(workload, inputs, checks):
    """The exact comparison count of ``instrumented_sort`` over ``inputs``."""
    total = 0
    for data in inputs:
        buf = list(data)
        total += pdqsort.instrumented_sort(buf, workload.ordering).comparisons
        checks(buf == sorted(data))
    return total


def peak_alloc_kib(workload, data, checks):
    """Peak traced allocation above the input during one sort, in KiB."""
    tracemalloc.start()
    try:
        buf = list(data)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        workload.sorter(buf)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    checks(buf == sorted(data))
    return peak / 1024


def end_to_end(workload, pool, expected, seconds, checks, reference):
    count_set = pool[: len(workload.cycle)]
    sorts, passes = timed_sorts(workload, pool, expected, seconds, checks, reference)
    alloc_input = pool[workload.cycle.index(workload.alloc_kind)]
    print(f"timed sorts: {len(sorts)} in {len(passes)} passes over {len(pool)} inputs")
    return {
        "ns_per_nlog2n": (median(passes) / (len(pool) * NLOG2N), "ns"),
        "sort_ms_p50": (median(sorts) / 1e6, "ms"),
        "sort_ms_p90": (quantiles(sorts, n=10)[-1] / 1e6, "ms"),
        "comparisons_per_elem": (comparisons(workload, count_set, checks) / (len(count_set) * N), "count"),
        "peak_alloc_kib": (peak_alloc_kib(workload, alloc_input, checks), "KiB"),
    }


def per_layer(workload, pool, expected, seconds, checks, reference):
    """Alternate untraced and traced passes over one cycle of inputs until
    ``seconds`` have passed, then time each kernel alone.

    The traced passes go through ``instrumented_sort``, which picks the
    same kernels as ``sort`` / ``sort_with``. Every traced pass must
    give the same counts, and those must attribute every comparison of
    the sort, whose total must equal that of a plain ``instrumented_sort``
    over the same inputs.
    """
    count_set = pool[: len(workload.cycle)]
    untraced, traced = [], []
    gc.collect()
    reference.restart()
    deadline = perf_counter() + seconds
    while len(traced) < 2 or perf_counter() < deadline:
        elapsed = sum(checks.sort(workload.sorter, list(d), w) for d, w in zip(count_set, expected))
        untraced.append(elapsed * reference.factor())
        tracer = Tracer()
        with tracer.installed():
            for data, want in zip(count_set, expected):
                buf = list(data)
                tracer.sort(buf, workload.ordering)
                checks(buf == want)
        factor = reference.factor()
        traced.append(fold(tracer.spans).scaled(factor))
    print(f"traced passes: {len(traced)} over {len(count_set)} inputs")

    checks(all(p.counts == traced[0].counts for p in traced))
    checks(traced[0].counts["unattributed"] == 0)
    checks(comparisons(workload, count_set, checks) == traced[0].counts["comparisons"])

    typical = sorted(traced, key=lambda p: p.ns["sort"])[(len(traced) - 1) // 2]
    metrics = layer_metrics(typical, len(count_set))
    overhead = median(p.ns["sort"] for p in traced) / median(untraced)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics.update(isolated_kernels(count_set, workload, checks, reference))
    return metrics


def stamp(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "n": N,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    print("stamp: " + json.dumps(stamp(args)))
    checks = Checks()
    reference = SpeedReference()
    pool, deterministic, setup_times = setup(workload, args.seed, reference)
    checks(deterministic)
    expected = [sorted(data) for data in pool]
    # Warm up: one untimed sort, so the timed ones see a settled interpreter.
    checks.sort(workload.sorter, list(pool[0]), expected[0])

    if args.trace:
        metrics = per_layer(workload, pool, expected, args.seconds, checks, reference)
        metrics["datagen.generate_s"] = (setup_times["datagen.generate_s"], "s")
        metrics["instrumentation.adversary_input_s"] = (setup_times["instrumentation.adversary_input_s"], "s")
    else:
        metrics = end_to_end(workload, pool, expected, args.seconds, checks, reference)
        metrics["setup_s"] = (setup_times["setup_s"], "s")
        metrics["correct_ratio"] = ((checks.attempted - checks.failed) / checks.attempted, "ratio")

    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:50s} {value:16.6f} {unit}")
    print(f"checked: {checks.attempted} attempted, {checks.failed} failed")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
