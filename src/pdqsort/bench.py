"""Benchmark harness: run the algorithm matrix over the distribution
matrix, normalize timings by n*log2(n), and emit CSV rows.

Cells execute strictly sequentially; :func:`run_benchmark` says how each
is timed and counted. Timing columns are informative; counters are the
reproducible part (two runs with identical flags differ only in the
timing columns).
"""

from __future__ import annotations

import math
import operator
import statistics
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Sequence

from .datagen import DistributionSpec, array_digest, generate
from .driver import BLOCK_CONFIG, DEFAULT_CONFIG, _sort_range, introsort_baseline
from .instrumentation import METRIC_FIELDS, Metrics, counting_ordering
from .small_sorts import heapsort


# Dropped when comparing runs for determinism: the iteration count is a
# function of elapsed wall time whenever the min-time floor binds.
TIMING_COLUMNS = ("iterations", "total_ns", "ns_per_nlog2n")


@dataclass
class BenchmarkRecord:
    algo: str
    kind: str
    element_type: str
    n: int
    seed: int
    iterations: int
    total_ns: int
    ns_per_nlog2n: float
    input_hash: str
    metrics: Metrics = field(repr=False)

    def row(self) -> list:
        """The values of CSV_COLUMNS: each field in order, a float to 6
        decimals, with ``metrics`` expanded last."""
        *values, metrics = (getattr(self, f.name) for f in fields(self))
        return [f"{v:.6f}" if isinstance(v, float) else v for v in values] + [*metrics.counter_values()]


# The record's fields, ``metrics`` expanded last as METRIC_FIELDS.
CSV_COLUMNS = tuple(f.name for f in fields(BenchmarkRecord))[:-1] + METRIC_FIELDS

# Each algorithm is one call (values, lt, metrics): timed with the plain
# ordering and no metrics, counted with a counting ordering and Metrics.
ALGORITHMS: dict[str, Callable] = {
    "pdq": lambda v, lt, m: _sort_range(v, lt, DEFAULT_CONFIG, m),
    "bpdq": lambda v, lt, m: _sort_range(v, lt, BLOCK_CONFIG, m),
    "introsort_baseline": introsort_baseline,
    "heapsort": lambda v, lt, m: heapsort(v, 0, len(v), lt, m),
}


def run_benchmark(
    algos: Sequence[str],
    specs: Iterable[DistributionSpec],
    min_time: float,
    min_iterations: int,
) -> list:
    """Run every (spec, algo) cell sequentially and return the records.

    Each spec's input is generated once. A cell sorts fresh copies of it
    until both floors are met, ``min_time`` seconds and ``min_iterations``
    sorts, timing each with the plain ordering; ``ns_per_nlog2n`` is their
    median time over n log2 n. One more, counted, sort fills the counters.
    """
    for algo in algos:
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm: {algo!r} (choose from {', '.join(ALGORITHMS)})")
    min_ns = int(min_time * 1e9)
    records = []
    for spec in specs:
        values = generate(spec)
        digest = array_digest(values)
        for algo in algos:
            run = ALGORITHMS[algo]
            total_ns = 0
            times = []
            while total_ns < min_ns or len(times) < min_iterations:
                work = list(values)
                t0 = time.perf_counter_ns()
                run(work, operator.lt, None)
                times.append(time.perf_counter_ns() - t0)
                total_ns += times[-1]
            metrics = Metrics()
            run(list(values), counting_ordering(operator.lt, metrics), metrics)
            nlog2n = spec.n * math.log2(spec.n) if spec.n >= 2 else 0.0
            records.append(
                BenchmarkRecord(
                    algo=algo,
                    kind=spec.kind,
                    element_type=spec.element_type,
                    n=spec.n,
                    seed=spec.seed,
                    iterations=len(times),
                    total_ns=total_ns,
                    ns_per_nlog2n=statistics.median(times) / nlog2n if nlog2n else 0.0,
                    input_hash=digest,
                    metrics=metrics,
                )
            )
    return records


def binary_entropy(p: float) -> float:
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def slowdown_table(ps: Sequence[float]) -> list:
    """(p, 1/H(p)) rows: the factor by which consistently splitting
    p/(1-p) is slower than perfect halving."""
    for p in ps:
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {p}")
    return [(p, 1.0 / binary_entropy(p)) for p in ps]


def format_text_tables(records: Sequence[BenchmarkRecord]) -> str:
    """One aligned table per distribution: ns/(n log2 n) by algo and n.

    Tables, and columns within one, come in the order of their first
    record; of two records for one cell, the first is shown.
    """
    tables = {}  # (kind, element_type) -> (algos, {n: {algo: ns_per_nlog2n}})
    for r in records:
        algos, by_n = tables.setdefault((r.kind, r.element_type), ({}, {}))
        algos[r.algo] = None
        by_n.setdefault(r.n, {}).setdefault(r.algo, r.ns_per_nlog2n)
    lines = []
    for (kind, etype), (algos, by_n) in tables.items():
        lines.append(f"{kind} / {etype}  (ns per n log2 n)")
        header = ["n", *algos]
        widths = [12] + [max(18, len(a) + 2) for a in algos]
        lines.append("".join(f"{h:>{w}}" for h, w in zip(header, widths)))
        for n in sorted(by_n):
            cells = [f"{n:>{widths[0]}}"]
            for a, w in zip(algos, widths[1:]):
                cell = by_n[n].get(a)
                cells.append(" " * w if cell is None else f"{cell:>{w}.3f}")
            lines.append("".join(cells))
        lines.append("")
    return "\n".join(lines)
