"""Benchmark harness: run the algorithm matrix over the distribution
matrix, normalize timings by n*log2(n), and emit CSV rows.

Cells execute strictly sequentially. Each cell regenerates its input
fresh from the same seed for every timing iteration, so every algorithm
sees the exact same input, and runs one extra instrumented pass for the
counter columns. Timing columns are informative; counters are the
reproducible part (two runs with identical flags differ only in the
timing columns).
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

from .datagen import DistributionSpec, array_digest, generate
from .driver import DEFAULT_CONFIG, _sort_range, introsort_baseline
from .instrumentation import METRIC_FIELDS, Metrics, counting_ordering
from .small_sorts import heapsort


class UsageError(ValueError):
    """Bad benchmark arguments (unknown algorithm, kind, bad p, ...)."""


CSV_COLUMNS = (
    "algo",
    "kind",
    "element_type",
    "n",
    "seed",
    "iterations",
    "total_ns",
    "ns_per_nlog2n",
    "input_hash",
) + METRIC_FIELDS

# Dropped when comparing runs for determinism: the iteration count is a
# function of elapsed wall time whenever the min-time floor binds.
TIMING_COLUMNS = ("iterations", "total_ns", "ns_per_nlog2n")


@dataclass(frozen=True)
class BenchPolicy:
    """Repeat each cell until both floors are met."""

    min_time: float = 1.0
    min_iterations: int = 10


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
        return [
            self.algo,
            self.kind,
            self.element_type,
            self.n,
            self.seed,
            self.iterations,
            self.total_ns,
            f"{self.ns_per_nlog2n:.6f}",
            self.input_hash,
            *self.metrics.counter_values(),
        ]


_BLOCK_CONFIG = replace(DEFAULT_CONFIG, use_block_partition=True)

# Each algorithm is one call (values, lt, metrics): timed with the plain
# ordering and no metrics, counted with a counting ordering and Metrics.
ALGORITHMS: dict[str, Callable] = {
    "pdq": lambda v, lt, m: _sort_range(v, 0, len(v), lt, DEFAULT_CONFIG, m),
    "bpdq": lambda v, lt, m: _sort_range(v, 0, len(v), lt, _BLOCK_CONFIG, m),
    "introsort_baseline": lambda v, lt, m: introsort_baseline(v, lt, DEFAULT_CONFIG, m),
    "heapsort": lambda v, lt, m: heapsort(v, 0, len(v), lt, m),
}
_ALGO_ALIASES = {"baseline": "introsort_baseline"}


def algorithm_names() -> tuple:
    return tuple(ALGORITHMS)


def resolve_algo(name: str) -> str:
    canonical = _ALGO_ALIASES.get(name, name)
    if canonical not in ALGORITHMS:
        raise UsageError(f"unknown algorithm: {name!r} (choose from {', '.join(ALGORITHMS)})")
    return canonical


def _instrumented_pass(algo: str, spec: DistributionSpec) -> tuple[Metrics, str]:
    values = generate(spec)
    digest = array_digest(values)
    metrics = Metrics()
    ALGORITHMS[algo](values, counting_ordering(operator.lt, metrics), metrics)
    return metrics, digest


def run_benchmark(
    algos: Sequence[str],
    specs: Iterable[DistributionSpec],
    policy: BenchPolicy = BenchPolicy(),
) -> list:
    """Run every (spec, algo) cell sequentially and return the records."""
    canonical = [resolve_algo(a) for a in algos]
    records = []
    for spec in specs:
        for algo in canonical:
            run = ALGORITHMS[algo]
            total_ns = 0
            iterations = 0
            min_ns = int(policy.min_time * 1e9)
            while total_ns < min_ns or iterations < policy.min_iterations:
                values = generate(spec)
                t0 = time.perf_counter_ns()
                run(values, operator.lt, None)
                total_ns += time.perf_counter_ns() - t0
                iterations += 1
            metrics, digest = _instrumented_pass(algo, spec)
            nlog2n = spec.n * math.log2(spec.n) if spec.n >= 2 else 0.0
            records.append(
                BenchmarkRecord(
                    algo=algo,
                    kind=spec.kind,
                    element_type=spec.element_type,
                    n=spec.n,
                    seed=spec.seed,
                    iterations=iterations,
                    total_ns=total_ns,
                    ns_per_nlog2n=total_ns / (iterations * nlog2n) if nlog2n else 0.0,
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
            raise UsageError(f"p must be in (0, 1), got {p}")
    return [(p, 1.0 / binary_entropy(p)) for p in ps]


def format_text_tables(records: Sequence[BenchmarkRecord]) -> str:
    """One aligned table per distribution: ns/(n log2 n) by algo and n."""
    lines = []
    kinds = []
    for r in records:
        key = (r.kind, r.element_type)
        if key not in kinds:
            kinds.append(key)
    for kind, etype in kinds:
        rows = [r for r in records if r.kind == kind and r.element_type == etype]
        ns = sorted({r.n for r in rows})
        algos = []
        for r in rows:
            if r.algo not in algos:
                algos.append(r.algo)
        lines.append(f"{kind} / {etype}  (ns per n log2 n)")
        header = ["n"] + algos
        widths = [12] + [max(18, len(a) + 2) for a in algos]
        lines.append("".join(f"{h:>{w}}" for h, w in zip(header, widths)))
        for n in ns:
            cells = [f"{n:>{widths[0]}}"]
            for a, w in zip(algos, widths[1:]):
                match = [r for r in rows if r.n == n and r.algo == a]
                cells.append(f"{match[0].ns_per_nlog2n:>{w}.3f}" if match else " " * w)
            lines.append("".join(cells))
        lines.append("")
    return "\n".join(lines)
