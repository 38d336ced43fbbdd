"""Per-layer attribution of a sort by spans around its kernel calls.

``_sort_range`` looks up every kernel as a global of ``pdqsort.driver``
at call time, so replacing those globals from here puts a span around
each call without editing the library. Each span records its name,
start, end and parent (the enclosing ``instrumented_sort`` call), the
range it was handed, and how far the sort's ``Metrics`` counters moved
during the call. Spans stay in memory until the pass is folded into
totals.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns

import pdqsort
import pdqsort.driver as driver

# The globals of pdqsort.driver that the sort loop calls, grouped by the
# module that defines them.
LAYERS = {
    "driver": ("choose_pivot", "break_patterns"),
    "partition": ("partition_right", "partition_left", "block_partition_right"),
    "small_sorts": (
        "insertion_sort",
        "unguarded_insertion_sort",
        "partial_insertion_sort",
        "heapsort",
    ),
}
LAYER_OF = {name: layer for layer, names in LAYERS.items() for name in names}
ROOT = "sort"


@contextmanager
def wrapped_kernels(names, wrap):
    """Replace the named globals of ``pdqsort.driver`` with
    ``wrap(name, kernel)`` while the block runs."""
    saved = {name: getattr(driver, name) for name in names}
    for name, kernel in saved.items():
        setattr(driver, name, wrap(name, kernel))
    try:
        yield
    finally:
        for name, kernel in saved.items():
            setattr(driver, name, kernel)


@dataclass
class Span:
    name: str
    start: int = 0
    end: int = 0
    parent: int = -1
    begin: int = 0
    size: int = 0
    comparisons: int = 0
    exchanges: int = 0
    moves: int = 0
    no_swaps: bool = False
    metrics: object = None


class Tracer:
    """Records spans for the sorts run while it is installed."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def _wrap(self, name, kernel):
        spans = self.spans
        stack = self.stack

        def traced(*args):
            # Every kernel takes (data, begin, end, ...) and the sort's
            # Metrics as its last positional argument.
            metrics = args[-1]
            span = Span(name, parent=stack[-1], begin=args[1], size=args[2] - args[1])
            comparisons = metrics.comparisons
            exchanges = metrics.exchanges
            moves = metrics.element_moves
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter_ns()
            try:
                result = kernel(*args)
            finally:
                span.end = perf_counter_ns()
                stack.pop()
            span.comparisons = metrics.comparisons - comparisons
            span.exchanges = metrics.exchanges - exchanges
            span.moves = metrics.element_moves - moves
            span.no_swaps = isinstance(result, pdqsort.PartitionResult) and result.no_swaps
            return result

        return traced

    def installed(self):
        """Trace the kernel calls of the sorts run inside the block."""
        return wrapped_kernels(LAYER_OF, self._wrap)

    def sort(self, data, lt):
        """One traced ``instrumented_sort``; returns its Metrics."""
        span = Span(ROOT, size=len(data))
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter_ns()
        try:
            metrics = pdqsort.instrumented_sort(data, lt)
        finally:
            span.end = perf_counter_ns()
            self.stack.pop()
        span.metrics = metrics
        return metrics


@dataclass
class PassTotals:
    """One traced pass folded into totals.

    ``ns`` holds times, ``counts`` exact counts; two passes over
    the same inputs must agree on every count.
    """

    ns: dict
    counts: dict

    def scaled(self, factor):
        """The same pass with its times multiplied by ``factor``."""
        return PassTotals({k: v * factor for k, v in self.ns.items()}, self.counts)


def fold(spans):
    """Fold one pass of spans into :class:`PassTotals`.

    ``counts["unattributed"]`` is the number of comparisons that no span
    accounts for. Each sort's total must equal the comparisons of its
    kernel spans plus one predecessor check per pivot chosen in a
    non-leftmost range (the driver's own comparison before it picks
    ``partition_left``), so it should be 0.
    """
    ns = {}
    counts = {"unattributed": 0}

    def add(table, key, value):
        table[key] = table.get(key, 0) + value

    # A sort's span is recorded before the spans of its kernel calls.
    for span in spans:
        if span.parent < 0:
            metrics = span.metrics
            add(ns, ROOT, span.end - span.start)
            add(counts, "elements", span.size)
            for field in (
                "comparisons",
                "partition_right_calls",
                "bad_partitions",
                "partial_insertion_attempts",
                "partial_insertion_aborts",
            ):
                add(counts, field, getattr(metrics, field))
            add(counts, "unattributed", metrics.comparisons)
            counts["max_depth"] = max(counts.get("max_depth", 0), metrics.max_depth)
            continue
        name = span.name
        add(ns, name, span.end - span.start)
        add(counts, name + ".calls", 1)
        add(counts, name + ".size", span.size)
        add(counts, name + ".comparisons", span.comparisons)
        add(counts, name + ".exchanges", span.exchanges)
        add(counts, name + ".moves", span.moves)
        add(counts, name + ".no_swaps", span.no_swaps)
        counts["unattributed"] -= span.comparisons
        if name == "choose_pivot" and span.begin > 0:
            add(counts, "driver.predecessor_checks", 1)
            counts["unattributed"] -= 1
    return PassTotals(ns, counts)


def layer_metrics(traced, sorts):
    """Per-layer metrics of one traced pass over ``sorts`` inputs.

    Times and ``calls`` are means per sort. ``*_per_elem`` counts are per
    sorted element, so the comparison counts of the kernels, of
    ``choose_pivot`` and of the driver itself add up to the sort's total;
    ``ns_per_elem`` is per element the kernel was handed.
    """
    counts = traced.counts
    elements = counts["elements"]

    def ms(name):
        return traced.ns.get(name, 0) / sorts / 1e6

    def count(key):
        return counts.get(key, 0)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    out = {}
    timed_kernels = [n for n in LAYER_OF if n != "break_patterns"]
    self_ns = traced.ns[ROOT] - sum(traced.ns.get(n, 0) for n in timed_kernels)
    out["driver.self_ms"] = (self_ns / sorts / 1e6, "ms")
    out["driver.self_comparisons_per_elem"] = (count("driver.predecessor_checks") / elements, "count")
    for name in LAYER_OF:
        prefix = f"{LAYER_OF[name]}.{name}"
        if name != "break_patterns":
            out[prefix + ".ms"] = (ms(name), "ms")
        out[prefix + ".calls"] = (count(name + ".calls") / sorts, "count")
        if name != "break_patterns":
            out[prefix + ".comparisons_per_elem"] = (count(name + ".comparisons") / elements, "count")
        if LAYER_OF[name] == "partition":
            ns_per_elem = ratio(ms(name) * sorts * 1e6, count(name + ".size"))
            out[prefix + ".ns_per_elem"] = (ns_per_elem, "ns")
    out["driver.bad_partition_ratio"] = (
        ratio(count("bad_partitions"), count("partition_right_calls")),
        "ratio",
    )
    attempts = count("partial_insertion_attempts")
    out["driver.partial_insertion.success_ratio"] = (
        ratio(attempts - count("partial_insertion_aborts"), attempts),
        "ratio",
    )
    out["driver.max_depth"] = (count("max_depth"), "count")
    right_kernels = ("partition_right", "block_partition_right")
    out["partition.exchanges_per_elem"] = (
        sum(count(n + ".exchanges") for n in LAYERS["partition"]) / elements,
        "count",
    )
    out["partition.no_swaps_ratio"] = (
        ratio(
            sum(count(n + ".no_swaps") for n in right_kernels),
            sum(count(n + ".calls") for n in right_kernels),
        ),
        "ratio",
    )
    out["small_sorts.element_moves_per_elem"] = (
        sum(count(n + ".moves") for n in LAYERS["small_sorts"]) / elements,
        "count",
    )
    return out

