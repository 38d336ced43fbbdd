"""Counters, the counting ordering wrapper, and the adversarial input.

A :class:`Metrics` instance belongs to a single sort invocation and is a
deterministic function of (input, config). Comparison counting happens in
the ordering wrapper; the driver and kernels only bump coarse counters.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from typing import MutableSequence

from .driver import DEFAULT_CONFIG, SortConfig, _sort_range
from .partition import Ordering


@dataclass
class Metrics:
    """Counters accumulated by one sort.

    ``comparisons`` counts ordering-relation calls; ``exchanges`` counts
    two-element swaps (in the block kernel, one per misplaced pair and one
    per leftover the drain moves next to the boundary);
    ``element_moves`` counts single-element relocations (insertion-sort
    hole shifting, pivot placement, and in heapsort each lift of the
    element to sift, each hole fill and each drop; heapsort makes no
    exchanges). ``max_depth`` is the most ranges the sort loop held
    pending at once: the depth that a recursion into the smaller side of
    each partition would reach, with the whole list at depth 0.

    Each kernel counts its own calls: ``partition_right`` and
    ``block_partition_right`` bump ``partition_right_calls``,
    ``partition_left`` bumps ``partition_left_calls``, and
    ``partial_insertion_sort`` bumps ``partial_insertion_attempts`` and
    ``partial_insertion_aborts``. The sort loop bumps only the counters
    of its own decisions: ``bad_partitions``, ``heapsort_fallbacks`` (as
    ``heapsort`` also runs alone, it does not count itself) and
    ``max_depth``.

    A counted sort that raises keeps the counts of the work done before
    the raise: the sort loop and the kernels add to the counters as they
    go, not when they return. Only the step that the raise cuts short (an
    insertion, a heapsort sift, a block partition) may be missing.
    """

    comparisons: int = 0
    element_moves: int = 0
    exchanges: int = 0
    partition_right_calls: int = 0
    partition_left_calls: int = 0
    bad_partitions: int = 0
    heapsort_fallbacks: int = 0
    partial_insertion_attempts: int = 0
    partial_insertion_aborts: int = 0
    max_depth: int = 0

    def counter_values(self) -> tuple:
        """The CSV row fragment, in METRIC_FIELDS order."""
        return tuple(getattr(self, name) for name in METRIC_FIELDS)


# Column order of the counter fragment in benchmark CSV rows: every
# counter, in declaration order.
METRIC_FIELDS = tuple(f.name for f in fields(Metrics))


def counting_ordering(base: Ordering, metrics: Metrics) -> Ordering:
    """Wrap ``base`` so every call increments ``metrics.comparisons``."""

    def counted(a, b):
        metrics.comparisons += 1
        return base(a, b)

    return counted


def instrumented_sort(
    data: MutableSequence,
    lt: Ordering = operator.lt,
    config: SortConfig = DEFAULT_CONFIG,
) -> Metrics:
    """Sort ``data`` in place and return the accumulated :class:`Metrics`."""
    metrics = Metrics()
    _sort_range(data, counting_ordering(lt, metrics), config, metrics)
    return metrics


class _AnswersFixed(Exception):
    """Raised by the adversary's relation once a single gas value is left."""


def adversary_input(n: int) -> list:
    """A permutation of 0..n-1 crafted against the deterministic pivot rule.

    The sort runs once over an index array under a relation that keeps
    values indeterminate ("gas") as long as possible; whenever two gas
    values meet, the one involved in the previous gas comparison -- in a
    quicksort, the pivot -- is pinned to the smallest unused value, which
    drags every partition toward the unbalanced side. Pinned values only
    grow, so each answer given during construction also holds under the
    final frozen values: replaying the frozen array through the default
    configuration makes the construction run's comparisons, in order.

    The construction stops at the pin that leaves one gas value, which
    takes n-1. The rest of the run could not change the result: a
    comparison pins only when both values are gas, so from there on the
    relation only answers, as the final values do. Nor does a run ever
    end with two gas values left: they would be the two largest, and a
    correct sort must compare those, which pins one of them.
    """
    if n < 1:
        raise ValueError("adversary needs n >= 1")
    gas = n
    values = [gas] * n
    next_solid = 0
    candidate = -1

    def pinning(x, y):
        nonlocal next_solid, candidate
        vx = values[x]
        vy = values[y]
        if vx == gas and vy == gas:
            if x == candidate:
                values[x] = vx = next_solid
            else:
                values[y] = vy = next_solid
            next_solid += 1
            if next_solid == n - 1:
                raise _AnswersFixed
        if vx == gas:
            candidate = x
        elif vy == gas:
            candidate = y
        return vx < vy

    try:
        _sort_range(list(range(n)), pinning, DEFAULT_CONFIG)
    except _AnswersFixed:
        pass
    values[values.index(gas)] = n - 1
    return values
