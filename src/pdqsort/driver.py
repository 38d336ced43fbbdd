"""The hybrid sort driver.

Each call on a subrange either runs an insertion sort (small ranges),
falls back to heapsort (exhausted bad-partition budget), or selects a
pivot and partitions. Equal-to-predecessor pivots dispatch to
partition_left, whose left partition needs no recursion; otherwise
partition_right runs, or block_partition_right when
``SortConfig.use_block_partition`` is set (off by default: under CPython
the block layout is slower, see the README).
A partition leaving either side smaller than 2**-BAD_PARTITION_SHIFT of
the range is *bad*: it costs one unit of the log2(n) budget and the pivot
candidates of both children are swapped with quartile elements to break
the pattern. A swapless, non-bad partition triggers an optimistic partial
insertion sort over both sides that finishes nearly-sorted inputs in
linear time. Recursion always descends into the smaller partition and
iterates on the larger, bounding the call depth by about log2(n).

The whole sort is deterministic: identical input and config give an
identical output permutation and identical instrumentation counters.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import MutableSequence

from .partition import (
    BlockBuffers,
    Ordering,
    block_partition_right,
    partition_left,
    partition_right,
)
from .small_sorts import (
    heapsort,
    insertion_sort,
    partial_insertion_sort,
    sort3,
    unguarded_insertion_sort,
)

# The paper's tuning numbers, constants as in the reference pdqsort.h
# (the block size is partition.DEFAULT_BLOCK_SIZE).
# Ranges shorter than this are insertion sorted.
INSERTION_THRESHOLD = 24
# Ranges longer than this take the ninther as their pivot.
NINTHER_THRESHOLD = 128
# Corrections the optimistic partial insertion sort makes before giving up.
PARTIAL_INSERTION_BUDGET = 8
# A partition is bad when a side holds less than 2**-3 = 1/8 of the range.
BAD_PARTITION_SHIFT = 3

# Partitions shorter than this have no quartile positions distinct from
# their pivot-candidate positions, so pattern breaking skips them.
MIN_BREAK_SIZE = 8


@dataclass(frozen=True)
class SortConfig:
    """The ablation toggles: each switches one of the paper's techniques."""

    use_block_partition: bool = False
    use_partition_left: bool = True
    use_break_patterns: bool = True
    use_partial_insertion: bool = True


DEFAULT_CONFIG = SortConfig()

_INTROSORT_CONFIG = SortConfig(
    use_partition_left=False,
    use_break_patterns=False,
    use_partial_insertion=False,
)


def choose_pivot(
    data: MutableSequence,
    begin: int,
    end: int,
    lt: Ordering = operator.lt,
    metrics=None,
) -> None:
    """Move a pivot estimate to ``data[begin]``.

    Small ranges take the median of (middle, first, last); sorting that
    triple with the middle position first leaves the median at the front
    and, on an already-sorted range, amounts to one first<->middle
    exchange. Large ranges take the ninther: three triples are sorted,
    then the triple of their medians, and the middle element is exchanged
    to the front. Either way a subsequent partition of a sorted range is
    swapless and puts the pivot straight back, which is what lets the
    optimistic insertion-sort path fire.
    """
    size = end - begin
    mid = begin + size // 2
    if size > NINTHER_THRESHOLD:
        sort3(data, begin, mid, end - 1, lt, metrics)
        sort3(data, begin + 1, mid - 1, end - 2, lt, metrics)
        sort3(data, begin + 2, mid + 1, end - 3, lt, metrics)
        sort3(data, mid - 1, mid, mid + 1, lt, metrics)
        data[begin], data[mid] = data[mid], data[begin]
        if metrics is not None:
            metrics.exchanges += 1
    else:
        sort3(data, mid, begin, end - 1, lt, metrics)


def is_bad_partition(left_size: int, right_size: int, total: int) -> bool:
    """True iff either side is smaller than total * 2**-BAD_PARTITION_SHIFT."""
    threshold = total >> BAD_PARTITION_SHIFT
    return left_size < threshold or right_size < threshold


def break_patterns(
    data: MutableSequence,
    begin: int,
    end: int,
    metrics=None,
) -> None:
    """Swap the end pivot candidates with quartile elements.

    Deterministically exchanges the first and last positions with the
    elements at len//4 and len-1-len//4; ranges beyond the ninther
    threshold also exchange the two auxiliary candidates next to each end
    with the corresponding quartile neighbours. Applying it twice on the
    same range undoes it (disjoint transpositions).
    """
    size = end - begin
    assert size >= MIN_BREAK_SIZE, "pattern breaking needs quartiles distinct from the ends"
    q = size // 4
    pairs = 1
    data[begin], data[begin + q] = data[begin + q], data[begin]
    data[end - 1], data[end - 1 - q] = data[end - 1 - q], data[end - 1]
    if size > NINTHER_THRESHOLD:
        for k in (1, 2):
            data[begin + k], data[begin + q + k] = data[begin + q + k], data[begin + k]
            data[end - 1 - k], data[end - 1 - q - k] = data[end - 1 - q - k], data[end - 1 - k]
        pairs = 3
    if metrics is not None:
        metrics.exchanges += 2 * pairs


def _sort_range(
    data: MutableSequence,
    lt: Ordering,
    config: SortConfig,
    metrics=None,
    pivot_trace=None,
    depth_limit: bool = False,
) -> None:
    """Sort all of ``data``: the one sort loop behind every entry point.

    ``depth_limit=True`` turns the bad-partition budget into introsort's
    depth limit: every partition spends one of 2*floor(log2 n) units and
    no partition is judged bad. Only :func:`introsort_baseline` sets it.
    """
    use_block = config.use_block_partition
    use_left = config.use_partition_left
    use_break = config.use_break_patterns
    use_partial = config.use_partial_insertion
    # One scratch pair per sort call, shared by every partition; ranges
    # below the insertion threshold never partition at all.
    buffers = (
        BlockBuffers.for_block_size()
        if use_block and len(data) >= INSERTION_THRESHOLD
        else None
    )

    def attempt_partial(lo, hi):
        if metrics is not None:
            metrics.partial_insertion_attempts += 1
        ok = partial_insertion_sort(data, lo, hi, lt, PARTIAL_INSERTION_BUDGET, metrics)
        if not ok and metrics is not None:
            metrics.partial_insertion_aborts += 1
        return ok

    def loop(begin, end, bad_allowed, leftmost, depth):
        if metrics is not None and depth > metrics.max_depth:
            metrics.max_depth = depth
        while True:
            size = end - begin
            if size < INSERTION_THRESHOLD:
                if leftmost:
                    insertion_sort(data, begin, end, lt, metrics)
                else:
                    unguarded_insertion_sort(data, begin, end, lt, metrics)
                return
            if bad_allowed == 0:
                heapsort(data, begin, end, lt, metrics)
                if metrics is not None:
                    metrics.heapsort_fallbacks += 1
                return

            choose_pivot(data, begin, end, lt, metrics)
            if pivot_trace is not None:
                pivot_trace.append(data[begin])

            # A predecessor never greater than any element here equals the
            # pivot iff it is not less than it; equal elements then belong
            # in the left partition, which needs no recursion.
            if use_left and not leftmost and not lt(data[begin - 1], data[begin]):
                res = partition_left(data, begin, end, lt, metrics)
                begin = begin + res.pivot_index + 1
                continue

            if use_block:
                res = block_partition_right(data, begin, end, lt, buffers, metrics)
            else:
                res = partition_right(data, begin, end, lt, metrics)
            pivot_pos = begin + res.pivot_index
            left_size = pivot_pos - begin
            right_size = end - (pivot_pos + 1)

            if depth_limit:
                bad_allowed -= 1
            elif is_bad_partition(left_size, right_size, size):
                if metrics is not None:
                    metrics.bad_partitions += 1
                bad_allowed -= 1
                if use_break:
                    if left_size >= MIN_BREAK_SIZE:
                        break_patterns(data, begin, pivot_pos, metrics)
                    if right_size >= MIN_BREAK_SIZE:
                        break_patterns(data, pivot_pos + 1, end, metrics)
            elif (
                use_partial
                and res.no_swaps
                and attempt_partial(begin, pivot_pos)
                and attempt_partial(pivot_pos + 1, end)
            ):
                return

            # Recurse into the smaller partition, iterate on the larger;
            # each child carries its own copy of the remaining budget.
            if left_size <= right_size:
                loop(begin, pivot_pos, bad_allowed, leftmost, depth + 1)
                begin = pivot_pos + 1
                leftmost = False
            else:
                loop(pivot_pos + 1, end, bad_allowed, False, depth + 1)
                end = pivot_pos

    n = len(data)
    bad_allowed = n.bit_length() - 1 if n > 0 else 0
    if depth_limit:
        bad_allowed *= 2
    try:
        loop(0, n, bad_allowed, True, 0)
    finally:
        # loop reaches itself through its closure, and the closure holds
        # data; breaking that cycle frees the list with the call instead
        # of at the next cyclic garbage collection.
        del loop


def sort(data: MutableSequence) -> None:
    """Sort ``data`` in place, ascending under ``<``. Not stable."""
    _sort_range(data, operator.lt, DEFAULT_CONFIG)


def sort_with(data: MutableSequence, lt: Ordering, config: SortConfig = DEFAULT_CONFIG) -> None:
    """Sort ``data`` in place under the strict weak ordering ``lt``."""
    _sort_range(data, lt, config)


def introsort_baseline(data: MutableSequence, lt: Ordering = operator.lt, metrics=None) -> None:
    """Ablation baseline: the same loop, pivot selection and scalar kernels,
    but with the equal-element, pattern-breaking and optimistic heuristics
    off and a plain depth-based heapsort fallback (limit 2*floor(log2 n))."""
    _sort_range(data, lt, _INTROSORT_CONFIG, metrics, depth_limit=True)
