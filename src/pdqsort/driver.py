"""The hybrid sort driver.

Each range the sort loop takes up either runs the pair insertion sort
(ranges shorter than INSERTION_THRESHOLD, one kernel whether leftmost
or not), falls back to heapsort (exhausted bad-partition budget), or
selects a pivot and partitions. The pivot is the median of the paper's
estimate (median of 3, or the ninther) and two quartile elements, which
keeps the ends' sample of organ-pipe and merged-run ranges from picking
a value near their minimum at every level. Equal-to-predecessor pivots
dispatch to partition_left, whose left partition needs no more work;
otherwise partition_right runs, or block_partition_right when
``SortConfig.use_block_partition`` is set (off by default: under CPython
the block algorithm is slower than the scalar one, see the README).
A partition leaving either side smaller than 2**-BAD_PARTITION_SHIFT of
the range is *bad*: it costs one unit of the log2(n) budget and the pivot
candidates of both children are swapped with quartile elements to break
the pattern. A swapless, non-bad partition triggers an optimistic partial
insertion sort over both sides that finishes nearly-sorted inputs in
linear time. The loop goes on with the smaller side of each partition
and keeps the larger on an explicit stack of pending ranges, so at most
about log2(n) ranges wait at any time, in a few tuples of ints. A
partitioned range costs the loop two calls, unless a pattern break or a
partial insertion sort is due: choose_pivot, which sorts its samples in
its own frame, and the partition kernel, whose uncounted branch returns
a plain ``(pivot_index, no_swaps)`` pair.

The whole sort is deterministic: identical input and config give an
identical output permutation and identical instrumentation counters.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, fields
from typing import MutableSequence

from .inline import inline_lt
from .partition import (
    DEFAULT_BLOCK_SIZE,
    Ordering,
    block_partition_right,
    partition_left,
    partition_right,
)
from .small_sorts import heapsort, insertion_sort, partial_insertion_sort

# A second name for the one leaf kernel. The sort loop calls only
# ``insertion_sort``; the benchmark's layer tracer and kernel replays
# (benchmark/layers.py, benchmark/isolate.py) and the per-layer metric
# names of BENCHMARK.json still wrap this name, so it stays until they
# drop it.
unguarded_insertion_sort = insertion_sort

# The paper's tuning numbers, constants as in the reference pdqsort.h
# (the block size and the partial insertion limit sit beside their kernels).
# Ranges shorter than this are insertion sorted.
INSERTION_THRESHOLD = 24
# Ranges longer than this take the ninther as their pivot.
NINTHER_THRESHOLD = 128
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

# The block ablation: bench's bpdq, and the second kernel of each gate.
BLOCK_CONFIG = SortConfig(use_block_partition=True)

# Every combination of the toggles, in itertools.product order over the
# fields: the first has every toggle off, the last every toggle on.
TOGGLE_CONFIGS = tuple(
    SortConfig(*bits) for bits in itertools.product((False, True), repeat=len(fields(SortConfig)))
)

_INTROSORT_CONFIG = SortConfig(
    use_partition_left=False,
    use_break_patterns=False,
    use_partial_insertion=False,
)


@inline_lt
def choose_pivot(
    data: MutableSequence,
    begin: int,
    end: int,
    lt: Ordering,
    guard: bool = True,
    metrics=None,
) -> None:
    """Move the pivot to ``data[begin]``.

    The estimate of small ranges is the median of (middle, first, last);
    sorting that triple with the middle position first leaves it at the
    front. Large ranges take the ninther: three triples are sorted, then
    the triple of their medians, which leaves it in the middle. Each
    triple is sorted by the compare-exchange network of ``sort3`` in the
    reference ``pdqsort.h``, at most 3 comparisons and 3 exchanges,
    written out in this frame rather than called, as the C++ compiler
    inlines it.

    With ``guard`` set (the driver passes ``use_break_patterns``), the
    pivot is the median of the estimate and the quartile elements at
    ``size // 4`` and ``size - 1 - size // 4``, found with at most 3 more
    comparisons and no element moved. The ends' sample of an organ-pipe
    or merged-run range lands near its minimum, and every child of a
    good partition keeps that shape; the quartiles overrule it. Without
    the guard the pivot is the estimate, the paper's rule.

    One exchange then brings the pivot to the front, unless it is there
    already. On a sorted range all of this amounts to one first<->middle
    exchange, so a subsequent partition is swapless and puts the pivot
    straight back, which is what lets the optimistic insertion-sort path
    fire and keeps ascending, descending and ascending-then-appended
    inputs linear.
    """
    size = end - begin
    mid = begin + size // 2
    # Each network orders the values at the positions (low, slot, high),
    # which leaves their median at slot. Those indices are the only objects
    # pivot selection allocates, and the sort's memory peak can fall here,
    # so at most three are alive at once: the stores free an old index
    # before each new one past the third, the first del clears the second
    # triple, which shares no index with the third, and the second clears
    # the last network's indices before the guard makes its own.
    if size > NINTHER_THRESHOLD:
        low = begin
        slot = mid
        high = end - 1
        if lt(data[slot], data[low]):
            data[low], data[slot] = data[slot], data[low]
            if metrics is not None:
                metrics.exchanges += 1
        if lt(data[high], data[slot]):
            data[slot], data[high] = data[high], data[slot]
            if metrics is not None:
                metrics.exchanges += 1
            if lt(data[slot], data[low]):
                data[low], data[slot] = data[slot], data[low]
                if metrics is not None:
                    metrics.exchanges += 1
        high = end - 2
        low = begin + 1
        slot = mid - 1
        if lt(data[slot], data[low]):
            data[low], data[slot] = data[slot], data[low]
            if metrics is not None:
                metrics.exchanges += 1
        if lt(data[high], data[slot]):
            data[slot], data[high] = data[high], data[slot]
            if metrics is not None:
                metrics.exchanges += 1
            if lt(data[slot], data[low]):
                data[low], data[slot] = data[slot], data[low]
                if metrics is not None:
                    metrics.exchanges += 1
        del low, slot, high
        low = begin + 2
        slot = mid + 1
        high = end - 3
        if lt(data[slot], data[low]):
            data[low], data[slot] = data[slot], data[low]
            if metrics is not None:
                metrics.exchanges += 1
        if lt(data[high], data[slot]):
            data[slot], data[high] = data[high], data[slot]
            if metrics is not None:
                metrics.exchanges += 1
            if lt(data[slot], data[low]):
                data[low], data[slot] = data[slot], data[low]
                if metrics is not None:
                    metrics.exchanges += 1
        slot = mid
        low = mid - 1
        high = mid + 1
    else:
        low = mid
        slot = begin
        high = end - 1
    if lt(data[slot], data[low]):
        data[low], data[slot] = data[slot], data[low]
        if metrics is not None:
            metrics.exchanges += 1
    if lt(data[high], data[slot]):
        data[slot], data[high] = data[high], data[slot]
        if metrics is not None:
            metrics.exchanges += 1
        if lt(data[slot], data[low]):
            data[low], data[slot] = data[slot], data[low]
            if metrics is not None:
                metrics.exchanges += 1
    del low, high
    if guard:
        # The same comparisons over the quartiles and the estimate, moving
        # no element: ``slot`` ends at the median's.
        low = begin + size // 4
        high = end - 1 - size // 4
        if lt(data[slot], data[low]):
            low, slot = slot, low
        if lt(data[high], data[slot]):
            slot = high
            if lt(data[slot], data[low]):
                slot = low
    if slot != begin:
        data[begin], data[slot] = data[slot], data[begin]
        if metrics is not None:
            metrics.exchanges += 1


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
    for k in range(3 if size > NINTHER_THRESHOLD else 1):
        data[begin + k], data[begin + q + k] = data[begin + q + k], data[begin + k]
        data[end - 1 - k], data[end - 1 - q - k] = data[end - 1 - q - k], data[end - 1 - k]
        if metrics is not None:
            metrics.exchanges += 2


@inline_lt
def _sort_range(
    data: MutableSequence,
    lt: Ordering,
    config: SortConfig,
    metrics=None,
    depth_limit: bool = False,
) -> None:
    """Sort all of ``data``: the one sort loop behind every entry point.

    One loop works on one range at a time, held in locals with its share
    of the bad-partition budget. A range with ``begin > 0`` has a
    predecessor, never greater than any of its elements, for the
    equal-pivot check; a range that begins at 0 skips that check. A
    partition pushes its larger side onto ``pending`` and the loop goes
    on with the smaller side; a range that is sorted (a leaf, a heapsort,
    or both sides finished by the optimistic path) makes way for the
    range pushed last. The ranges are visited in the order of a recursion into the
    smaller side, and the range's depth in that recursion is the number
    of ranges pending. It is at most log2(n): each pending range was
    pushed as the loop went on with a side at most half of their parent,
    and the range being sorted lies inside every such side.

    Like the kernels, it is written once against ``lt`` and ``metrics``;
    :mod:`pdqsort.inline` generates its uncounted and ``operator.lt``
    branches, so ``sort()`` runs a loop with no counter test.

    ``depth_limit=True`` turns the bad-partition budget into introsort's
    depth limit: every partition spends one of 2*floor(log2 n) units and
    no partition is judged bad. Only :func:`introsort_baseline` sets it.

    An ordering that is not a strict weak ordering can carry a
    partition kernel's unguarded scan past its sentinel. That kernel
    then raises ``ValueError`` (chained to the ``IndexError`` if the scan
    left the list), and the list is still a permutation. Leaves,
    heapsort and partial insertion scan within their range and never
    raise it. An ``IndexError`` raised by the ordering or an element's
    ``__lt__``, in Python or in C, propagates as it is, unless the list's
    length changed: an ordering that resizes the list gets
    ``ValueError("list modified during sort")``, checked once per sort.
    """
    use_block = config.use_block_partition
    use_left = config.use_partition_left
    use_break = config.use_break_patterns
    use_partial = config.use_partial_insertion

    begin = 0
    end = n = len(data)
    bad_allowed = end.bit_length() - 1 if end > 0 else 0
    if depth_limit:
        bad_allowed *= 2
    # (begin, end, bad_allowed) of each range waiting for the loop: the
    # larger side of every partition still open.
    pending = []
    try:
        while True:
            size = end - begin
            if size < INSERTION_THRESHOLD:
                insertion_sort(data, begin, end, lt, metrics)
            elif bad_allowed == 0:
                heapsort(data, begin, end, lt, metrics)
                if metrics is not None:
                    metrics.heapsort_fallbacks += 1
            else:
                choose_pivot(data, begin, end, lt, use_break, metrics)

                # A predecessor never greater than any element here equals
                # the pivot iff it is not less than it; equal elements then
                # belong in the left partition, which needs no more work.
                if use_left and begin > 0 and not lt(data[begin - 1], data[begin]):
                    pivot_index, _ = partition_left(data, begin, end, lt, metrics)
                    begin += pivot_index + 1
                    continue

                # The pivot's index in the range is the size of its left side.
                if use_block:
                    left_size, no_swaps = block_partition_right(
                        data, begin, end, lt, DEFAULT_BLOCK_SIZE, metrics
                    )
                else:
                    left_size, no_swaps = partition_right(data, begin, end, lt, metrics)
                pivot_pos = begin + left_size
                right_size = size - 1 - left_size

                sides_sorted = False
                threshold = size >> BAD_PARTITION_SHIFT
                if depth_limit:
                    bad_allowed -= 1
                elif left_size < threshold or right_size < threshold:
                    # A bad partition: a side holds less than 1/8 of the range.
                    if metrics is not None:
                        metrics.bad_partitions += 1
                    bad_allowed -= 1
                    if use_break:
                        if left_size >= MIN_BREAK_SIZE:
                            break_patterns(data, begin, pivot_pos, metrics)
                        if right_size >= MIN_BREAK_SIZE:
                            break_patterns(data, pivot_pos + 1, end, metrics)
                elif use_partial and no_swaps:
                    # The optimistic path: a swapless partition of a range
                    # that may be nearly sorted. The right side is tried
                    # only if the left one finished.
                    sides_sorted = partial_insertion_sort(
                        data, begin, pivot_pos, lt, metrics
                    ) and partial_insertion_sort(data, pivot_pos + 1, end, lt, metrics)

                if not sides_sorted:
                    # The larger side waits, with its own copy of the
                    # remaining budget; the smaller side goes on.
                    if left_size <= right_size:
                        pending.append((pivot_pos + 1, end, bad_allowed))
                        end = pivot_pos
                    else:
                        pending.append((begin, pivot_pos, bad_allowed))
                        begin = pivot_pos + 1
                    if metrics is not None and len(pending) > metrics.max_depth:
                        metrics.max_depth = len(pending)
                    continue

            # This range is sorted; the loop takes up the one pushed last.
            if not pending:
                break
            begin, end, bad_allowed = pending.pop()
    except (IndexError, ValueError) as error:
        if len(data) != n:
            raise ValueError("list modified during sort") from error
        raise
    if len(data) != n:
        raise ValueError("list modified during sort")


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
