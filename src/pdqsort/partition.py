"""Partition kernels.

Three primitives over ``data[begin:end)`` with the pivot at ``data[begin]``:

- :func:`partition_right`: crossing-pointers Hoare partition that groups
  elements equal to the pivot into the right partition, one comparison
  per element (``a < b  iff  not (a >= b)``).
- :func:`partition_left`: the mirror that groups equal elements into the
  left partition; called when the range's predecessor equals the pivot,
  so its left partition needs no further recursion.
- :func:`block_partition_right`: same contract as partition_right, but
  each block's misplaced elements are collected first, then exchanged
  pairwise.

Each returns the pair ``(pivot_index, no_swaps)``: a plain tuple when
uncounted, a :class:`PartitionResult` with named fields when handed a
``Metrics``.

All kernels assume the pivot was placed by a median-of-(at-least-)3
selection, which guarantees an element >= pivot somewhere to its right;
that element and previously scanned ones serve as sentinels, so the inner
scans of partition_right and partition_left carry no bound checks. An
ordering that is not a strict weak ordering can carry such a scan past
its sentinel, off the list, below ``begin`` or (partition_right's up
scan) past ``end``; the kernel then raises ``ValueError`` before it
places the pivot, chained to the subscript's ``IndexError`` if the scan
left the list. The subscript is evaluated before ``lt`` is called, so an
``IndexError`` raised while both indices are inside the list is the
ordering's own, and propagates. Each kernel is written once, against
``lt`` and ``metrics``; :mod:`pdqsort.inline` generates its uncounted
and ``operator.lt`` branches.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, MutableSequence

from .inline import inline_lt

Ordering = Callable[[Any, Any], bool]

# The message of the ValueError raised when an ordering is caught not
# being a strict weak ordering.
NOT_STRICT_WEAK = "ordering is not a strict weak ordering"

DEFAULT_BLOCK_SIZE = 64


class PartitionResult(tuple):
    """Outcome of one counted partition call: the pair ``(pivot_index, no_swaps)``.

    ``pivot_index`` is relative to the start of the partitioned range.
    ``no_swaps`` is True iff no element pair was exchanged besides the
    final pivot placement; partition_left always reports False.
    Only a kernel handed a ``Metrics`` builds one, for the readers of the
    named fields that trace counted sorts; uncounted, each kernel returns
    the same pair as a plain tuple, which the sort loop unpacks for a
    fraction of the cost. Read a result by position to accept both.
    """

    __slots__ = ()
    pivot_index = property(operator.itemgetter(0))
    no_swaps = property(operator.itemgetter(1))


@inline_lt
def partition_right(
    data: MutableSequence,
    begin: int,
    end: int,
    lt: Ordering,
    metrics=None,
) -> tuple[int, bool]:
    """Partition so that [begin, r) < pivot, data[r] is the pivot, and
    (r, end) >= pivot, where r = begin + pivot_index."""
    pivot = data[begin]
    i = begin + 1
    j = end

    try:
        # Scan up to the first element >= pivot. Selection guarantees one
        # exists, so the first iteration needs no bound check.
        while lt(data[i], pivot):
            i += 1

        # Scan down to the first element < pivot. Only guarded when the up
        # scan stopped immediately, i.e. nothing smaller is known to exist
        # on the left to act as a sentinel.
        if i - 1 == begin:
            while i < j:
                j -= 1
                if lt(data[j], pivot):
                    break
        else:
            j -= 1
            while not lt(data[j], pivot):
                j -= 1

        # If the first misplaced pair already crossed, the range was
        # partitioned before we touched it.
        no_swaps = i >= j

        while i < j:
            data[i], data[j] = data[j], data[i]
            if metrics is not None:
                metrics.exchanges += 1
            i += 1
            while lt(data[i], pivot):
                i += 1
            j -= 1
            while not lt(data[j], pivot):
                j -= 1
    except IndexError as exc:
        if i >= len(data) or j < -len(data):
            raise ValueError(NOT_STRICT_WEAK) from exc
        raise
    # Under a strict weak ordering the down scan stops above begin and
    # the up scan at end - 1 at the latest.
    if j < begin or i > end:
        raise ValueError(NOT_STRICT_WEAK)

    pivot_pos = i - 1
    data[begin] = data[pivot_pos]
    data[pivot_pos] = pivot

    if metrics is not None:
        metrics.partition_right_calls += 1
        metrics.element_moves += 2
        return PartitionResult((pivot_pos - begin, no_swaps))
    return pivot_pos - begin, no_swaps


@inline_lt
def partition_left(
    data: MutableSequence,
    begin: int,
    end: int,
    lt: Ordering,
    metrics=None,
) -> tuple[int, bool]:
    """Partition so that [begin, r] <= pivot and (r, end) > pivot.

    The caller guarantees every element compares >= the range's
    predecessor and that the predecessor equals the pivot; the left
    partition then consists of elements equal to the pivot only.
    """
    pivot = data[begin]
    i = begin
    j = end - 1
    try:
        # Scan down to the first element <= pivot; the pivot itself stops
        # the scan at worst.
        while lt(pivot, data[j]):
            j -= 1

        if j + 1 == end:
            while i < j:
                i += 1
                if lt(pivot, data[i]):
                    break
        else:
            i += 1
            while not lt(pivot, data[i]):
                i += 1

        while i < j:
            data[i], data[j] = data[j], data[i]
            if metrics is not None:
                metrics.exchanges += 1
            j -= 1
            while lt(pivot, data[j]):
                j -= 1
            i += 1
            while not lt(pivot, data[i]):
                i += 1
    except IndexError as exc:
        if i >= len(data) or j < -len(data):
            raise ValueError(NOT_STRICT_WEAK) from exc
        raise
    # Under a strict weak ordering the pivot stops the down scan.
    if j < begin:
        raise ValueError(NOT_STRICT_WEAK)

    pivot_pos = j
    data[begin] = data[pivot_pos]
    data[pivot_pos] = pivot

    if metrics is not None:
        metrics.partition_left_calls += 1
        metrics.element_moves += 2
        return PartitionResult((pivot_pos - begin, False))
    return pivot_pos - begin, False


@inline_lt
def block_partition_right(
    data: MutableSequence,
    begin: int,
    end: int,
    lt: Ordering,
    block: int,
    metrics=None,
) -> tuple[int, bool]:
    """Block-based partition_right; identical contract, different moves.

    Each round collects the misplaced positions of up to one block per
    side, in scan order, and exchanges the k-th from the left with the
    k-th from the right; leftovers carry over, and only a side that ran
    dry refills. The drain moves the last leftovers next to the boundary.
    """
    if block < 1:
        raise ValueError("block size must be >= 1")
    pivot = data[begin]
    first = begin + 1
    last = end
    left = right = []
    swaps = 0

    while first < last:
        # At most one side has leftovers, and only an empty side refills.
        unknown = last - first
        take_l = 0 if left else min(block, unknown if right else unknown // 2)
        take_r = 0 if right else min(block, unknown - take_l)

        if take_l:
            left = [k for k in range(first, first + take_l) if not lt(data[k], pivot)]
            first += take_l
        if take_r:
            right = [k for k in range(last - 1, last - 1 - take_r, -1) if lt(data[k], pivot)]
            last -= take_r

        # Pairwise exchanges: the k-th misplaced element from the left
        # always partners the k-th misplaced element from the right,
        # so a reversing partition (descending input) applies an exact
        # mirror and leaves its children sorted for the optimistic
        # linear path. Chaining the moves through one temporary would
        # save a store per pair but shears that mirror by one slot per
        # round, which destroys the linear behaviour.
        for a, b in zip(left, right):
            data[a], data[b] = data[b], data[a]
        num = min(len(left), len(right))
        swaps += num
        left, right = left[num:], right[num:]

    # At most one list survives, as each round pairs off both. Its
    # positions, boundary side first, pair with the slots next to the
    # boundary; a position that is its own slot is already in place.
    if left:
        first -= len(left)
        pairs = zip(reversed(left), range(last - 1, first - 1, -1))
    else:
        pairs = zip(reversed(right), range(first, first + len(right)))
        first += len(right)
    for a, b in pairs:
        if a != b:
            data[a], data[b] = data[b], data[a]
            swaps += 1

    pivot_pos = first - 1
    data[begin] = data[pivot_pos]
    data[pivot_pos] = pivot

    if metrics is not None:
        metrics.partition_right_calls += 1
        metrics.exchanges += swaps
        metrics.element_moves += 2
        return PartitionResult((pivot_pos - begin, swaps == 0))
    return pivot_pos - begin, swaps == 0
