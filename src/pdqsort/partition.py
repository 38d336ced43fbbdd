"""Partition kernels.

Three primitives over ``data[begin:end)`` with the pivot at ``data[begin]``:

- :func:`partition_right`: crossing-pointers Hoare partition that groups
  elements equal to the pivot into the right partition, one comparison
  per element (``a < b  iff  not (a >= b)``).
- :func:`partition_left`: the mirror that groups equal elements into the
  left partition; called when the range's predecessor equals the pivot,
  so its left partition needs no further recursion.
- :func:`block_partition_right`: same contract as partition_right, but
  misplaced elements are located with unconditional offset stores and
  predicate-incremented counters, then exchanged pairwise in blocks.

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
    """Outcome of one partition call: the pair ``(pivot_index, no_swaps)``.

    ``pivot_index`` is relative to the start of the partitioned range.
    ``no_swaps`` is True iff no element pair was exchanged besides the
    final pivot placement; partition_left always reports False.
    A plain tuple subclass, built by ``tuple``'s own constructor: the
    driver unpacks one per partition, and the named fields serve
    everyone else.
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
) -> PartitionResult:
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


@inline_lt
def partition_left(
    data: MutableSequence,
    begin: int,
    end: int,
    lt: Ordering,
    metrics=None,
) -> PartitionResult:
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


@inline_lt
def block_partition_right(
    data: MutableSequence,
    begin: int,
    end: int,
    lt: Ordering,
    block: int,
    metrics=None,
) -> PartitionResult:
    """Block-based partition_right; identical contract, different moves.

    Each round classifies up to one block per side with unconditional
    offset stores, then resolves min(num_l, num_r) misplaced pairs with
    one pairwise exchange each. Leftover offsets carry into the next
    round; the side that ran dry refills. A final reduced-size round
    handles the tail, and the drain loop moves any remaining one-sided
    leftovers next to the boundary. Each call allocates its two offset
    lists of ``block`` entries, as the reference declares its offset
    arrays inside ``partition_right_branchless``.
    """
    if block < 1:
        raise ValueError("block size must be >= 1")
    offs_l = [0] * block
    offs_r = [0] * block
    pivot = data[begin]

    first = begin + 1
    last = end
    num_l = num_r = 0
    start_l = start_r = 0
    base_l = first
    base_r = last
    swaps = 0

    while first < last:
        unknown = last - first
        if num_l == 0:
            if num_r == 0:
                take_l = min(block, unknown // 2)
                take_r = min(block, unknown - take_l)
            else:
                take_l = min(block, unknown)
                take_r = 0
        else:
            take_l = 0
            take_r = min(block, unknown)

        if take_l:
            base_l = first
            start_l = 0
            for k in range(take_l):
                offs_l[num_l] = k
                num_l += not lt(data[first + k], pivot)
            first += take_l
        if take_r:
            base_r = last
            start_r = 0
            for k in range(take_r):
                offs_r[num_r] = k + 1
                num_r += lt(data[last - 1 - k], pivot)
            last -= take_r

        num = num_l if num_l < num_r else num_r
        if num:
            # Pairwise exchanges: the k-th misplaced element from the left
            # always partners the k-th misplaced element from the right,
            # so a reversing partition (descending input) applies an exact
            # mirror and leaves its children sorted for the optimistic
            # linear path. Chaining the moves through one temporary would
            # save a store per pair but shears that mirror by one slot per
            # round, which destroys the linear behaviour.
            for k in range(num):
                a = base_l + offs_l[start_l + k]
                b = base_r - offs_r[start_r + k]
                data[a], data[b] = data[b], data[a]
            swaps += num
            num_l -= num
            num_r -= num
            start_l += num
            start_r += num

    # Drain the surviving buffer (at most one side is non-empty, as every
    # round subtracts min(num_l, num_r) from both): walk its offsets from
    # the boundary side inward, swapping each wrong-side element next to
    # the boundary. Coincident positions mean the element is already in
    # place, so nothing is exchanged.
    if num_l:
        while num_l:
            num_l -= 1
            a = base_l + offs_l[start_l + num_l]
            last -= 1
            if a != last:
                data[a], data[last] = data[last], data[a]
                swaps += 1
        first = last
    elif num_r:
        while num_r:
            num_r -= 1
            b = base_r - offs_r[start_r + num_r]
            if b != first:
                data[b], data[first] = data[first], data[b]
                swaps += 1
            first += 1
        last = first

    pivot_pos = first - 1
    data[begin] = data[pivot_pos]
    data[pivot_pos] = pivot

    if metrics is not None:
        metrics.partition_right_calls += 1
        metrics.exchanges += swaps
        metrics.element_moves += 2
    return PartitionResult((pivot_pos - begin, swaps == 0))
