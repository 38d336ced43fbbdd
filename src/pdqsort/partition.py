"""Partition kernels.

Three primitives over ``data[begin:end)`` with the pivot at ``data[begin]``:

- :func:`partition_right`: crossing-pointers Hoare partition that groups
  elements equal to the pivot into the right partition, one comparison
  per element (``a < b  iff  not (a >= b)``). Under ``operator.lt`` it
  runs the same loops with ``<`` written inline.
- :func:`partition_left`: the mirror that groups equal elements into the
  left partition; called when the range's predecessor equals the pivot,
  so its left partition needs no further recursion.
- :func:`block_partition_right`: same contract as partition_right, but
  misplaced elements are located with unconditional offset stores and
  predicate-incremented counters, then exchanged pairwise in blocks.

All kernels assume the pivot was placed by a median-of-(at-least-)3
selection, which guarantees an element >= pivot somewhere to its right;
that element and previously scanned ones serve as sentinels, so the inner
scans carry no bound checks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, MutableSequence, NamedTuple

Ordering = Callable[[Any, Any], bool]

DEFAULT_BLOCK_SIZE = 64


class PartitionResult(NamedTuple):
    """Outcome of one partition call.

    ``pivot_index`` is relative to the start of the partitioned range.
    ``no_swaps`` is True iff no element pair was exchanged besides the
    final pivot placement; partition_left always reports False.
    """

    pivot_index: int
    no_swaps: bool


@dataclass
class BlockBuffers:
    """Caller-supplied scratch for block partitioning: two fixed-size
    offset buffers, one per side."""

    offsets_left: list = field(repr=False)
    offsets_right: list = field(repr=False)

    @classmethod
    def for_block_size(cls, block_size: int = DEFAULT_BLOCK_SIZE) -> "BlockBuffers":
        if block_size < 1:
            raise ValueError("block size must be >= 1")
        return cls([0] * block_size, [0] * block_size)

    @property
    def block_size(self) -> int:
        return len(self.offsets_left)


def partition_right(
    data: MutableSequence,
    begin: int,
    end: int,
    lt: Ordering = operator.lt,
    metrics=None,
) -> PartitionResult:
    """Partition so that [begin, r) < pivot, data[r] is the pivot, and
    (r, end) >= pivot, where r = begin + pivot_index."""
    pivot = data[begin]
    i = begin + 1
    j = end
    swaps = 0

    if lt is operator.lt:
        # The loops of the else branch with ``<`` written inline: the same
        # comparisons in the same order, without a Python call for each.
        while data[i] < pivot:
            i += 1
        if i - 1 == begin:
            while i < j:
                j -= 1
                if data[j] < pivot:
                    break
        else:
            j -= 1
            while not data[j] < pivot:
                j -= 1
        no_swaps = i >= j
        while i < j:
            data[i], data[j] = data[j], data[i]
            swaps += 1
            i += 1
            while data[i] < pivot:
                i += 1
            j -= 1
            while not data[j] < pivot:
                j -= 1
    else:
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
            swaps += 1
            i += 1
            while lt(data[i], pivot):
                i += 1
            j -= 1
            while not lt(data[j], pivot):
                j -= 1

    pivot_pos = i - 1
    data[begin] = data[pivot_pos]
    data[pivot_pos] = pivot

    if metrics is not None:
        metrics.partition_right_calls += 1
        metrics.exchanges += swaps
        metrics.element_moves += 2
    return PartitionResult(pivot_pos - begin, no_swaps)


def partition_left(
    data: MutableSequence,
    begin: int,
    end: int,
    lt: Ordering = operator.lt,
    metrics=None,
) -> PartitionResult:
    """Partition so that [begin, r] <= pivot and (r, end) > pivot.

    The caller guarantees every element compares >= the range's
    predecessor and that the predecessor equals the pivot; the left
    partition then consists of elements equal to the pivot only.
    """
    pivot = data[begin]

    # Scan down to the first element <= pivot; the pivot itself stops
    # the scan at worst.
    j = end - 1
    while lt(pivot, data[j]):
        j -= 1

    i = begin
    if j + 1 == end:
        while i < j:
            i += 1
            if lt(pivot, data[i]):
                break
    else:
        i += 1
        while not lt(pivot, data[i]):
            i += 1

    swaps = 0
    while i < j:
        data[i], data[j] = data[j], data[i]
        swaps += 1
        j -= 1
        while lt(pivot, data[j]):
            j -= 1
        i += 1
        while not lt(pivot, data[i]):
            i += 1

    pivot_pos = j
    data[begin] = data[pivot_pos]
    data[pivot_pos] = pivot

    if metrics is not None:
        metrics.partition_left_calls += 1
        metrics.exchanges += swaps
        metrics.element_moves += 2
    return PartitionResult(pivot_pos - begin, False)


def block_partition_right(
    data: MutableSequence,
    begin: int,
    end: int,
    lt: Ordering,
    buffers: BlockBuffers,
    metrics=None,
) -> PartitionResult:
    """Block-based partition_right; identical contract, different moves.

    Each round classifies up to one block per side with unconditional
    offset stores, then resolves min(num_l, num_r) misplaced pairs with
    one pairwise exchange each. Leftover offsets carry into the next
    round; the side that ran dry refills. A final reduced-size round
    handles the tail, and the drain loop moves any remaining one-sided
    leftovers next to the boundary.
    """
    block = buffers.block_size
    offs_l = buffers.offsets_left
    offs_r = buffers.offsets_right
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
    return PartitionResult(pivot_pos - begin, swaps == 0)
