"""Base-case sorts and the heapsort fallback.

Every function here works in place on ``data[begin:end)`` under a strict
weak ordering ``lt``, where ``lt(a, b)`` means ``a`` sorts before ``b``.
Empty and single-element ranges are no-ops, never errors. If ``lt``
raises (``KeyboardInterrupt`` included), the range is still a
permutation of its input: the insertion sorts drop the lifted element
back into the hole on the way out, and everything else only swaps.
"""

from __future__ import annotations

import operator
from typing import MutableSequence

from .partition import Ordering


def insertion_sort(
    data: MutableSequence,
    begin: int,
    end: int,
    lt: Ordering = operator.lt,
    metrics=None,
) -> None:
    """Sort ``data[begin:end)`` ascending.

    The partial insertion sort with a budget it cannot exceed: a range of
    ``end - begin`` elements needs fewer corrections than that.
    """
    partial_insertion_sort(data, begin, end, lt, end - begin, metrics)


def unguarded_insertion_sort(
    data: MutableSequence,
    begin: int,
    end: int,
    lt: Ordering = operator.lt,
    metrics=None,
) -> None:
    """Insertion sort without the inner bound check.

    Contract: ``data[begin - 1]`` exists and compares <= every element of
    the range, so it stops the inner scan as a sentinel. Callers must only
    use this on ranges that are not leftmost in their buffer.
    """
    assert begin > 0, "unguarded insertion sort needs a predecessor"
    moves = 0
    if lt is operator.lt:
        # The loop of the else branch with ``<`` written inline: the same
        # comparisons in the same order, without a Python call for each.
        for i in range(begin + 1, end):
            v = data[i]
            if v < data[i - 1]:
                j = i - 1
                data[i] = data[j]
                try:
                    while v < data[j - 1]:
                        data[j] = data[j - 1]
                        j -= 1
                finally:
                    data[j] = v
                moves += i - j + 2
    else:
        for i in range(begin + 1, end):
            if lt(data[i], data[i - 1]):
                v = data[i]
                j = i - 1
                data[i] = data[j]
                try:
                    while lt(v, data[j - 1]):
                        data[j] = data[j - 1]
                        j -= 1
                finally:
                    data[j] = v
                moves += i - j + 2
    if metrics is not None and moves:
        metrics.element_moves += moves


def partial_insertion_sort(
    data: MutableSequence,
    begin: int,
    end: int,
    lt: Ordering,
    budget: int,
    metrics=None,
) -> bool:
    """Insertion sort that gives up after ``budget`` corrections.

    Each out-of-place element is lifted once, the sorted prefix is shifted
    to open a hole, and the element is dropped once -- no pairwise swaps.
    One correction is one lifted element (one hole-shift cycle), whatever
    the shift distance. Returns True iff the range is fully sorted on
    return; on False the range is left as a valid permutation with a
    sorted prefix, and exactly ``budget + 1`` corrections were counted
    when the abort happened (the last one is not performed).
    """
    if budget < 0:
        raise ValueError("correction budget must be non-negative")
    corrections = 0
    moves = 0
    for i in range(begin + 1, end):
        if lt(data[i], data[i - 1]):
            corrections += 1
            if corrections > budget:
                if metrics is not None and moves:
                    metrics.element_moves += moves
                return False
            v = data[i]
            j = i - 1
            data[i] = data[j]
            try:
                while j > begin and lt(v, data[j - 1]):
                    data[j] = data[j - 1]
                    j -= 1
            finally:
                data[j] = v
            moves += i - j + 2
    if metrics is not None and moves:
        metrics.element_moves += moves
    return True


def _sift_down(data, begin, root, size, lt):
    swaps = 0
    while True:
        child = 2 * root + 1
        if child >= size:
            break
        if child + 1 < size and lt(data[begin + child], data[begin + child + 1]):
            child += 1
        if not lt(data[begin + root], data[begin + child]):
            break
        data[begin + root], data[begin + child] = data[begin + child], data[begin + root]
        swaps += 1
        root = child
    return swaps


def heapsort(
    data: MutableSequence,
    begin: int,
    end: int,
    lt: Ordering = operator.lt,
    metrics=None,
) -> None:
    """In-place siftdown heapsort; the O(n log n) fallback sort."""
    n = end - begin
    if n < 2:
        return
    swaps = 0
    for root in range(n // 2 - 1, -1, -1):
        swaps += _sift_down(data, begin, root, n, lt)
    for size in range(n - 1, 0, -1):
        data[begin], data[begin + size] = data[begin + size], data[begin]
        swaps += 1 + _sift_down(data, begin, 0, size, lt)
    if metrics is not None:
        metrics.exchanges += swaps


def sort3(
    data: MutableSequence,
    a: int,
    b: int,
    c: int,
    lt: Ordering = operator.lt,
    metrics=None,
) -> None:
    """Permute three positions so data[a] <= data[b] <= data[c].

    At most 3 comparisons. Used for median-of-3 pivot selection; with
    ``(a, b, c)`` = (middle, first, last) the median lands at the front.
    """
    swaps = 0
    if lt(data[b], data[a]):
        data[a], data[b] = data[b], data[a]
        swaps += 1
    if lt(data[c], data[b]):
        data[b], data[c] = data[c], data[b]
        swaps += 1
        if lt(data[b], data[a]):
            data[a], data[b] = data[b], data[a]
            swaps += 1
    if metrics is not None and swaps:
        metrics.exchanges += swaps
