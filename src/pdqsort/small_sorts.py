"""Base-case sorts and the heapsort fallback.

Every function here works in place on ``data[begin:end)`` under a strict
weak ordering ``lt``, where ``lt(a, b)`` means ``a`` sorts before ``b``.
Empty and single-element ranges are no-ops, never errors. If ``lt``
raises (``KeyboardInterrupt`` included), the range is still a
permutation of its input: the insertion sorts and heapsort drop each
lifted element back into a hole on the way out (the pair insertion sort
holds two lifted elements and two holes while it scans for the larger),
and ``sort3`` only swaps. Every scan here stops at the ends of its
range, so no kernel reads or writes outside it, whatever ``lt``
answers. No kernel calls a function between the first store over a
lifted element's slot and the ``try`` that drops the element, so a
signal's ``KeyboardInterrupt``, raised at a function entry, cannot lose
it. Every loop that runs while an element is held is written ``while
True:`` with a ``break``, whose backward jump, unlike that of a ``while
<cond>:`` loop from CPython 3.12 on, lies inside the ``try``'s
exception-table range (see the README).
:mod:`pdqsort.inline` generates the uncounted and ``operator.lt``
branches of each kernel.
"""

from __future__ import annotations

from typing import MutableSequence

from .inline import inline_lt
from .partition import Ordering


@inline_lt
def insertion_sort(
    data: MutableSequence,
    begin: int,
    end: int,
    lt: Ordering,
    metrics=None,
) -> None:
    """Pair insertion sort of ``data[begin:end)``, the leaf kernel of
    every range, as in OpenJDK's ``DualPivotQuicksort``.

    The ascending prefix is skipped first, one ``lt`` per element. From
    the first descent on, elements are lifted two at a time and ordered,
    so ``a1`` is the larger and ``a2`` the smaller. Every prefix element
    greater than ``a1`` moves up two slots, through the two holes, and
    ``a1`` is dropped; the scan then goes on down, moving every element
    greater than ``a2`` up one slot, and ``a2`` is dropped into the last
    hole. The prefix above ``a1`` is scanned once for both. When an odd
    number of elements follows the prefix, the first pair takes the
    prefix's last element along, so no element is left over. If ``lt``
    raises, ``a1`` and ``a2`` are dropped into the holes open at that
    moment.

    Both scans stop at ``begin``, so no answer of ``lt`` can carry them
    out of the range: the kernel reads and writes only ``data[begin:end)``.
    ``element_moves`` counts each lift, hole fill and drop.
    """
    i = begin + 1
    while i < end and not lt(data[i], data[i - 1]):
        i += 1
    # An odd count left: the pairs start one element early, at the last
    # element of the prefix.
    i -= (end - i) & 1
    while i + 1 < end:
        a1 = data[i]
        a2 = data[i + 1]
        if lt(a1, a2):
            a1, a2 = a2, a1
        j = i - 1
        try:
            try:
                while True:
                    if j < begin or not lt(a1, data[j]):
                        break
                    data[j + 2] = data[j]
                    j -= 1
            finally:
                data[j + 2] = a1
            while True:
                if j < begin or not lt(a2, data[j]):
                    break
                data[j + 1] = data[j]
                j -= 1
        finally:
            data[j + 1] = a2
        if metrics is not None:
            # Two lifts, i - 1 - j fills and two drops.
            metrics.element_moves += i + 3 - j
        i += 2


@inline_lt
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
    for i in range(begin + 1, end):
        if lt(data[i], data[i - 1]):
            corrections += 1
            if corrections > budget:
                return False
            v = data[i]
            j = i - 1
            data[i] = data[j]
            try:
                while True:
                    if j <= begin or not lt(v, data[j - 1]):
                        break
                    data[j] = data[j - 1]
                    j -= 1
            finally:
                data[j] = v
            if metrics is not None:
                metrics.element_moves += i - j + 2
    return True


@inline_lt
def heapsort(
    data: MutableSequence,
    begin: int,
    end: int,
    lt: Ordering,
    metrics=None,
) -> None:
    """In-place bottom-up heapsort; the O(n log n) fallback sort.

    ``std::make_heap`` then ``std::sort_heap``, as the reference
    ``pdqsort.h`` runs them, in one loop: ``n // 2`` build sifts from the
    last parent down to the root, then ``n - 1`` pops. A build sift lifts
    the element at its root; a pop lifts the last heap element and moves
    the root into its slot, and sifts the lifted element from the root of
    the heap left, so there are no two-element swaps.

    Every sift is bottom-up, as libstdc++'s ``__adjust_heap``: the hole
    first sinks to a leaf, taking the larger child on every level for one
    ``lt`` each, and the lifted element then rises from there toward the
    sift's root past every parent less than it, about n log2 n + 0.8n
    comparisons in all. The descent reads only children inside the heap
    and the ascent stops at the sift's root, whatever ``lt`` answers.
    ``element_moves`` counts each lift, hole fill and drop.
    """
    n = end - begin
    if n < 2:
        return
    # Absolute indices: the children of i are 2*i + skew and 2*i + skew + 1,
    # its parent is (i - skew) // 2.
    skew = 1 - begin
    for i in range(n + n // 2 - 1, 0, -1):
        if i >= n:
            # Build: sift the element at root i - n of the whole heap.
            top = hole = begin + i - n
            last = end - 1
            v = data[hole]
        else:
            # Pop: the root moves to slot i, whose element sifts from the root.
            top = hole = begin
            last = begin + i - 1
            v = data[begin + i]
            data[begin + i] = data[begin]
        child = 2 * hole + skew
        try:
            while True:
                if child >= last:
                    break
                if lt(data[child], data[child + 1]):
                    child += 1
                data[hole] = data[child]
                hole = child
                child = 2 * hole + skew
            if child == last:
                data[hole] = data[child]
                hole = child
            if metrics is not None:
                # The descent's hole fills, one per level, from the heap depths.
                metrics.element_moves += (hole + skew).bit_length() - (top + skew).bit_length()
            while True:
                if hole <= top:
                    break
                parent = (hole - skew) // 2
                if not lt(data[parent], v):
                    break
                data[hole] = data[parent]
                hole = parent
                if metrics is not None:
                    metrics.element_moves += 1
        finally:
            data[hole] = v
        if metrics is not None:
            # The lift and the drop, and a pop's move of the root.
            metrics.element_moves += 2 if i >= n else 3


@inline_lt
def sort3(
    data: MutableSequence,
    a: int,
    b: int,
    c: int,
    lt: Ordering,
    metrics=None,
) -> None:
    """Permute three positions so data[a] <= data[b] <= data[c].

    At most 3 comparisons. Used for median-of-3 pivot selection; with
    ``(a, b, c)`` = (middle, first, last) the median lands at the front.
    """
    if lt(data[b], data[a]):
        data[a], data[b] = data[b], data[a]
        if metrics is not None:
            metrics.exchanges += 1
    if lt(data[c], data[b]):
        data[b], data[c] = data[c], data[b]
        if metrics is not None:
            metrics.exchanges += 1
        if lt(data[b], data[a]):
            data[a], data[b] = data[b], data[a]
            if metrics is not None:
                metrics.exchanges += 1
