"""The kernel variants that the tests run alone, one row each.

A row holds a kernel, ``prepare(arr) -> (list, begin)``, which builds a
range that meets the kernel's precondition, and ``call(data, begin, end,
lt, metrics)``, which runs the kernel on it with one choice of its other
parameters. The raise-at-call-k sweeps of ``test_exception_safety.py``
and the four-way test of ``test_inline_ordering.py`` run over every row,
so a new kernel or parameter joins them as one row here;
``test_every_inlined_function_has_a_row`` fails for a kernel with an
inline branch and no row.

The module imports only the standard library and ``pdqsort``, so
``test_interrupt_safety.py`` runs as a script without pytest.
"""

import itertools
from typing import Callable, NamedTuple

from pdqsort import (
    block_partition_right,
    choose_pivot,
    heapsort,
    insertion_sort,
    partial_insertion_sort,
    partition_left,
    partition_right,
)
from pdqsort.acceptance import _prepare_pivot
from pdqsort.partition import DEFAULT_BLOCK_SIZE


def python_lt(a, b):
    """``<`` as a Python relation, which no kernel compares inline."""
    return a < b


def small_arrays():
    """Every array of length 2..7 over {0, 1, 2}, as criterion 2 uses."""
    for length in range(2, 8):
        yield from (list(arr) for arr in itertools.product(range(3), repeat=length))


class Boxed:
    """An element whose ``<`` applies ``relation`` to the boxed values."""

    __slots__ = ("value", "relation")

    def __init__(self, value, relation):
        self.value = value
        self.relation = relation

    def __lt__(self, other):
        return self.relation(self.value, other.value)


class Row(NamedTuple):
    kernel: Callable
    prepare: Callable
    call: Callable


def whole(arr):
    return list(arr), 0


def pivot_first(arr):
    """The driver's pivot estimate moved to the front, and a sentinel not
    less than it last: the range a right partition kernel is handed."""
    return _prepare_pivot(arr), 0


def behind_predecessor(arr):
    """The range behind a least element, as the sort loop hands over
    every range that does not begin at 0."""
    return [min(arr, default=0), *arr], 1


def equal_predecessor(arr):
    """A least element first as the pivot, behind a predecessor equal to
    it: the range ``partition_left`` is handed."""
    i = arr.index(min(arr))
    return [arr[i], arr[i], *arr[:i], *arr[i + 1 :]], 1


def variant(kernel, prepare, *extra):
    """The row that calls ``kernel(data, begin, end, lt, *extra, metrics)``."""

    def call(data, begin, end, lt, metrics):
        return kernel(data, begin, end, lt, *extra, metrics)

    return Row(kernel, prepare, call)


# The raise-at-call-k sweeps run each row on inputs of 40 and 41
# elements; the four-way test on inputs of 2 to 200, on both sides of
# NINTHER_THRESHOLD (128), where partial_insertion_sort both finishes
# and gives up at its fixed limit of 8. A bare block_partition_right runs
# blocks of 4. insertion_sort_begin_1 and partial_insertion_sort/8 run a
# range behind a least element, as the sort loop hands over every range
# that does not begin at 0.
KERNELS = {
    "partition_right": variant(partition_right, pivot_first),
    "partition_left": variant(partition_left, equal_predecessor),
    "block_partition_right/2": variant(block_partition_right, pivot_first, 2),
    "block_partition_right": variant(block_partition_right, pivot_first, 4),
    "block_partition_right/64": variant(block_partition_right, pivot_first, DEFAULT_BLOCK_SIZE),
    "partial_insertion_sort": variant(partial_insertion_sort, whole),
    "partial_insertion_sort/8": variant(partial_insertion_sort, behind_predecessor),
    "insertion_sort": variant(insertion_sort, whole),
    "insertion_sort_begin_1": variant(insertion_sort, behind_predecessor),
    "heapsort": variant(heapsort, whole),
    "choose_pivot": variant(choose_pivot, whole, True),
    "choose_pivot/unguarded": variant(choose_pivot, whole, False),
}
