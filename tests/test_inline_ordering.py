"""The built-in ``<`` path and the generic relation path decide alike.

Given ``operator.lt``, ``partition_right`` and ``unguarded_insertion_sort``
compare with ``<`` written inline; given any other relation they call it.
Both must make the same comparisons in the same order, so each test here
runs one input both ways and requires the same list, element for element
(compared by identity where equal values are distinct objects), the same
result and the same counters.
"""

import itertools
import operator
import random

import pytest

from pdqsort import (
    Metrics,
    partition_right,
    sort_with,
    unguarded_insertion_sort,
)
from pdqsort.acceptance import _prepare_pivot, _toggle_configs


def python_lt(a, b):
    return a < b


def criterion2_arrays():
    """Every array of length 2..7 over {0, 1, 2}, as criterion 2 uses."""
    for length in range(2, 8):
        yield from (list(arr) for arr in itertools.product(range(3), repeat=length))


def random_arrays(seed):
    """Seeded int and str lists with many duplicates; equal strings are
    distinct objects, so a differing permutation shows by identity."""
    rng = random.Random(seed)
    for _ in range(300):
        n = rng.randint(2, 200)
        top = rng.choice((2, 10, n))
        ints = [rng.randint(0, top) for _ in range(n)]
        yield ints
        yield [f"s{v:04d}" for v in ints]


def both_ways(kernel, arr, begin):
    """Run ``kernel(work, begin, len(work), ordering, metrics)`` with
    ``operator.lt`` and with ``python_lt``; returns one outcome each."""
    outcomes = []
    for lt in (operator.lt, python_lt):
        work = list(arr)
        metrics = Metrics()
        result = kernel(work, begin, len(work), lt, metrics)
        outcomes.append((list(map(id, work)), result, metrics.exchanges, metrics.element_moves))
    return outcomes


def test_partition_right_inline_matches_relation():
    for arr in itertools.chain(criterion2_arrays(), random_arrays(51)):
        inline, generic = both_ways(partition_right, _prepare_pivot(arr), 0)
        assert inline == generic, arr


def test_unguarded_insertion_sort_inline_matches_relation():
    for arr in itertools.chain(criterion2_arrays(), random_arrays(52)):
        inline, generic = both_ways(unguarded_insertion_sort, [min(arr)] + arr, 1)
        assert inline == generic, arr


class Keyed:
    """Compares by ``key`` alone, so ties are many and the sort's output
    permutation shows in the order of the objects."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return self.key < other.key


@pytest.mark.parametrize("config", _toggle_configs())
def test_sort_inline_matches_sort_with_relation(config):
    rng = random.Random(53)
    for n in (0, 1, 2, 23, 24, 25, 200, 3000):
        for top in (0, 3, 30):
            items = [Keyed(rng.randint(0, top)) for _ in range(n)]
            a, b = list(items), list(items)
            sort_with(a, operator.lt, config)
            sort_with(b, lambda x, y: x < y, config)
            assert list(map(id, a)) == list(map(id, b)), (n, top)
            assert [x.key for x in a] == sorted(x.key for x in items)
