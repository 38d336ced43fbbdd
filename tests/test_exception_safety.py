"""Whatever the ordering does, the list stays a permutation of its input.

Each raising test sweeps the call at which the ordering raises and checks
that the exception reaches the caller and that the list is still a
permutation of its input, for both ``Exception`` and
``KeyboardInterrupt``. The fuzz tests give the sort inconsistent
relations and allow ``IndexError`` as the only exception.

The ordering reaches the sort along one of two paths. On the relation
path it is passed as ``lt``. On the inline path each element carries it
as its ``<`` and the sort is given ``operator.lt``, which
``partition_right`` and ``unguarded_insertion_sort`` compare inline.
"""

import itertools
import operator
import random
from collections import Counter

import pytest

from pdqsort import (
    BlockBuffers,
    Metrics,
    block_partition_right,
    choose_pivot,
    counting_ordering,
    heapsort,
    insertion_sort,
    partial_insertion_sort,
    partition_left,
    partition_right,
    sort_with,
    unguarded_insertion_sort,
)
from pdqsort.acceptance import _toggle_configs


class Raised(Exception):
    pass


EXCEPTIONS = (Raised, KeyboardInterrupt)


def raising_at(k, exc):
    """``operator.lt`` that raises ``exc`` on its k-th call."""
    calls = 0

    def lt(a, b):
        nonlocal calls
        calls += 1
        if calls == k:
            raise exc()
        return a < b

    return lt


class Boxed:
    """An element whose ``<`` applies ``relation`` to the boxed values."""

    __slots__ = ("value", "relation")

    def __init__(self, value, relation):
        self.value = value
        self.relation = relation

    def __lt__(self, other):
        return self.relation(self.value, other.value)


def on_path(inline, arr, lt):
    """The list to sort and the ordering to pass for one path."""
    if inline:
        return [Boxed(v, lt) for v in arr], operator.lt
    return list(arr), lt


def same_elements(a, b):
    return Counter(map(id, a)) == Counter(map(id, b))


def calls_made(run, arr, inline=False):
    m = Metrics()
    run(*on_path(inline, arr, counting_ordering(operator.lt, m)))
    return m.comparisons


def assert_permutation_kept(run, arr, ks, exc, inline=False):
    for k in ks:
        work, ordering = on_path(inline, arr, raising_at(k, exc))
        before = list(work)
        with pytest.raises(exc):
            run(work, ordering)
        assert same_elements(work, before), f"element lost when call {k} raised"


def _pivot_first(arr):
    work = list(arr)
    choose_pivot(work, 0, len(work))
    return work


def _min_first(arr):
    return [min(arr)] + arr


# name -> (input preparation, kernel call under lt)
KERNELS = {
    "insertion_sort": (list, lambda w, lt: insertion_sort(w, 0, len(w), lt)),
    "unguarded_insertion_sort": (
        _min_first,
        lambda w, lt: unguarded_insertion_sort(w, 1, len(w), lt),
    ),
    "partial_insertion_sort": (
        list,
        lambda w, lt: partial_insertion_sort(w, 0, len(w), lt, len(w)),
    ),
    "heapsort": (list, lambda w, lt: heapsort(w, 0, len(w), lt)),
    "partition_right": (_pivot_first, lambda w, lt: partition_right(w, 0, len(w), lt)),
    "partition_left": (_min_first, lambda w, lt: partition_left(w, 0, len(w), lt)),
    "block_partition_right": (
        _pivot_first,
        lambda w, lt: block_partition_right(w, 0, len(w), lt, BlockBuffers.for_block_size(4)),
    ),
}


@pytest.mark.parametrize("exc", EXCEPTIONS, ids=lambda e: e.__name__)
@pytest.mark.parametrize("name", KERNELS)
def test_kernel_keeps_permutation(name, exc):
    prepare, run = KERNELS[name]
    rng = random.Random(31)
    for _ in range(5):
        arr = prepare([rng.randint(0, 9) for _ in range(40)])
        total = calls_made(run, arr)
        assert_permutation_kept(run, arr, range(1, total + 1), exc)


@pytest.mark.parametrize("exc", EXCEPTIONS, ids=lambda e: e.__name__)
@pytest.mark.parametrize("config", _toggle_configs())
def test_sort_keeps_permutation(config, exc):
    rng = random.Random(32)
    arr = [rng.randint(0, 50) for _ in range(300)]

    def run(work, lt):
        sort_with(work, lt, config)

    total = calls_made(run, arr)
    assert_permutation_kept(run, arr, range(1, total + 1, max(1, total // 120)), exc)


@pytest.mark.parametrize("exc", EXCEPTIONS, ids=lambda e: e.__name__)
@pytest.mark.parametrize("name", ["partition_right", "unguarded_insertion_sort"])
def test_inline_kernel_keeps_permutation(name, exc):
    prepare, run = KERNELS[name]
    rng = random.Random(33)
    for _ in range(5):
        arr = prepare([rng.randint(0, 9) for _ in range(40)])
        total = calls_made(run, arr, inline=True)
        assert_permutation_kept(run, arr, range(1, total + 1), exc, inline=True)


@pytest.mark.parametrize("exc", EXCEPTIONS, ids=lambda e: e.__name__)
@pytest.mark.parametrize("config", _toggle_configs())
def test_inline_sort_keeps_permutation(config, exc):
    rng = random.Random(34)
    arr = [rng.randint(0, 50) for _ in range(300)]

    def run(work, lt):
        assert lt is operator.lt
        sort_with(work, lt, config)

    total = calls_made(run, arr, inline=True)
    assert_permutation_kept(run, arr, range(1, total + 1, max(1, total // 120)), exc, inline=True)


def coin(seed):
    """A relation that answers by a seeded coin flip."""
    flip = random.Random(seed).random
    return lambda a, b: flip() < 0.5


INCONSISTENT = {
    "coin": coin,
    "always_true": lambda seed: lambda a, b: True,
    "not_equal": lambda seed: operator.ne,
}
FUZZ_SIZES = (0, 1, 2, 5, 23, 24, 25, 100, 300, 2000)


@pytest.mark.parametrize("inline", (False, True), ids=("relation", "inline"))
@pytest.mark.parametrize("relation", INCONSISTENT)
def test_inconsistent_relation_keeps_permutation(relation, inline):
    rng = random.Random(35)
    for config, n, _ in itertools.product(_toggle_configs(), FUZZ_SIZES, range(3)):
        arr = [rng.randint(0, n) for _ in range(n)]
        work, ordering = on_path(inline, arr, INCONSISTENT[relation](rng.random()))
        before = list(work)
        try:
            sort_with(work, ordering, config)
        except IndexError:
            pass
        assert same_elements(work, before), (config, n)
