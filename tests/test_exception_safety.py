"""A comparison that raises must never cost the list an element.

Each test sweeps the call at which the ordering raises and checks that
the exception reaches the caller and that the list is still a
permutation of its input, for both ``Exception`` and
``KeyboardInterrupt``.
"""

import itertools
import operator
import random
from collections import Counter
from dataclasses import replace

import pytest

from pdqsort import (
    DEFAULT_CONFIG,
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
from pdqsort.acceptance import TOGGLE_FIELDS

TOGGLE_CONFIGS = [
    replace(DEFAULT_CONFIG, **dict(zip(TOGGLE_FIELDS, bits)))
    for bits in itertools.product((False, True), repeat=len(TOGGLE_FIELDS))
]


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


def calls_made(run, arr):
    m = Metrics()
    run(list(arr), counting_ordering(operator.lt, m))
    return m.comparisons


def assert_permutation_kept(run, arr, ks, exc):
    for k in ks:
        work = list(arr)
        with pytest.raises(exc):
            run(work, raising_at(k, exc))
        assert Counter(work) == Counter(arr), f"element lost when call {k} raised"


def _pivot_first(arr):
    work = list(arr)
    choose_pivot(work)
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
@pytest.mark.parametrize("config", TOGGLE_CONFIGS)
def test_sort_keeps_permutation(config, exc):
    rng = random.Random(32)
    arr = [rng.randint(0, 50) for _ in range(300)]

    def run(work, lt):
        sort_with(work, lt, config)

    total = calls_made(run, arr)
    assert_permutation_kept(run, arr, range(1, total + 1, max(1, total // 120)), exc)
