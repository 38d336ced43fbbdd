import gc
import math
import operator
import random
import weakref
from collections import Counter
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdqsort import (
    DEFAULT_CONFIG,
    Metrics,
    SortConfig,
    break_patterns,
    choose_pivot,
    counting_ordering,
    instrumented_sort,
    introsort_baseline,
    is_bad_partition,
    partition_right,
    sort,
    sort_with,
)
from pdqsort import driver
from pdqsort.acceptance import _toggle_configs
from pdqsort.instrumentation import adversary_input
from pdqsort.partition import DEFAULT_BLOCK_SIZE

TOGGLES = (
    "use_block_partition",
    "use_partition_left",
    "use_break_patterns",
    "use_partial_insertion",
)

BLOCK = replace(DEFAULT_CONFIG, use_block_partition=True)


class TestSortConfig:
    def test_defaults(self):
        # The config holds the four toggles only; the paper's tuning
        # numbers are constants.
        assert tuple(f.name for f in fields(SortConfig)) == TOGGLES
        assert SortConfig() == DEFAULT_CONFIG
        assert not DEFAULT_CONFIG.use_block_partition
        assert DEFAULT_CONFIG.use_partition_left
        assert DEFAULT_CONFIG.use_break_patterns
        assert DEFAULT_CONFIG.use_partial_insertion
        assert driver.INSERTION_THRESHOLD == 24
        assert driver.NINTHER_THRESHOLD == 128
        assert driver.PARTIAL_INSERTION_BUDGET == 8
        assert DEFAULT_BLOCK_SIZE == 64
        assert driver.BAD_PARTITION_SHIFT == 3


class TestChoosePivot:
    def test_median_of_three_trace(self):
        work = [1, 2, 3]
        choose_pivot(work, 0, 3)
        assert work == [2, 1, 3]
        assert work[0] == sorted([1, 2, 3])[1]

    def test_all_equal(self):
        work = [3, 3, 3]
        choose_pivot(work, 0, 3)
        assert work[0] == 3

    def test_front_is_median_random(self):
        rng = random.Random(2)
        for _ in range(200):
            n = rng.randint(3, 128)
            arr = [rng.randint(0, 99) for _ in range(n)]
            mid = n // 2
            candidates = sorted([arr[0], arr[mid], arr[n - 1]])
            choose_pivot(arr, 0, n)
            assert arr[0] == candidates[1]

    def test_ninther_swapless_roundtrip(self):
        # On an ascending range the candidate work nets out to a single
        # front<->middle exchange, so the partition puts the pivot back at
        # the middle and leaves the range fully ascending again.
        n = 200
        work = list(range(n))
        choose_pivot(work, 0, n)
        mid = n // 2
        undone = list(work)
        undone[0], undone[mid] = undone[mid], undone[0]
        assert undone == list(range(n))

        res = partition_right(work, 0, n)
        assert res.no_swaps is True
        assert res.pivot_index == mid
        assert work == list(range(n))


class TestIsBadPartition:
    def test_paper_cutoff(self):
        assert is_bad_partition(7, 56, 64) is True

    def test_boundary(self):
        assert is_bad_partition(8, 55, 64) is False

    def test_balanced(self):
        assert is_bad_partition(32, 31, 64) is False


class TestBreakPatterns:
    def test_is_permutation(self):
        rng = random.Random(6)
        for _ in range(50):
            n = rng.randint(8, 300)
            arr = [rng.randint(0, 9) for _ in range(n)]
            work = list(arr)
            break_patterns(work, 0, n)
            assert Counter(work) == Counter(arr)

    def test_quartile_exchange_positions(self):
        work = list(range(16))
        break_patterns(work, 0, 16)
        assert work[0] == 4
        assert work[15] == 11

    def test_involution(self):
        rng = random.Random(7)
        for n in (8, 16, 100, 129, 500):
            arr = [rng.randint(0, 99) for _ in range(n)]
            work = list(arr)
            break_patterns(work, 0, n)
            break_patterns(work, 0, n)
            assert work == arr

    def test_subrange(self):
        work = list(range(20))
        break_patterns(work, 4, 16)
        assert work[:4] == [0, 1, 2, 3]
        assert work[16:] == [16, 17, 18, 19]
        assert sorted(work[4:16]) == list(range(4, 16))


def assert_sorts(arr):
    work = list(arr)
    sort(work)
    assert work == sorted(arr)


class TestSort:
    def test_trivial(self):
        assert_sorts([])
        assert_sorts([7])

    def test_examples(self):
        assert_sorts([3, 1, 2])
        assert_sorts([5, 4, 3, 2, 1])

    def test_ascending_linear(self):
        n = 1 << 14
        m = instrumented_sort(list(range(n)))
        assert m.comparisons <= 6 * n

    def test_all_equal_single_partition_left(self):
        n = 4096
        arr = [1] * n
        m = instrumented_sort(arr)
        assert arr == [1] * n
        assert m.comparisons <= 8 * n
        assert m.partition_left_calls == 1

    def test_strings(self):
        rng = random.Random(12)
        arr = ["%04d" % rng.randint(0, 9999) for _ in range(2000)]
        assert_sorts(arr)

    def test_any_mutable_sequence(self):
        import array

        rng = random.Random(27)
        values = [rng.randint(0, 10**6) for _ in range(3000)]
        buf = array.array("q", values)
        sort(buf)
        assert list(buf) == sorted(values)

    def test_custom_ordering(self):
        rng = random.Random(13)
        arr = [(rng.randint(0, 9), i) for i in range(1000)]
        work = list(arr)
        sort_with(work, lambda a, b: a[0] < b[0])
        assert [x[0] for x in work] == sorted(x[0] for x in arr)
        assert Counter(work) == Counter(arr)

    def test_reverse_ordering(self):
        rng = random.Random(14)
        arr = [rng.randint(0, 99) for _ in range(500)]
        work = list(arr)
        sort_with(work, lambda a, b: b < a, BLOCK)
        assert work == sorted(arr, reverse=True)

    def test_determinism_same_permutation_and_metrics(self):
        rng = random.Random(15)
        arr = [(rng.randint(0, 5), i) for i in range(800)]
        lt = lambda a, b: a[0] < b[0]
        work1, work2 = list(arr), list(arr)
        m1 = instrumented_sort(work1, lt)
        m2 = instrumented_sort(work2, lt)
        assert work1 == work2
        assert m1 == m2

    @pytest.mark.parametrize("config", _toggle_configs())
    def test_toggle_soundness(self, config):
        rng = random.Random(16)
        for _ in range(30):
            n = rng.randint(0, 400)
            arr = [rng.randint(-9, 9) for _ in range(n)]
            work = list(arr)
            sort_with(work, operator.lt, config)
            assert work == sorted(arr)

    @given(st.lists(st.integers(-1000, 1000), max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_sorts_any_list(self, arr):
        work = list(arr)
        sort(work)
        assert work == sorted(arr)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=True), max_size=100))
    def test_sorts_floats(self, arr):
        work = list(arr)
        sort(work)
        assert work == sorted(arr)

    def test_depth_bound_random(self):
        rng = random.Random(18)
        for _ in range(40):
            n = rng.randint(2, 5000)
            arr = [rng.randrange(max(1, n // 2)) for _ in range(n)]
            m = instrumented_sort(arr)
            assert m.max_depth <= math.ceil(math.log2(n)) + 2


class TestIntrosortBaseline:
    def test_trivial(self):
        work = [3, 1, 2]
        introsort_baseline(work)
        assert work == [1, 2, 3]

    def test_random_oracle(self):
        rng = random.Random(19)
        arr = [rng.randint(0, 10**6) for _ in range(10**4)]
        work = list(arr)
        introsort_baseline(work)
        assert work == sorted(arr)

    def test_killer_input_engages_fallback(self):
        n = 1 << 14
        arr = adversary_input(n)
        work = list(arr)
        m = Metrics()
        introsort_baseline(work, counting_ordering(operator.lt, m), metrics=m)
        assert work == list(range(n))
        assert m.heapsort_fallbacks >= 1

    def test_matches_oracle_with_toggles(self):
        rng = random.Random(20)
        for _ in range(20):
            n = rng.randint(0, 600)
            arr = [rng.randint(0, 20) for _ in range(n)]
            work = list(arr)
            introsort_baseline(work)
            assert work == sorted(arr)


class _WeakList(list):
    """A list that a weak reference can watch."""


def _failing(a, b):
    raise ValueError("ordering failed")


def test_sort_frees_the_list_without_the_cyclic_collector():
    # The sort loop is a recursive closure over the list. A reference cycle
    # left behind would keep every sorted list alive until the next
    # collection, which then has to traverse all of them.
    runs = (
        sort,
        lambda d: sort_with(d, operator.lt, BLOCK),
        instrumented_sort,
        introsort_baseline,
        lambda d: sort_with(d, _failing),
    )
    enabled = gc.isenabled()
    gc.disable()
    try:
        for run in runs:
            data = _WeakList(range(300, 0, -1))
            ref = weakref.ref(data)
            try:
                run(data)
            except ValueError:
                pass
            del data
            assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_non_strict_weak_ordering_is_memory_safe():
    # An inconsistent relation voids the sortedness contract: the sort
    # must still terminate, and in Python the worst allowed outcome is an
    # IndexError from a sentinel scan -- never a hang and never touching
    # anything outside the list.
    rng = random.Random(23)
    arr = [rng.randint(0, 9) for _ in range(500)]
    for bad in (lambda a, b: True, lambda a, b: False, lambda a, b: a <= b):
        work = list(arr)
        try:
            sort_with(work, bad)
        except IndexError:
            continue
        assert len(work) == len(arr)
