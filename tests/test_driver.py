import gc
import itertools
import operator
import random
import tracemalloc
import weakref
from collections import Counter
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdqsort import (
    DEFAULT_CONFIG,
    DistributionSpec,
    Metrics,
    SortConfig,
    break_patterns,
    choose_pivot,
    counting_ordering,
    generate,
    instrumented_sort,
    introsort_baseline,
    partition_right,
    sort,
    sort_with,
)
from pdqsort import driver, small_sorts
from pdqsort.driver import BLOCK_CONFIG, TOGGLE_CONFIGS
from pdqsort.instrumentation import adversary_input
from pdqsort.partition import DEFAULT_BLOCK_SIZE

TOGGLES = (
    "use_block_partition",
    "use_partition_left",
    "use_break_patterns",
    "use_partial_insertion",
)


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
        assert small_sorts.PARTIAL_INSERTION_BUDGET == 8
        assert DEFAULT_BLOCK_SIZE == 64
        assert driver.BAD_PARTITION_SHIFT == 3
        # The toggle sweep, whose order names the config0-config15 test ids:
        # config k turns on the toggles of k's bits, the first field the
        # highest, so 16 distinct configs from every toggle off to all on.
        assert [
            sum(getattr(config, name) << (3 - i) for i, name in enumerate(TOGGLES))
            for config in TOGGLE_CONFIGS
        ] == list(range(16))
        assert TOGGLE_CONFIGS[0] == SortConfig(False, False, False, False)
        assert TOGGLE_CONFIGS[-1] == SortConfig(True, True, True, True)


class TestChoosePivot:
    def test_median_of_three_trace(self):
        work = [1, 2, 3]
        choose_pivot(work, 0, 3, operator.lt)
        assert work == [2, 1, 3]
        assert work[0] == sorted([1, 2, 3])[1]

    def test_all_equal(self):
        work = [3, 3, 3]
        choose_pivot(work, 0, 3, operator.lt)
        assert work[0] == 3

    def test_every_triple_is_sorted_median_first(self):
        # The unguarded estimate of three elements is the sorting network
        # over (middle, first, last): the median ends at the front, the
        # least in the middle and the greatest last, ties included. The
        # guard would move nothing: its quartile slots are the first and last.
        for arr in itertools.product(range(3), repeat=3):
            work = list(arr)
            m = Metrics()
            choose_pivot(work, 0, 3, counting_ordering(operator.lt, m), False, m)
            low, median, high = sorted(arr)
            assert work == [median, low, high], arr
            assert m.comparisons <= 3, arr

    def test_front_is_median_random(self):
        # The front is the median of the median of (first, middle, last)
        # and the two quartile elements. From 6 elements on, the quartile
        # positions are none of the three sampled ones.
        rng = random.Random(2)
        for _ in range(200):
            n = rng.randint(6, 128)
            arr = [rng.randint(0, 99) for _ in range(n)]
            estimate = sorted([arr[0], arr[n // 2], arr[n - 1]])[1]
            candidates = sorted([estimate, arr[n // 4], arr[n - 1 - n // 4]])
            choose_pivot(arr, 0, n, operator.lt)
            assert arr[0] == candidates[1]

    def test_front_is_guarded_ninther_random(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(129, 400)
            arr = [rng.randint(0, 99) for _ in range(n)]
            mid = n // 2
            # The triple (k, middle, n - 1 - k) for k = 0, 1, 2.
            medians = [
                sorted([arr[k], arr[middle], arr[n - 1 - k]])[1]
                for k, middle in enumerate((mid, mid - 1, mid + 1))
            ]
            ninther = sorted(medians)[1]
            candidates = sorted([ninther, arr[n // 4], arr[n - 1 - n // 4]])
            choose_pivot(arr, 0, n, operator.lt)
            assert arr[0] == candidates[1]

    def test_unguarded_front_is_median_of_three(self):
        # Without pattern breaking (introsort_baseline) the guard is off.
        rng = random.Random(2)
        for _ in range(200):
            n = rng.randint(3, 128)
            arr = [rng.randint(0, 99) for _ in range(n)]
            mid = n // 2
            candidates = sorted([arr[0], arr[mid], arr[n - 1]])
            choose_pivot(arr, 0, n, operator.lt, False)
            assert arr[0] == candidates[1]

    def test_guard_costs_two_or_three_comparisons(self):
        # Under the ninther the guard only changes the slot of the one front
        # exchange; a median of 3 left at the front may need one.
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(24, 400)
            arr = [rng.randint(0, 99) for _ in range(n)]
            counts = []
            for guard in (False, True):
                m = Metrics()
                choose_pivot(list(arr), 0, n, counting_ordering(operator.lt, m), guard, m)
                counts.append((m.comparisons, m.exchanges))
            (plain, plain_exchanges), (guarded, guarded_exchanges) = counts
            assert plain + 2 <= guarded <= plain + 3
            if n > driver.NINTHER_THRESHOLD:
                assert guarded_exchanges == plain_exchanges
            else:
                assert guarded_exchanges <= plain_exchanges + 1

    def test_ninther_swapless_roundtrip(self):
        # On an ascending range the candidate work nets out to a single
        # front<->middle exchange, so the partition puts the pivot back at
        # the middle and leaves the range fully ascending again.
        n = 200
        work = list(range(n))
        choose_pivot(work, 0, n, operator.lt)
        mid = n // 2
        undone = list(work)
        undone[0], undone[mid] = undone[mid], undone[0]
        assert undone == list(range(n))

        pivot_index, no_swaps = partition_right(work, 0, n, operator.lt)
        assert no_swaps is True
        assert pivot_index == mid
        assert work == list(range(n))


def first_partition_verdict(left_size, right_size, monkeypatch):
    """Whether the driver counts the first partition of a sort bad, for
    a range whose pivot leaves ``left_size`` and ``right_size`` elements
    on its sides."""
    n = left_size + right_size + 1
    mid = n // 2
    low, high = n // 4, n - 1 - n // 4
    assert n <= driver.NINTHER_THRESHOLD and 1 < left_size < n - 2
    # Median of three: the pivot of rank left_size at the front, 0 at the
    # middle and n - 1 at the back, so selection leaves them in place; 1
    # and n - 2 at the quartiles keep the guard from moving the pivot.
    placed = {0: left_size, low: 1, mid: 0, high: n - 2, n - 1: n - 1}
    data = [v for v in range(n) if v not in placed.values()]
    for pos in sorted(placed):
        data.insert(pos, placed[pos])
    calls = []
    partition = driver.partition_right

    def spy(data, begin, end, lt, metrics):
        bad_before = metrics.bad_partitions
        result = partition(data, begin, end, lt, metrics)
        calls.append((bad_before, result[0]))
        return result

    monkeypatch.setattr(driver, "partition_right", spy)
    m = instrumented_sort(data)
    assert data == list(range(n))
    assert calls[0] == (0, left_size)
    # The verdict on a partition is counted before the next one starts.
    after_first = calls[1][0] if len(calls) > 1 else m.bad_partitions
    return after_first == 1


class TestBadPartitionCutoff:
    # The sort loop counts a partition bad when a side holds less than
    # size >> 3 elements: for 64 elements, fewer than 8.
    def test_paper_cutoff(self, monkeypatch):
        assert first_partition_verdict(7, 56, monkeypatch) is True

    def test_boundary(self, monkeypatch):
        assert first_partition_verdict(8, 55, monkeypatch) is False

    def test_balanced(self, monkeypatch):
        assert first_partition_verdict(32, 31, monkeypatch) is False


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


class TestSort:
    @pytest.mark.parametrize("kind", ("organ", "merge"))
    def test_quartile_guard_balances_organ_and_merge(self, kind):
        # Both ends of an organ-pipe or merged-run range sit below its
        # middle, and every child of a good partition keeps that shape.
        # Unguarded, the end samples give about 20 comparisons per element
        # and 280 bad partitions here.
        n = 1 << 14
        data = generate(DistributionSpec(kind, n, "int64", seed=3))
        m = instrumented_sort(data)
        assert data == sorted(data)
        assert m.comparisons <= 15 * n
        assert m.bad_partitions <= 32

    def test_all_equal_single_partition_left(self):
        n = 4096
        arr = [1] * n
        m = instrumented_sort(arr)
        assert arr == [1] * n
        assert m.comparisons <= 8 * n
        assert m.partition_left_calls == 1

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
        sort_with(work, lambda a, b: b < a, BLOCK_CONFIG)
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

    @pytest.mark.parametrize("config", TOGGLE_CONFIGS)
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


class TestIntrosortBaseline:
    def test_trivial(self):
        work = [3, 1, 2]
        introsort_baseline(work)
        assert work == [1, 2, 3]

    def test_random_oracle(self):
        # One long input of mostly distinct values, then short ones full
        # of duplicates.
        rng = random.Random(19)
        inputs = [[rng.randint(0, 10**6) for _ in range(10**4)]]
        rng = random.Random(20)
        for _ in range(20):
            inputs.append([rng.randint(0, 20) for _ in range(rng.randint(0, 600))])
        for arr in inputs:
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


class _WeakList(list):
    """A list that a weak reference can watch."""


def _failing(a, b):
    raise ValueError("ordering failed")


def test_sort_frees_the_list_without_the_cyclic_collector():
    # A reference cycle left behind by the sort loop would keep every
    # sorted list alive until the next collection, which then has to
    # traverse all of them.
    runs = (
        sort,
        lambda d: sort_with(d, operator.lt, BLOCK_CONFIG),
        instrumented_sort,
        introsort_baseline,
        lambda d: sort_with(d, _failing),
        # A scan runs off the list, and the sort raises from its IndexError.
        lambda d: sort_with(d, lambda a, b: True),
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


@pytest.mark.parametrize("kind", ("uniform", "dupsq", "organ"))
def test_sort_peak_memory_above_the_input(kind):
    # The sort is in place: besides the list it holds only the stack of
    # pending ranges, about log2(n) small tuples, and a few locals.
    data = generate(DistributionSpec(kind, 1 << 16, "int64", seed=3))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        sort(data)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert data == sorted(data)
    assert peak < 2048, peak
