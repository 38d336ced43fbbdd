import operator
import random

import pytest

from pdqsort import (
    METRIC_FIELDS,
    Metrics,
    adversary_input,
    counting_ordering,
    heapsort,
    insertion_sort,
    instrumented_sort,
)


class TestCountingOrdering:
    def test_counts_single_comparison(self):
        m = Metrics()
        work = [2, 1]
        insertion_sort(work, 0, 2, counting_ordering(operator.lt, m), m)
        assert work == [1, 2]
        assert m.comparisons >= 1

    def test_reversed_five(self):
        m = Metrics()
        work = [5, 4, 3, 2, 1]
        insertion_sort(work, 0, 5, counting_ordering(operator.lt, m), m)
        assert m.comparisons == 10

    def test_order_equivalent(self):
        m = Metrics()
        counted = counting_ordering(operator.lt, m)
        assert counted(1, 2) is True
        assert counted(2, 1) is False
        assert counted(1, 1) is False
        assert m.comparisons == 3

    def test_identical_runs_identical_counts(self):
        rng = random.Random(31)
        arr = [rng.randint(0, 50) for _ in range(3000)]
        m1 = instrumented_sort(list(arr))
        m2 = instrumented_sort(list(arr))
        assert m1 == m2


class TestMetrics:
    def test_counter_values_order(self):
        m = Metrics()
        m.comparisons = 5
        m.max_depth = 2
        values = m.counter_values()
        assert len(values) == len(METRIC_FIELDS)
        assert values[METRIC_FIELDS.index("comparisons")] == 5
        assert values[METRIC_FIELDS.index("max_depth")] == 2

    def test_instrumented_sort_populates_counters(self):
        rng = random.Random(32)
        arr = [rng.randint(0, 9) for _ in range(2000)]
        m = instrumented_sort(arr)
        assert arr == sorted(arr)
        assert m.comparisons > 0
        assert m.partition_right_calls > 0
        assert m.distinct_pivot_reuse is None

    def test_counted_sort_that_raises_keeps_its_counts(self):
        # The kernels bump the counters as the work is done, so a heapsort
        # cut short halfway by its ordering keeps the moves made before.
        arr = random.Random(33).sample(range(500), 500)
        full = Metrics()
        heapsort(list(arr), 0, len(arr), operator.lt, full)
        calls = 0

        def cut_short(a, b):
            nonlocal calls
            calls += 1
            if calls > 2000:
                raise RuntimeError("cut short")
            return a < b

        m = Metrics()
        with pytest.raises(RuntimeError):
            heapsort(list(arr), 0, len(arr), cut_short, m)
        assert 0 < m.element_moves < full.element_moves

    def test_pivot_trace(self):
        rng = random.Random(33)
        arr = [rng.randrange(4) for _ in range(400)]
        m = instrumented_sort(arr, trace_pivots=True)
        assert m.distinct_pivot_reuse
        assert sum(m.distinct_pivot_reuse.values()) == (
            m.partition_right_calls + m.partition_left_calls
        )
        assert max(m.distinct_pivot_reuse.values()) <= 2


class TestAdversary:
    def test_n1(self):
        assert adversary_input(1) == [0]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            adversary_input(0)

    def test_is_permutation(self):
        for n in (2, 17, 256, 1 << 12):
            adv = adversary_input(n)
            assert sorted(adv) == list(range(n))

    def test_stresses_the_sort(self):
        n = 1 << 14
        adv = adversary_input(n)
        work = list(adv)
        m = instrumented_sort(work)
        assert work == list(range(n))
        assert m.bad_partitions >= 1
        # The full log2(n) budget burns down and heapsort takes over.
        assert m.heapsort_fallbacks >= 1

    def test_construction_deterministic(self):
        assert adversary_input(512) == adversary_input(512)
