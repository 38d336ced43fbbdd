import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdqsort import (
    Metrics,
    counting_ordering,
    heapsort,
    insertion_sort,
    partial_insertion_sort,
    sort3,
    unguarded_insertion_sort,
)


def classic_insertion_oracle(arr):
    """Simulate hole-shifting insertion sort, returning
    (comparisons, lift_cycles, element_moves)."""
    data = list(arr)
    comparisons = lifts = moves = 0
    for i in range(1, len(data)):
        comparisons += 1
        if data[i] < data[i - 1]:
            lifts += 1
            v = data[i]
            j = i - 1
            data[i] = data[j]
            while j > 0:
                comparisons += 1
                if v < data[j - 1]:
                    data[j] = data[j - 1]
                    j -= 1
                else:
                    break
            data[j] = v
            moves += i - j + 2
    assert data == sorted(arr)
    return comparisons, lifts, moves


class TestInsertionSort:
    def test_empty_and_single(self):
        for arr in ([], [3]):
            work = list(arr)
            insertion_sort(work, 0, len(work))
            assert work == arr

    def test_one_inversion(self):
        work = [2, 1, 3]
        insertion_sort(work, 0, 3)
        assert work == [1, 2, 3]

    def test_reversed_five_counts(self):
        # Frozen from the oracle: reversed [5,4,3,2,1] needs exactly 10
        # comparisons across 4 lift/drop cycles.
        assert classic_insertion_oracle([5, 4, 3, 2, 1]) == (10, 4, 18)
        work = [5, 4, 3, 2, 1]
        m = Metrics()
        insertion_sort(work, 0, 5, counting_ordering(operator.lt, m), m)
        assert work == [1, 2, 3, 4, 5]
        assert m.comparisons == 10
        assert m.element_moves == 18

    def test_matches_oracle_counts_random(self):
        rng = random.Random(5)
        for _ in range(100):
            arr = [rng.randint(0, 9) for _ in range(rng.randint(0, 30))]
            comparisons, _, moves = classic_insertion_oracle(arr)
            work = list(arr)
            m = Metrics()
            insertion_sort(work, 0, len(work), counting_ordering(operator.lt, m), m)
            assert work == sorted(arr)
            assert (m.comparisons, m.element_moves) == (comparisons, moves)

    def test_subrange(self):
        work = [9, 3, 1, 2, 0]
        insertion_sort(work, 1, 4)
        assert work == [9, 1, 2, 3, 0]

    @given(st.lists(st.integers(-50, 50), max_size=60))
    def test_sorts_any_list(self, arr):
        work = list(arr)
        insertion_sort(work, 0, len(work))
        assert work == sorted(arr)


class _ReadFence(list):
    """Fails the test if any index below ``fence`` is read or written."""

    fence = 0

    def __getitem__(self, idx):
        assert idx >= self.fence, f"read below predecessor: {idx}"
        return list.__getitem__(self, idx)

    def __setitem__(self, idx, value):
        assert idx >= self.fence, f"write below predecessor: {idx}"
        list.__setitem__(self, idx, value)


class TestUnguardedInsertionSort:
    def test_basic(self):
        work = [0, 2, 1]
        unguarded_insertion_sort(work, 1, 3)
        assert work == [0, 1, 2]

    def test_all_equal_sentinel(self):
        work = [3, 3, 3, 3]
        unguarded_insertion_sort(work, 1, 4)
        assert work == [3, 3, 3, 3]

    def test_derived_example(self):
        work = [1, 9, 7, 8, 2]
        unguarded_insertion_sort(work, 1, 5)
        assert work == [1] + sorted([9, 7, 8, 2])

    def test_never_reads_below_predecessor(self):
        rng = random.Random(9)
        for _ in range(100):
            n = rng.randint(0, 25)
            arr = [rng.randint(1, 9) for _ in range(n)]
            fenced = _ReadFence([0] + arr)
            fenced.fence = 0  # predecessor position is the lowest legal index
            unguarded_insertion_sort(fenced, 1, n + 1)
            assert list(fenced) == [0] + sorted(arr)

    def test_requires_predecessor(self):
        with pytest.raises(AssertionError):
            unguarded_insertion_sort([2, 1], 0, 2)


class TestPartialInsertionSort:
    def test_already_sorted_needs_no_corrections(self):
        work = [1, 2, 3, 4]
        m = Metrics()
        assert partial_insertion_sort(work, 0, 4, operator.lt, 8, m) is True
        assert work == [1, 2, 3, 4]
        assert m.element_moves == 0

    def test_one_correction_within_budget(self):
        work = [1, 3, 2, 4]
        assert partial_insertion_sort(work, 0, 4, operator.lt, 8) is True
        assert work == [1, 2, 3, 4]

    def test_reversed_64_aborts(self):
        # Oracle: a reversed range needs one lift per element past the
        # first, far beyond 8.
        _, lifts, _ = classic_insertion_oracle(list(range(63, -1, -1)))
        assert lifts == 63
        work = list(range(63, -1, -1))
        assert partial_insertion_sort(work, 0, 64, operator.lt, 8) is False
        assert sorted(work) == list(range(64))

    def test_budget_zero(self):
        assert partial_insertion_sort([1, 2, 3], 0, 3, operator.lt, 0) is True
        assert partial_insertion_sort([2, 1], 0, 2, operator.lt, 0) is False

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            partial_insertion_sort([1], 0, 1, operator.lt, -1)

    @given(st.lists(st.integers(0, 20), max_size=50), st.integers(0, 12))
    @settings(max_examples=200)
    def test_true_iff_within_budget(self, arr, budget):
        # The oracle counts the lifts a full insertion sort would do; the
        # partial sort must succeed exactly when that count fits.
        _, lifts, _ = classic_insertion_oracle(arr)
        work = list(arr)
        result = partial_insertion_sort(work, 0, len(work), operator.lt, budget)
        assert result == (lifts <= budget)
        if result:
            assert work == sorted(arr)
        else:
            assert sorted(work) == sorted(arr)


class TestHeapsort:
    def test_trivial(self):
        for arr in ([], [3, 1, 2]):
            work = list(arr)
            heapsort(work, 0, len(work))
            assert work == sorted(arr)

    def test_comparison_bound_random_1024(self):
        rng = random.Random(1024)
        arr = list(range(1024))
        rng.shuffle(arr)
        m = Metrics()
        heapsort(arr, 0, 1024, counting_ordering(operator.lt, m), m)
        assert arr == list(range(1024))
        assert m.comparisons <= 3 * 1024 * 10

    def test_subrange(self):
        work = [5, 4, 3, 2, 1]
        heapsort(work, 1, 4)
        assert work == [5, 2, 3, 4, 1]

    @given(st.lists(st.integers(-9, 9), max_size=80))
    def test_sorts_any_list(self, arr):
        work = list(arr)
        heapsort(work, 0, len(work))
        assert work == sorted(arr)


class TestSort3:
    def test_examples(self):
        work = [3, 1, 2]
        sort3(work, 0, 1, 2)
        assert work == [1, 2, 3]
        work = [1, 1, 0]
        sort3(work, 0, 1, 2)
        assert work == [0, 1, 1]

    def test_all_permutations(self):
        import itertools

        for perm in itertools.permutations([1, 2, 3]):
            work = list(perm)
            m = Metrics()
            sort3(work, 0, 1, 2, counting_ordering(operator.lt, m), m)
            assert work == [1, 2, 3], perm
            assert m.comparisons <= 3

    def test_scattered_positions(self):
        work = [9, 5, 0, 2, 7]
        sort3(work, 0, 2, 4, lt=operator.lt)
        assert (work[0], work[2], work[4]) == (0, 7, 9)
        assert sorted(work) == [0, 2, 5, 7, 9]


def test_every_small_sort_matches_oracle_exhaustively():
    # All arrays of length <= 8 over {0,1,2} (partial budget high enough
    # to always succeed, so every routine must fully sort).
    import itertools

    for length in range(0, 9):
        for arr in itertools.product(range(3), repeat=length):
            expected = sorted(arr)
            work = list(arr)
            insertion_sort(work, 0, length)
            assert work == expected
            work = list(arr)
            heapsort(work, 0, length)
            assert work == expected
            work = list(arr)
            assert partial_insertion_sort(work, 0, length, operator.lt, 100)
            assert work == expected
            work = [0] + list(arr)
            unguarded_insertion_sort(work, 1, length + 1)
            assert work == [0] + expected
