import itertools
import math
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


def pair_insertion_oracle(arr):
    """The (comparisons, element_moves) of the pair insertion sort,
    counted from the values: the ascending prefix costs one comparison
    per element tested, and each pair then costs one comparison to order
    it, one per prefix element that moves and one more for each scan that
    stops at an element instead of at ``begin``; it moves two lifts, two
    drops and one fill per prefix element passed."""
    n = len(arr)
    k = next((i for i in range(1, n) if arr[i] < arr[i - 1]), n)
    comparisons = k if k < n else max(n - 1, 0)
    k -= (n - k) & 1
    prefix = sorted(arr[:k])
    moves = 0
    for i in range(k, n - 1, 2):
        comparisons += 1
        a1, a2 = max(arr[i], arr[i + 1]), min(arr[i], arr[i + 1])
        above1 = sum(v > a1 for v in prefix)
        above2 = sum(v > a2 for v in prefix) - above1
        comparisons += above1 + (above1 < len(prefix))
        comparisons += above2 + (above1 + above2 < len(prefix))
        moves += 4 + above1 + above2
        prefix = sorted(prefix + [a1, a2])
    return comparisons, moves


class TestInsertionSort:
    def test_empty_and_single(self):
        for arr in ([], [3]):
            work = list(arr)
            insertion_sort(work, 0, len(work), operator.lt)
            assert work == arr

    def test_one_inversion(self):
        work = [2, 1, 3]
        insertion_sort(work, 0, 3, operator.lt)
        assert work == [1, 2, 3]

    def test_reversed_five_counts(self):
        # Frozen from the oracle: reversed [5,4,3,2,1] needs 1 comparison
        # to find the first descent, then 2 for the pair (4, 3) and 4 for
        # (2, 1), whose scans end at begin; one at a time it took 10.
        assert classic_insertion_oracle([5, 4, 3, 2, 1]) == (10, 4, 18)
        assert pair_insertion_oracle([5, 4, 3, 2, 1]) == (7, 12)
        work = [5, 4, 3, 2, 1]
        m = Metrics()
        insertion_sort(work, 0, 5, counting_ordering(operator.lt, m), m)
        assert work == [1, 2, 3, 4, 5]
        assert m.comparisons == 7
        assert m.element_moves == 12

    def test_matches_oracle_counts_random(self):
        rng = random.Random(5)
        for _ in range(100):
            arr = [rng.randint(0, 9) for _ in range(rng.randint(0, 30))]
            comparisons, moves = pair_insertion_oracle(arr)
            work = list(arr)
            m = Metrics()
            insertion_sort(work, 0, len(work), counting_ordering(operator.lt, m), m)
            assert work == sorted(arr)
            assert (m.comparisons, m.element_moves) == (comparisons, moves)

    def test_subrange(self):
        work = [9, 3, 1, 2, 0]
        insertion_sort(work, 1, 4, operator.lt)
        assert work == [9, 1, 2, 3, 0]

    @given(st.lists(st.integers(-50, 50), max_size=60))
    def test_sorts_any_list(self, arr):
        work = list(arr)
        insertion_sort(work, 0, len(work), operator.lt)
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
    """The leaf kernel under its second name, on ranges behind a
    predecessor, which it neither reads nor needs."""

    def test_is_the_leaf_kernel(self):
        assert unguarded_insertion_sort is insertion_sort

    def test_basic(self):
        work = [0, 2, 1]
        unguarded_insertion_sort(work, 1, 3, operator.lt)
        assert work == [0, 1, 2]

    def test_all_equal_sentinel(self):
        work = [3, 3, 3, 3]
        unguarded_insertion_sort(work, 1, 4, operator.lt)
        assert work == [3, 3, 3, 3]

    def test_derived_example(self):
        work = [1, 9, 7, 8, 2]
        unguarded_insertion_sort(work, 1, 5, operator.lt)
        assert work == [1] + sorted([9, 7, 8, 2])

    def test_never_reads_below_predecessor(self):
        # Nor the predecessor itself: a predecessor greater than every
        # element of the range stops no scan and is never read.
        rng = random.Random(9)
        for _ in range(100):
            n = rng.randint(0, 25)
            arr = [rng.randint(1, 9) for _ in range(n)]
            fenced = _ReadFence([10] + arr)
            fenced.fence = 1
            unguarded_insertion_sort(fenced, 1, n + 1, operator.lt)
            assert list(fenced) == [10] + sorted(arr)

    def test_pair_insertion_saves_comparisons(self):
        # A one-at-a-time insertion sort makes up to inversions + k - 1
        # comparisons on k elements. Inserting two per pass scans the
        # prefix above the larger one once for both.
        def comparisons(arr):
            work = [min(arr)] + arr
            m = Metrics()
            unguarded_insertion_sort(work, 1, len(work), counting_ordering(operator.lt, m), m)
            assert work == [min(arr)] + sorted(arr)
            return m.comparisons

        rng = random.Random(10)
        one_at_a_time = made = 0
        for k in range(2, 24):
            assert comparisons(list(range(k))) == k - 1
            for _ in range(20):
                arr = rng.sample(range(k), k)
                inversions = sum(a > b for a, b in itertools.combinations(arr, 2))
                one_at_a_time += inversions + k - 1
                made += comparisons(arr)
        assert made <= 0.9 * one_at_a_time


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
            heapsort(work, 0, len(work), operator.lt)
            assert work == sorted(arr)

    @pytest.mark.parametrize("n", (1 << 6, 1 << 10, 1 << 14))
    @pytest.mark.parametrize("kind", ("shuffled", "ascending", "descending", "equal"))
    def test_comparison_bound(self, kind, n):
        # One comparison per level down, and an ascent that mostly stops at
        # once: n log2 n + 0.8n at most on these inputs. A sift-down that
        # compares both children on every level needs up to n log2 n + 11.7n.
        arr = {
            "shuffled": random.Random(n).sample(range(n), n),
            "ascending": list(range(n)),
            "descending": list(range(n, 0, -1)),
            "equal": [7] * n,
        }[kind]
        work = list(arr)
        m = Metrics()
        heapsort(work, 0, n, counting_ordering(operator.lt, m), m)
        assert work == sorted(arr)
        assert m.comparisons <= n * math.log2(n) + 2 * n

    def test_element_moves_count_every_lift_and_store(self):
        # As in the insertion sorts, a lift into the held value counts as a
        # move. Heapsort lifts one element per sift: n // 2 to build the
        # heap and n - 1 pops. The pair insertion sort lifts every element
        # from the first descent on, two per pass; when their number is
        # odd, the first pair also lifts the last element of the ascending
        # prefix. The inputs must leave both an odd and an even number of
        # elements after the prefix.
        class Stores(list):
            count = 0

            def __setitem__(self, idx, value):
                Stores.count += 1
                list.__setitem__(self, idx, value)

        def after_prefix(arr):
            first_descent = next(
                (i for i in range(1, len(arr)) if arr[i] < arr[i - 1]), len(arr)
            )
            return len(arr) - first_descent

        kernels = (
            (heapsort, len, lambda n: n // 2 + n - 1),
            (insertion_sort, after_prefix, lambda left: left + left % 2),
        )
        rng = random.Random(8)
        for kernel, count, lifts in kernels:
            parities = set()
            for n, _ in itertools.product((2, 3, 7, 8, 23, 64, 100), range(4)):
                arr = [rng.randint(0, 9) for _ in range(n)]
                work = Stores(arr)
                Stores.count = 0
                m = Metrics()
                kernel(work, 0, len(work), operator.lt, m)
                assert work == sorted(work)
                assert m.element_moves == Stores.count + lifts(count(arr))
                assert m.exchanges == 0
                parities.add(count(arr) % 2)
            assert parities == {0, 1}

    def test_subrange(self):
        work = [5, 4, 3, 2, 1]
        heapsort(work, 1, 4, operator.lt)
        assert work == [5, 2, 3, 4, 1]

    @given(st.lists(st.integers(-9, 9), max_size=80))
    def test_sorts_any_list(self, arr):
        work = list(arr)
        heapsort(work, 0, len(work), operator.lt)
        assert work == sorted(arr)


class TestSort3:
    def test_examples(self):
        work = [3, 1, 2]
        sort3(work, 0, 1, 2, operator.lt)
        assert work == [1, 2, 3]
        work = [1, 1, 0]
        sort3(work, 0, 1, 2, operator.lt)
        assert work == [0, 1, 1]

    def test_all_permutations(self):
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
    # to always succeed, so every routine must fully sort). The leaf
    # kernel also sorts a range behind a predecessor greater than all of
    # it, and leaves the predecessor alone.
    for length in range(0, 9):
        for arr in itertools.product(range(3), repeat=length):
            expected = sorted(arr)
            work = list(arr)
            insertion_sort(work, 0, length, operator.lt)
            assert work == expected
            work = list(arr)
            heapsort(work, 0, length, operator.lt)
            assert work == expected
            work = list(arr)
            assert partial_insertion_sort(work, 0, length, operator.lt, 100)
            assert work == expected
            work = [3] + list(arr)
            insertion_sort(work, 1, length + 1, operator.lt)
            assert work == [3] + expected
