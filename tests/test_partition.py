import itertools
import operator
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdqsort import (
    Metrics,
    block_partition_right,
    counting_ordering,
    partition_left,
    partition_right,
)
from pdqsort.acceptance import _prepare_pivot, _TracingList
from pdqsort.partition import DEFAULT_BLOCK_SIZE


def check_right_contract(before, after, res):
    pv = before[0]
    r = res.pivot_index
    assert after[r] == pv
    assert all(x < pv for x in after[:r])
    assert all(x >= pv for x in after[r + 1 :])
    assert Counter(after) == Counter(before)


class TestPartitionRight:
    def test_three_distinct(self):
        work = [1, 0, 2]
        res = partition_right(work, 0, 3, operator.lt)
        assert res.pivot_index == 1
        assert Counter(work[:1]) == Counter([0])
        assert Counter(work[2:]) == Counter([2])

    def test_swapless_trace(self):
        work = [5, 1, 2, 7, 9]
        res = partition_right(work, 0, 5, operator.lt)
        assert work == [2, 1, 5, 7, 9]
        assert res.pivot_index == 2
        assert res.no_swaps is True

    def test_duplicates_go_right(self):
        work = [3, 1, 4, 1, 5]
        res = partition_right(work, 0, 5, operator.lt)
        assert res.pivot_index == 2
        assert Counter(work[:2]) == Counter([1, 1])
        assert Counter(work[3:]) == Counter([4, 5])

    def test_one_comparison_per_element(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(2, 40)
            arr = _prepare_pivot([rng.randint(0, 9) for _ in range(n)])
            m = Metrics()
            partition_right(list(arr), 0, n, counting_ordering(operator.lt, m), m)
            assert n - 1 <= m.comparisons <= n + 1

    def test_subrange_untouched_outside(self):
        work = [99, 3, 1, 4, 1, 5, -1]
        res = partition_right(work, 1, 6, operator.lt)
        assert work[0] == 99 and work[6] == -1
        assert work[1 + res.pivot_index] == 3


class TestPartitionLeft:
    def test_examples(self):
        work = [2, 2, 3]
        res = partition_left(work, 0, 3, operator.lt)
        assert res.pivot_index == 1
        assert work[:2] == [2, 2] and work[2] == 3

        work = [4, 4, 4, 4]
        res = partition_left(work, 0, 4, operator.lt)
        assert res.pivot_index == 3

        work = [5, 7, 5, 6, 5]
        res = partition_left(work, 0, 5, operator.lt)
        assert res.pivot_index == 2
        assert Counter(work[:3]) == Counter([5, 5, 5])
        assert Counter(work[3:]) == Counter([6, 7])
        assert res.no_swaps is False

    def test_equivalence_classes(self):
        # Everything <= pivot in the left partition is incomparable with
        # the pivot under the ordering (neither less nor greater).
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(2, 30)
            arr = [rng.randint(0, 5) for _ in range(n)]
            arr[0] = min(arr)
            pv = arr[0]
            res = partition_left(arr, 0, n, operator.lt)
            for x in arr[: res.pivot_index + 1]:
                assert not x < pv and not pv < x
            assert all(pv < x for x in arr[res.pivot_index + 1 :])


class TestBlockPartitionRight:
    def test_trivial_matches_contract(self):
        work = [1, 0, 2]
        res = block_partition_right(work, 0, 3, operator.lt, DEFAULT_BLOCK_SIZE)
        assert res.pivot_index == 1

    def test_exhaustive_vs_scalar(self):
        for length in range(2, 8):
            for arr in itertools.product(range(3), repeat=length):
                prepared = _prepare_pivot(arr)
                scalar = list(prepared)
                res_s = partition_right(scalar, 0, length, operator.lt)
                for block_size in (1, 2, 3, 64):
                    blocked = list(prepared)
                    res_b = block_partition_right(blocked, 0, length, operator.lt, block_size)
                    check_right_contract(prepared, blocked, res_b)
                    assert res_b.pivot_index == res_s.pivot_index
                    assert sorted(blocked[: res_b.pivot_index]) == sorted(
                        scalar[: res_s.pivot_index]
                    )
                    assert sorted(blocked[res_b.pivot_index + 1 :]) == sorted(
                        scalar[res_s.pivot_index + 1 :]
                    )

    def test_multi_block_comparison_count(self):
        # 300 elements forces several 64-element blocks plus a tail; the
        # classification pass looks at each non-pivot element exactly once.
        rng = random.Random(300)
        arr = _prepare_pivot([rng.randint(0, 999) for _ in range(300)])
        m_block = Metrics()
        blocked = list(arr)
        res = block_partition_right(
            blocked, 0, 300, counting_ordering(operator.lt, m_block), DEFAULT_BLOCK_SIZE, m_block
        )
        check_right_contract(arr, blocked, res)
        assert m_block.comparisons == 299

        m_scalar = Metrics()
        partition_right(list(arr), 0, 300, counting_ordering(operator.lt, m_scalar), m_scalar)
        assert abs(m_scalar.comparisons - m_block.comparisons) <= 2

    def test_no_swaps_means_pre_partitioned(self):
        rng = random.Random(8)
        for _ in range(300):
            n = rng.randint(2, 120)
            arr = _prepare_pivot([rng.randint(0, 6) for _ in range(n)])
            work = list(arr)
            m = Metrics()
            res = block_partition_right(work, 0, n, operator.lt, 8, m)
            if res.no_swaps:
                assert m.exchanges == 0
                undone = list(work)
                undone[0], undone[res.pivot_index] = undone[res.pivot_index], undone[0]
                assert undone == arr
            else:
                assert m.exchanges > 0

    def test_buffer_validation(self):
        # A block size of 0 would classify nothing and loop forever.
        work = [1, 0, 2]
        with pytest.raises(ValueError):
            block_partition_right(work, 0, 3, operator.lt, 0)
        assert work == [1, 0, 2]


def test_no_out_of_bounds_access_exhaustive():
    for length in range(2, 7):
        for arr in itertools.product(range(3), repeat=length):
            prepared = _prepare_pivot(arr)
            partition_right(_TracingList(prepared), 0, length, operator.lt)
            block_partition_right(_TracingList(prepared), 0, length, operator.lt, 2)
            if arr[0] == min(arr):
                partition_left(_TracingList(arr), 0, length, operator.lt)


@given(st.lists(st.integers(0, 9), min_size=2, max_size=200), st.integers(1, 80))
@settings(max_examples=300, deadline=None)
def test_block_scalar_equivalence_property(arr, block_size):
    prepared = _prepare_pivot(arr)
    scalar = list(prepared)
    res_s = partition_right(scalar, 0, len(scalar), operator.lt)
    blocked = list(prepared)
    res_b = block_partition_right(blocked, 0, len(blocked), operator.lt, block_size)
    check_right_contract(prepared, blocked, res_b)
    check_right_contract(prepared, scalar, res_s)
    assert res_b.pivot_index == res_s.pivot_index
    assert sorted(blocked[: res_b.pivot_index]) == sorted(scalar[: res_s.pivot_index])


def test_rerunning_swapless_partition_exchanges_nothing():
    # no_swaps=True must mean the input (minus final pivot placement) was
    # already partitioned: re-partitioning it performs zero exchanges.
    rng = random.Random(21)
    seen = 0
    for _ in range(500):
        n = rng.randint(2, 60)
        arr = [rng.randint(0, 9) for _ in range(n)]
        arr.sort()
        rng_rotate = rng.randint(0, n - 1)
        arr = _prepare_pivot(arr[rng_rotate:] + arr[:rng_rotate])
        work = list(arr)
        res = partition_right(work, 0, n, operator.lt)
        if not res.no_swaps:
            continue
        seen += 1
        undone = list(work)
        undone[0], undone[res.pivot_index] = undone[res.pivot_index], undone[0]
        assert undone == arr
        m = Metrics()
        partition_right(list(undone), 0, n, operator.lt, m)
        assert m.exchanges == 0
    assert seen > 20
