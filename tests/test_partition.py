import operator
import random

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
from pdqsort.acceptance import _prepare_pivot, _right_contract_problem
from pdqsort.partition import DEFAULT_BLOCK_SIZE

from kernels import small_arrays


class TestPartitionRight:
    def test_swapless_trace(self):
        work = [5, 1, 2, 7, 9]
        pivot_index, no_swaps = partition_right(work, 0, 5, operator.lt)
        assert work == [2, 1, 5, 7, 9]
        assert pivot_index == 2
        assert no_swaps is True

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
        pivot_index, _ = partition_right(work, 1, 6, operator.lt)
        assert work[0] == 99 and work[6] == -1
        assert work[1 + pivot_index] == 3


class TestPartitionLeft:
    def test_equivalence_classes(self):
        # Everything <= pivot in the left partition is incomparable with
        # the pivot under the ordering (neither less nor greater).
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(2, 30)
            arr = [rng.randint(0, 5) for _ in range(n)]
            arr[0] = min(arr)
            pv = arr[0]
            pivot_index, _ = partition_left(arr, 0, n, operator.lt)
            for x in arr[: pivot_index + 1]:
                assert not x < pv and not pv < x
            assert all(pv < x for x in arr[pivot_index + 1 :])


class TestBlockPartitionRight:
    def test_trivial_matches_contract(self):
        work = [1, 0, 2]
        pivot_index, _ = block_partition_right(work, 0, 3, operator.lt, DEFAULT_BLOCK_SIZE)
        assert pivot_index == 1

    def test_exhaustive_odd_block_sizes(self):
        # Criterion 2 holds blocks of 64 and 2 to the contract on the same
        # arrays; this adds the smallest block and an odd one.
        for arr in small_arrays():
            prepared = _prepare_pivot(arr)
            for block_size in (1, 3):
                blocked = list(prepared)
                res = block_partition_right(blocked, 0, len(arr), operator.lt, block_size)
                assert _right_contract_problem(prepared, blocked, res) is None

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
        assert _right_contract_problem(arr, blocked, res) is None
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
            pivot_index, no_swaps = block_partition_right(work, 0, n, operator.lt, 8, m)
            if no_swaps:
                assert m.exchanges == 0
                undone = list(work)
                undone[0], undone[pivot_index] = undone[pivot_index], undone[0]
                assert undone == arr
            else:
                assert m.exchanges > 0

    def test_block_size_validation(self):
        # A block size of 0 would classify nothing and loop forever.
        work = [1, 0, 2]
        with pytest.raises(ValueError):
            block_partition_right(work, 0, 3, operator.lt, 0)
        assert work == [1, 0, 2]


@given(st.lists(st.integers(0, 9), min_size=2, max_size=200), st.integers(1, 80))
@settings(max_examples=300, deadline=None)
def test_block_scalar_equivalence_property(arr, block_size):
    # The contract fixes the pivot index and each side's multiset, so two
    # kernels that both meet it agree.
    prepared = _prepare_pivot(arr)
    scalar = list(prepared)
    res_s = partition_right(scalar, 0, len(scalar), operator.lt)
    blocked = list(prepared)
    res_b = block_partition_right(blocked, 0, len(blocked), operator.lt, block_size)
    assert _right_contract_problem(prepared, blocked, res_b) is None
    assert _right_contract_problem(prepared, scalar, res_s) is None


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
        pivot_index, no_swaps = partition_right(work, 0, n, operator.lt)
        if not no_swaps:
            continue
        seen += 1
        undone = list(work)
        undone[0], undone[pivot_index] = undone[pivot_index], undone[0]
        assert undone == arr
        m = Metrics()
        partition_right(list(undone), 0, n, operator.lt, m)
        assert m.exchanges == 0
    assert seen > 20
