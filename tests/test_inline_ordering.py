"""The three generated branches of every kernel decide alike.

Given ``operator.lt`` and no ``metrics``, every kernel that compares,
and the sort loop, runs the branch that ``pdqsort.inline`` generated from
its source with ``<`` written inline and the counter statements dropped;
given any other
relation and no ``metrics``, the uncounted branch that calls it; given a
``Metrics``, the body as written. All must make the same comparisons in
the same order, so each test here runs one input each way and requires
the same list, element for element (compared by identity where equal
values are distinct objects), and the same result, and the two counted
runs the same counters.
"""

import dis
import itertools
import linecache
import operator
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import pdqsort
from pdqsort import (
    DistributionSpec,
    Metrics,
    SortConfig,
    adversary_input,
    block_partition_right,
    break_patterns,
    choose_pivot,
    generate,
    heapsort,
    insertion_sort,
    partial_insertion_sort,
    partition_left,
    partition_right,
    sort,
    sort3,
    sort_with,
    unguarded_insertion_sort,
)
from pdqsort.acceptance import _prepare_pivot, _toggle_configs
from pdqsort.driver import _sort_range
from pdqsort.partition import DEFAULT_BLOCK_SIZE


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


def four_ways(kernel, arr, begin):
    """Run ``kernel(work, begin, len(work), lt, metrics)`` with ``lt`` in
    (``operator.lt``, ``python_lt``) and ``metrics`` in (a ``Metrics``,
    None). Returns the four outcomes, each the permutation by identity and
    the result, and the ``exchanges`` and ``element_moves`` of the two
    counted runs."""
    outcomes, counts = [], []
    for lt in (operator.lt, python_lt):
        for metrics in (Metrics(), None):
            work = list(arr)
            result = kernel(work, begin, len(work), lt, metrics)
            outcomes.append((list(map(id, work)), result))
            if metrics is not None:
                counts.append((metrics.exchanges, metrics.element_moves))
    return outcomes, counts


def assert_alike(outcomes, counts, arr):
    assert all(outcome == outcomes[0] for outcome in outcomes), arr
    assert counts[0] == counts[1], arr


def test_partition_right_inline_matches_relation():
    for arr in itertools.chain(criterion2_arrays(), random_arrays(51)):
        assert_alike(*four_ways(partition_right, _prepare_pivot(arr), 0), arr)


def test_unguarded_insertion_sort_inline_matches_relation():
    for arr in itertools.chain(criterion2_arrays(), random_arrays(52)):
        assert_alike(*four_ways(unguarded_insertion_sort, [min(arr)] + arr, 1), arr)


def equal_predecessor(arr):
    """``arr`` with a least element first as the pivot, behind a
    predecessor equal to it: the range ``partition_left`` is handed."""
    i = arr.index(min(arr))
    return [arr[i], arr[i]] + arr[:i] + arr[i + 1 :]


def whole(arr):
    return list(arr), 0


def with_args(kernel, *extra):
    """``kernel`` called as ``(data, begin, end, lt, *extra, metrics)``."""
    return lambda data, begin, end, lt, metrics: kernel(data, begin, end, lt, *extra, metrics)


def median_of_3(data, begin, end, lt, metrics):
    sort3(data, begin + (end - begin) // 2, begin, end - 1, lt, metrics)


# name -> (input preparation returning (list, begin), kernel call). The
# seeded lists run from 2 to 200 elements, on both sides of
# NINTHER_THRESHOLD (128), and small budgets make partial insertion abort.
KERNELS = {
    "partition_left": (lambda arr: (equal_predecessor(arr), 1), partition_left),
    "block_partition_right/2": (
        lambda arr: (_prepare_pivot(arr), 0),
        with_args(block_partition_right, 2),
    ),
    "block_partition_right/64": (
        lambda arr: (_prepare_pivot(arr), 0),
        with_args(block_partition_right, DEFAULT_BLOCK_SIZE),
    ),
    "partial_insertion_sort/0": (whole, with_args(partial_insertion_sort, 0)),
    "partial_insertion_sort/8": (whole, with_args(partial_insertion_sort, 8)),
    "insertion_sort": (whole, insertion_sort),
    "heapsort": (whole, heapsort),
    "sort3": (whole, median_of_3),
    "choose_pivot": (whole, with_args(choose_pivot, True)),
    "choose_pivot/unguarded": (whole, with_args(choose_pivot, False)),
}


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_inline_matches_relation(name):
    prepare, kernel = KERNELS[name]
    results = set()
    for arr in itertools.chain(criterion2_arrays(), random_arrays(54)):
        outcomes, counts = four_ways(kernel, *prepare(arr))
        assert_alike(outcomes, counts, arr)
        results.add(outcomes[0][1])
    if name.startswith("partial_insertion_sort"):
        assert results == {True, False}


# Every function that pdqsort.inline generates branches of.
GENERATED = (
    partition_right,
    partition_left,
    block_partition_right,
    sort3,
    choose_pivot,
    break_patterns,
    insertion_sort,
    partial_insertion_sort,
    heapsort,
    _sort_range,
)


def test_uncounted_sorts_run_no_counter_statement():
    # Every generated branch keeps its source's line numbers, so a line
    # event at a counter statement shows that an uncounted run executed it.
    by_name = {k.__name__: k for k in GENERATED}
    seen = set()
    dropped = re.compile(r"\s*if metrics is not None")

    def trace(frame, event, arg):
        kernel = by_name.get(frame.f_code.co_name)
        if kernel is None or frame.f_globals is not sys.modules[kernel.__module__].__dict__:
            return None
        seen.add(kernel.__name__)

        def lines(frame, event, arg):
            if event == "line":
                line = linecache.getline(frame.f_code.co_filename, frame.f_lineno)
                assert not dropped.match(line), (kernel.__name__, line)
            return lines

        return lines

    block = SortConfig(use_block_partition=True)
    runs = [
        lambda: sort(generate(DistributionSpec("uniform", 600, "int64", seed=56))),
        lambda: sort(adversary_input(600)),
        # The optimistic path: the only caller of partial_insertion_sort.
        lambda: sort(generate(DistributionSpec("desc", 600, "int64", seed=56))),
        lambda: sort_with(generate(DistributionSpec("mod8", 600, "int64", seed=56)), python_lt),
        lambda: sort_with(generate(DistributionSpec("organ", 600, "int64", seed=56)), python_lt, block),
        lambda: heapsort(list(range(300, 0, -1)), 0, 300, python_lt),
    ]
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        for run in runs:
            run()
    finally:
        sys.settrace(previous)
    assert seen == set(by_name)


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


def test_sort_makes_no_python_level_call_of_operator_lt():
    # The sort loop and every comparing kernel run their inline branch.
    inputs = [
        generate(DistributionSpec(kind, 3000, "int64", seed=55))
        for kind in ("uniform", "dupsq", "mod8", "organ")
    ]
    inputs.append(adversary_input(3000))
    callers = Counter()

    def profile(frame, event, arg):
        if event == "c_call" and arg is operator.lt:
            callers[frame.f_code.co_name] += 1

    for data in inputs:
        expected = sorted(data)
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            sort(data)
        finally:
            sys.setprofile(previous)
        assert data == expected
    assert not callers, callers


class Poison:
    """Raises whichever way it is compared."""

    def __lt__(self, other):
        raise ValueError("poison")

    __gt__ = __lt__


def test_inline_branch_traceback_names_the_source_line():
    library = Path(pdqsort.__file__).parent
    lines = set()
    for at in range(1, 8):
        data = [5, 9, 5, 8, 5, 7, 5, 6]
        data[at] = Poison()
        with pytest.raises(ValueError) as caught:
            partition_left(data, 0, len(data), operator.lt)
        tb = caught.value.__traceback__
        frames = []
        while tb is not None:
            if Path(tb.tb_frame.f_code.co_filename).parent == library:
                frames.append(tb)
            tb = tb.tb_next
        innermost = frames[-1]
        code = innermost.tb_frame.f_code
        assert Path(code.co_filename).name == "partition.py"
        # The inline branch raised: the failing instruction is a `<`...
        ops = {ins.offset: ins.opname for ins in dis.get_instructions(code)}
        assert ops[innermost.tb_lasti] == "COMPARE_OP"
        # ...reported at the line of the generic lt(...) call.
        line = linecache.getline(code.co_filename, innermost.tb_lineno)
        assert "lt(pivot, data[" in line, line
        lines.add(innermost.tb_lineno)
    assert len(lines) > 1
