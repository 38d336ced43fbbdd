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
import inspect
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
    adversary_input,
    driver,
    generate,
    heapsort,
    partial_insertion_sort,
    partition,
    partition_left,
    small_sorts,
    sort,
    sort_with,
)
from pdqsort.driver import BLOCK_CONFIG, TOGGLE_CONFIGS, _sort_range

from kernels import KERNELS, Boxed, python_lt, small_arrays


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


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_inline_matches_relation(name):
    row = KERNELS[name]
    results = set()
    for arr in (*small_arrays(), *random_arrays(54)):
        outcomes, counts = four_ways(row.call, *row.prepare(arr))
        assert all(outcome == outcomes[0] for outcome in outcomes), arr
        assert counts[0] == counts[1], arr
        results.add(outcomes[0][1])
    # The inputs must make partial insertion both finish and give up.
    if row.kernel is partial_insertion_sort:
        assert results == {True, False}


def list_lt(a, b):
    """``<`` that answers with a list, truthy or empty, not a bool."""
    return [a] if a < b else []


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_uses_only_the_truth_of_a_comparison(name):
    # A relation may return any object; a kernel that counted with its
    # results instead of testing them would move the wrong elements.
    row = KERNELS[name]
    for arr in random_arrays(54):
        data, begin = row.prepare(arr)
        outcomes = []
        for lt in (python_lt, list_lt):
            work = list(data)
            result = row.call(work, begin, len(work), lt, None)
            outcomes.append((list(map(id, work)), result))
        assert outcomes[0] == outcomes[1], arr


ROW_KERNELS = {row.kernel for row in KERNELS.values()}
# Every function that pdqsort.inline generates branches of.
GENERATED = ROW_KERNELS | {_sort_range}


def test_every_inlined_function_has_a_row():
    # A function with an inline branch closes over pdqsort.inline's
    # builtin_lt. Each must run alone as a row of tests/kernels.py, or be
    # the sort loop, which the sort tests run.
    inlined = {
        function
        for module in (driver, partition, small_sorts)
        for function in vars(module).values()
        if inspect.isfunction(function) and "builtin_lt" in function.__code__.co_freevars
    }
    assert inlined == GENERATED


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

    runs = [
        lambda: sort(generate(DistributionSpec("uniform", 600, "int64", seed=56))),
        lambda: sort(adversary_input(600)),
        # The optimistic path: the only caller of partial_insertion_sort.
        lambda: sort(generate(DistributionSpec("desc", 600, "int64", seed=56))),
        lambda: sort_with(generate(DistributionSpec("mod8", 600, "int64", seed=56)), python_lt),
        lambda: sort_with(generate(DistributionSpec("organ", 600, "int64", seed=56)), python_lt, BLOCK_CONFIG),
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


@pytest.mark.parametrize("config", TOGGLE_CONFIGS)
def test_sort_inline_matches_sort_with_relation(config):
    rng = random.Random(53)
    for n in (0, 1, 2, 23, 24, 25, 200, 3000):
        for top in (0, 3, 30):
            items = [Boxed(rng.randint(0, top), operator.lt) for _ in range(n)]
            a, b = list(items), list(items)
            sort_with(a, operator.lt, config)
            sort_with(b, lambda x, y: x < y, config)
            assert list(map(id, a)) == list(map(id, b)), (n, top)
            assert [x.value for x in a] == sorted(x.value for x in items)


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


def test_uncounted_sort_calls_only_kernels_and_gets_plain_pairs():
    # The Python calls of one range are its kernels: choose_pivot sorts
    # its samples in its own frame, and each partition kernel hands the
    # loop a plain tuple, not a PartitionResult to build and unpack.
    library = Path(pdqsort.__file__).parent
    partitions = {"partition_right", "partition_left", "block_partition_right"}
    kernels = {"_sort_range", "choose_pivot", "break_patterns", "insertion_sort", *partitions}
    calls = Counter()
    results = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event in ("call", "return") and Path(code.co_filename).parent == library:
            if event == "call":
                calls[code.co_name] += 1
            elif code.co_name in partitions:
                results.append(type(arg))

    data = generate(DistributionSpec("uniform", 4096, "int64", seed=57))
    expected = sorted(data)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        sort(data)
    finally:
        sys.setprofile(previous)
    assert data == expected
    # sort() itself is the entry point.
    assert set(calls) - {"sort"} <= kernels, calls
    assert calls["choose_pivot"] == len(results) > 0
    assert set(results) == {tuple}


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
