"""Whatever the ordering does, short of writing to the list, the list
stays a permutation of its input.

Each raising test sweeps the call at which the ordering raises and checks
that the exception reaches the caller and that the list is still a
permutation of its input, for both ``Exception`` and
``KeyboardInterrupt``, on every kernel variant of ``kernels.py`` and on
the whole sort. The fuzz tests give the sort inconsistent relations and
allow ``ValueError`` as the only exception: a partition scan that runs
past its sentinel is reported as an ordering that is not a strict weak
ordering. The insertion sorts and heapsort scan only their range, and
raise nothing. An ordering that resizes the list gets a ``ValueError``
of its own. One that writes to the list without resizing it can lose
an element with no error, and a test pins that.

The ordering reaches the sort along one of two paths. On the relation
path it is passed as ``lt``. On the inline path each element carries it
as its ``<`` and the sort is given ``operator.lt``, which every kernel
compares inline.
"""

import inspect
import itertools
import operator
import random
import traceback
from collections import Counter

import pytest

from pdqsort import (
    Metrics,
    counting_ordering,
    heapsort,
    partition_left,
    partition_right,
    small_sorts,
    sort_with,
)
from pdqsort.acceptance import _TracingList
from pdqsort.driver import TOGGLE_CONFIGS

from kernels import KERNELS, Boxed


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


def on_path(inline, arr, lt):
    """The list to sort and the ordering to pass for one path."""
    if inline:
        return [Boxed(v, lt) for v in arr], operator.lt
    return list(arr), lt


def same_elements(a, b):
    return Counter(map(id, a)) == Counter(map(id, b))


def calls_made(run, arr, inline=False):
    m = Metrics()
    run(*on_path(inline, arr, counting_ordering(operator.lt, m)))
    return m.comparisons


def kernel_sweeps(name, inline):
    """The five inputs of one row's raise-at-call-k sweep on one path, of
    even and odd lengths, each with a ``run(work, lt)`` that calls the
    row's kernel."""
    row = KERNELS[name]
    rng = random.Random(33 if inline else 31)
    for i in range(5):
        arr, begin = row.prepare([rng.randint(0, 9) for _ in range(40 + i % 2)])
        yield arr, lambda work, lt, begin=begin: row.call(work, begin, len(work), lt, None)


def assert_permutation_kept(run, arr, ks, exc, inline=False):
    for k in ks:
        work, ordering = on_path(inline, arr, raising_at(k, exc))
        before = list(work)
        with pytest.raises(exc):
            run(work, ordering)
        assert same_elements(work, before), f"element lost when call {k} raised"


def check_kernel_sweep(name, exc, inline):
    for arr, run in kernel_sweeps(name, inline):
        total = calls_made(run, arr, inline)
        assert_permutation_kept(run, arr, range(1, total + 1), exc, inline)


def check_sort_sweep(config, exc, inline):
    rng = random.Random(34 if inline else 32)
    arr = [rng.randint(0, 50) for _ in range(300)]

    def run(work, lt):
        assert not inline or lt is operator.lt
        sort_with(work, lt, config)

    total = calls_made(run, arr, inline)
    assert_permutation_kept(run, arr, range(1, total + 1, max(1, total // 120)), exc, inline)


# Each sweep is written once above and run under one test name per path.
by_exception = pytest.mark.parametrize("exc", EXCEPTIONS, ids=lambda e: e.__name__)
by_kernel = pytest.mark.parametrize("name", KERNELS)
by_config = pytest.mark.parametrize("config", TOGGLE_CONFIGS)


@by_exception
@by_kernel
def test_kernel_keeps_permutation(name, exc):
    check_kernel_sweep(name, exc, inline=False)


@by_exception
@by_kernel
def test_inline_kernel_keeps_permutation(name, exc):
    check_kernel_sweep(name, exc, inline=True)


@by_exception
@by_config
def test_sort_keeps_permutation(config, exc):
    check_sort_sweep(config, exc, inline=False)


@by_exception
@by_config
def test_inline_sort_keeps_permutation(config, exc):
    check_sort_sweep(config, exc, inline=True)


def _line_of(module, text):
    (line,) = (i for i, s in enumerate(inspect.getsource(module).splitlines(), 1) if text in s)
    return line


def lines_raised(name, function, inline):
    """The lines of ``function`` at which the sweeps above raise, run
    through kernel ``name``."""
    raised_at = set()
    for arr, run in kernel_sweeps(name, inline):
        for k in range(1, calls_made(run, arr, inline) + 1):
            work, ordering = on_path(inline, arr, raising_at(k, Raised))
            with pytest.raises(Raised) as info:
                run(work, ordering)
            raised_at.update(
                line
                for frame, line in traceback.walk_tb(info.tb)
                if frame.f_code.co_name == function
            )
    return raised_at


@pytest.mark.parametrize("inline", (False, True), ids=("relation", "inline"))
def test_heapsort_sweep_raises_in_descent_and_ascent(inline):
    # The sweeps above must reach both comparisons of the bottom-up sift,
    # so both loops are shown to drop the held element back on a raise.
    descent = _line_of(small_sorts, "lt(data[child], data[child + 1])")
    ascent = _line_of(small_sorts, "lt(data[parent], v)")
    assert lines_raised("heapsort", "heapsort", inline) == {descent, ascent}


@pytest.mark.parametrize("inline", (False, True), ids=("relation", "inline"))
def test_insertion_sort_sweep_raises_at_every_comparison(inline):
    # The prefix skip and the pair's order hold no lifted element; the
    # larger-element scan holds two holes and the smaller-element scan
    # one. The sweeps must raise at each, so each is shown to leave a
    # permutation.
    lines = {
        _line_of(small_sorts, text)
        for text in (
            "not lt(data[i], data[i - 1])",
            "lt(a1, a2)",
            "lt(a1, data[j])",
            "lt(a2, data[j])",
        )
    }
    assert lines_raised("insertion_sort", "insertion_sort", inline) == lines


def coin(seed):
    """A relation that answers by a seeded coin flip."""
    flip = random.Random(seed).random
    return lambda a, b: flip() < 0.5


INCONSISTENT = {
    "coin": coin,
    "always_true": lambda seed: lambda a, b: True,
    "always_false": lambda seed: lambda a, b: False,
    "not_equal": lambda seed: operator.ne,
    "le": lambda seed: operator.le,
}
FUZZ_SIZES = (0, 1, 2, 5, 23, 24, 25, 100, 300, 2000)


@pytest.mark.parametrize("inline", (False, True), ids=("relation", "inline"))
@pytest.mark.parametrize("relation", INCONSISTENT)
def test_inconsistent_relation_keeps_permutation(relation, inline):
    rng = random.Random(35)
    for config, n, _ in itertools.product(TOGGLE_CONFIGS, FUZZ_SIZES, range(3)):
        arr = [rng.randint(0, n) for _ in range(n)]
        work, ordering = on_path(inline, arr, INCONSISTENT[relation](rng.random()))
        before = list(work)
        try:
            sort_with(work, ordering, config)
        except ValueError:
            pass
        assert same_elements(work, before), (config, n)


@pytest.mark.parametrize("inline", (False, True), ids=("relation", "inline"))
@pytest.mark.parametrize("relation", ("always_true", "not_equal"))
def test_scan_off_the_list_raises_value_error(relation, inline):
    # On distinct elements both relations answer True to every question
    # partition_right's up scan asks, so it runs off the end of the list.
    arr = random.Random(37).sample(range(1000), 300)
    work, ordering = on_path(inline, arr, INCONSISTENT[relation](0))
    before = list(work)
    with pytest.raises(ValueError, match="not a strict weak ordering") as info:
        sort_with(work, ordering)
    assert isinstance(info.value.__cause__, IndexError)
    assert same_elements(work, before)


@pytest.mark.parametrize("inline", (False, True), ids=("relation", "inline"))
@pytest.mark.parametrize("kernel", (partition_right, partition_left), ids=lambda k: k.__name__)
def test_partition_down_scan_that_passes_begin_raises_value_error(kernel, inline):
    # The down scan walks past the pivot at begin = 2 and stops at the
    # marker at index 1, inside the list. partition_right's up scan is
    # told once that an element is less than the pivot, and then that
    # only the marker is; partition_left's down scan is told that every
    # element but the marker is greater than the pivot.
    marker = 11
    calls = itertools.count()
    relation = {
        partition_right: lambda a, b: next(calls) == 0 or a == marker,
        partition_left: lambda a, b: b != marker,
    }[kernel]
    work, ordering = on_path(inline, [10, marker, 50, 20, 30, 40, 60, 70], relation)
    before = list(work)
    with pytest.raises(ValueError, match="not a strict weak ordering"):
        kernel(work, 2, len(work), ordering)
    assert same_elements(work, before)
    assert work[:2] == before[:2]


@pytest.mark.parametrize("counted", (False, True), ids=("uncounted", "counted"))
@pytest.mark.parametrize("inline", (False, True), ids=("relation", "inline"))
def test_partition_right_up_scan_that_passes_end_raises_value_error(inline, counted):
    # Every element but the marker is less than the pivot, so the up scan
    # walks past end = 4 and stops at the marker at index 5, inside the
    # list; the pivot would land at index 4, outside the range.
    marker = 99
    work, ordering = on_path(inline, [50, 20, 30, 60, 70, marker], lambda a, b: a != marker)
    before = list(work)
    with pytest.raises(ValueError, match="not a strict weak ordering"):
        partition_right(work, 0, 4, ordering, Metrics() if counted else None)
    assert work == before


@pytest.mark.parametrize("inline", (False, True), ids=("relation", "inline"))
def test_index_error_of_the_ordering_propagates_unchanged(inline):
    rng = random.Random(38)
    arr = [rng.randint(0, 50) for _ in range(300)]

    def run(work, lt):
        sort_with(work, lt)

    total = calls_made(run, arr, inline)
    ks = range(1, total + 1, max(1, total // 60))
    assert_permutation_kept(run, arr, ks, IndexError, inline)


def test_index_error_raised_by_a_c_ordering_propagates_unchanged():
    # operator.getitem, as the ordering, raises the tuple's own IndexError
    # from C: the innermost frame is the kernel's, at its call, not at a
    # subscript of the list.
    work = [3, (0,)] * 3
    before = list(work)
    with pytest.raises(IndexError, match="tuple index out of range") as info:
        sort_with(work, operator.getitem)
    assert info.value.__cause__ is None
    assert same_elements(work, before)


def touching(inline, arr, ks, change):
    """The list to sort and the ordering to pass for one path; the ordering
    applies ``change`` to that list at each call whose number is in ``ks``."""
    calls = 0

    def relation(a, b):
        nonlocal calls
        calls += 1
        if calls in ks:
            change(work)
        return a < b

    work, ordering = on_path(inline, arr, relation)
    return work, ordering


RESIZES = {
    "append": lambda data: data.append(data[0]),
    "pop": list.pop,
    "clear": list.clear,
}


@pytest.mark.parametrize("inline", (False, True), ids=("relation", "inline"))
@pytest.mark.parametrize("resize", RESIZES)
def test_ordering_that_resizes_the_list_raises_value_error(resize, inline):
    # The sort compares the length before and after, and on an IndexError
    # or ValueError from inside it: a shrunk list fails a subscript or
    # stops a partition scan early, and a longer one sorts to the end.
    arr = random.Random(40).sample(range(10000), 300)
    total = calls_made(sort_with, arr, inline)
    for k in (1, 10, total // 2, total):
        work, ordering = touching(inline, arr, {k}, RESIZES[resize])
        before = list(work)
        with pytest.raises(ValueError, match="list modified during sort"):
            sort_with(work, ordering)
        if resize == "append":
            # The sort touches only the indices the list had when it began.
            assert same_elements(work[: len(arr)], before), k


@pytest.mark.parametrize("inline", (False, True), ids=("relation", "inline"))
def test_ordering_that_reads_the_list_still_sorts(inline):
    arr = random.Random(41).sample(range(10000), 300)
    work, ordering = touching(inline, arr, range(1, 10**6), list.copy)
    sort_with(work, ordering)
    assert [getattr(v, "value", v) for v in work] == sorted(arr)


def swap_ends(data):
    data[0], data[-1] = data[-1], data[0]


@pytest.mark.parametrize("inline", (False, True), ids=("relation", "inline"))
def test_ordering_that_writes_to_the_list_may_lose_an_element(inline):
    # As the README warns, a kernel holds an element in a local from its
    # read to its store, and that store overwrites a write made in
    # between; the length check sees only a resize. The sort returns with
    # no error. If it ever raises here or keeps every element, the README
    # changes with this test.
    arr = random.Random(1).sample(range(2000), 2000)
    work, ordering = touching(inline, arr, {500}, swap_ends)
    before = list(work)
    sort_with(work, ordering)
    assert not same_elements(work, before)


@pytest.mark.parametrize("inline", (False, True), ids=("relation", "inline"))
@pytest.mark.parametrize("relation", INCONSISTENT)
def test_inconsistent_relation_heapsort_stays_in_its_range(relation, inline):
    # The descent reads only children below the heap size and the ascent
    # stops at the root, so heapsort needs no consistent answer to stay
    # inside data[begin:end) and raise nothing.
    rng = random.Random(36)
    for n, _ in itertools.product(FUZZ_SIZES, range(3)):
        arr = [rng.randint(0, n) for _ in range(n)]
        work, ordering = on_path(inline, arr, INCONSISTENT[relation](rng.random()))
        below, above = object(), object()
        fenced = _TracingList([below, *work, above], 1, n + 1)
        heapsort(fenced, 1, n + 1, ordering)
        after = list(fenced)
        assert after[0] is below and after[-1] is above
        assert same_elements(after[1:-1], work), n


# Consistent orderings, ascending and descending, beside the inconsistent ones.
LEAF_ORDERINGS = {
    "lt": lambda seed: operator.lt,
    "gt": lambda seed: operator.gt,
    **INCONSISTENT,
}


# The rows whose kernels bound every scan by their range.
BOUNDED_ROWS = (
    "insertion_sort",
    "insertion_sort_begin_1",
    "partial_insertion_sort",
    "partial_insertion_sort/8",
)


@pytest.mark.parametrize("inline", (False, True), ids=("relation", "inline"))
@pytest.mark.parametrize("relation", LEAF_ORDERINGS)
def test_insertion_sort_stays_in_its_range(relation, inline):
    # Both scans of the pair insertion sort stop at begin, and so does the
    # one scan of the partial insertion sort, so whatever the ordering
    # answers each reads and writes only data[begin:end), raises nothing,
    # and leaves a permutation; sorted under a consistent ordering, unless
    # the partial insertion sort gave up. The fence sits on both sides of
    # ranges that begin at 0 and at 1, of every leaf size and a few larger.
    rng = random.Random(39)
    for name, n, _ in itertools.product(BOUNDED_ROWS, range(40), range(4)):
        row = KERNELS[name]
        arr, begin = row.prepare([rng.randint(0, n) for _ in range(n)])
        work, ordering = on_path(inline, arr, LEAF_ORDERINGS[relation](rng.random()))
        above = object()
        fenced = _TracingList([*work, above], begin, len(work))
        result = row.call(fenced, begin, len(work), ordering, None)
        after = list(fenced)
        assert after[:begin] == work[:begin] and after[-1] is above
        assert same_elements(after[begin:-1], work[begin:]), (name, n)
        if relation in ("lt", "gt") and result is not False:
            values = [getattr(v, "value", v) for v in after[begin:-1]]
            assert values == sorted(arr[begin:], reverse=relation == "gt"), (name, n)
