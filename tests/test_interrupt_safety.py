"""Ctrl-C at a signal check inside a sort leaves a permutation.

CPython raises ``KeyboardInterrupt`` where its evaluation loop checks for
a pending signal: at every function entry, and at the backward jumps
that close loops. The sweep raises it at each such point in turn, from a
``sys.settrace`` hook with ``f_trace_opcodes``, while a list is sorted,
and checks after each that the list is still a permutation of its input.
The heapsort fallback sorts a shuffled list on each branch that
:mod:`pdqsort.inline` generates: uncounted under ``operator.lt`` (the
inline ``<`` branch, which ``sort()`` runs), uncounted under a Python
relation (whose calls add their own entries), and counted, given a
``Metrics``, under the Python relation (the branch ``instrumented_sort``
runs). Each heapsort test also checks that its sweep reaches every
static point (a function's entry, a backward jump's offset) of one
traced heapsort of a longer input. ``sort()`` itself, whose sort loop and kernels all run their
inline branch, sorts four 100-element inputs: ``uniform``, ``dupsq``,
which reaches ``partition_left``, the adversary, which reaches the
heapsort fallback, and ``desc``, which takes the optimistic partial
insertion path.

Backward jumps are swept from 3.11 on. 3.10 also checks at other
instructions, which the sweep does not model. From 3.12 the jump that
closes a ``while <cond>:`` loop at the end of a ``try`` body lies
outside the ``try``'s exception-table range, so a raise before that
jump would escape the ``finally`` that drops the held element; the
kernels' held-element loops are written ``while True:`` with a
``break``, whose jump lies inside the range, and the sweep checks that.
Only the frames of the ``driver``, ``partition`` and ``small_sorts``
modules and of the Python relation are swept: a call that the
interpreter makes on its own, such as a ``gc.callbacks`` entry during a
collection, would be a point that some runs never reach.

The module imports no pytest, so it also runs as a script on an
interpreter without it, printing the points swept and broken and the
static points missed, and exiting with status 1 if any broke or were
missed::

    PYTHONPATH=src python tests/test_interrupt_safety.py
"""

import dis
import functools
import operator
import random
import sys

from pdqsort import (
    DistributionSpec,
    Metrics,
    adversary_input,
    driver,
    generate,
    heapsort,
    instrumented_sort,
    partition,
    small_sorts,
    sort,
)

from kernels import python_lt

# The modules whose frames are swept.
SWEPT = frozenset(module.__name__ for module in (driver, partition, small_sorts))

SWEEP_JUMPS = sys.version_info >= (3, 11)
# The backward jumps of 3.11 and later that check for signals when taken;
# JUMP_BACKWARD_NO_INTERRUPT does not.
_BACKWARD_JUMPS = frozenset(
    dis.opmap[name]
    for name in (
        "JUMP_BACKWARD",
        "POP_JUMP_BACKWARD_IF_FALSE",
        "POP_JUMP_BACKWARD_IF_TRUE",
        "POP_JUMP_BACKWARD_IF_NONE",
        "POP_JUMP_BACKWARD_IF_NOT_NONE",
    )
    if name in dis.opmap
)


@functools.lru_cache(maxsize=None)
def _jump_offsets(code):
    """The offsets at which the backward jumps' opcode events come: the
    jump's own, or that of the ``EXTENDED_ARG`` in front of it, which 3.11
    reports in its place."""
    offsets = set()
    start = None
    for ins in dis.get_instructions(code):
        if start is None:
            start = ins.offset
        if ins.opcode in _BACKWARD_JUMPS:
            offsets.add(start)
        if ins.opname != "EXTENDED_ARG":
            start = None
    return frozenset(offsets)


def interrupter(stop=None):
    """A ``sys.settrace`` hook that raises ``KeyboardInterrupt`` at one
    point, and the points it recorded, in order, each mapped to its
    static point: the code object at a function entry, ``(code, offset)``
    at a backward jump.

    A point is named by the number of line events before it and its rank
    among the points after the last of them. A run that records its
    points (``stop=None``) traces every opcode; a run that stops at
    ``(lines, rank)`` traces lines alone up to its ``lines``-th line
    event, which is several times faster, and opcodes from there on.
    """
    window = 0 if stop is None else stop[0]
    points = {}
    lines = rank = 0

    def point(site):
        nonlocal rank
        rank += 1
        if stop is None:
            points[lines, rank] = site
        elif (lines, rank) == stop:
            raise KeyboardInterrupt

    def call(frame, event, arg):
        kernel = frame.f_globals.get("__name__") in SWEPT
        if not kernel and frame.f_code is not python_lt.__code__:
            return None
        point(frame.f_code)
        if not SWEEP_JUMPS or not kernel:
            return None
        jumps = _jump_offsets(frame.f_code)

        def local(frame, event, arg):
            nonlocal lines, rank
            if event == "line":
                lines += 1
                rank = 0
                if lines == window:
                    # Every traced frame on the stack, the callers too; the
                    # opcode event of this line's first instruction follows.
                    caller = frame
                    while caller.f_globals.get("__name__") in SWEPT:
                        caller.f_trace_opcodes = True
                        caller = caller.f_back
            elif event == "opcode" and frame.f_lasti in jumps:
                point((frame.f_code, frame.f_lasti))
            return local

        # From 3.13 opcode events start only for a frame that already has
        # its trace function when it asks for them.
        frame.f_trace = local
        frame.f_trace_opcodes = lines >= window
        return local

    return call, points


def heapsort_with(lt, counted):
    """A call that heapsorts its list argument, given a ``Metrics`` if
    ``counted``."""
    return lambda work: heapsort(work, 0, len(work), lt, Metrics() if counted else None)


# The branches of heapsort: operator.lt's inline one, and a Python
# relation's uncounted and counted ones.
HEAPSORT_BRANCHES = {
    "inline": heapsort_with(operator.lt, False),
    "relation": heapsort_with(python_lt, False),
    "counted": heapsort_with(python_lt, True),
}
# A sweep re-runs the traced sort from the start for each point, so it
# takes time quadratic in the input's length. 100 elements reach every
# static point that 300 do, which the heapsort tests check against one
# recorded run on COVERAGE_INPUT.
HEAPSORT_INPUT = random.Random(11).sample(range(100), 100)
COVERAGE_INPUT = random.Random(11).sample(range(300), 300)

SORT_INPUTS = {
    kind: generate(DistributionSpec(kind, 100, "int64", seed=4))
    for kind in ("uniform", "dupsq", "desc")
}
SORT_INPUTS["adversary"] = adversary_input(100)
# The counter that shows an input reaches a kernel beyond partition_right
# and the leaves.
REACHES = {
    "dupsq": "partition_left_calls",
    "desc": "partial_insertion_attempts",
    "adversary": "heapsort_fallbacks",
}


def traced(run, work, hook):
    previous = sys.gettrace()
    # On 3.12 sys.settrace turns opcode events on only once some frame has
    # asked for them; this frame has no trace function, so it gets none.
    sys._getframe().f_trace_opcodes = True
    sys.settrace(hook)
    try:
        run(work)
    finally:
        sys.settrace(previous)


def record(run, arr):
    """The points of one traced run of ``run`` on a copy of ``arr``, as
    :func:`interrupter` maps them."""
    recorder, points = interrupter()
    traced(run, list(arr), recorder)
    return points


def missed(run, points):
    """The static points that ``run`` reaches on COVERAGE_INPUT and none
    of ``points`` does."""
    return set(record(run, COVERAGE_INPUT).values()) - set(points.values())


def sweep(run, arr):
    """Interrupt ``run`` on a copy of ``arr`` at every point in turn;
    return the points and the numbers of those that broke the
    permutation."""
    points = record(run, arr)
    expected = sorted(arr)
    broken = []
    for k, stop in enumerate(points, 1):
        work = list(arr)
        try:
            traced(run, work, interrupter(stop)[0])
        except KeyboardInterrupt:
            pass
        else:
            raise AssertionError(f"point {k} never came")
        if sorted(work) != expected:
            broken.append(k)
    return points, broken


def pytest_generate_tests(metafunc):
    # One test per heapsort branch and per sort() input. pytest calls this
    # hook, so the module itself needs no pytest.
    for name, cases in (("branch", HEAPSORT_BRANCHES), ("kind", SORT_INPUTS)):
        if name in metafunc.fixturenames:
            metafunc.parametrize(name, cases)


def test_heapsort_interrupted_at_any_point_keeps_permutation(branch):
    run = HEAPSORT_BRANCHES[branch]
    points, broken = sweep(run, HEAPSORT_INPUT)
    assert not broken, f"{len(broken)} of {len(points)} points lost an element"
    unreached = missed(run, points)
    assert not unreached, f"{len(unreached)} static points missed"


def test_sort_interrupted_at_any_point_keeps_permutation(kind):
    arr = SORT_INPUTS[kind]
    if kind in REACHES:
        assert getattr(instrumented_sort(list(arr)), REACHES[kind]) > 0
    points, broken = sweep(sort, arr)
    assert not broken, f"{len(broken)} of {len(points)} points lost an element"


if __name__ == "__main__":
    print(f"Python {sys.version.split()[0]}, backward jumps swept: {SWEEP_JUMPS}")
    runs = [(f"heapsort, {name}", run, HEAPSORT_INPUT) for name, run in HEAPSORT_BRANCHES.items()]
    runs += [(f"sort(), {kind}", sort, arr) for kind, arr in SORT_INPUTS.items()]
    failed = False
    for name, run, arr in runs:
        points, broken = sweep(run, arr)
        report = f"{name}: {len(broken)} of {len(points)} points broke the permutation"
        if arr is HEAPSORT_INPUT:
            unreached = missed(run, points)
            report += f"; {len(unreached)} static points missed"
            failed = failed or bool(unreached)
        failed = failed or bool(broken)
        print(report)
    sys.exit(1 if failed else 0)
