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
runs). ``sort()`` itself, whose sort loop and kernels all run their
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
interpreter without it, printing the points swept and broken and
exiting with status 1 if any broke::

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
    point, and the list of the points it recorded.

    A point is named by the number of line events before it and its rank
    among the points after the last of them. A run that records its
    points (``stop=None``) traces every opcode; a run that stops at
    ``(lines, rank)`` traces lines alone up to its ``lines``-th line
    event, which is several times faster, and opcodes from there on.
    """
    window = 0 if stop is None else stop[0]
    points = []
    lines = rank = 0

    def point():
        nonlocal rank
        rank += 1
        if stop is None:
            points.append((lines, rank))
        elif (lines, rank) == stop:
            raise KeyboardInterrupt

    def call(frame, event, arg):
        kernel = frame.f_globals.get("__name__") in SWEPT
        if not kernel and frame.f_code is not less.__code__:
            return None
        point()
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
                point()
            return local

        # From 3.13 opcode events start only for a frame that already has
        # its trace function when it asks for them.
        frame.f_trace = local
        frame.f_trace_opcodes = lines >= window
        return local

    return call, points


def less(a, b):
    return a < b


def heapsort_with(lt, counted):
    """A call that heapsorts its list argument, given a ``Metrics`` if
    ``counted``."""
    return lambda work: heapsort(work, 0, len(work), lt, Metrics() if counted else None)


HEAPSORT_BRANCHES = {
    "operator.lt": heapsort_with(operator.lt, False),
    "Python relation": heapsort_with(less, False),
    "Python relation, counted": heapsort_with(less, True),
}
HEAPSORT_INPUT = random.Random(11).sample(range(300), 300)

SORT_INPUTS = {
    kind: generate(DistributionSpec(kind, 100, "int64", seed=4))
    for kind in ("uniform", "dupsq", "desc")
}
SORT_INPUTS["adversary"] = adversary_input(100)


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


def sweep(run, arr):
    """Interrupt ``run`` on a copy of ``arr`` at every point in turn;
    return the number of points and those that broke the permutation."""
    recorder, points = interrupter()
    traced(run, list(arr), recorder)
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
    return len(points), broken


def test_heapsort_interrupted_at_any_point_keeps_permutation():
    for name, run in HEAPSORT_BRANCHES.items():
        points, broken = sweep(run, HEAPSORT_INPUT)
        assert not broken, f"{name}: {len(broken)} of {points} points lost an element"


def test_sort_interrupted_at_any_point_keeps_permutation():
    counts = {kind: instrumented_sort(list(arr)) for kind, arr in SORT_INPUTS.items()}
    assert counts["dupsq"].partition_left_calls > 0
    assert counts["adversary"].heapsort_fallbacks > 0
    assert counts["desc"].partial_insertion_attempts > 0
    for kind, arr in SORT_INPUTS.items():
        points, broken = sweep(sort, arr)
        assert not broken, f"{kind}: {len(broken)} of {points} points lost an element"


if __name__ == "__main__":
    print(f"Python {sys.version.split()[0]}, backward jumps swept: {SWEEP_JUMPS}")
    runs = [(f"heapsort, {name}", run, HEAPSORT_INPUT) for name, run in HEAPSORT_BRANCHES.items()]
    runs += [(f"sort(), {kind}", sort, arr) for kind, arr in SORT_INPUTS.items()]
    failed = False
    for name, run, arr in runs:
        points, broken = sweep(run, arr)
        failed = failed or bool(broken)
        print(f"{name}: {len(broken)} of {points} points broke the permutation")
    sys.exit(1 if failed else 0)
