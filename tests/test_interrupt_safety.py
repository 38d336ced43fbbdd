"""Ctrl-C at a signal check inside the heapsort fallback leaves a permutation.

CPython raises ``KeyboardInterrupt`` where its evaluation loop checks for
a pending signal: at every function entry, and at the backward jumps
that close loops. The sweep raises it at each such point in turn, from a
``sys.settrace`` hook with ``f_trace_opcodes``, while ``heapsort`` sorts
a shuffled list, and checks after each that the list is still a
permutation of its input. It runs three times, once on each branch
that :mod:`pdqsort.inline` generates: uncounted under ``operator.lt`` (the
inline ``<`` branch, which ``sort()`` runs), uncounted under a Python
relation (whose calls add their own entries), and counted, given a
``Metrics``, under the Python relation (the branch ``instrumented_sort``
runs).

Backward jumps are swept from 3.11 on. 3.10 also checks at other
instructions, which the sweep does not model. From 3.12 the jump that
closes a ``while <cond>:`` loop at the end of a ``try`` body lies
outside the ``try``'s exception-table range, so a raise before that
jump would escape the ``finally`` that drops the held element; the
kernels' held-element loops are written ``while True:`` with a
``break``, whose jump lies inside the range, and the sweep checks that.
Only the frames of ``heapsort`` and of the Python relation are swept: a
call that the interpreter makes on its own, such as a ``gc.callbacks``
entry during a collection, would be a point that some runs never reach.

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

from pdqsort import Metrics, heapsort, small_sorts

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
        kernel = frame.f_globals.get("__name__") == small_sorts.__name__
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
                    while caller.f_globals.get("__name__") == small_sorts.__name__:
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


# name -> (ordering, whether heapsort counts into a Metrics).
BRANCHES = {
    "operator.lt": (operator.lt, False),
    "Python relation": (less, False),
    "Python relation, counted": (less, True),
}


def traced_heapsort(work, lt, counted, hook):
    metrics = Metrics() if counted else None
    previous = sys.gettrace()
    # On 3.12 sys.settrace turns opcode events on only once some frame has
    # asked for them; this frame has no trace function, so it gets none.
    sys._getframe().f_trace_opcodes = True
    sys.settrace(hook)
    try:
        heapsort(work, 0, len(work), lt, metrics)
    finally:
        sys.settrace(previous)


def sweep(lt, counted, n=300, seed=11):
    """Interrupt ``heapsort`` of a shuffled ``n``-element list at every
    point in turn; return the number of points and those that broke the
    permutation."""
    arr = random.Random(seed).sample(range(n), n)
    recorder, points = interrupter()
    traced_heapsort(list(arr), lt, counted, recorder)
    expected = sorted(arr)
    broken = []
    for k, stop in enumerate(points, 1):
        work = list(arr)
        try:
            traced_heapsort(work, lt, counted, interrupter(stop)[0])
        except KeyboardInterrupt:
            pass
        else:
            raise AssertionError(f"point {k} never came")
        if sorted(work) != expected:
            broken.append(k)
    return len(points), broken


def test_heapsort_interrupted_at_any_point_keeps_permutation():
    for name, branch in BRANCHES.items():
        points, broken = sweep(*branch)
        assert not broken, f"{name}: {len(broken)} of {points} points lost an element"


if __name__ == "__main__":
    print(f"Python {sys.version.split()[0]}, backward jumps swept: {SWEEP_JUMPS}")
    failed = False
    for name, branch in BRANCHES.items():
        points, broken = sweep(*branch)
        failed = failed or bool(broken)
        print(f"{name}: {len(broken)} of {points} points broke the permutation")
    sys.exit(1 if failed else 0)
