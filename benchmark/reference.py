"""Speed correction against a fixed reference workload.

The benchmark runs on shared machines whose speed changes under it: on
the 2-core machine it was written on, the same sort took about 140 ms or
about 240 ms for seconds to tens of seconds at a time, with thread CPU
time moving in step with wall time. A median over one run then mostly
measures how much of the run fell in a slow spell.

So every measurement is bracketed by runs of a reference workload that
never changes: a textbook pure-Python quicksort of a fixed permutation,
which exercises the interpreter the way the library's sorts do. A
measurement is scaled by ``REFERENCE_NS`` over the mean of the reference
times just before and just after it, and is reported in nanoseconds at
reference speed: the speed at which the reference sort takes
``REFERENCE_NS``. The reference code lives in the benchmark, so a change
to the library moves the corrected figures and never the reference.
"""

from __future__ import annotations

import random
from time import perf_counter_ns

# About the reference sort's time on the fast spells of the machine the
# benchmark was written on, so corrected figures read like wall times.
REFERENCE_NS = 10_000_000

_PERMUTATION = list(range(12000))
random.Random(20210612).shuffle(_PERMUTATION)


def _quicksort(a, lo, hi):
    while hi - lo > 16:
        pivot = a[(lo + hi) // 2]
        i, j = lo, hi - 1
        while i <= j:
            while a[i] < pivot:
                i += 1
            while pivot < a[j]:
                j -= 1
            if i <= j:
                a[i], a[j] = a[j], a[i]
                i += 1
                j -= 1
        if j - lo < hi - i:
            _quicksort(a, lo, j + 1)
            lo = i
        else:
            _quicksort(a, i, hi)
            hi = j + 1
    for k in range(lo + 1, hi):
        v = a[k]
        m = k
        while m > lo and v < a[m - 1]:
            a[m] = a[m - 1]
            m -= 1
        a[m] = v


def _reference_ns():
    data = list(_PERMUTATION)
    start = perf_counter_ns()
    _quicksort(data, 0, len(data))
    elapsed = perf_counter_ns() - start
    if data != sorted(_PERMUTATION):
        raise AssertionError("the reference sort is broken")
    return elapsed


class SpeedReference:
    """Call :meth:`factor` right after each measurement; the reference
    run before it is the one that ended the previous measurement."""

    def __init__(self):
        _reference_ns()  # warm up
        self.previous = _reference_ns()

    def factor(self):
        """The correction for the measurement that just ended."""
        after = _reference_ns()
        factor = 2 * REFERENCE_NS / (self.previous + after)
        self.previous = after
        return factor

    def restart(self):
        """Take a fresh 'before' reading after unmeasured work."""
        self.previous = _reference_ns()
