"""Each kernel timed alone, on the ranges the driver hands it.

An untimed sort of each input runs with capturing wrappers in place of
the kernel globals of ``pdqsort.driver``. For every call a wrapper keeps
the range as the driver handed it -- for a partition kernel, after
``choose_pivot`` has placed the pivot -- together with its predecessor
(the sentinel of the unguarded kernels) and the range as the kernel left
it. The calls are then replayed on fresh copies, uninstrumented, and
only the kernel calls sit inside the timed region. Every replay must
leave exactly what the kernel left inside the sort. ``heapsort`` is
timed on a whole input instead, for each input on which the driver fell
back to it.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter_ns

import pdqsort

from layers import LAYERS, wrapped_kernels

CAPTURED = LAYERS["partition"] + LAYERS["small_sorts"][:-1]
KERNELS = CAPTURED + ("heapsort",)
REPEATS = 3


class _Capture:
    def __init__(self):
        self.calls = {name: [] for name in KERNELS}

    def wrap(self, name, kernel):
        calls = self.calls[name]

        def capturing(data, begin, end, *rest):
            lo = max(begin - 1, 0)
            before = data[lo:end]
            result = kernel(data, begin, end, *rest)
            # Replays run uninstrumented: the last argument is the metrics.
            calls.append((before, begin - lo, end - lo, rest[:-1] + (None,), data[lo:end]))
            return result

        return capturing


def _timed(replay, reference):
    """The median of ``REPEATS`` calls of ``replay()``, which returns ns,
    each corrected to reference speed."""
    reference.restart()
    return median(replay() * reference.factor() for _ in range(REPEATS))


def isolated_kernels(inputs, workload, check, reference):
    """``kernel.<name>.isolated_ns_per_elem`` for every kernel the driver
    calls on ``inputs``; 0.0 for the kernels it never calls.

    ``check(ok)`` records one correctness check per replay.
    """
    ns = dict.fromkeys(KERNELS, 0)
    elements = dict.fromkeys(KERNELS, 0)
    for data in inputs:
        capture = _Capture()
        with wrapped_kernels(KERNELS, capture.wrap):
            workload.sorter(list(data))

        for name in CAPTURED:
            calls = capture.calls[name]
            if not calls:
                continue
            kernel = getattr(pdqsort, name)

            def replay():
                buffers = [list(before) for before, *_ in calls]
                start = perf_counter_ns()
                for buf, (_, begin, end, rest, _) in zip(buffers, calls):
                    kernel(buf, begin, end, *rest)
                elapsed = perf_counter_ns() - start
                check(all(buf == call[4] for buf, call in zip(buffers, calls)))
                return elapsed

            ns[name] += _timed(replay, reference)
            elements[name] += sum(end - begin for _, begin, end, _, _ in calls)

        if capture.calls["heapsort"]:

            def replay():
                buf = list(data)
                start = perf_counter_ns()
                pdqsort.heapsort(buf, 0, len(buf), workload.ordering)
                elapsed = perf_counter_ns() - start
                check(buf == sorted(data))
                return elapsed

            ns["heapsort"] += _timed(replay, reference)
            elements["heapsort"] += len(data)

    return {
        f"kernel.{name}.isolated_ns_per_elem": (
            ns[name] / elements[name] if elements[name] else 0.0,
            "ns",
        )
        for name in KERNELS
    }
