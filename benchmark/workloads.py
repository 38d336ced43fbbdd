"""The benchmark's workloads and the inputs they sort.

Every input is an int64 list of length N. A workload is a fixed cycle of
input kinds; its pool repeats the cycle ``copies`` times, each shuffled
input with a seed of its own derived from the run's seed, so one seed
gives the same pool on every run. Timed sorts go through the pool in
order, whole pools at a time, so each kind is timed equally often.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass

import pdqsort

N = 65536

ADVERSARY = "adversary"


def lt(a, b):
    """A user relation: every comparison is a Python call."""
    return a < b


def sort_builtin(data):
    pdqsort.sort(data)


def sort_custom(data):
    pdqsort.sort_with(data, lt)


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple
    copies: int
    custom: bool
    alloc_kind: str

    @property
    def ordering(self):
        """The relation the sort sees, as passed to ``instrumented_sort``."""
        return lt if self.custom else operator.lt

    @property
    def sorter(self):
        return sort_custom if self.custom else sort_builtin


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "random_int",
            ("uniform", "uniform"),
            copies=4,
            custom=False,
            alloc_kind="uniform",
        ),
        Workload(
            "dups_int",
            ("dupsq", "mod8"),
            copies=4,
            custom=False,
            alloc_kind="dupsq",
        ),
        Workload(
            "patterns_custom",
            ("asc", "desc", "organ", "merge", "sort90", "sort99", ADVERSARY),
            copies=1,
            custom=True,
            alloc_kind="organ",
        ),
    )
}


def input_seed(seed: int, index: int) -> int:
    """A distinct generator seed for the index-th input of a run."""
    return (seed << 16) + index


def build_pool(workload: Workload, seed: int):
    """Generate the workload's pool.

    Returns ``(pool, generate_s, adversary_s)``: the inputs, and the wall
    time spent in ``datagen.generate`` and in ``adversary_input``.
    """
    pool = []
    generate_s = adversary_s = 0.0
    for index, kind in enumerate(workload.cycle * workload.copies):
        start = time.perf_counter()
        if kind == ADVERSARY:
            pool.append(pdqsort.adversary_input(N))
            adversary_s += time.perf_counter() - start
        else:
            spec = pdqsort.DistributionSpec(kind, N, "int64", input_seed(seed, index))
            pool.append(pdqsort.generate(spec))
            generate_s += time.perf_counter() - start
    return pool, generate_s, adversary_s
