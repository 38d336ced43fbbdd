"""Executable acceptance criteria.

Each ``criterion_*`` runs one gate at its stated tolerance and returns
``(summary, problems)``: what it measured and the checks that failed.
:func:`check` runs one criterion of the :data:`CRITERIA` registry, times
it and words its :class:`CriterionResult`: ``<summary>; <time>`` when it
passes, ``<summary>; <k> failures; first: <problem>`` when it fails. A
criterion that raises fails too. `pdqsort verify` calls ``check(n)`` for
each criterion in turn and prints each line as its criterion finishes.
Tolerances are fixed here -- nothing is calibrated at run time.
Criterion 10 is informative and only records measured ratios.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import random
import statistics
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace

from . import driver
from .bench import ALGORITHMS, TIMING_COLUMNS, run_benchmark, slowdown_table
from .datagen import DISTRIBUTION_KINDS, DistributionSpec, SplitMix64, generate
from .driver import BLOCK_CONFIG, DEFAULT_CONFIG, TOGGLE_CONFIGS, sort_with
from .instrumentation import Metrics, adversary_input, counting_ordering, instrumented_sort
from .partition import DEFAULT_BLOCK_SIZE, block_partition_right, partition_left, partition_right

# The two partition kernels a gate runs over: the default scalar one and
# the block ablation.
KERNEL_CONFIGS = (("scalar", DEFAULT_CONFIG), ("block", BLOCK_CONFIG))


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    gating: bool
    details: str


def format_line(res: CriterionResult) -> str:
    status = ("PASS" if res.passed else "FAIL") if res.gating else "INFO"
    return f"[{status}] criterion {res.number} ({res.name}): {res.details}"


def _depth_bound(n: int) -> int:
    if n < 2:
        return 2
    return math.ceil(math.log2(n)) + 2


def criterion_correctness_sweep(quick: bool = False):
    """1: sorted + multiset-equal output on the full distribution matrix
    and seeded random arrays, under every toggle combination."""
    sizes = list(range(0, 65)) + ([1000, 4096] if not quick else [256])

    def inputs():
        # (key, array): the distribution matrix, then seeded random arrays.
        for kind, etype, n in itertools.product(DISTRIBUTION_KINDS, ("int64", "str"), sizes):
            yield (kind, etype, n), generate(DistributionSpec(kind, n, etype, seed=0xACCE55))
        rng = random.Random(0x5EED)
        for t in range(1000 if not quick else 200):
            n = rng.randint(0, 64)
            yield ("random", t, n), [rng.randint(-8, 8) for _ in range(n)]

    sorts = 0
    failures = []
    for key, arr in inputs():
        expected = sorted(arr)
        for cfg in TOGGLE_CONFIGS:
            work = list(arr)
            sort_with(work, operator.lt, cfg)
            sorts += 1
            if work != expected:
                failures.append((*key, cfg))
                break
    return f"{sorts} sorts", failures


class _TracingList(list):
    """List whose element accesses must stay in ``[lo, hi)``, by default
    the whole list; any other index raises IndexError, a negative one too
    (silent wraparound on a plain list)."""

    def __init__(self, items, lo=0, hi=None):
        super().__init__(items)
        self.lo = lo
        self.hi = len(self) if hi is None else hi

    def __getitem__(self, idx):
        if isinstance(idx, int) and not self.lo <= idx < self.hi:
            raise IndexError(f"read out of bounds: {idx}")
        return super().__getitem__(idx)

    def __setitem__(self, idx, value):
        if isinstance(idx, int) and not self.lo <= idx < self.hi:
            raise IndexError(f"write out of bounds: {idx}")
        super().__setitem__(idx, value)


def _prepare_pivot(arr):
    # The driver's estimate without its quartile guard: median of (middle,
    # first, last) moved to the front. Two-element ranges have no median
    # of three; ordering the pair is the minimal preparation that leaves
    # a sentinel >= pivot.
    work = list(arr)
    if len(work) == 2:
        if work[1] < work[0]:
            work[0], work[1] = work[1], work[0]
    else:
        driver.choose_pivot(work, 0, len(work), operator.lt, False)
    return work


def _first_failed(*checks):
    """The message of the first ``(passed, message)`` check that failed."""
    return next((message for passed, message in checks if not passed), None)


def _right_contract_problem(before, work, res):
    """How a right kernel's output ``work`` breaks its contract, or None."""
    r, no_swaps = res
    pv = before[0]
    # A swapless report must mean the input was untouched apart from pivot
    # placement; undoing it re-partitions for free.
    undone = list(work)
    undone[0], undone[r] = work[r], work[0]
    return _first_failed(
        (work[r] == pv, "pivot value not at reported index"),
        (all(x < pv for x in work[:r]), "left partition not strictly below pivot"),
        (all(x >= pv for x in work[r + 1 :]), "right partition below pivot"),
        (Counter(work) == Counter(before), "not a permutation"),
        (undone == before or not no_swaps, "no_swaps despite rearrangement"),
    )


def _oracle_problem(arr):
    """The first check that a partition kernel fails on ``arr``, or None.

    Each right kernel is held to the whole contract, which fixes the pivot
    index and each side's multiset: the block kernel's result then agrees
    with the scalar kernel's without comparing the two."""
    length = len(arr)
    prepared = _prepare_pivot(arr)
    scalar = _TracingList(prepared)
    m = Metrics()
    res = partition_right(scalar, 0, length, counting_ordering(operator.lt, m), m)
    problem = _right_contract_problem(prepared, scalar, res) or _first_failed(
        (length - 1 <= m.comparisons <= length + 1, "scan count off"),
        (m.exchanges == 0 or not res[1], "no_swaps despite exchanges"),
    )
    if problem:
        return f"partition_right: {problem}"
    for block in (DEFAULT_BLOCK_SIZE, 2):
        blocked = _TracingList(prepared)
        m = Metrics()
        res = block_partition_right(blocked, 0, length, counting_ordering(operator.lt, m), block, m)
        problem = _right_contract_problem(prepared, blocked, res) or _first_failed(
            (m.comparisons == length - 1, "must classify each element once"),
        )
        if problem:
            return f"block_partition_right (block {block}): {problem}"
    lo = min(arr)
    if arr[0] == lo:
        left = _TracingList(arr)
        r, no_swaps = partition_left(left, 0, length, operator.lt)
        problem = _first_failed(
            (all(x == lo for x in left[: r + 1]), "left partition not all equal"),
            (all(x > lo for x in left[r + 1 :]), "right partition not above pivot"),
            (Counter(left) == Counter(arr), "not a permutation"),
            (not no_swaps, "reported no_swaps"),
        )
        if problem:
            return f"partition_left: {problem}"
    return None


def criterion_partition_oracle(quick: bool = False):
    """2: exhaustive tripartite oracle over all arrays of length 2..7 on
    the alphabet {0,1,2}, for both right kernels and partition_left."""
    checked = 0
    problems = []
    max_len = 6 if quick else 7
    for length in range(2, max_len + 1):
        for arr in itertools.product(range(3), repeat=length):
            try:
                problem = _oracle_problem(arr)
            except IndexError as exc:  # _TracingList's fence
                problem = str(exc)
            if problem:
                problems.append(f"{arr}: {problem}")
            checked += 1
    return f"{checked} arrays", problems


def _doubling(name, build, cfg, exps, per_n, min_ratio, problems):
    """Sort ``build(n)`` under ``cfg`` for each n = 2^e in ``exps``. Appends
    to ``problems`` a result other than the sorted input, a count above
    ``per_n`` * n (if given) and a ratio of successive counts outside
    [``min_ratio``, 2.4]. Returns the counts and the ratios."""
    counts = []
    for e in exps:
        n = 2**e
        arr = build(n)
        expected = sorted(arr)
        m = instrumented_sort(arr, config=cfg)
        if arr != expected:
            problems.append(f"{name} n=2^{e} unsorted or not a permutation")
        if per_n is not None and m.comparisons > per_n * n:
            problems.append(f"{name} n=2^{e}: {m.comparisons} > {per_n}n={per_n * n}")
        counts.append(m.comparisons)
    ratios = [b / a for a, b in zip(counts, counts[1:])]
    for e, r in zip(exps, ratios):
        if not min_ratio <= r <= 2.4:
            problems.append(f"{name} ratio 2^{e + 1}/2^{e} = {r:.3f}")
    return counts, ratios


def criterion_linear_duplicates(quick: bool = False):
    """3: with k distinct values fixed, comparison counts grow linearly;
    all-equal input stays under 8n comparisons."""
    exps = range(14, 20) if not quick else range(10, 15)
    problems = []
    detail_parts = []
    for (label, cfg), kind in itertools.product(KERNEL_CONFIGS, ("mod8", "ones")):
        def build(n):
            return generate(DistributionSpec(kind, n, "int64", seed=3))

        per_n = 8 if kind == "ones" else None
        _, ratios = _doubling(f"{kind}/{label}", build, cfg, exps, per_n, 1.8, problems)
        detail_parts.append(f"{kind}/{label} ratios {['%.2f' % r for r in ratios]}")
    return "; ".join(detail_parts), problems


@contextmanager
def _recording_pivots():
    """Record, as the sort loop runs, the pivot that each call of
    ``driver.choose_pivot`` leaves at ``data[begin]``; yields the list of
    values, in the order picked."""
    choose_pivot = driver.choose_pivot
    picks = []

    def recorded(data, begin, *rest):
        choose_pivot(data, begin, *rest)
        picks.append(data[begin])

    driver.choose_pivot = recorded
    try:
        yield picks
    finally:
        driver.choose_pivot = choose_pivot


def criterion_pivot_reuse(quick: bool = False):
    """4: over seeded trials with k <= 8 distinct values, no value is
    chosen as pivot more than twice (heapsort subtrees make no pivots)."""
    rng = random.Random(0x1E44)
    trials = 200 if not quick else 50
    violations = []
    for t in range(trials):
        n = rng.randint(1, 512)
        k = rng.randint(1, 8)
        arr = [rng.randrange(k) for _ in range(n)]
        for label, cfg in KERNEL_CONFIGS:
            work = list(arr)
            with _recording_pivots() as picks:
                m = instrumented_sort(work, config=cfg)
            worst = max(Counter(picks).values(), default=0)
            if worst > 2:
                violations.append(f"trial {t}/{label}: value picked {worst} times")
            partitions = m.partition_right_calls + m.partition_left_calls
            if partitions > 2 * k + m.heapsort_fallbacks:
                violations.append(f"trial {t}/{label}: {partitions} partitions for k={k}")
            if work != sorted(arr):
                violations.append(f"trial {t}/{label}: unsorted or not a permutation")
    return f"{trials} trials on each kernel", violations


def _appended_value(n: int) -> int:
    return SplitMix64(n).below(n)


def criterion_linear_patterns(quick: bool = False):
    """5: ascending, descending, and ascending-plus-one-appended inputs
    sort in at most 6n comparisons, scaling linearly."""
    exps = range(10, 21) if not quick else range(10, 15)
    cases = {
        "asc": lambda n: list(range(n)),
        "desc": lambda n: list(range(n - 1, -1, -1)),
        "asc_appended": lambda n: list(range(n - 1)) + [_appended_value(n)],
    }
    problems = []
    detail_parts = []
    for (label, cfg), (name, build) in itertools.product(KERNEL_CONFIGS, cases.items()):
        counts, _ = _doubling(f"{name}/{label}", build, cfg, exps, 6, 0.0, problems)
        max_per_n = max(c / 2**e for e, c in zip(exps, counts))
        detail_parts.append(f"{name}/{label} max c/n {max_per_n:.2f}")
    return "; ".join(detail_parts), problems


def criterion_worst_case(quick: bool = False):
    """6: adversary, organ and merge inputs stay within 20 n log2 n
    comparisons and sort correctly."""
    exps = (10, 14, 18) if not quick else (10, 12)
    problems = []
    worst_ratio = 0.0
    for e in exps:
        n = 2**e
        adv = adversary_input(n)
        if sorted(adv) != list(range(n)):
            problems.append(f"adversary n=2^{e} not a permutation")
        inputs = {"adversary": adv}
        for kind in ("organ", "merge"):
            inputs[kind] = generate(DistributionSpec(kind, n, "int64", seed=11))
        for (name, arr), (label, cfg) in itertools.product(inputs.items(), KERNEL_CONFIGS):
            work = list(arr)
            m = instrumented_sort(work, config=cfg)
            worst_ratio = max(worst_ratio, m.comparisons / (n * math.log2(n)))
            if work != sorted(arr):
                problems.append(f"{name}/{label} n=2^{e} unsorted or not a permutation")
            if m.comparisons > 20 * n * math.log2(n):
                problems.append(f"{name}/{label} n=2^{e}: {m.comparisons} > 20 n log2 n")
    return f"worst comparisons/(n log2 n) = {worst_ratio:.2f} (gate 20)", problems


def criterion_depth_bound(quick: bool = False):
    """7: max recursion depth <= ceil(log2 n) + 2 on every tested input."""
    sizes = (64, 1000, 4096) if quick else (64, 1000, 4096, 1 << 14)
    problems = []
    tested = 0

    def measure(n, arr):
        nonlocal tested
        for label, cfg in KERNEL_CONFIGS:
            m = instrumented_sort(list(arr), config=cfg)
            tested += 1
            if m.max_depth > _depth_bound(n):
                problems.append(f"n={n}/{label}: depth {m.max_depth} > {_depth_bound(n)}")

    for kind in DISTRIBUTION_KINDS:
        for n in sizes:
            measure(n, generate(DistributionSpec(kind, n, "int64", seed=21)))
    n_adv = 1 << 12
    measure(n_adv, adversary_input(n_adv))
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(0, 2000)
        measure(n, [rng.randrange(max(1, n // 3 + 1)) for _ in range(n)])
    return f"{tested} inputs", problems


def criterion_entropy_table(quick: bool = False):
    """8: slowdown table values at p = 0.5 / 0.2 / 0.125."""
    rows = dict(slowdown_table([0.5, 0.2, 0.125]))
    problems = []
    if rows[0.5] != 1.0:
        problems.append(f"slowdown(0.5) = {rows[0.5]!r} != 1.0")
    if abs(rows[0.2] - 1.386) > 0.005:
        problems.append(f"slowdown(0.2) = {rows[0.2]:.4f} not within 1.386±0.005")
    if abs(rows[0.125] - 1.84) > 0.01:
        problems.append(f"slowdown(0.125) = {rows[0.125]:.4f} not within 1.84±0.01")
    summary = (
        f"slowdown(0.5)={rows[0.5]:.3f}, slowdown(0.2)={rows[0.2]:.4f}, "
        f"slowdown(0.125)={rows[0.125]:.4f}"
    )
    return summary, problems


def criterion_bench_determinism(quick: bool = False):
    """9: two identical in-process bench runs agree in every record once
    the timing columns are set to 0."""
    specs = [
        DistributionSpec(kind, 256, etype, seed=7)
        for etype in ("int64", "str")
        for kind in ("asc", "ones", "uniform")
    ]
    untimed = dict.fromkeys(TIMING_COLUMNS, 0)
    runs = [
        [replace(r, **untimed) for r in run_benchmark(list(ALGORITHMS), specs, 0.01, 2)]
        for _ in range(2)
    ]
    same = runs[0] == runs[1]
    return "two runs compared after dropping timing columns", [] if same else ["runs differ"]


def criterion_performance_notes(quick: bool = False):
    """10: informative timing expectations, recorded but never asserted.

    Single runs of one algorithm vary by about 10 %, so each ratio is the
    median over rounds that time pdq, the baseline and bpdq in turn.
    """
    n = 1 << 18 if not quick else 1 << 14
    rounds = 5
    original = generate(DistributionSpec("uniform", n, "int64", seed=99))

    def timed(algo):
        values = original.copy()
        t0 = time.perf_counter()
        ALGORITHMS[algo](values, operator.lt, None)
        return time.perf_counter() - t0

    block_speedups = []
    baseline_ratios = []
    for _ in range(rounds):
        t_pdq, t_base, t_bpdq = (timed(algo) for algo in ("pdq", "introsort_baseline", "bpdq"))
        block_speedups.append(t_pdq / t_bpdq)
        baseline_ratios.append(t_pdq / t_base)

    def spread(ratios):
        return f"{statistics.median(ratios):.2f}x [{min(ratios):.2f}-{max(ratios):.2f}]"

    summary = (
        f"uniform-int64 n=2^{n.bit_length() - 1}, median [range] of {rounds} rounds: "
        f"block/scalar speedup {spread(block_speedups)} (compiled builds expect >= 1.2x; "
        f"interpreted execution hides branch effects), pdq vs baseline "
        f"{spread(baseline_ratios)} (expect <= 1.1x)"
    )
    return summary, []


# number: (name, criterion, gating). Criterion 10 only records figures.
CRITERIA = {
    1: ("correctness sweep", criterion_correctness_sweep, True),
    2: ("exhaustive partition oracle", criterion_partition_oracle, True),
    3: ("O(nk) duplicate handling", criterion_linear_duplicates, True),
    4: ("pivot reuse bound", criterion_pivot_reuse, True),
    5: ("linear pattern cases", criterion_linear_patterns, True),
    6: ("worst-case comparison gate", criterion_worst_case, True),
    7: ("recursion depth bound", criterion_depth_bound, True),
    8: ("entropy slowdown table", criterion_entropy_table, True),
    9: ("bench determinism", criterion_bench_determinism, True),
    10: ("performance expectations (informative)", criterion_performance_notes, False),
}


def check(number: int, quick: bool = False) -> CriterionResult:
    """Criterion ``number``'s result. One that raises fails, informative
    or not, naming the exception and the line that raised it."""
    name, criterion, gating = CRITERIA[number]
    t0 = time.perf_counter()
    try:
        summary, problems = criterion(quick)
    except Exception as exc:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        details = (
            f"raised {type(exc).__name__}: {exc} "
            f"(at {os.path.basename(where.filename)}:{where.lineno} in {where.name})"
        )
        return CriterionResult(number, name, False, True, details)
    if problems:
        details = f"{summary}; {len(problems)} failures; first: {problems[0]}"
    else:
        details = f"{summary}; {time.perf_counter() - t0:.1f}s"
    return CriterionResult(number, name, not problems, gating, details)
