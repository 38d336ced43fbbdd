"""Executable acceptance criteria.

Each criterion function runs one gate of the verification suite at its
stated tolerance and returns a :class:`CriterionResult`; the CLI `verify`
subcommand and the pytest acceptance module both drive these. Criterion
numbers and tolerances are fixed here -- nothing is calibrated at run
time. The performance-expectation criterion is informative (gating=False)
and only records measured ratios.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
import random
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

from . import driver
from .bench import ALGORITHMS, TIMING_COLUMNS, slowdown_table
from .datagen import DISTRIBUTION_KINDS, DistributionSpec, SplitMix64, generate
from .driver import DEFAULT_CONFIG, SortConfig, sort_with
from .instrumentation import Metrics, adversary_input, counting_ordering, instrumented_sort
from .partition import DEFAULT_BLOCK_SIZE, block_partition_right, partition_left, partition_right
from .small_sorts import sort3

TOGGLE_FIELDS = tuple(f.name for f in fields(SortConfig))

# The two partition kernels a gate runs over: the default scalar one and
# the block ablation.
KERNEL_CONFIGS = (
    ("scalar", DEFAULT_CONFIG),
    ("block", replace(DEFAULT_CONFIG, use_block_partition=True)),
)


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


def _toggle_configs():
    out = []
    for bits in itertools.product((False, True), repeat=len(TOGGLE_FIELDS)):
        out.append(replace(DEFAULT_CONFIG, **dict(zip(TOGGLE_FIELDS, bits))))
    return out


def _depth_bound(n: int) -> int:
    if n < 2:
        return 2
    return math.ceil(math.log2(n)) + 2


def criterion_correctness_sweep(quick: bool = False) -> CriterionResult:
    """1: sorted + multiset-equal output on the full distribution matrix
    and seeded random arrays, under every toggle combination."""
    t0 = time.perf_counter()
    sizes = list(range(0, 65)) + ([1000, 4096] if not quick else [256])
    configs = _toggle_configs()
    sorts = 0
    failures = []
    for kind in DISTRIBUTION_KINDS:
        for etype in ("int64", "str"):
            for n in sizes:
                arr = generate(DistributionSpec(kind, n, etype, seed=0xACCE55))
                expected = sorted(arr)
                for cfg in configs:
                    work = list(arr)
                    sort_with(work, operator.lt, cfg)
                    sorts += 1
                    if work != expected:
                        failures.append((kind, etype, n, cfg))
                        break
    rng = random.Random(0x5EED)
    trials = 1000 if not quick else 200
    for t in range(trials):
        n = rng.randint(0, 64)
        arr = [rng.randint(-8, 8) for _ in range(n)]
        expected = sorted(arr)
        for cfg in configs:
            work = list(arr)
            sort_with(work, operator.lt, cfg)
            sorts += 1
            if work != expected:
                failures.append(("random", t, n, cfg))
                break
    dt = time.perf_counter() - t0
    details = f"{sorts} sorts, {len(failures)} failures, {dt:.1f}s"
    if failures:
        details += f"; first: {failures[0]}"
    return CriterionResult(1, "correctness sweep", not failures, True, details)


class _TracingList(list):
    """List whose element accesses must stay in bounds; a negative index
    (silent wraparound on a plain list) fails immediately."""

    def __getitem__(self, idx):
        if isinstance(idx, int):
            assert 0 <= idx < len(self), f"read out of bounds: {idx}"
        return super().__getitem__(idx)

    def __setitem__(self, idx, value):
        if isinstance(idx, int):
            assert 0 <= idx < len(self), f"write out of bounds: {idx}"
        super().__setitem__(idx, value)


def _prepare_pivot(arr):
    # The driver's estimate before its quartile guard: median of (middle,
    # first, last) moved to the front. Two-element ranges have no median
    # of three; ordering the pair is the minimal preparation that leaves
    # a sentinel >= pivot.
    work = list(arr)
    if len(work) == 2:
        if work[1] < work[0]:
            work[0], work[1] = work[1], work[0]
    else:
        sort3(work, len(work) // 2, 0, len(work) - 1, operator.lt)
    return work


def _check_right_contract(arr_before, work, res, pv):
    r = res.pivot_index
    assert work[r] == pv, "pivot value not at reported index"
    assert all(x < pv for x in work[:r]), "left partition not strictly below pivot"
    assert all(x >= pv for x in work[r + 1 :]), "right partition below pivot"
    assert Counter(work) == Counter(arr_before), "not a permutation"


def criterion_partition_oracle(quick: bool = False) -> CriterionResult:
    """2: exhaustive tripartite oracle over all arrays of length 2..7 on
    the alphabet {0,1,2}, for both right kernels and partition_left."""
    t0 = time.perf_counter()
    checked = 0
    max_len = 6 if quick else 7
    for length in range(2, max_len + 1):
        for arr in itertools.product(range(3), repeat=length):
            prepared = _prepare_pivot(arr)
            pv = prepared[0]

            scalar = _TracingList(prepared)
            m_scalar = Metrics()
            res_scalar = partition_right(
                scalar, 0, length, counting_ordering(operator.lt, m_scalar), m_scalar
            )
            _check_right_contract(prepared, scalar, res_scalar, pv)
            assert length - 1 <= m_scalar.comparisons <= length + 1, "scan count off"

            for block in (DEFAULT_BLOCK_SIZE, 2):
                blocked = _TracingList(prepared)
                m_block = Metrics()
                res_block = block_partition_right(
                    blocked, 0, length, counting_ordering(operator.lt, m_block), block, m_block
                )
                _check_right_contract(prepared, blocked, res_block, pv)
                assert m_block.comparisons == length - 1, "block must classify each element once"
                assert res_block.pivot_index == res_scalar.pivot_index
                assert sorted(blocked[: res_block.pivot_index]) == sorted(
                    scalar[: res_scalar.pivot_index]
                ), "left multisets differ"
                assert sorted(blocked[res_block.pivot_index + 1 :]) == sorted(
                    scalar[res_scalar.pivot_index + 1 :]
                ), "right multisets differ"
                # A swapless report must mean the input was untouched apart
                # from pivot placement; undoing it re-partitions for free.
                if res_block.no_swaps:
                    undone = list(blocked)
                    undone[0], undone[res_block.pivot_index] = (
                        undone[res_block.pivot_index],
                        undone[0],
                    )
                    assert undone == prepared, "no_swaps despite rearrangement"
            if res_scalar.no_swaps:
                undone = list(scalar)
                undone[0], undone[res_scalar.pivot_index] = undone[res_scalar.pivot_index], undone[0]
                assert undone == prepared, "no_swaps despite rearrangement"
                m2 = Metrics()
                rerun = list(undone)
                partition_right(rerun, 0, length, operator.lt, m2)
                assert m2.exchanges == 0, "re-partition of a swapless input exchanged elements"

            if arr[0] == min(arr):
                left = _TracingList(arr)
                res_left = partition_left(left, 0, length, operator.lt)
                r = res_left.pivot_index
                lo = min(arr)
                assert all(x == lo for x in left[: r + 1]), "left partition not all equal"
                assert all(x > lo for x in left[r + 1 :]), "right partition not above pivot"
                assert Counter(left) == Counter(arr)
                assert not res_left.no_swaps
            checked += 1
    dt = time.perf_counter() - t0
    return CriterionResult(
        2, "exhaustive partition oracle", True, True, f"{checked} arrays, {dt:.1f}s"
    )


def criterion_linear_duplicates(quick: bool = False) -> CriterionResult:
    """3: with k distinct values fixed, comparison counts grow linearly;
    all-equal input stays under 8n comparisons."""
    t0 = time.perf_counter()
    exps = range(14, 20) if not quick else range(10, 15)
    problems = []
    detail_parts = []
    for (label, cfg), kind in itertools.product(KERNEL_CONFIGS, ("mod8", "ones")):
        counts = {}
        for e in exps:
            n = 2**e
            arr = generate(DistributionSpec(kind, n, "int64", seed=3))
            m = instrumented_sort(arr, config=cfg)
            if arr != sorted(arr):
                problems.append(f"{kind}/{label} n=2^{e} unsorted")
            counts[n] = m.comparisons
            if kind == "ones" and m.comparisons > 8 * n:
                problems.append(f"ones/{label} n=2^{e}: {m.comparisons} > 8n")
        ratios = [counts[2 ** (e + 1)] / counts[2**e] for e in list(exps)[:-1]]
        for e, r in zip(exps, ratios):
            if not 1.8 <= r <= 2.4:
                problems.append(f"{kind}/{label} ratio 2^{e + 1}/2^{e} = {r:.3f}")
        detail_parts.append(f"{kind}/{label} ratios {['%.2f' % r for r in ratios]}")
    dt = time.perf_counter() - t0
    details = "; ".join(detail_parts) + f"; {dt:.1f}s"
    if problems:
        details = "; ".join(problems)
    return CriterionResult(3, "O(nk) duplicate handling", not problems, True, details)


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


def criterion_pivot_reuse(quick: bool = False) -> CriterionResult:
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
                violations.append(f"trial {t}/{label}: unsorted")
    details = f"{trials} trials on each kernel, {len(violations)} violations"
    if violations:
        details += f"; first: {violations[0]}"
    return CriterionResult(4, "pivot reuse bound", not violations, True, details)


def _appended_value(n: int) -> int:
    return SplitMix64(n).below(n)


def criterion_linear_patterns(quick: bool = False) -> CriterionResult:
    """5: ascending, descending, and ascending-plus-one-appended inputs
    sort in at most 6n comparisons, scaling linearly."""
    t0 = time.perf_counter()
    exps = range(10, 21) if not quick else range(10, 15)
    cases = {
        "asc": lambda n: list(range(n)),
        "desc": lambda n: list(range(n - 1, -1, -1)),
        "asc_appended": lambda n: list(range(n - 1)) + [_appended_value(n)],
    }
    problems = []
    detail_parts = []
    for (label, cfg), (name, build) in itertools.product(KERNEL_CONFIGS, cases.items()):
        counts = {}
        for e in exps:
            n = 2**e
            arr = build(n)
            m = instrumented_sort(arr, config=cfg)
            if arr != sorted(arr):
                problems.append(f"{name}/{label} n=2^{e} unsorted")
            counts[n] = m.comparisons
            if m.comparisons > 6 * n:
                problems.append(f"{name}/{label} n=2^{e}: {m.comparisons} > 6n={6 * n}")
        ratios = [counts[2 ** (e + 1)] / counts[2**e] for e in list(exps)[:-1]]
        for e, r in zip(exps, ratios):
            if r > 2.4:
                problems.append(f"{name}/{label} ratio 2^{e + 1}/2^{e} = {r:.3f}")
        detail_parts.append(f"{name}/{label} max c/n {max(counts[n] / n for n in counts):.2f}")
    dt = time.perf_counter() - t0
    details = "; ".join(detail_parts) + f"; {dt:.1f}s"
    if problems:
        details = "; ".join(problems[:4])
    return CriterionResult(5, "linear pattern cases", not problems, True, details)


def criterion_worst_case(quick: bool = False) -> CriterionResult:
    """6: adversary, organ and merge inputs stay within 20 n log2 n
    comparisons and sort correctly."""
    t0 = time.perf_counter()
    exps = (10, 14, 18) if not quick else (10, 12)
    problems = []
    worst_ratio = 0.0
    for e in exps:
        n = 2**e
        bound = 20 * n * math.log2(n)
        adv = adversary_input(n)
        if sorted(adv) != list(range(n)):
            problems.append(f"adversary n=2^{e} not a permutation")
        for label, cfg in KERNEL_CONFIGS:
            work = list(adv)
            m = instrumented_sort(work, config=cfg)
            worst_ratio = max(worst_ratio, m.comparisons / (n * math.log2(n)))
            if work != list(range(n)):
                problems.append(f"adversary/{label} n=2^{e} unsorted")
            if m.comparisons > bound:
                problems.append(f"adversary/{label} n=2^{e}: {m.comparisons} > 20 n log2 n")
        for (label, cfg), kind in itertools.product(KERNEL_CONFIGS, ("organ", "merge")):
            arr = generate(DistributionSpec(kind, n, "int64", seed=11))
            m = instrumented_sort(arr, config=cfg)
            worst_ratio = max(worst_ratio, m.comparisons / (n * math.log2(n)))
            if arr != sorted(arr):
                problems.append(f"{kind}/{label} n=2^{e} unsorted")
            if m.comparisons > bound:
                problems.append(f"{kind}/{label} n=2^{e}: {m.comparisons} > 20 n log2 n")
    dt = time.perf_counter() - t0
    details = f"worst comparisons/(n log2 n) = {worst_ratio:.2f} (gate 20); {dt:.1f}s"
    if problems:
        details = "; ".join(problems[:4])
    return CriterionResult(6, "worst-case comparison gate", not problems, True, details)


def criterion_depth_bound(quick: bool = False) -> CriterionResult:
    """7: max recursion depth <= ceil(log2 n) + 2 on every tested input."""
    sizes = (64, 1000, 4096) if quick else (64, 1000, 4096, 1 << 14)
    problems = []
    tested = 0

    def check(n, arr):
        nonlocal tested
        for label, cfg in KERNEL_CONFIGS:
            m = instrumented_sort(list(arr), config=cfg)
            tested += 1
            if m.max_depth > _depth_bound(n):
                problems.append(f"n={n}/{label}: depth {m.max_depth} > {_depth_bound(n)}")

    for kind in DISTRIBUTION_KINDS:
        for n in sizes:
            check(n, generate(DistributionSpec(kind, n, "int64", seed=21)))
    n_adv = 1 << 12
    check(n_adv, adversary_input(n_adv))
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(0, 2000)
        check(n, [rng.randrange(max(1, n // 3 + 1)) for _ in range(n)])
    details = f"{tested} inputs, {len(problems)} violations"
    if problems:
        details += f"; first: {problems[0]}"
    return CriterionResult(7, "recursion depth bound", not problems, True, details)


def criterion_entropy_table(quick: bool = False) -> CriterionResult:
    """8: slowdown table values at p = 0.5 / 0.2 / 0.125."""
    rows = dict(slowdown_table([0.5, 0.2, 0.125]))
    problems = []
    if rows[0.5] != 1.0:
        problems.append(f"slowdown(0.5) = {rows[0.5]!r} != 1.0")
    if abs(rows[0.2] - 1.386) > 0.005:
        problems.append(f"slowdown(0.2) = {rows[0.2]:.4f} not within 1.386±0.005")
    if abs(rows[0.125] - 1.84) > 0.01:
        problems.append(f"slowdown(0.125) = {rows[0.125]:.4f} not within 1.84±0.01")
    details = (
        f"slowdown(0.5)={rows[0.5]:.3f}, slowdown(0.2)={rows[0.2]:.4f}, "
        f"slowdown(0.125)={rows[0.125]:.4f}"
    )
    if problems:
        details = "; ".join(problems)
    return CriterionResult(8, "entropy slowdown table", not problems, True, details)


def _strip_timing(csv_text: str) -> str:
    rows = list(csv.reader(io.StringIO(csv_text)))
    header = rows[0]
    keep = [i for i, name in enumerate(header) if name not in TIMING_COLUMNS]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        writer.writerow([row[i] for i in keep])
    return out.getvalue()


def criterion_bench_determinism(quick: bool = False) -> CriterionResult:
    """9: two identical bench invocations agree byte-for-byte once the
    timing columns are dropped."""
    import tempfile
    from pathlib import Path

    from .cli import main

    args = [
        "bench",
        "--algos",
        "pdq,bpdq,baseline,heapsort",
        "--dists",
        "asc,ones,uniform",
        "--sizes",
        "256",
        "--types",
        "int64,str",
        "--seed",
        "7",
        "--min-time",
        "0.01s",
        "--min-iters",
        "2",
    ]
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for run in range(2):
            path = Path(tmp) / f"run{run}.csv"
            rc = main(args + ["--out", str(path)])
            if rc != 0:
                return CriterionResult(
                    9, "bench determinism", False, True, f"bench exited with {rc}"
                )
            outputs.append(_strip_timing(path.read_text()))
    ok = outputs[0] == outputs[1]
    details = "two runs byte-identical after dropping timing columns" if ok else "runs differ"
    return CriterionResult(9, "bench determinism", ok, True, details)


def criterion_performance_notes(quick: bool = False) -> CriterionResult:
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
    details = (
        f"uniform-int64 n=2^{n.bit_length() - 1}, median of {rounds} rounds: block/scalar "
        f"speedup {statistics.median(block_speedups):.2f}x (compiled builds expect >= 1.2x; "
        f"interpreted execution hides branch effects), pdq vs baseline "
        f"{statistics.median(baseline_ratios):.2f}x (expect <= 1.1x)"
    )
    return CriterionResult(10, "performance expectations (informative)", True, False, details)


CRITERIA = (
    criterion_correctness_sweep,
    criterion_partition_oracle,
    criterion_linear_duplicates,
    criterion_pivot_reuse,
    criterion_linear_patterns,
    criterion_worst_case,
    criterion_depth_bound,
    criterion_entropy_table,
    criterion_bench_determinism,
    criterion_performance_notes,
)


def run_all(quick: bool = False) -> list:
    return [criterion(quick) for criterion in CRITERIA]
