"""Each gate's failure path: a broken kernel, a weakened configuration or a
stubbed sort must make its criterion fail, never pass or crash.

``tests/test_acceptance.py`` shows that the criteria pass on the library;
these tests show that they can fail, and how they report it.
"""

import ast
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdqsort
from pdqsort import acceptance, cli, driver
from pdqsort.driver import DEFAULT_CONFIG, SortConfig
from pdqsort.instrumentation import Metrics
from pdqsort.partition import NOT_STRICT_WEAK


def _stub_sort(sorts, counters):
    """An ``instrumented_sort`` that sorts ``data`` only if ``sorts`` and
    reports ``counters(n)`` for a list of n elements."""

    def stub(data, lt=operator.lt, config=DEFAULT_CONFIG):
        if sorts:
            data.sort()
        return Metrics(**counters(len(data)))

    return stub


def test_criterion_3_fails_without_partition_left(monkeypatch):
    monkeypatch.setattr(
        acceptance, "KERNEL_CONFIGS", (("noleft", SortConfig(use_partition_left=False)),)
    )
    result = acceptance.check(3, quick=True)
    assert not result.passed
    assert "; first: ones/noleft n=2^10: 20914 > 8n=8192" in result.details


def test_criterion_5_fails_without_partial_insertion(monkeypatch):
    monkeypatch.setattr(
        acceptance, "KERNEL_CONFIGS", (("nopartial", SortConfig(use_partial_insertion=False)),)
    )
    result = acceptance.check(5, quick=True)
    assert not result.passed
    assert "; first: asc/nopartial n=2^10: 7398 > 6n=6144" in result.details


def test_criterion_6_fails_an_unsorted_result(monkeypatch):
    monkeypatch.setattr(acceptance, "instrumented_sort", _stub_sort(False, lambda n: {}))
    result = acceptance.check(6, quick=True)
    assert not result.passed
    assert "; first: adversary/scalar n=2^10 unsorted" in result.details


def test_criterion_6_fails_a_count_past_its_bound(monkeypatch):
    over = lambda n: {"comparisons": math.ceil(20 * n * math.log2(n)) + 1}  # noqa: E731
    monkeypatch.setattr(acceptance, "instrumented_sort", _stub_sort(True, over))
    result = acceptance.check(6, quick=True)
    assert not result.passed
    assert "; first: adversary/scalar n=2^10: " in result.details
    assert "> 20 n log2 n" in result.details


def test_criterion_7_fails_a_depth_past_its_bound(monkeypatch):
    deep = lambda n: {"max_depth": 99}  # noqa: E731
    monkeypatch.setattr(acceptance, "instrumented_sort", _stub_sort(True, deep))
    result = acceptance.check(7, quick=True)
    assert not result.passed
    assert "; first: n=64/scalar: depth 99 > " in result.details


def test_criterion_9_fails_when_one_counter_differs(monkeypatch):
    run_benchmark = cli.run_benchmark
    runs = []

    def second_run_differs(*args, **kwargs):
        records = run_benchmark(*args, **kwargs)
        runs.append(records)
        if len(runs) == 2:
            records[-1].metrics.exchanges += 1
        return records

    monkeypatch.setattr(cli, "run_benchmark", second_run_differs)
    result = acceptance.check(9, quick=True)
    assert len(runs) == 2
    assert not result.passed
    assert result.details == (
        "two runs compared after dropping timing columns; 1 failures; first: runs differ"
    )


def _raising(*args):
    raise ValueError(NOT_STRICT_WEAK)


def test_a_sort_error_in_bench_propagates(monkeypatch):
    # Not a usage error: main lets it through with its traceback.
    monkeypatch.setattr(driver, "partition_left", _raising)
    args = ["bench", "--dists", "dupsq", "--sizes", "256", "--min-time", "0s", "--min-iters", "1"]
    with pytest.raises(ValueError, match=NOT_STRICT_WEAK):
        cli.main(args + ["--out", os.devnull])


def test_criterion_9_fails_when_bench_raises(monkeypatch):
    monkeypatch.setattr(driver, "partition_left", _raising)
    result = acceptance.check(9, quick=True)
    assert not result.passed
    assert result.details.startswith(f"raised ValueError: {NOT_STRICT_WEAK} (at ")


def test_a_criterion_that_raises_fails_verify(monkeypatch, capsys):
    # Criteria 1 and 3 sort through the sort loop's partition_left;
    # criterion 2 calls the kernels itself and still passes.
    monkeypatch.setattr(driver, "partition_left", _raising)
    monkeypatch.setattr(acceptance, "CRITERIA", {n: acceptance.CRITERIA[n] for n in (1, 2, 3)})
    assert cli.main(["verify", "--quick"]) == 2
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert [line[:20] for line in lines] == [
        "[FAIL] criterion 1 (",
        "[PASS] criterion 2 (",
        "[FAIL] criterion 3 (",
    ]
    assert lines[2].startswith(
        f"[FAIL] criterion 3 (O(nk) duplicate handling): raised ValueError: {NOT_STRICT_WEAK} "
        "(at test_gate_failures.py:"
    )
    assert lines[2].endswith(" in _raising)")
    assert err == ""


# Broken kernels for criterion 2, each with the line that it must print.
BROKEN_KERNELS = {
    # partition_right leaves the range as it is and reports the pivot
    # where it started.
    "never_partitions": (
        "acceptance.partition_right = lambda data, begin, end, lt, metrics=None: (0, False)",
        "[FAIL] criterion 2 (exhaustive partition oracle): 1089 arrays; 1089 failures; "
        "first: (0, 0): partition_right: scan count off",
    ),
    # block_partition_right reads one element below its range, which on a
    # plain list wraps around to the last element.
    "reads_below_range": (
        "acceptance.block_partition_right = lambda data, begin, *rest: data[begin - 1]",
        "[FAIL] criterion 2 (exhaustive partition oracle): 1089 arrays; 1089 failures; "
        "first: (0, 0): read out of bounds: -1",
    ),
    # partition_right exchanges two elements and back, then reports the
    # swapless result of the real kernel: it rearranged nothing, but a
    # swapless report must also mean no exchange was made.
    "exchanges_and_reports_no_swaps": (
        "def swapping(data, begin, end, lt, metrics=None):\n"
        "    for _ in range(2):\n"
        "        data[end - 2], data[end - 1] = data[end - 1], data[end - 2]\n"
        "        metrics.exchanges += 1\n"
        "    return partition.partition_right(data, begin, end, lt, metrics)\n"
        "acceptance.partition_right = swapping",
        "[FAIL] criterion 2 (exhaustive partition oracle): 1089 arrays; 597 failures; "
        "first: (0, 0): partition_right: no_swaps despite exchanges",
    ),
    # partition_right partitions, then reports the pivot one place to the
    # right of where it put it.
    "reports_pivot_one_right": (
        "def shifted(data, begin, end, lt, metrics=None):\n"
        "    pivot_index, no_swaps = partition.partition_right(data, begin, end, lt, metrics)\n"
        "    return pivot_index + 1, no_swaps\n"
        "acceptance.partition_right = shifted",
        "[FAIL] criterion 2 (exhaustive partition oracle): 1089 arrays; 1089 failures; "
        "first: (0, 0): partition_right: left partition not strictly below pivot",
    ),
    # partition_right partitions, then adds one to the last element, which
    # keeps the right side above the pivot but changes the multiset.
    "bumps_last_element": (
        "def bumping(data, begin, end, lt, metrics=None):\n"
        "    res = partition.partition_right(data, begin, end, lt, metrics)\n"
        "    data[end - 1] += 1\n"
        "    return res\n"
        "acceptance.partition_right = bumping",
        "[FAIL] criterion 2 (exhaustive partition oracle): 1089 arrays; 1089 failures; "
        "first: (0, 0): partition_right: not a permutation",
    ),
}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
@pytest.mark.parametrize("broken", sorted(BROKEN_KERNELS))
def test_criterion_2_fails_a_broken_kernel(broken, flags):
    # Under -O a check written as an assert is gone; criterion 2 must
    # still report the kernel.
    patch, expected = BROKEN_KERNELS[broken]
    script = "\n".join(
        [
            "from pdqsort import acceptance, partition",
            patch,
            "print(acceptance.format_line(acceptance.check(2, quick=True)))",
        ]
    )
    src = str(Path(pdqsort.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected + "\n"


def test_no_gate_check_is_an_assert():
    # python -O strips asserts, so a gate check written as one would pass
    # whatever it checks.
    tree = ast.parse(Path(acceptance.__file__).read_text(encoding="utf-8"))
    asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert asserts == []
