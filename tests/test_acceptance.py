"""Acceptance gates, one test per criterion.

Runs the full-scale criteria (about 30 s on CPython 3.11, pure Python). Each test
prints its criterion's pass/fail line; run with ``-s`` to see them live,
or use ``pdqsort verify`` for the same suite from the CLI.
"""

from pdqsort import acceptance


def _run(number):
    result = acceptance.check(number)
    print(acceptance.format_line(result))
    return result


def test_criterion_1_correctness_sweep():
    result = _run(1)
    assert result.passed, result.details


def test_criterion_2_partition_oracle():
    result = _run(2)
    assert result.passed, result.details


def test_criterion_3_linear_in_duplicates():
    result = _run(3)
    assert result.passed, result.details


def test_criterion_4_pivot_reuse():
    result = _run(4)
    assert result.passed, result.details


def test_criterion_5_linear_patterns():
    result = _run(5)
    assert result.passed, result.details


def test_criterion_6_worst_case_gate():
    result = _run(6)
    assert result.passed, result.details


def test_criterion_7_depth_bound():
    result = _run(7)
    assert result.passed, result.details


def test_criterion_8_entropy_table():
    result = _run(8)
    assert result.passed, result.details


def test_criterion_9_bench_determinism():
    result = _run(9)
    assert result.passed, result.details


def test_criterion_10_performance_notes():
    # Informative by design: the ratios are recorded, never asserted.
    result = _run(10)
    assert result.passed, result.details
    assert not result.gating
