"""Acceptance gates, one test per criterion.

Runs the full-scale criteria (several minutes, pure Python). Each test
prints its criterion's pass/fail line; run with ``-s`` to see them live,
or use ``pdqsort verify`` for the same suite from the CLI.
"""

from pdqsort import acceptance


def _run(criterion):
    result = criterion(quick=False)
    print(acceptance.format_line(result))
    return result


def test_criterion_1_correctness_sweep():
    result = _run(acceptance.criterion_correctness_sweep)
    assert result.passed, result.details


def test_criterion_2_partition_oracle():
    result = _run(acceptance.criterion_partition_oracle)
    assert result.passed, result.details


def test_criterion_3_linear_in_duplicates():
    result = _run(acceptance.criterion_linear_duplicates)
    assert result.passed, result.details


def test_criterion_4_pivot_reuse():
    result = _run(acceptance.criterion_pivot_reuse)
    assert result.passed, result.details


def test_criterion_5_linear_patterns():
    result = _run(acceptance.criterion_linear_patterns)
    assert result.passed, result.details


def test_criterion_6_worst_case_gate():
    result = _run(acceptance.criterion_worst_case)
    assert result.passed, result.details


def test_criterion_7_depth_bound():
    result = _run(acceptance.criterion_depth_bound)
    assert result.passed, result.details


def test_criterion_8_entropy_table():
    result = _run(acceptance.criterion_entropy_table)
    assert result.passed, result.details


def test_criterion_9_bench_determinism():
    result = _run(acceptance.criterion_bench_determinism)
    assert result.passed, result.details


def test_criterion_10_performance_notes():
    # Informative by design: the ratios are recorded, never asserted.
    result = _run(acceptance.criterion_performance_notes)
    assert not result.gating
    assert result.details
