"""Acceptance gates, one test per criterion.

Runs the full-scale criteria (about 30 s on CPython 3.11, pure Python). Each test
prints its criterion's pass/fail line; run with ``-s`` to see them live,
or use ``pdqsort verify`` for the same suite from the CLI.
"""

from pdqsort import acceptance


def _run(number):
    result = acceptance.check(number)
    print(acceptance.format_line(result))
    assert result.passed, result.details
    return result


def _gate(number):
    assert _run(number).gating


def test_criterion_1_correctness_sweep():
    _gate(1)


def test_criterion_2_partition_oracle():
    _gate(2)


def test_criterion_3_linear_in_duplicates():
    _gate(3)


def test_criterion_4_pivot_reuse():
    _gate(4)


def test_criterion_5_linear_patterns():
    _gate(5)


def test_criterion_6_worst_case_gate():
    _gate(6)


def test_criterion_7_depth_bound():
    _gate(7)


def test_criterion_8_entropy_table():
    _gate(8)


def test_criterion_9_bench_determinism():
    _gate(9)


def test_criterion_10_performance_notes():
    # Informative by design: the ratios are recorded, never asserted.
    assert not _run(10).gating
