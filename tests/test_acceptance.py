"""Acceptance gates, one test per criterion.

Runs criteria 1-9 at full scale and the informative criterion 10 at its
quick sizes: 23 s in all on CPython 3.11.7, on a shared 2-core machine.
Each test prints its criterion's pass/fail line; run with ``-s`` to see
them live, or use ``pdqsort verify`` for the same suite from the CLI.
"""

from pdqsort import acceptance


def _run(number, quick=False):
    result = acceptance.check(number, quick)
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
    # Informative by design: the ratios are recorded, never asserted, so
    # the quick sizes serve; `pdqsort verify` times the full ones.
    assert not _run(10, quick=True).gating
