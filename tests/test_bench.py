import math
import time

import pytest

from pdqsort import DistributionSpec, Metrics
from pdqsort.bench import (
    ALGORITHMS,
    CSV_COLUMNS,
    TIMING_COLUMNS,
    BenchmarkRecord,
    format_text_tables,
    run_benchmark,
    slowdown_table,
)


class TestSlowdownTable:
    def test_cutoff_point(self):
        # H(0.125) = 0.375 + 0.875*log2(8/7), evaluated directly.
        expected = 1.0 / (0.375 + 0.875 * math.log2(8 / 7))
        (_, factor), = slowdown_table([0.125])
        assert factor == pytest.approx(expected)
        assert abs(factor - 1.84) < 0.01

    def test_symmetry(self):
        for p in (0.1, 0.25, 0.4):
            (_, a), (_, b) = slowdown_table([p, 1 - p])
            assert a == pytest.approx(b)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(ValueError):
            slowdown_table([p])


class TestAlgorithms:
    def test_names(self):
        assert set(ALGORITHMS) == {"pdq", "bpdq", "introsort_baseline", "heapsort"}


# The repeat floors: no minimum time, two timed sorts per cell.
FLOORS = {"min_time": 0.0, "min_iterations": 2}


class TestRunBenchmark:
    def test_policy_floor(self):
        specs = [DistributionSpec("asc", 1 << 10, "int64", seed=1)]
        (record,) = run_benchmark(["pdq"], specs, **FLOORS)
        assert record.iterations >= 2
        assert record.total_ns > 0
        assert record.ns_per_nlog2n > 0
        assert record.algo == "pdq"

    def test_unknown_algo_raises(self):
        with pytest.raises(ValueError):
            run_benchmark(["nope"], [DistributionSpec("asc", 8)], **FLOORS)

    def test_reports_the_median_sort(self, monkeypatch):
        # The first of five timed sorts sleeps 50 ms, as one sort slowed by
        # a loaded machine: their mean is at least 10 ms, their median is
        # one of the four fast ones.
        calls = []

        def slow_once(values, lt, metrics):
            if not calls:
                time.sleep(0.05)
            calls.append(None)
            values.sort()

        monkeypatch.setitem(ALGORITHMS, "slow_once", slow_once)
        spec = DistributionSpec("uniform", 64, "int64", seed=1)
        (record,) = run_benchmark(["slow_once"], [spec], min_time=0.0, min_iterations=5)
        assert record.iterations == 5
        assert record.total_ns >= 50_000_000
        assert record.ns_per_nlog2n * 64 * math.log2(64) < 5_000_000

    def test_n_below_two_has_zero_normalization(self):
        (record,) = run_benchmark(["pdq"], [DistributionSpec("asc", 1)], **FLOORS)
        assert record.ns_per_nlog2n == 0.0


def test_timing_columns_subset_of_columns():
    assert set(TIMING_COLUMNS) <= set(CSV_COLUMNS)


def test_text_tables_layout():
    # Gaps are blank cells; of two records for one cell the first is shown;
    # columns come in the order of their first record.
    def record(algo, kind, element_type, n, ns_per_nlog2n):
        return BenchmarkRecord(algo, kind, element_type, n, 1, 1, 1, ns_per_nlog2n, "", Metrics())

    records = [
        record("pdq", "asc", "int64", 64, 1.5),
        record("baseline", "asc", "int64", 256, 2.25),
        record("heapsort", "asc", "int64", 64, 30.125),
        record("pdq", "asc", "int64", 64, 99.0),
        record("pdq", "ones", "str", 16, 0.5),
        record("pdq", "asc", "int64", 16, 4.0),
        record("a_much_longer_algorithm_name", "ones", "str", 8, 7.0),
    ]
    assert format_text_tables(records) == (
        "asc / int64  (ns per n log2 n)\n"
        "           n               pdq          baseline          heapsort\n"
        "          16             4.000                                    \n"
        "          64             1.500                              30.125\n"
        "         256                               2.250                  \n"
        "\n"
        "ones / str  (ns per n log2 n)\n"
        "           n               pdq  a_much_longer_algorithm_name\n"
        "           8                                           7.000\n"
        "          16             0.500                              \n"
    )
