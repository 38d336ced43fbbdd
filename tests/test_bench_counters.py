"""The bench counter columns against a committed golden file.

``data/bench_counters.csv`` is the output of

    pdqsort bench --algos pdq,bpdq,introsort_baseline,heapsort --sizes 256,4096 \
        --types int64,str --seed 7 --min-time 0s --min-iters 1

with the timing columns stripped: 192 rows over every distribution. A
refactor that claims to leave the sort unchanged must leave every
comparison, move, exchange and call count of every row as it is. A change
that moves the counters on purpose regenerates the file with the same
command and says why.
"""

from pathlib import Path

from pdqsort.bench import counter_rows
from pdqsort.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "bench_counters.csv"

ARGS = [
    "bench",
    "--algos",
    "pdq,bpdq,introsort_baseline,heapsort",
    "--sizes",
    "256,4096",
    "--types",
    "int64,str",
    "--seed",
    "7",
    "--min-time",
    "0s",
    "--min-iters",
    "1",
]


def test_counter_columns_match_golden(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(ARGS + ["--out", str(out)]) == 0
    expected = counter_rows(GOLDEN)
    actual = counter_rows(out)
    assert len(actual) == len(expected) == 192
    for want, got in zip(expected, actual):
        assert got == want, (want["algo"], want["kind"], want["element_type"], want["n"])
