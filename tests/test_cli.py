import csv
import io

import pytest

from pdqsort import acceptance
from pdqsort.cli import main

# Pinned: changing the CSV schema is a breaking change for downstream
# consumers and must be deliberate.
GOLDEN_HEADER = (
    "algo,kind,element_type,n,seed,iterations,total_ns,ns_per_nlog2n,input_hash,"
    "comparisons,element_moves,exchanges,partition_right_calls,partition_left_calls,"
    "bad_partitions,heapsort_fallbacks,partial_insertion_attempts,"
    "partial_insertion_aborts,max_depth"
)

FAST = ["--min-time", "0s", "--min-iters", "1"]


def run_bench(tmp_path, extra):
    out = tmp_path / "out.csv"
    rc = main(["bench", "--out", str(out)] + FAST + extra)
    return rc, out


class TestBench:
    def test_golden_header(self, tmp_path):
        rc, out = run_bench(
            tmp_path, ["--algos", "pdq", "--dists", "asc", "--sizes", "64", "--seed", "1"]
        )
        assert rc == 0
        assert out.read_text().splitlines()[0] == GOLDEN_HEADER

    def test_matrix_rows(self, tmp_path):
        rc, out = run_bench(
            tmp_path,
            [
                "--algos",
                "pdq,heapsort",
                "--dists",
                "asc,ones",
                "--sizes",
                "32,64",
                "--types",
                "int64,str",
                "--seed",
                "1",
            ],
        )
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 2 * 2 * 2 * 2
        assert {r["algo"] for r in rows} == {"pdq", "heapsort"}
        assert {r["element_type"] for r in rows} == {"int64", "str"}

    def test_size_range_syntax(self, tmp_path):
        rc, out = run_bench(
            tmp_path,
            ["--algos", "pdq", "--dists", "asc", "--sizes", "16..128:2", "--seed", "1"],
        )
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [int(r["n"]) for r in rows] == [16, 32, 64, 128]

    def test_stdout_and_tables(self, capsys):
        rc = main(
            ["bench", "--algos", "pdq", "--dists", "asc", "--sizes", "64", "--tables"] + FAST
        )
        assert rc == 0
        # The tables go to stderr, so stdout is the CSV alone: one row.
        captured = capsys.readouterr()
        assert captured.out.startswith(GOLDEN_HEADER)
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert [(r["algo"], r["kind"], r["n"]) for r in rows] == [("pdq", "asc", "64")]
        assert "asc / int64" in captured.err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--algos", "quantum"],
            ["--dists", "zipf"],
            ["--types", "int32"],
            ["--sizes", "10..2"],
            ["--sizes", "abc"],
            ["--min-time", "fast"],
            ["--min-iters", "0"],
            ["--algos", ","],
            ["--dists", ""],
            ["--types", " "],
            ["--min-time", "nan"],
            ["--min-time", "inf"],
            ["--min-time", "1e400"],
            ["--min-time=-1s"],
        ],
    )
    def test_usage_errors_exit_1(self, tmp_path, flags, capsys):
        # One small cell, so that a flag taken as valid does not run the
        # default matrix; each case overrides the flag it tests, and the
        # error names it.
        small = ["--dists", "asc", "--sizes", "8"]
        rc = main(["bench", "--out", str(tmp_path / "x.csv")] + small + FAST + flags)
        assert rc == 1
        flag = flags[0].split("=")[0]
        assert f"pdqsort bench: error: argument {flag}: " in capsys.readouterr().err


class TestGen:
    def test_writes_file(self, tmp_path):
        out = tmp_path / "arr.txt"
        rc = main(["gen", "--kind", "mod8", "--n", "10", "--seed", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# mod8 10 int64 3"
        assert len(lines) == 11

    def test_stdout(self, capsys):
        rc = main(["gen", "--kind", "ones", "--n", "3", "--seed", "0"])
        assert rc == 0
        assert capsys.readouterr().out == "# ones 3 int64 0\n1\n1\n1\n"

    def test_unknown_kind_exits_1(self, capsys):
        assert main(["gen", "--kind", "zipf", "--n", "4"]) == 1
        err = capsys.readouterr().err
        assert "pdqsort gen: error: argument --kind: invalid choice: 'zipf'" in err

    def test_unknown_type_exits_1(self, capsys):
        assert main(["gen", "--kind", "ones", "--n", "4", "--type", "int32"]) == 1
        err = capsys.readouterr().err
        assert "pdqsort gen: error: argument --type: invalid choice: 'int32'" in err

    def test_negative_n_exits_1(self, capsys):
        assert main(["gen", "--kind", "ones", "--n", "-3"]) == 1
        assert "pdqsort gen: error: argument --n: must be >= 0" in capsys.readouterr().err

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["gen", "--kind", "uniform", "--n", "50", "--seed", "9", "--out", str(a)])
        main(["gen", "--kind", "uniform", "--n", "50", "--seed", "9", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestSlowdown:
    def test_table(self, capsys):
        rc = main(["slowdown", "--p", "0.05,0.125,0.2,0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert "slowdown" in lines[0]
        assert len(lines) == 5
        assert lines[-1].split() == ["0.5", "1.000000"]

    def test_bad_p_exits_1(self, capsys):
        assert main(["slowdown", "--p", "1.5"]) == 1
        assert "pdqsort slowdown: error: argument --p: " in capsys.readouterr().err

    def test_garbage_p_exits_1(self, capsys):
        for p in ("zero", ",", ""):
            assert main(["slowdown", "--p", p]) == 1, p
            assert "pdqsort slowdown: error: argument --p: " in capsys.readouterr().err, p


class TestVerify:
    def test_quick_suite_passes(self, capsys):
        assert main(["verify", "--quick"]) == 0
        # Criteria 1-9 gate and pass; criterion 10 only reports.
        heads = [line.split(" (")[0] for line in capsys.readouterr().out.splitlines()]
        assert heads == [f"[PASS] criterion {n}" for n in range(1, 10)] + ["[INFO] criterion 10"]

    def test_failure_exits_2(self, capsys, monkeypatch):
        def broken(quick):
            return "measured", ["forced failure", "another"]

        monkeypatch.setattr(acceptance, "CRITERIA", {0: ("synthetic", broken, True)})
        assert main(["verify", "--quick"]) == 2
        assert capsys.readouterr().out == (
            "[FAIL] criterion 0 (synthetic): measured; 2 failures; first: forced failure\n"
        )

    def test_informative_failure_does_not_gate(self, capsys, monkeypatch):
        def note(quick):
            return "recorded only", ["not a gate"]

        monkeypatch.setattr(acceptance, "CRITERIA", {0: ("synthetic", note, False)})
        assert main(["verify", "--quick"]) == 0
        assert capsys.readouterr().out.startswith("[INFO] criterion 0 (synthetic): ")

    def test_each_line_prints_as_its_criterion_finishes(self, capsys, monkeypatch):
        printed = []

        def first(quick):
            return "first measured", []

        def second(quick):
            printed.append(capsys.readouterr().out)
            return "second measured", []

        monkeypatch.setattr(
            acceptance, "CRITERIA", {1: ("first", first, True), 2: ("second", second, True)}
        )
        assert main(["verify", "--quick"]) == 0
        assert printed[0].startswith("[PASS] criterion 1 (first): first measured; ")
        assert printed[0].count("\n") == 1
        assert capsys.readouterr().out.startswith("[PASS] criterion 2 (second): second measured; ")


class TestParsing:
    def test_unknown_command_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_command_exits_1(self, capsys):
        assert main([]) == 1

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
