"""Command-line interface.

Subcommands:
  bench     run the algorithm x distribution matrix, emit CSV (+ tables)
  gen       write one generated input array to a file or stdout
  slowdown  print the 1/H(p) slowdown table for given split fractions
  verify    run the acceptance suite, one line per criterion

Exit codes: 0 success, 1 usage error, 2 verification failure. argparse
parses and checks every flag, so each usage error reads `pdqsort
<command>: error: argument <flag>: ...`, and it calls the handler that
the subcommand's parser sets as `run`. Any error raised after parsing,
such as an ordering that a sort in `bench` finds inconsistent, propagates
with its traceback (and Python's exit code 1).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

from . import acceptance
from .bench import ALGORITHMS, CSV_COLUMNS, format_text_tables, run_benchmark, slowdown_table
from .datagen import DISTRIBUTION_KINDS, ELEMENT_TYPES, DistributionSpec, generate, write_array

DEFAULT_SIZES = "1024..1048576:4"
DEFAULT_SEED = 0xDE5C


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the interface reserves 2 for
    # verification failures, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _checked(parse, *args):
    """argparse ``type=`` for ``parse(text, *args)``: a ValueError from it
    is a usage error, which ``_Parser.error`` reports against the flag."""

    def convert(text: str):
        try:
            return parse(text, *args)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _parse_list(text: str, choices=None) -> list:
    """Comma list of names, each one of ``choices`` if given."""
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise ValueError(f"empty list: {text!r}")
    for part in parts:
        if choices is not None and part not in choices:
            raise ValueError(f"unknown name: {part!r} (choose from {', '.join(choices)})")
    return parts


def _parse_int(text: str, low: int) -> int:
    """An int, ``low`` or more."""
    value = int(text)
    if value < low:
        raise ValueError(f"must be >= {low}, got {value}")
    return value


def _parse_sizes(text: str) -> list:
    """Comma list of ints; ranges `A..B` double, `A..B:K` multiply by K."""
    sizes = []
    for part in _parse_list(text):
        if ".." in part:
            span, _, factor = part.partition(":")
            lo_text, _, hi_text = span.partition("..")
            lo, hi = int(lo_text), int(hi_text)
            step = int(factor) if factor else 2
            if lo < 1 or hi < lo or step < 2:
                raise ValueError(f"bad size range: {part!r}")
            v = lo
            while v <= hi:
                sizes.append(v)
                v *= step
        else:
            v = int(part)
            if v < 0:
                raise ValueError(f"bad size: {part!r}")
            sizes.append(v)
    return sizes


def _parse_duration(text: str) -> float:
    """Seconds, as `2`, `2s` or `2000ms`: finite and not negative."""
    t = text.strip()
    seconds = float(t[:-2]) / 1000.0 if t.endswith("ms") else float(t.removesuffix("s"))
    if not (math.isfinite(seconds) and seconds >= 0):
        raise ValueError(f"bad duration: {text!r}")
    return seconds


def _build_parser() -> _Parser:
    parser = _Parser(prog="pdqsort", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run the benchmark matrix")
    bench.add_argument("--algos", type=_checked(_parse_list, ALGORITHMS), default=list(ALGORITHMS))
    bench.add_argument(
        "--dists", type=_checked(_parse_list, DISTRIBUTION_KINDS), default=list(DISTRIBUTION_KINDS)
    )
    bench.add_argument("--sizes", type=_checked(_parse_sizes), default=DEFAULT_SIZES)
    bench.add_argument("--types", type=_checked(_parse_list, ELEMENT_TYPES), default="int64")
    bench.add_argument("--seed", type=int, default=DEFAULT_SEED)
    bench.add_argument("--min-time", type=_checked(_parse_duration), default="1s")
    bench.add_argument("--min-iters", type=_checked(_parse_int, 1), default=10)
    bench.add_argument("--out", default="-", help="CSV path, '-' for stdout")
    bench.add_argument("--tables", action="store_true", help="also print text tables, to stderr")
    bench.set_defaults(run=_cmd_bench)

    gen = sub.add_parser("gen", help="generate one input array")
    gen.add_argument("--kind", choices=DISTRIBUTION_KINDS, required=True)
    gen.add_argument("--n", type=_checked(_parse_int, 0), required=True)
    gen.add_argument("--type", choices=ELEMENT_TYPES, default="int64", dest="element_type")
    gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gen.add_argument("--out", default="-")
    gen.set_defaults(run=_cmd_gen)

    slow = sub.add_parser("slowdown", help="print the 1/H(p) table")
    slowdown_rows = _checked(lambda text: slowdown_table([float(p) for p in _parse_list(text)]))
    slow.add_argument(
        "--p", type=slowdown_rows, required=True, dest="rows", metavar="P",
        help="comma list of fractions in (0,1)",
    )
    slow.set_defaults(run=_cmd_slowdown)

    verify = sub.add_parser("verify", help="run the acceptance suite")
    verify.add_argument(
        "--quick", action="store_true", help="reduced sizes: the gate CI runs on each interpreter"
    )
    verify.set_defaults(run=_cmd_verify)
    return parser


def _write_out(path: str, write) -> None:
    """``write(out)`` to stdout if ``path`` is ``-``, else to the file
    ``path``, lines ended by ``\\n`` alone on every platform."""
    if path == "-":
        write(sys.stdout)
    else:
        with open(path, "w", encoding="utf-8", newline="") as f:
            write(f)


def _cmd_bench(args) -> int:
    specs = [
        DistributionSpec(kind, n, etype, seed=args.seed)
        for etype in args.types
        for kind in args.dists
        for n in args.sizes
    ]
    records = run_benchmark(args.algos, specs, args.min_time, args.min_iters)

    def write(out):
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(record.row() for record in records)

    _write_out(args.out, write)
    if args.tables:
        sys.stderr.write(format_text_tables(records))
    return 0


def _cmd_gen(args) -> int:
    spec = DistributionSpec(args.kind, args.n, args.element_type, seed=args.seed)
    values = generate(spec)
    _write_out(args.out, lambda out: write_array(out, spec, values))
    return 0


def _cmd_slowdown(args) -> int:
    print(f"{'p':>10} {'slowdown':>12}")
    for p, factor in args.rows:
        print(f"{p:>10.6g} {factor:>12.6f}")
    return 0


def _cmd_verify(args) -> int:
    failed = False
    for number in acceptance.CRITERIA:
        res = acceptance.check(number, args.quick)
        print(acceptance.format_line(res), flush=True)
        failed |= res.gating and not res.passed
    return 2 if failed else 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return args.run(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
