"""Command-line interface.

Subcommands:
  bench     run the algorithm x distribution matrix, emit CSV (+ tables)
  gen       write one generated input array to a file or stdout
  slowdown  print the 1/H(p) slowdown table for given split fractions
  verify    run the acceptance suite, one line per criterion

Exit codes: 0 success, 1 usage error, 2 verification failure. Any other
error, such as an ordering that a sort in `bench` finds inconsistent,
propagates with its traceback (and Python's exit code 1).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

from .bench import (
    ALGORITHMS,
    CSV_COLUMNS,
    UsageError,
    format_text_tables,
    resolve_algo,
    run_benchmark,
    slowdown_table,
)
from .datagen import DISTRIBUTION_KINDS, ELEMENT_TYPES, DistributionSpec, generate, write_array

DEFAULT_SIZES = "1024..1048576:4"
DEFAULT_SEED = 0xDE5C


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the interface reserves 2 for
    # verification failures, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_name(text: str, choices) -> str:
    """One of ``choices``."""
    if text not in choices:
        raise UsageError(f"unknown name: {text!r} (choose from {', '.join(choices)})")
    return text


def _parse_list(text: str, choices=None) -> list:
    """Comma list of names, each one of ``choices`` if given."""
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise UsageError(f"empty list: {text!r}")
    if choices is not None:
        for part in parts:
            _parse_name(part, choices)
    return parts


def _flag(flag: str, parse, text: str, *args):
    """``parse(text, *args)``; a ValueError from it is a usage error that
    names ``flag``."""
    try:
        return parse(text, *args)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


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
                raise UsageError(f"bad size range: {part!r}")
            v = lo
            while v <= hi:
                sizes.append(v)
                v *= step
        else:
            v = int(part)
            if v < 0:
                raise UsageError(f"bad size: {part!r}")
            sizes.append(v)
    return sizes


def _parse_duration(text: str) -> float:
    t = text.strip()
    try:
        if t.endswith("ms"):
            seconds = float(t[:-2]) / 1000.0
        elif t.endswith("s"):
            seconds = float(t[:-1])
        else:
            seconds = float(t)
    except ValueError:
        pass
    else:
        if math.isfinite(seconds) and seconds >= 0:
            return seconds
    raise UsageError(f"bad duration: {text!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="pdqsort", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run the benchmark matrix")
    bench.add_argument("--algos", default=",".join(ALGORITHMS))
    bench.add_argument("--dists", default=",".join(DISTRIBUTION_KINDS))
    bench.add_argument("--sizes", default=DEFAULT_SIZES)
    bench.add_argument("--types", default="int64")
    bench.add_argument("--seed", type=int, default=DEFAULT_SEED)
    bench.add_argument("--min-time", default="1s")
    bench.add_argument("--min-iters", type=int, default=10)
    bench.add_argument("--out", default="-", help="CSV path, '-' for stdout")
    bench.add_argument("--tables", action="store_true", help="also print text tables")

    gen = sub.add_parser("gen", help="generate one input array")
    gen.add_argument("--kind", required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--type", default="int64", dest="element_type")
    gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gen.add_argument("--out", default="-")

    slow = sub.add_parser("slowdown", help="print the 1/H(p) table")
    slow.add_argument("--p", required=True, help="comma list of fractions in (0,1)")

    verify = sub.add_parser("verify", help="run the acceptance suite")
    verify.add_argument(
        "--quick", action="store_true", help="reduced sizes: the gate CI runs on each interpreter"
    )
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
    algos = _flag("--algos", lambda text: [resolve_algo(a) for a in _parse_list(text)], args.algos)
    etypes = _flag("--types", _parse_list, args.types, ELEMENT_TYPES)
    kinds = _flag("--dists", _parse_list, args.dists, DISTRIBUTION_KINDS)
    sizes = _flag("--sizes", _parse_sizes, args.sizes)
    specs = [
        DistributionSpec(kind, n, etype, seed=args.seed)
        for etype in etypes
        for kind in kinds
        for n in sizes
    ]
    min_time = _flag("--min-time", _parse_duration, args.min_time)
    if args.min_iters < 1:
        raise UsageError("--min-iters: must be >= 1")
    records = run_benchmark(algos, specs, min_time, args.min_iters)

    def write(out):
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(record.row() for record in records)

    _write_out(args.out, write)
    if args.tables:
        sys.stdout.write(format_text_tables(records))
    return 0


def _cmd_gen(args) -> int:
    kind = _flag("--kind", _parse_name, args.kind, DISTRIBUTION_KINDS)
    etype = _flag("--type", _parse_name, args.element_type, ELEMENT_TYPES)
    # With both names valid, a negative size is the one error left.
    spec = _flag("--n", lambda n: DistributionSpec(kind, n, etype, seed=args.seed), args.n)
    values = generate(spec)
    _write_out(args.out, lambda out: write_array(out, spec, values))
    return 0


def _cmd_slowdown(args) -> int:
    rows = _flag("--p", lambda text: slowdown_table([float(p) for p in _parse_list(text)]), args.p)
    print(f"{'p':>10} {'slowdown':>12}")
    for p, factor in rows:
        print(f"{p:>10.6g} {factor:>12.6f}")
    return 0


def _cmd_verify(args) -> int:
    from .acceptance import CRITERIA, check, format_line

    failed = False
    for number in CRITERIA:
        res = check(number, args.quick)
        print(format_line(res), flush=True)
        failed |= res.gating and not res.passed
    return 2 if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    handlers = {
        "bench": _cmd_bench,
        "gen": _cmd_gen,
        "slowdown": _cmd_slowdown,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"pdqsort: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
