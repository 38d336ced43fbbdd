"""Deterministic generators for the benchmark input distributions.

Twelve kinds over three element encodings. Given the same spec the output
is identical on every run and platform: the shuffle runs on a fixed
64-bit splitmix generator seeded from (seed, kind, n), and string
encodings are fixed-width zero-padded decimals so lexicographic order
matches numeric order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from math import isqrt
from typing import IO

DISTRIBUTION_KINDS = (
    "uniform",
    "dupsq",
    "dup8",
    "mod8",
    "ones",
    "sort50",
    "sort90",
    "sort99",
    "organ",
    "merge",
    "asc",
    "desc",
)
ELEMENT_TYPES = ("int64", "str", "bigstr")

BIGSTR_PAD = 1000

_SHUFFLED = frozenset({"uniform", "dupsq", "dup8", "mod8"})
_SORTED_PREFIX = {"sort50": 50, "sort90": 90, "sort99": 99}

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Counter-based 64-bit PRNG; tiny state, fully reproducible."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        return _mix64(self.state)

    def below(self, bound: int) -> int:
        return self.next() % bound


def _stream_seed(seed: int, kind: str, n: int) -> int:
    s = seed & _MASK64
    s = _mix64((s + _GOLDEN * (DISTRIBUTION_KINDS.index(kind) + 1)) & _MASK64)
    s = _mix64((s + _GOLDEN * (n + 1)) & _MASK64)
    return s


def _fisher_yates(values: list, rng: SplitMix64) -> None:
    for i in range(len(values) - 1, 0, -1):
        j = rng.below(i + 1)
        values[i], values[j] = values[j], values[i]


@dataclass(frozen=True)
class DistributionSpec:
    """One input-generation recipe."""

    kind: str
    n: int
    element_type: str = "int64"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in DISTRIBUTION_KINDS:
            raise ValueError(f"unknown distribution kind: {self.kind!r}")
        if self.element_type not in ELEMENT_TYPES:
            raise ValueError(f"unknown element type: {self.element_type!r}")
        if self.n < 0:
            raise ValueError("n must be >= 0")


def _base_values(kind: str, n: int) -> list:
    if kind in ("uniform", "asc") or kind in _SORTED_PREFIX:
        return list(range(n))
    if kind == "desc":
        return list(range(n - 1, -1, -1))
    if kind == "dupsq":
        m = isqrt(n)
        return [i % m for i in range(n)]
    if kind == "dup8":
        half = n // 2
        return [(pow(i, 8, n) + half) % n for i in range(n)]
    if kind == "mod8":
        return [i % 8 for i in range(n)]
    if kind == "ones":
        return [1] * n
    if kind == "organ":
        up = (n + 1) // 2
        return list(range(up)) + list(range(n - up - 1, -1, -1))
    if kind == "merge":
        up = (n + 1) // 2
        return list(range(up)) + list(range(n - up))
    raise ValueError(f"unknown distribution kind: {kind!r}")


def generate(spec: DistributionSpec) -> list:
    """Build the array for ``spec``.

    The shuffled kinds (uniform, dupsq, dup8, mod8) are Fisher-Yates
    shuffled; the sortNN kinds shuffle fully and then sort the first
    NN percent; asc/desc/organ/merge/ones are emitted as shaped.
    """
    n = spec.n
    if n == 0:
        return []
    values = _base_values(spec.kind, n)
    if spec.kind in _SHUFFLED:
        _fisher_yates(values, SplitMix64(_stream_seed(spec.seed, spec.kind, n)))
    elif spec.kind in _SORTED_PREFIX:
        _fisher_yates(values, SplitMix64(_stream_seed(spec.seed, spec.kind, n)))
        k = _SORTED_PREFIX[spec.kind] * n // 100
        values[:k] = sorted(values[:k])
    return _encode(values, spec)


def _encode(values: list, spec: DistributionSpec) -> list:
    if spec.element_type == "int64":
        return values
    width = len(str(spec.n - 1)) if spec.n > 1 else 1
    prefix = "0" * BIGSTR_PAD if spec.element_type == "bigstr" else ""
    return [prefix + format(v, f"0{width}d") for v in values]


def array_digest(values: list) -> str:
    """sha256 over the newline-joined decimal/string encoding."""
    payload = "\n".join(str(v) for v in values)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def write_array(out: IO[str], spec: DistributionSpec, values: list) -> None:
    """Emit the `gen` file format: a comment header, one value per line."""
    out.write(f"# {spec.kind} {spec.n} {spec.element_type} {spec.seed}\n")
    for v in values:
        out.write(f"{v}\n")
