"""``import pdqsort`` from a zip and from a tree of ``.pyc`` files only.

``pdqsort.inline`` builds each kernel's branches from its source at
import time. From a zip it reads the source through the zip's loader and
generates the same branches as from a directory. A tree without sources
has none to read: each kernel then runs as written, with the same
results and counts. Each layout is imported in a fresh interpreter, and
its output and counters are compared with those of the source tree. A
kernel whose source does not hold it at its first line runs as written
too.
"""

import json
import linecache
import operator
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

from pdqsort.inline import inline_lt

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, operator, sys
sys.path.insert(0, sys.argv[1])
import pdqsort
assert pdqsort.__file__.startswith(sys.argv[1]), pdqsort.__file__

lt_calls = 0

def profile(frame, event, arg):
    global lt_calls
    if event == "c_call" and arg is operator.lt:
        lt_calls += 1

out = {"sorted": [], "counters": []}
for kind in ("uniform", "dupsq", "organ", "desc"):
    data = pdqsort.generate(pdqsort.DistributionSpec(kind, 2000, "int64", seed=61))
    work = list(data)
    sys.setprofile(profile)
    try:
        pdqsort.sort(work)
    finally:
        sys.setprofile(None)
    out["sorted"].append(work == sorted(data))
    out["counters"].append(pdqsort.instrumented_sort(list(data)).counter_values())
out["counters"].append(pdqsort.instrumented_sort(pdqsort.adversary_input(2000)).counter_values())
out["lt_calls"] = lt_calls
print(json.dumps(out))
"""


def probe(path):
    """The probe's report, run in a new interpreter with ``path`` first
    on ``sys.path``."""
    result = subprocess.run(
        [sys.executable, "-I", "-c", PROBE, str(path)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout)


def zipped(tmp_path):
    archive = tmp_path / "pdqsort.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for source in sorted((SRC / "pdqsort").glob("*.py")):
            zf.write(source, f"pdqsort/{source.name}")
    return archive


def compiled_only(tmp_path):
    tree = tmp_path / "compiled"
    shutil.copytree(SRC / "pdqsort", tree / "pdqsort", ignore=shutil.ignore_patterns("__pycache__"))
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "-b", str(tree)],
        check=True,
    )
    for source in (tree / "pdqsort").glob("*.py"):
        source.unlink()
    assert not list(tree.rglob("*.py"))
    return tree


@pytest.fixture(scope="module")
def from_source():
    return probe(SRC)


def test_zip_imports_with_the_generated_branches(tmp_path, from_source):
    report = probe(zipped(tmp_path))
    assert all(report["sorted"])
    assert report["counters"] == from_source["counters"]
    # sort() runs the inline < branches, as from the source tree.
    assert report["lt_calls"] == from_source["lt_calls"] == 0


def test_tree_without_sources_runs_the_kernels_as_written(tmp_path, from_source):
    report = probe(compiled_only(tmp_path))
    assert all(report["sorted"])
    assert report["counters"] == from_source["counters"]
    # No branch was generated: every comparison calls operator.lt.
    assert report["lt_calls"] > 0


# The kernel's first line, its decorator's, is line 2.
KERNEL_SOURCE = """
@inline_lt
def smaller(a, b, lt, metrics):
    return b if lt(b, a) else a
"""


@pytest.mark.parametrize(
    "stale",
    [
        # Another function's body must not serve the kernel.
        "\ndef larger(a, b, lt, metrics):\n    return a if lt(b, a) else b\n",
        # A line inside a block does not parse on its own.
        "if a < b:\n    a, b = b, a\n",
    ],
    ids=["another_def", "inside_a_block"],
)
def test_kernel_whose_source_line_holds_something_else_runs_as_written(monkeypatch, stale):
    filename = "<stale kernel source>"
    lines = stale.splitlines(keepends=True)
    monkeypatch.setitem(linecache.cache, filename, (len(stale), None, lines, filename))
    namespace = {"inline_lt": inline_lt}
    exec(compile(KERNEL_SOURCE, filename, "exec"), namespace)
    smaller = namespace["smaller"]
    assert "builtin_lt" not in smaller.__code__.co_freevars
    assert smaller(2, 1, operator.lt, None) == smaller(1, 2, operator.lt, None) == 1
