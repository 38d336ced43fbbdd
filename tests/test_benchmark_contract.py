"""What ``benchmark/`` relies on in the library.

``benchmark/layers.py`` wraps the kernel globals of ``pdqsort.driver`` by
name to attribute a sort to its layers, and ``benchmark/isolate.py``
replays the same kernels through ``pdqsort``. These tests read the list
from ``layers.py`` itself, so renaming or inlining a kernel fails here
rather than in ``benchmark/run.py --trace 1``. Both also assume one
calling convention, ``(data, begin, end, lt, ..., metrics)``: the range
is always passed, so is the ordering of a kernel that compares, and the
sort's ``Metrics`` comes last.

``isolate.py`` replays each kernel with the ordering the driver handed
it. Every kernel that compares does so inline under ``operator.lt``, so
each must receive ``operator.lt`` itself from ``sort()``; otherwise its
``kernel.*`` replays would time the generic loops instead.
"""

import inspect
import operator
import sys
from pathlib import Path

import pdqsort
import pdqsort.driver as driver

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmark"))
try:
    from layers import LAYER_OF, LAYERS, Tracer, fold, wrapped_kernels
finally:
    sys.path.pop(0)


def test_every_layer_is_a_driver_global_and_a_package_attribute():
    for name in LAYER_OF:
        kernel = getattr(driver, name, None)
        assert callable(kernel), f"pdqsort.driver.{name} is not a callable global"
        assert getattr(pdqsort, name, None) is kernel, f"pdqsort.{name} is not the driver's kernel"


def test_every_partition_kernel_returns_a_named_partition_result():
    # layers.py reads result.no_swaps of every result that is a
    # PartitionResult; a plain tuple would zero partition.no_swaps_ratio.
    results = {
        "partition_right": pdqsort.partition_right([1, 0, 2], 0, 3, operator.lt),
        "partition_left": pdqsort.partition_left([0, 0, 2], 1, 3, operator.lt),
        "block_partition_right": pdqsort.block_partition_right(
            [1, 0, 2], 0, 3, operator.lt, pdqsort.partition.DEFAULT_BLOCK_SIZE
        ),
    }
    assert set(results) == set(LAYERS["partition"])
    for name, result in results.items():
        assert isinstance(result, pdqsort.PartitionResult), name
        assert (result.pivot_index, result.no_swaps) == tuple(result), name
    assert results["partition_right"].pivot_index == 1
    assert results["partition_right"].no_swaps is True
    assert results["partition_left"].no_swaps is False


def test_every_kernel_takes_a_required_range_and_metrics_last():
    for name in LAYER_OF:
        params = list(inspect.signature(getattr(driver, name)).parameters.values())
        begin, end = params[1:3]
        assert (begin.name, end.name) == ("begin", "end"), name
        assert begin.default is end.default is inspect.Parameter.empty, name
        assert params[-1].name == "metrics", name
        assert params[-1].default is None, name
        lt = [p for p in params if p.name == "lt"]
        if lt:
            assert params.index(lt[0]) == 3, name
            assert lt[0].default is inspect.Parameter.empty, name


def test_traced_sort_attributes_every_comparison():
    tracer = Tracer()
    with tracer.installed():
        for kind in ("uniform", "dupsq", "organ"):
            data = pdqsort.generate(pdqsort.DistributionSpec(kind, 3000, "int64", seed=41))
            tracer.sort(data, operator.lt)
            assert data == sorted(data)
    totals = fold(tracer.spans)
    assert totals.counts["unattributed"] == 0
    assert sum(totals.counts.get(name + ".calls", 0) for name in LAYERS["partition"]) > 0
    for name in ("choose_pivot", "insertion_sort"):
        assert totals.counts.get(name + ".calls", 0) > 0, name


def test_sort_hands_operator_lt_to_the_inline_kernels():
    inline = (
        "partition_right",
        "partition_left",
        "insertion_sort",
        "unguarded_insertion_sort",
        "partial_insertion_sort",
        "choose_pivot",
        "heapsort",
    )
    orderings = {name: [] for name in inline}

    def recording(name, kernel):
        def record(*args):
            # (data, begin, end, lt, ..., metrics)
            orderings[name].append(args[3])
            return kernel(*args)

        return record

    inputs = [
        pdqsort.generate(pdqsort.DistributionSpec(kind, 3000, "int64", seed=42))
        for kind in ("uniform", "dupsq", "sort99")
    ]
    inputs.append(pdqsort.adversary_input(3000))
    with wrapped_kernels(inline, recording):
        for data in inputs:
            pdqsort.sort(data)
            assert data == sorted(data)
    for name in inline:
        # The alias of insertion_sort is wrapped as a global of its own,
        # which the sort loop never calls.
        if name != "unguarded_insertion_sort":
            assert orderings[name], f"sort() never called {name}"
        assert all(lt is operator.lt for lt in orderings[name]), name
