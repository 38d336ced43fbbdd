"""What ``benchmark/`` relies on in the library.

``benchmark/layers.py`` wraps the kernel globals of ``pdqsort.driver`` by
name to attribute a sort to its layers, and ``benchmark/isolate.py``
replays the same kernels through ``pdqsort``. These tests read the list
from ``layers.py`` itself, so renaming or inlining a kernel fails here
rather than in ``benchmark/run.py --trace 1``.

``isolate.py`` replays each kernel with the ordering the driver handed
it. The two kernels that compare inline under ``operator.lt`` must
therefore receive ``operator.lt`` itself from ``sort()``; otherwise
their ``kernel.*`` replays would time the generic loops instead.
"""

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
    assert isinstance(pdqsort.partition_right([1, 0, 2]), pdqsort.PartitionResult)


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
    for name in ("choose_pivot", "unguarded_insertion_sort"):
        assert totals.counts.get(name + ".calls", 0) > 0, name


def test_sort_hands_operator_lt_to_the_inline_kernels():
    inline = ("partition_right", "unguarded_insertion_sort")
    orderings = {name: [] for name in inline}

    def recording(name, kernel):
        def record(*args):
            # (data, begin, end, lt, metrics)
            orderings[name].append(args[3])
            return kernel(*args)

        return record

    data = pdqsort.generate(pdqsort.DistributionSpec("uniform", 3000, "int64", seed=42))
    with wrapped_kernels(inline, recording):
        pdqsort.sort(data)
    assert data == sorted(data)
    for name in inline:
        assert orderings[name], f"sort() never called {name}"
        assert all(lt is operator.lt for lt in orderings[name]), name
