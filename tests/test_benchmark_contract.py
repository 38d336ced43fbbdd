"""What ``benchmark/`` relies on in the library.

``benchmark/layers.py`` wraps the kernel globals of ``pdqsort.driver`` by
name to attribute a sort to its layers, and ``benchmark/isolate.py``
replays the same kernels through ``pdqsort``. These tests read the list
from ``layers.py`` itself, so renaming or inlining a kernel fails here
rather than in ``benchmark/run.py --trace 1``.
"""

import operator
import sys
from pathlib import Path

import pdqsort
import pdqsort.driver as driver

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmark"))
try:
    from layers import LAYER_OF, LAYERS, Tracer, fold
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
