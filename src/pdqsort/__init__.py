"""Pattern-defeating quicksort.

An in-place, unstable hybrid of quicksort, insertion sort and heapsort:
tripartite handling of equal elements through paired partition kernels, a
bad-partition budget with deterministic pattern breaking, and an
optimistic linear path for nearly sorted inputs. ``sort(data)`` runs
the default configuration. Every heuristic is individually toggleable
via :class:`SortConfig`, passed to ``sort_with(data, lt, config)``,
including the paper's block partitioner, which is off by default because
under CPython it is slower than the scalar one. The paper's tuning
numbers are constants beside their code: insertion threshold 24, ninther
threshold 128 and bad-partition cutoff 1/8 in :mod:`pdqsort.driver`, the
partial-insertion budget 8 in :mod:`pdqsort.small_sorts` and block size 64
in :mod:`pdqsort.partition`.
The ``pdqsort`` CLI adds benchmark, input-generation, entropy-table and
verification commands.

``__all__`` lists the public surface. The kernels and ``PartitionResult``
stay importable from here for tests and benchmarks; each kernel takes
``(data, begin, end, lt, ..., metrics=None)``, its range and ordering
always given (``break_patterns`` does not compare).
"""

from .datagen import (
    DISTRIBUTION_KINDS,
    ELEMENT_TYPES,
    DistributionSpec,
    array_digest,
    generate,
)
from .driver import (
    DEFAULT_CONFIG,
    SortConfig,
    break_patterns,
    choose_pivot,
    introsort_baseline,
    sort,
    sort_with,
    unguarded_insertion_sort,
)
from .instrumentation import (
    METRIC_FIELDS,
    Metrics,
    adversary_input,
    counting_ordering,
    instrumented_sort,
)
from .partition import (
    PartitionResult,
    block_partition_right,
    partition_left,
    partition_right,
)
from .small_sorts import (
    heapsort,
    insertion_sort,
    partial_insertion_sort,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CONFIG",
    "DISTRIBUTION_KINDS",
    "DistributionSpec",
    "ELEMENT_TYPES",
    "Metrics",
    "SortConfig",
    "adversary_input",
    "array_digest",
    "counting_ordering",
    "generate",
    "instrumented_sort",
    "introsort_baseline",
    "sort",
    "sort_with",
]
