import operator
import random
from collections import Counter

import pytest

from pdqsort import (
    METRIC_FIELDS,
    Metrics,
    adversary_input,
    array_digest,
    counting_ordering,
    heapsort,
    instrumented_sort,
    sort_with,
)
from pdqsort import instrumentation
from pdqsort.acceptance import KERNEL_CONFIGS, _recording_pivots

# Frozen from a construction that ran its sort to the end: stopping it once
# the answers are fixed must not change a single value.
ADVERSARY_DIGESTS = {
    1: "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    2: "1e9987e996a1c529f61f4339797481b7b1138b15f18a44e06dde45eabbc67921",
    3: "c4276dce1d5952cafea6aebd872c389f0945e4a2400859fa3998138d2e006f34",
    100: "c67874043ac811675a3e770d94f80fd8f8e9c49ceab85a5b385ad3deb59949ef",
    4096: "7f2cf37f4b1e821c11c5bfa2fb2d7de221b4ef0d1f680728040c9c92d869ab26",
    65536: "b4fc8bf6b0dc7a17f68fb3571bd8d076837603899d5e41e381f2fbd11be59fb9",
}


class TestCountingOrdering:
    def test_order_equivalent(self):
        m = Metrics()
        counted = counting_ordering(operator.lt, m)
        assert counted(1, 2) is True
        assert counted(2, 1) is False
        assert counted(1, 1) is False
        assert m.comparisons == 3


class TestMetrics:
    def test_counter_values_order(self):
        m = Metrics()
        m.comparisons = 5
        m.max_depth = 2
        values = m.counter_values()
        assert len(values) == len(METRIC_FIELDS)
        assert values[METRIC_FIELDS.index("comparisons")] == 5
        assert values[METRIC_FIELDS.index("max_depth")] == 2

    def test_instrumented_sort_populates_counters(self):
        rng = random.Random(32)
        arr = [rng.randint(0, 9) for _ in range(2000)]
        m = instrumented_sort(arr)
        assert arr == sorted(arr)
        assert m.comparisons > 0
        assert m.partition_right_calls > 0

    def test_counted_sort_that_raises_keeps_its_counts(self):
        # The kernels bump the counters as the work is done, so a heapsort
        # cut short halfway by its ordering keeps the moves made before.
        arr = random.Random(33).sample(range(500), 500)
        full = Metrics()
        heapsort(list(arr), 0, len(arr), operator.lt, full)
        calls = 0

        def cut_short(a, b):
            nonlocal calls
            calls += 1
            if calls > 2000:
                raise RuntimeError("cut short")
            return a < b

        m = Metrics()
        with pytest.raises(RuntimeError):
            heapsort(list(arr), 0, len(arr), cut_short, m)
        assert 0 < m.element_moves < full.element_moves


def test_pivot_recorder_sees_every_partition():
    # Criterion 4 counts pivot reuse from what the recorder saw: one pick
    # per partition, on either right kernel.
    rng = random.Random(33)
    arr = [rng.randrange(4) for _ in range(400)]
    for label, config in KERNEL_CONFIGS:
        work = list(arr)
        with _recording_pivots() as picks:
            m = instrumented_sort(work, config=config)
        assert work == sorted(arr), label
        assert len(picks) == m.partition_right_calls + m.partition_left_calls > 0, label
        assert max(Counter(picks).values()) <= 2, label


class TestAdversary:
    def test_n1(self):
        assert adversary_input(1) == [0]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            adversary_input(0)

    def test_is_permutation(self):
        # n = 2 stops at its first comparison: only the list comes out.
        for n in (2, 17, 256, 1 << 12):
            adv = adversary_input(n)
            assert sorted(adv) == list(range(n))

    def test_stresses_the_sort(self):
        n = 1 << 14
        adv = adversary_input(n)
        work = list(adv)
        m = instrumented_sort(work)
        assert work == list(range(n))
        assert m.bad_partitions >= 1
        # The full log2(n) budget burns down and heapsort takes over.
        assert m.heapsort_fallbacks >= 1

    def test_construction_deterministic(self):
        assert adversary_input(512) == adversary_input(512)

    def test_golden_digests(self):
        for n, digest in ADVERSARY_DIGESTS.items():
            assert array_digest(adversary_input(n)) == digest, n

    @pytest.mark.parametrize("n", [2, 3, 100, 1000, 4096])
    def test_replay_repeats_the_construction(self, n, monkeypatch):
        # Every answer of the construction holds under the frozen values,
        # so the replay makes the same comparisons in the same order. The
        # construction stops once its answers are fixed, a prefix of it.
        construction = []
        sort_range = instrumentation._sort_range

        def recording_sort_range(data, lt, config):
            def recorded(x, y):
                construction.append((x, y))
                return lt(x, y)

            sort_range(data, recorded, config)

        monkeypatch.setattr(instrumentation, "_sort_range", recording_sort_range)
        adv = adversary_input(n)
        monkeypatch.undo()
        replay = []

        def recording_lt(a, b):
            replay.append((a, b))
            return a < b

        sort_with(list(adv), recording_lt)
        assert replay[: len(construction)] == [(adv[x], adv[y]) for x, y in construction]
        # Up to n = 3 the last pin is the sort's last comparison.
        if n > 3:
            assert len(construction) < len(replay)
