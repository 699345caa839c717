"""Wall-clock microbenchmarks of the SPRINT kernels.

Unlike the figure/table benchmarks (which report deterministic *virtual*
seconds), these measure real host time of the library's hot paths with
pytest-benchmark's usual statistics: gini split evaluation, attribute
list construction, probe-based splitting and vectorized prediction.

Run as a script for the level-batched before/after comparison::

    PYTHONPATH=src python benchmarks/bench_kernels.py

which times each kernel the record-at-a-time way (one Python call per
leaf, set-based probes, double boolean-index partitions) against the
batched path in :mod:`repro.sprint.kernels` across leaf counts and
dataset sizes, and writes a ``bench_kernels/1`` document
(``BENCH_kernels.json``) through :mod:`suite`.
"""

import sys

import numpy as np
import pytest

from repro.bench.workloads import paper_dataset
from repro.classify.predict import predict
from repro.core.builder import build_classifier
from repro.data.schema import Attribute, AttributeKind
from repro.sprint.attribute_list import build_attribute_list
from repro.sprint.gini import best_categorical_split, best_continuous_split
from repro.sprint.kernels import (
    concat_field,
    partition_stable,
    segment_offsets,
    segmented_categorical_splits,
    segmented_continuous_splits,
)
from repro.sprint.probe import BitProbe, HashProbe
from repro.sprint.records import CONTINUOUS_RECORD
from repro.sprint.splitter import split_records
from suite import Ratio, Suite, Table, best_of

N = 100_000
RNG = np.random.default_rng(0)


@pytest.fixture(scope="module")
def sorted_values():
    return np.sort(RNG.random(N))


@pytest.fixture(scope="module")
def classes():
    return RNG.integers(0, 2, N).astype(np.int32)


def test_continuous_gini_eval(benchmark, sorted_values, classes):
    result = benchmark(best_continuous_split, sorted_values, classes, 2)
    assert result is not None


def test_categorical_gini_eval(benchmark, classes):
    values = RNG.integers(0, 8, N)
    result = benchmark(best_categorical_split, values, classes, 8, 2)
    assert result is not None


def test_attribute_list_sort(benchmark, classes):
    attr = Attribute("x", AttributeKind.CONTINUOUS)
    values = RNG.random(N)
    alist = benchmark(build_attribute_list, attr, values, classes)
    assert alist.is_sorted()


def test_probe_split(benchmark, sorted_values, classes):
    records = np.zeros(N, dtype=CONTINUOUS_RECORD)
    records["value"] = sorted_values
    records["cls"] = classes
    records["tid"] = np.arange(N)
    probe = BitProbe(N)
    probe.mark_left(np.arange(0, N, 2))
    left, right = benchmark(split_records, records, probe)
    assert len(left) + len(right) == N


def test_vectorized_predict(benchmark):
    dataset = paper_dataset(7, 32, 5000)
    tree = build_classifier(dataset, algorithm="serial").tree
    labels = benchmark(predict, tree, dataset)
    assert len(labels) == dataset.n_records


# -- wall-clock before/after mode (python benchmarks/bench_kernels.py) --------

KNOWN_KERNELS = ("E.continuous", "E.categorical", "S.partition", "W.probe")
#: Distinct values of the "quantized" profile — low-cardinality
#: continuous attributes, as in the Quest generator's function fields,
#: where run compression is the whole point of the segmented reduction.
QUANTIZED_CARD = 32
CATEGORICAL_CARD = 8
N_CLASSES = 2


class _SetProbe:
    """The pre-batching set-backed HashProbe, kept as the W baseline."""

    def __init__(self):
        self._tids = set()

    def mark_left(self, tids):
        self._tids.update(int(t) for t in tids)

    def clear(self, tids):
        self._tids.difference_update(int(t) for t in tids)

    def is_left(self, tids):
        return np.fromiter(
            (int(t) in self._tids for t in tids), dtype=bool, count=len(tids)
        )


def _make_level(rng, records, leaves, profile):
    """Per-leaf sorted attribute-list segments for one level."""
    per_leaf = max(records // leaves, 2)
    payloads = []
    for _ in range(leaves):
        recs = np.zeros(per_leaf, dtype=CONTINUOUS_RECORD)
        if profile == "uniform":
            recs["value"] = np.sort(rng.random(per_leaf))
        else:  # quantized: duplicate-heavy, few runs per segment
            recs["value"] = np.sort(
                rng.integers(0, QUANTIZED_CARD, per_leaf).astype(np.float64)
            )
        recs["cls"] = rng.integers(0, N_CLASSES, per_leaf)
        recs["tid"] = rng.permutation(per_leaf)
        payloads.append(recs)
    return payloads


def bench_continuous(rng, records, leaves, repeats, profile):
    payloads = _make_level(rng, records, leaves, profile)

    def before():  # one Python call per leaf
        return [
            best_continuous_split(p["value"], p["cls"], N_CLASSES)
            for p in payloads
        ]

    def after():  # includes the concatenation cost, as in BuildContext
        offsets = segment_offsets(payloads)
        return segmented_continuous_splits(
            concat_field(payloads, "value"),
            concat_field(payloads, "cls"),
            offsets,
            N_CLASSES,
        )

    assert [repr(c) for c in before()] == [repr(c) for c in after()]
    return best_of(before, repeats)[0], best_of(after, repeats)[0]


def bench_categorical(rng, records, leaves, repeats):
    per_leaf = max(records // leaves, 2)
    values = [
        rng.integers(0, CATEGORICAL_CARD, per_leaf) for _ in range(leaves)
    ]
    classes = [rng.integers(0, N_CLASSES, per_leaf) for _ in range(leaves)]

    def before():
        return [
            best_categorical_split(v, c, CATEGORICAL_CARD, N_CLASSES)
            for v, c in zip(values, classes)
        ]

    def after():
        offsets = segment_offsets(values)
        return segmented_categorical_splits(
            np.concatenate(values),
            np.concatenate(classes),
            offsets,
            CATEGORICAL_CARD,
            N_CLASSES,
        )

    assert [repr(c) for c in before()] == [repr(c) for c in after()]
    return best_of(before, repeats)[0], best_of(after, repeats)[0]


def bench_partition(rng, records, leaves, repeats):
    payloads = _make_level(rng, records, leaves, "uniform")
    # Random (scattered) masks: step S partitions the *losing*
    # attributes' lists, whose record order is unrelated to the winner's
    # threshold, so the membership mask is not a neat prefix.
    masks = [rng.random(len(p)) < 0.5 for p in payloads]

    def before():  # two boolean-index copies per leaf
        return [(p[m], p[~m]) for p, m in zip(payloads, masks)]

    def after():  # counted partition into one persistent buffer per leaf
        return [
            partition_stable(p, m) for p, m in zip(payloads, masks)
        ]

    for (bl, br), (al, ar) in zip(before(), after()):
        assert np.array_equal(bl, al) and np.array_equal(br, ar)
    return best_of(before, repeats)[0], best_of(after, repeats)[0]


def bench_probe(rng, records, leaves, repeats):
    tids = rng.permutation(records).astype(np.int64)
    left = tids[: records // 2]

    def run(probe):
        probe.mark_left(left)
        mask = probe.is_left(tids)
        probe.clear(left)
        return mask

    assert np.array_equal(run(_SetProbe()), run(HashProbe()))
    return (
        best_of(lambda: run(_SetProbe()), repeats)[0],
        best_of(lambda: run(HashProbe()), repeats)[0],
    )


def run(records, leaves, repeats, seed):
    results = []
    for n_records in records:
        for n_leaves in leaves:
            if n_leaves > n_records // 2:
                continue
            rng = np.random.default_rng(seed)
            for profile in ("uniform", "quantized"):
                before_s, after_s = bench_continuous(
                    rng, n_records, n_leaves, repeats, profile
                )
                results.append(
                    _entry("E.continuous", profile, n_records, n_leaves,
                           before_s, after_s)
                )
            before_s, after_s = bench_categorical(
                rng, n_records, n_leaves, repeats
            )
            results.append(
                _entry("E.categorical", "uniform", n_records, n_leaves,
                       before_s, after_s)
            )
            before_s, after_s = bench_partition(
                rng, n_records, n_leaves, repeats
            )
            results.append(
                _entry("S.partition", "uniform", n_records, n_leaves,
                       before_s, after_s)
            )
        rng = np.random.default_rng(seed)
        before_s, after_s = bench_probe(rng, n_records, 1, repeats)
        results.append(_entry("W.probe", "uniform", n_records, 1,
                              before_s, after_s))
    return {"results": results}


def _entry(kernel, profile, records, leaves, before_s, after_s):
    return {
        "kernel": kernel,
        "profile": profile,
        "records": records,
        "leaves": leaves,
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
    }


SUITE = Suite(
    schema="bench_kernels/1",
    run=run,
    full=dict(records=[4096, 16384], leaves=[1, 4, 16, 64, 256],
              repeats=5, seed=0),
    quick=dict(records=[4096], leaves=[1, 8, 32], repeats=3, seed=0),
    tables=(
        Table(
            key=("kernel", "profile", "records", "leaves"),
            required=("kernel", "profile", "records", "leaves",
                      "before_s", "after_s", "speedup"),
            enums={"kernel": KNOWN_KERNELS},
            positive=("before_s", "after_s"),
            ratios=(Ratio("speedup", "before_s", "after_s"),),
            metrics=(("speedup", "higher"),),
        ),
    ),
)


if __name__ == "__main__":
    sys.exit(SUITE.main())
