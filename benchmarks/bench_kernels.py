"""Wall-clock microbenchmarks of the SPRINT kernels.

Unlike the figure/table benchmarks (which report deterministic *virtual*
seconds), these measure real host time of the library's hot paths with
pytest-benchmark's usual statistics: gini split evaluation, attribute
list construction, probe-based splitting and vectorized prediction.

Run as a script for the level-batched before/after comparison::

    PYTHONPATH=src python benchmarks/bench_kernels.py --out BENCH_kernels.json

which times each kernel the record-at-a-time way (one Python call per
leaf, set-based probes, double boolean-index partitions) against the
batched path in :mod:`repro.sprint.kernels`
across leaf counts and dataset sizes, and writes a ``bench_kernels/1``
JSON document.  ``--validate FILE`` checks such a document's schema
(used by the CI smoke job).
"""

import argparse
import json
import platform
import sys
import time

import numpy as np
import pytest

from repro.bench.workloads import paper_dataset
from repro.classify.predict import predict
from repro.core.builder import build_classifier
from repro.data.schema import Attribute, AttributeKind
from repro.sprint.attribute_list import build_attribute_list
from repro.smp.cpus import available_cpus
from repro.sprint import native
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

SCHEMA = "bench_kernels/1"
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


#: Keep timing a case until this much total time has elapsed (or the
#: repeat cap is hit) — sub-millisecond cases need many repeats before
#: the best-of is stable on a shared machine.
MIN_TIMING_SECONDS = 0.02
MAX_REPEATS = 200


def _best_of(fn, repeats):
    best = float("inf")
    total = 0.0
    runs = 0
    while runs < repeats or (total < MIN_TIMING_SECONDS and runs < MAX_REPEATS):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        total += elapsed
        runs += 1
    return best


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
    return _best_of(before, repeats), _best_of(after, repeats)


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
    return _best_of(before, repeats), _best_of(after, repeats)


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
    return _best_of(before, repeats), _best_of(after, repeats)


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
        _best_of(lambda: run(_SetProbe()), repeats),
        _best_of(lambda: run(HashProbe()), repeats),
    )


def run_benchmarks(records_list, leaves_list, repeats, seed):
    results = []
    for records in records_list:
        for leaves in leaves_list:
            if leaves > records // 2:
                continue
            rng = np.random.default_rng(seed)
            for profile in ("uniform", "quantized"):
                before_s, after_s = bench_continuous(
                    rng, records, leaves, repeats, profile
                )
                results.append(
                    _entry("E.continuous", profile, records, leaves,
                           before_s, after_s)
                )
            before_s, after_s = bench_categorical(rng, records, leaves, repeats)
            results.append(
                _entry("E.categorical", "uniform", records, leaves,
                       before_s, after_s)
            )
            before_s, after_s = bench_partition(rng, records, leaves, repeats)
            results.append(
                _entry("S.partition", "uniform", records, leaves,
                       before_s, after_s)
            )
        rng = np.random.default_rng(seed)
        before_s, after_s = bench_probe(rng, records, 1, repeats)
        results.append(_entry("W.probe", "uniform", records, 1,
                              before_s, after_s))
    return {
        "schema": SCHEMA,
        "config": {
            "records": list(records_list),
            "leaves": list(leaves_list),
            "repeats": repeats,
            "seed": seed,
        },
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "available_cpus": available_cpus(),
            "native_kernels": native.active_kernels() is not None,
        },
        "results": results,
    }


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


def validate_bench_doc(doc):
    """Schema check for a ``bench_kernels/1`` document; raises ValueError."""
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise ValueError(f"schema must be {SCHEMA!r}")
    for section in ("config", "env", "results"):
        if section not in doc:
            raise ValueError(f"missing section {section!r}")
    if not isinstance(doc["results"], list) or not doc["results"]:
        raise ValueError("results must be a non-empty list")
    for i, entry in enumerate(doc["results"]):
        for key in ("kernel", "profile", "records", "leaves",
                    "before_s", "after_s", "speedup"):
            if key not in entry:
                raise ValueError(f"results[{i}] missing {key!r}")
        if entry["kernel"] not in KNOWN_KERNELS:
            raise ValueError(f"results[{i}] unknown kernel {entry['kernel']!r}")
        for key in ("before_s", "after_s"):
            if not (isinstance(entry[key], (int, float)) and entry[key] > 0):
                raise ValueError(f"results[{i}].{key} must be positive")
        expected = entry["before_s"] / entry["after_s"]
        if abs(entry["speedup"] - expected) > 1e-9 * max(expected, 1.0):
            raise ValueError(f"results[{i}].speedup inconsistent")


def _print_table(doc):
    header = (f"{'kernel':<14} {'profile':<10} {'records':>8} {'leaves':>7} "
              f"{'before (ms)':>12} {'after (ms)':>11} {'speedup':>8}")
    print(header)
    print("-" * len(header))
    for e in doc["results"]:
        print(f"{e['kernel']:<14} {e['profile']:<10} {e['records']:>8} "
              f"{e['leaves']:>7} {e['before_s'] * 1e3:>12.3f} "
              f"{e['after_s'] * 1e3:>11.3f} {e['speedup']:>7.2f}x")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Wall-clock before/after benchmark of the level-batched "
                    "E/W/S kernels."
    )
    parser.add_argument("--records", type=int, nargs="+",
                        default=[4096, 16384],
                        help="dataset sizes (records per level)")
    parser.add_argument("--leaves", type=int, nargs="+",
                        default=[1, 4, 16, 64, 256],
                        help="leaf counts per level")
    parser.add_argument("--repeats", type=int, default=5,
                        help="best-of-N timing repeats")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_kernels.json",
                        help="output JSON path")
    parser.add_argument("--validate", metavar="FILE",
                        help="validate an existing document and exit")
    args = parser.parse_args(argv)

    if args.validate:
        with open(args.validate) as handle:
            validate_bench_doc(json.load(handle))
        print(f"{args.validate}: valid {SCHEMA} document")
        return 0

    doc = run_benchmarks(args.records, args.leaves, args.repeats, args.seed)
    validate_bench_doc(doc)
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    _print_table(doc)
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
