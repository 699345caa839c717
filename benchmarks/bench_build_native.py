"""Native-vs-numpy training kernel benchmark (wall clock).

Two layers, matching the two claims the native kernels make:

1. **Kernel microbench** — the segmented continuous split scan, the
   categorical count tensor, the stable partition and the probe
   membership test, each timed numpy-vs-C across a ``records x leaves``
   sweep (both value profiles: ``uniform`` with all-distinct values and
   ``quantized`` with heavy run compression, where the numpy reduceat
   spelling is at its best).  The headline number is the scan speedup
   at >=64 leaves on the uniform profile.
2. **End-to-end raw-threads builds** — ``runtime="threads"`` with
   ``pace=0`` (real wall clock, no cost-model replay), numpy vs native
   at one thread and native across a thread sweep.  Because the C
   kernels release the GIL, thread counts >=2 can overlap E/S work on
   multi-core hosts; on a single-core container the sweep still runs
   but the scaling numbers are *report-only* (the summary records
   ``multicore_host`` so consumers know which regime produced them).
   Every build's tree is checked against the numpy serial reference —
   a benchmark that silently benchmarked a different tree would be
   worthless.

Output is a ``bench_build_native/1`` document, written through
:mod:`suite`::

    PYTHONPATH=src python benchmarks/bench_build_native.py
"""

import sys

import numpy as np

from repro._native import cc
from repro.core.builder import build_classifier
from repro.data.generator import DatasetSpec, generate_dataset
from repro.sprint import kernels as K
from repro.sprint import native
from repro.sprint.probe import HashProbe
from repro.smp.cpus import usable_cpus
from repro.sprint.records import CONTINUOUS_RECORD
from suite import Ratio, Suite, Table, best_of

KNOWN_KERNELS = (
    "E.continuous", "E.categorical", "S.partition", "W.membership"
)
PROFILES = ("uniform", "quantized")
QUANTIZED_CARD = 32
CATEGORICAL_CARD = 8
N_CLASSES = 2

#: Floor on the uniform-profile continuous scan at >= 64 leaves, gated
#: whenever the native kernels are available.
MIN_CONTINUOUS_SPEEDUP_64PLUS = 2.0

DATASETS = [
    {"name": "F2-10K", "function": 2, "n_attributes": 9, "n_records": 10_000},
]
QUICK_DATASETS = [
    {"name": "F2-2K", "function": 2, "n_attributes": 9, "n_records": 2_000},
]


# -- kernel microbenchmarks ---------------------------------------------------


def _make_level(rng, records, leaves, profile):
    per_leaf = max(records // leaves, 2)
    vs, cs, offsets = [], [], [0]
    for _ in range(leaves):
        if profile == "uniform":
            values = np.sort(rng.random(per_leaf))
        else:
            values = np.sort(
                rng.integers(0, QUANTIZED_CARD, per_leaf).astype(np.float64)
            )
        vs.append(values)
        cs.append(rng.integers(0, N_CLASSES, per_leaf).astype(np.int32))
        offsets.append(offsets[-1] + per_leaf)
    return (
        np.concatenate(vs),
        np.concatenate(cs),
        np.asarray(offsets, dtype=np.int64),
    )


def _time_both(fn, repeats):
    """(numpy_s, native_s) of the same callable under both gates."""
    with cc.native_override("off"):
        numpy_s = best_of(fn, repeats)[0]
    with cc.native_override("on"):
        native_s = best_of(fn, repeats)[0]
    return numpy_s, native_s


def bench_kernels(records_list, leaves_list, repeats, seed):
    rng = np.random.default_rng(seed)
    entries = []

    def entry(kernel, profile, records, leaves, numpy_s, native_s):
        entries.append({
            "kernel": kernel,
            "profile": profile,
            "records": records,
            "leaves": leaves,
            "numpy_s": numpy_s,
            "native_s": native_s,
            "speedup": numpy_s / native_s,
        })

    for records in records_list:
        for leaves in leaves_list:
            for profile in PROFILES:
                values, classes, offsets = _make_level(
                    rng, records, leaves, profile
                )
                n_s, c_s = _time_both(
                    lambda: K.segmented_continuous_splits(
                        values, classes, offsets, N_CLASSES
                    ),
                    repeats,
                )
                entry("E.continuous", profile, records, leaves, n_s, c_s)

        leaves = leaves_list[len(leaves_list) // 2]
        _, classes, offsets = _make_level(rng, records, leaves, "uniform")
        cat_values = rng.integers(
            0, CATEGORICAL_CARD, len(classes)
        ).astype(np.int64)
        n_s, c_s = _time_both(
            lambda: K.segmented_categorical_counts(
                cat_values, classes, offsets, CATEGORICAL_CARD, N_CLASSES
            ),
            repeats,
        )
        entry("E.categorical", "uniform", records, leaves, n_s, c_s)

        recs = np.zeros(records, dtype=CONTINUOUS_RECORD)
        recs["value"] = rng.random(records)
        recs["cls"] = rng.integers(0, N_CLASSES, records)
        recs["tid"] = rng.permutation(records)
        mask = rng.random(records) < 0.5
        n_s, c_s = _time_both(
            lambda: K.partition_stable(recs, mask), repeats
        )
        entry("S.partition", "uniform", records, 1, n_s, c_s)

        probe = HashProbe()
        probe.mark_left(
            rng.choice(records * 2, records // 2, replace=False).astype(
                np.int64
            )
        )
        queries = rng.integers(0, records * 2, records).astype(np.int64)
        n_s, c_s = _time_both(lambda: probe.contains(queries), repeats)
        entry("W.membership", "uniform", records, 1, n_s, c_s)
    return entries


# -- end-to-end raw-threads builds --------------------------------------------


def bench_builds(dataset_specs, threads_list, repeats, seed):
    entries = []
    all_match = True
    for spec in dataset_specs:
        dataset = generate_dataset(
            DatasetSpec(
                function=spec["function"],
                n_attributes=spec["n_attributes"],
                n_records=spec["n_records"],
                seed=seed,
            )
        )
        reference = build_classifier(
            dataset, algorithm="serial", runtime="virtual"
        ).tree.signature()

        def run(backend, threads):
            nonlocal all_match
            mode = "on" if backend == "native" else "off"
            with cc.native_override(mode):
                build_s, result = best_of(
                    lambda: build_classifier(
                        dataset, algorithm="mwk", n_procs=threads,
                        runtime="threads", pace=0.0,
                    ),
                    repeats,
                )
            matches = result.tree.signature() == reference
            all_match = all_match and matches
            entries.append({
                "dataset": spec["name"],
                "backend": backend,
                "threads": threads,
                "build_s": build_s,
                "tree_matches": matches,
            })

        run("numpy", 1)
        for threads in threads_list:
            run("native", threads)
    return entries, all_match


# -- document assembly --------------------------------------------------------


def summarize(kernel_entries, build_entries, all_match):
    cont_64plus = [
        e["speedup"]
        for e in kernel_entries
        if e["kernel"] == "E.continuous"
        and e["profile"] == "uniform"
        and e["leaves"] >= 64
    ]
    native_1t = {}
    numpy_1t = {}
    scaling = {}
    for e in build_entries:
        if e["backend"] == "native":
            native_1t.setdefault(e["dataset"], {})[e["threads"]] = e["build_s"]
        elif e["threads"] == 1:
            numpy_1t[e["dataset"]] = e["build_s"]
    single_thread = [
        numpy_1t[ds] / per_thread[1]
        for ds, per_thread in native_1t.items()
        if ds in numpy_1t and 1 in per_thread
    ]
    for ds, per_thread in native_1t.items():
        base = per_thread.get(1)
        if base is None:
            continue
        for threads, build_s in sorted(per_thread.items()):
            if threads > 1:
                scaling.setdefault(str(threads), []).append(base / build_s)
    return {
        "native_available": native.native_available(),
        "min_continuous_speedup_64plus": (
            min(cont_64plus) if cont_64plus else None
        ),
        "max_continuous_speedup": max(
            (e["speedup"] for e in kernel_entries
             if e["kernel"] == "E.continuous"),
            default=None,
        ),
        "single_thread_build_speedup": (
            min(single_thread) if single_thread else None
        ),
        "threads_build_speedup": {
            threads: min(values) for threads, values in scaling.items()
        },
        "multicore_host": usable_cpus() >= 2,
        "all_trees_match": all_match,
    }


def run(records, leaves, datasets, threads, repeats, seed):
    if not native.native_available():
        raise SystemExit(
            "native kernels unavailable (no C compiler?); nothing to benchmark"
        )
    kernel_entries = bench_kernels(records, leaves, repeats, seed)
    build_entries, all_match = bench_builds(datasets, threads, repeats, seed)
    return {
        "results": {
            "kernels": kernel_entries,
            "builds": build_entries,
        },
        "summary": summarize(kernel_entries, build_entries, all_match),
    }


def check_floors(doc):
    """The native speedup floors, armed only where they are attainable.

    The continuous-scan floor holds whenever the C kernels ran; build
    thread scaling must beat one thread only on a multi-core host, and
    single-core hosts record it report-only.
    """
    summary = doc["summary"]
    if not summary.get("native_available"):
        return
    floor = summary.get("min_continuous_speedup_64plus")
    if not (isinstance(floor, (int, float))
            and floor >= MIN_CONTINUOUS_SPEEDUP_64PLUS):
        raise ValueError(
            "summary.min_continuous_speedup_64plus must be >= "
            f"{MIN_CONTINUOUS_SPEEDUP_64PLUS} when native kernels are "
            f"available, got {floor!r}"
        )
    if summary.get("multicore_host"):
        for threads, speedup in summary["threads_build_speedup"].items():
            if not speedup > 1.0:
                raise ValueError(
                    f"threads_build_speedup[{threads}] must be > 1.0 on "
                    f"a multi-core host, got {speedup}"
                )


SUITE = Suite(
    schema="bench_build_native/1",
    run=run,
    full=dict(records=[16384, 131072], leaves=[1, 16, 64, 256],
              datasets=DATASETS, threads=[1, 2, 4], repeats=5, seed=0),
    quick=dict(records=[16384], leaves=[1, 64], datasets=QUICK_DATASETS,
               threads=[1, 2], repeats=1, seed=0),
    tables=(
        Table(
            path=("results", "kernels"),
            key=("kernel", "profile", "records", "leaves"),
            required=("kernel", "profile", "records", "leaves",
                      "numpy_s", "native_s", "speedup"),
            enums={"kernel": KNOWN_KERNELS},
            positive=("numpy_s", "native_s"),
            ratios=(Ratio("speedup", "numpy_s", "native_s"),),
            metrics=(("speedup", "higher"),),
        ),
        Table(
            path=("results", "builds"),
            key=("dataset", "backend", "threads"),
            required=("dataset", "backend", "threads", "build_s",
                      "tree_matches"),
            enums={"backend": ("numpy", "native")},
            metrics=(("build_s", "lower"), ("tree_matches", "bool")),
        ),
    ),
    summary_true=("all_trees_match",),
    summary_metrics=(("all_trees_match", "bool"),),
    checks=(check_floors,),
)


if __name__ == "__main__":
    sys.exit(SUITE.main())
