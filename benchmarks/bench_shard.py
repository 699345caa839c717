"""Wall-clock benchmark of the sharded multi-process build backend.

Times ``build_classifier(runtime="procs")`` across process counts and
both split-merge protocols on a >=100k-row Quest dataset, in both
runtime modes:

* **raw** (``pace=0``) — pure host wall clock.  On a multi-core host
  the shards' numpy/native work overlaps across processes (no GIL);
  on a single-core host this honestly reports ~1.0x or below.
* **paced** (``pace>0``) — wall-clock replay of the machine cost
  model: every charged model second becomes ``pace`` real seconds
  slept inside the worker processes, so the measured overlap between
  shards is real OS-level concurrency and reproduces the model's
  speedup curves even on one core (same convention as
  ``bench_wallclock.py``).

Every ``merge="exact"`` tree is compared node-for-node against the
serial baseline (any divergence fails the document's gate — that
protocol promises bit-identical trees).  ``merge="vote"`` trees may
legally differ, so the document records their training-accuracy delta
and bytes saved instead.  Output is a ``bench_shard/1`` document,
written through :mod:`suite`::

    PYTHONPATH=src python benchmarks/bench_shard.py
"""

import sys

from repro.classify.metrics import accuracy
from repro.core.builder import build_classifier
from repro.core.serialize import _node_to_dict
from repro.data.generator import DatasetSpec, generate_dataset
from repro.shard.pool import shutdown_pools
from suite import Ratio, Suite, Table, best_of

MODES = ("raw", "paced")
MERGES = ("exact", "vote")

#: Full matrix: one 100k-row dataset (the acceptance floor) across
#: 1/2/4 worker processes and both merge protocols.
DATASETS = [
    {"name": "F2-100K", "function": 2, "n_attributes": 9,
     "n_records": 100_000},
]
QUICK_DATASETS = [
    {"name": "F2-2K", "function": 2, "n_attributes": 9, "n_records": 2000},
]


def run(datasets, shards, pace, vote_k, repeats, seed):
    try:
        results = _sweep(datasets, shards, pace, vote_k, repeats, seed)
    finally:
        shutdown_pools()
    return {"results": results, "summary": _summarize(results, shards)}


def _sweep(datasets, shards_list, pace, vote_k, repeats, seed):
    results = []
    for spec in datasets:
        dataset = generate_dataset(
            DatasetSpec(
                function=spec["function"],
                n_attributes=spec["n_attributes"],
                n_records=spec["n_records"],
                seed=seed,
            )
        )
        serial = build_classifier(dataset, algorithm="serial").tree
        reference = _node_to_dict(serial.root)
        serial_accuracy = accuracy(serial, dataset)
        for mode in MODES:
            mode_pace = pace if mode == "paced" else 0.0
            for merge in MERGES:
                baseline = None
                for shards in shards_list:
                    build_s, result = best_of(
                        lambda: build_classifier(
                            dataset,
                            runtime="procs",
                            shards=shards,
                            merge=merge,
                            vote_k=vote_k,
                            pace=mode_pace,
                        ),
                        repeats,
                    )
                    matches = _node_to_dict(result.tree.root) == reference
                    if shards == shards_list[0]:
                        baseline = build_s
                    sh = result.shard
                    results.append({
                        "dataset": spec["name"],
                        "mode": mode,
                        "merge": merge,
                        "shards": shards,
                        "build_s": build_s,
                        "speedup": baseline / build_s,
                        "tree_matches_serial": matches,
                        "accuracy_delta": (
                            accuracy(result.tree, dataset) - serial_accuracy
                        ),
                        "bytes_total": sh.bytes_total,
                        "rounds_total": sum(sh.rounds.values()),
                        "model_seconds": sh.model_seconds,
                        "worker_busy_s": sh.worker_busy_s,
                    })
    return results


def _summarize(results, shards_list):
    max_shards = max(shards_list)

    def pick(mode, merge, shards):
        for e in results:
            if (e["mode"], e["merge"], e["shards"]) == (mode, merge, shards):
                return e
        return None

    paced = pick("paced", "exact", max_shards)
    exact = pick("raw", "exact", max_shards)
    vote = pick("raw", "vote", max_shards)
    return {
        "all_exact_trees_match": all(
            e["tree_matches_serial"]
            for e in results if e["merge"] == "exact"
        ),
        "paced_exact_speedup_at_max_shards": (
            paced["speedup"] if paced else None
        ),
        "max_shards": max_shards,
        "vote_bytes_ratio": (
            vote["bytes_total"] / exact["bytes_total"]
            if vote and exact and exact["bytes_total"] else None
        ),
        "worst_vote_accuracy_delta": min(
            (e["accuracy_delta"] for e in results if e["merge"] == "vote"),
            default=None,
        ),
    }


SUITE = Suite(
    schema="bench_shard/1",
    run=run,
    # ``shards`` must start at 1: it is every series' speedup baseline.
    full=dict(datasets=DATASETS, shards=[1, 2, 4], pace=0.03, vote_k=3,
              repeats=1, seed=7),
    quick=dict(datasets=QUICK_DATASETS, shards=[1, 2, 4], pace=0.03,
               vote_k=3, repeats=1, seed=7),
    tables=(
        Table(
            key=("dataset", "mode", "merge", "shards"),
            required=("dataset", "mode", "merge", "shards", "build_s",
                      "speedup", "tree_matches_serial", "accuracy_delta",
                      "bytes_total", "rounds_total"),
            enums={"mode": MODES, "merge": MERGES},
            positive=("build_s", "bytes_total"),
            ratios=(
                Ratio("speedup", "build_s", "build_s",
                      series=("dataset", "mode", "merge"),
                      base=("shards", 1)),
            ),
            metrics=(
                ("speedup", "higher"),
                ("build_s", "lower"),
                # Protocol traffic is deterministic per config; more
                # bytes than baseline means the merge got chattier.
                ("bytes_total", "lower"),
                ("tree_matches_serial", "bool"),
            ),
        ),
        # The exact merge promises the serial tree, hence its accuracy.
        Table(
            where={"merge": "exact"},
            true=("tree_matches_serial",),
            within={"accuracy_delta": (0, 0)},
        ),
    ),
    summary_true=("all_exact_trees_match",),
    summary_metrics=(("all_exact_trees_match", "bool"),),
)


if __name__ == "__main__":
    sys.exit(SUITE.main())
