"""Forest inference benchmark: fused multi-tree walker vs per-tree loops.

Two sections, one ``bench_forest/1`` JSON document:

**Routing** sweeps tree count x batch size over synthetic forests
(:mod:`repro.classify.treegen`) and times four predictors on identical
inputs:

* **oracle** — per-tree recursive router + majority vote
  (:func:`repro.classify.forest.predict_forest_oracle`), the
  differential reference,
* **numpy** — the forest's per-tree compiled vector router + numpy vote
  accumulation,
* **pertree** — one native C ``route`` call *per member tree*, votes
  accumulated in numpy (the obvious way to serve a forest with the
  single-tree kernel),
* **fused** — the forest kernel's single C call: tree-major blocked
  8-lane interleaved walk with in-C vote accumulation and argmax.

Every timed prediction is compared against the oracle; any mismatch
fails the document's gate (it is not written), so the numbers always
describe bit-identical results.
The headline number is ``summary.fused_speedup_vs_pertree_at_32x64k``:
how much the fused walker beats the per-tree native loop at 32 trees on
a 65536-row batch.

**Accuracy** trains bagged forests against single trees on held-out
Quest F2 (simple) and F7 (complex) splits, recording test accuracy per
tree count — the classic variance-reduction curve.

Output is a ``bench_forest/1`` document, written through :mod:`suite`::

    PYTHONPATH=src python benchmarks/bench_forest.py
"""

import sys
import time

import numpy as np

from repro.classify.compiled import compiled_for
from repro.classify.forest import compile_forest, predict_forest_oracle
from repro.classify.metrics import accuracy
from repro.classify.native import native_available
from repro.classify.treegen import random_columns, random_tree
from repro.core.builder import build_classifier
from repro.data.generator import DatasetSpec, generate_dataset
from repro.data.schema import Attribute, AttributeKind, Schema
from repro.ensemble import train_forest
from suite import Ratio, Suite, Table, best_of

BACKENDS = ("oracle", "numpy", "pertree", "fused")

ACCURACY_DATASETS = [
    {"name": "quest-f2", "function": 2, "n_records": 8000},
    {"name": "quest-f7", "function": 7, "n_records": 8000},
]
QUICK_ACCURACY_DATASETS = [
    {"name": "quest-f2", "function": 2, "n_records": 1200},
]

#: Member-tree shape for the routing section: deep enough that routing
#: dominates, with a couple of categorical attributes so the bitmask
#: path is exercised inside the fused walker.
MEMBER_DEPTH = 10
MEMBER_LEAF_PROB = 0.05


def _routing_schema():
    attrs = [
        Attribute(f"c{i}", AttributeKind.CONTINUOUS) for i in range(6)
    ]
    attrs += [
        Attribute(f"k{i}", AttributeKind.CATEGORICAL, 16) for i in range(2)
    ]
    return Schema(attrs, class_names=("A", "B", "C"))


def _pertree_native(members, columns, n_classes):
    """The per-tree baseline: one native route per tree + numpy vote."""
    n = len(next(iter(columns.values())))
    votes = np.zeros((n, n_classes), dtype=np.int64)
    rows = np.arange(n)
    for member in members:
        votes[rows, member.predict(columns, backend="native")] += 1
    return np.argmax(votes, axis=1).astype(np.int32)


def run_routing(tree_counts, batch_sizes, repeats, seed):
    results = []
    mismatches = []
    have_native = native_available()
    schema = _routing_schema()
    max_trees = max(tree_counts)
    trees = [
        random_tree(
            schema,
            max_depth=MEMBER_DEPTH,
            seed=seed * 1000 + t,
            leaf_prob=MEMBER_LEAF_PROB,
        )
        for t in range(max_trees)
    ]
    for n_trees in tree_counts:
        members = [compiled_for(t) for t in trees[:n_trees]]
        forest = compile_forest(trees[:n_trees])
        for batch in batch_sizes:
            columns = random_columns(schema, batch, seed=seed + batch)
            oracle_s, want = best_of(
                lambda: predict_forest_oracle(trees[:n_trees], columns),
                repeats,
            )
            timings = {"oracle": oracle_s}
            numpy_s, got = best_of(
                lambda: forest.predict(columns, backend="numpy"), repeats
            )
            timings["numpy"] = numpy_s
            if not np.array_equal(got, want):
                mismatches.append((n_trees, batch, "numpy"))
            if have_native:
                pertree_s, got = best_of(
                    lambda: _pertree_native(
                        members, columns, forest.n_classes
                    ),
                    repeats,
                )
                timings["pertree"] = pertree_s
                if not np.array_equal(got, want):
                    mismatches.append((n_trees, batch, "pertree"))
                fused_s, got = best_of(
                    lambda: forest.predict(columns, backend="native"),
                    repeats,
                )
                timings["fused"] = fused_s
                if not np.array_equal(got, want):
                    mismatches.append((n_trees, batch, "fused"))
            pertree_s = timings.get("pertree")
            for backend, seconds in timings.items():
                results.append({
                    "kind": "route",
                    "n_trees": n_trees,
                    "n_nodes": forest.n_nodes,
                    "backend": backend,
                    "batch": batch,
                    "seconds": seconds,
                    "rows_per_s": batch / seconds,
                    "speedup_vs_oracle": oracle_s / seconds,
                    "speedup_vs_pertree": (
                        pertree_s / seconds
                        if pertree_s is not None
                        else None
                    ),
                })
    return results, mismatches


def run_accuracy(dataset_specs, tree_counts, seed):
    """Held-out accuracy: bagged forest vs the single pruned-free tree."""
    results = []
    for spec in dataset_specs:
        dataset = generate_dataset(
            DatasetSpec(
                function=spec["function"],
                n_attributes=9,
                n_records=spec["n_records"],
                perturbation=0.1,
                seed=seed,
            )
        )
        train, test = dataset.split(0.75, seed=seed)
        single = build_classifier(train).tree
        single_acc = accuracy(single, test)
        for n_trees in tree_counts:
            start = time.perf_counter()
            result = train_forest(
                train,
                n_trees,
                subsample=0.8,
                feature_frac=0.75,
                seed=seed,
                workers=min(4, n_trees),
            )
            train_s = time.perf_counter() - start
            forest_acc = accuracy(result.forest, test)
            results.append({
                "kind": "accuracy",
                "dataset": spec["name"],
                "function": spec["function"],
                "n_records": spec["n_records"],
                "n_trees": n_trees,
                "train_s": train_s,
                "forest_accuracy": forest_acc,
                "single_tree_accuracy": single_acc,
                "accuracy_delta": forest_acc - single_acc,
            })
    return results


def run(tree_counts, batch_sizes, accuracy_datasets, accuracy_tree_counts,
        repeats, seed):
    routing, mismatches = run_routing(
        tree_counts, batch_sizes, repeats, seed
    )
    acc = run_accuracy(accuracy_datasets, accuracy_tree_counts, seed)
    headline = [
        e for e in routing
        if e["backend"] == "fused"
        and e["n_trees"] == max(tree_counts)
        and e["batch"] == max(batch_sizes)
    ]
    best_delta = max(
        (e for e in acc), key=lambda e: e["accuracy_delta"], default=None
    )
    return {
        "results": routing + acc,
        "summary": {
            "native_available": native_available(),
            "all_outputs_match_oracle": not mismatches,
            "fused_speedup_vs_pertree_at_32x64k": (
                headline[0]["speedup_vs_pertree"] if headline else None
            ),
            "fused_speedup_vs_oracle_at_32x64k": (
                headline[0]["speedup_vs_oracle"] if headline else None
            ),
            "best_accuracy_delta": (
                {
                    "dataset": best_delta["dataset"],
                    "n_trees": best_delta["n_trees"],
                    "delta": best_delta["accuracy_delta"],
                }
                if best_delta
                else None
            ),
        },
    }


SUITE = Suite(
    schema="bench_forest/1",
    run=run,
    full=dict(tree_counts=[1, 8, 32], batch_sizes=[8192, 65536],
              accuracy_datasets=ACCURACY_DATASETS,
              accuracy_tree_counts=[1, 8, 32], repeats=5, seed=7),
    quick=dict(tree_counts=[1, 4], batch_sizes=[2048],
               accuracy_datasets=QUICK_ACCURACY_DATASETS,
               accuracy_tree_counts=[1, 4], repeats=2, seed=7),
    tables=(
        Table(
            where={"kind": "route"},
            key=("kind", "n_trees", "backend", "batch"),
            required=("n_trees", "n_nodes", "backend", "batch", "seconds",
                      "rows_per_s", "speedup_vs_oracle",
                      "speedup_vs_pertree"),
            enums={"backend": BACKENDS},
            positive=("seconds",),
            ratios=(Ratio("rows_per_s", "batch", "seconds", tol=1e-6),),
            metrics=(
                ("speedup_vs_oracle", "higher"),
                # The fused-walker headline: a regression here means
                # the multi-tree kernel lost its edge over routing
                # the member trees one at a time.
                ("speedup_vs_pertree", "higher"),
            ),
        ),
        Table(
            where={"kind": "accuracy"},
            key=("kind", "dataset", "n_trees"),
            required=("dataset", "n_trees", "forest_accuracy",
                      "single_tree_accuracy", "accuracy_delta"),
            within={
                "forest_accuracy": (0.0, 1.0),
                "single_tree_accuracy": (0.0, 1.0),
            },
            metrics=(
                # Held-out accuracy is deterministic per seed; drift
                # means training or voting changed behavior, not the
                # host.
                ("forest_accuracy", "higher"),
                ("single_tree_accuracy", "higher"),
            ),
        ),
    ),
    summary_true=("all_outputs_match_oracle",),
    summary_metrics=(
        ("all_outputs_match_oracle", "bool"),
        ("fused_speedup_vs_pertree_at_32x64k", "higher"),
    ),
)


if __name__ == "__main__":
    sys.exit(SUITE.main())
