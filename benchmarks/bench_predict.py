"""Batch-inference benchmark: compiled flat-tree IR vs the recursive oracle.

Sweeps tree depth x batch size x thread count over synthetic trees
(:mod:`repro.classify.treegen`) and times three single-thread predictors
on identical inputs:

* **oracle** — the legacy recursive router
  (:func:`repro.classify.predict.predict_oracle`), one Python call and
  a handful of numpy ops per visited node,
* **numpy** — the compiled IR's iterative level-synchronous vector
  router,
* **native** — the compiled IR's C kernel (present when a C compiler
  was available; rows skipped otherwise),

plus the :class:`~repro.classify.engine.InferenceEngine` at each thread
count, measuring end-to-end micro-batched throughput on the compiled
tree.  Every timed prediction is compared against the oracle's output;
any mismatch fails the document's gate (it is not written), so the
numbers always describe bit-identical results.

Output is a ``bench_predict/1`` document, written through :mod:`suite`::

    PYTHONPATH=src python benchmarks/bench_predict.py
"""

import sys

import numpy as np

from repro.classify.compiled import compiled_for
from repro.classify.engine import InferenceEngine
from repro.classify.native import native_available
from repro.classify.predict import predict_oracle
from repro.classify.treegen import random_columns, random_tree
from repro.data.schema import Attribute, AttributeKind, Schema
from suite import Ratio, Suite, Table, best_of

BACKENDS = ("oracle", "numpy", "native")

#: Full matrix.  ``leaf_prob`` controls bushiness: lower -> more
#: nodes at a given depth.  The mixed tree exercises the categorical
#: bitmask path; the continuous trees are the common serving shape.
TREES = [
    {"name": "cont-d8", "depth": 8, "leaf_prob": 0.1, "categorical": False},
    {"name": "cont-d12", "depth": 12, "leaf_prob": 0.05, "categorical": False},
    {"name": "cont-d16", "depth": 16, "leaf_prob": 0.05, "categorical": False},
    {"name": "cont-d20", "depth": 20, "leaf_prob": 0.03, "categorical": False},
    {"name": "mixed-d12", "depth": 12, "leaf_prob": 0.05, "categorical": True},
]
QUICK_TREES = [
    {"name": "cont-d8", "depth": 8, "leaf_prob": 0.2, "categorical": False},
]


def _schema(categorical):
    attrs = [
        Attribute(f"c{i}", AttributeKind.CONTINUOUS) for i in range(6)
    ]
    if categorical:
        attrs += [
            Attribute(f"k{i}", AttributeKind.CATEGORICAL, 16)
            for i in range(2)
        ]
    return Schema(attrs, class_names=("A", "B", "C"))


def run(trees, batch_sizes, threads, repeats, seed):
    results = []
    mismatches = []
    have_native = native_available()
    for spec in trees:
        schema = _schema(spec["categorical"])
        tree = random_tree(
            schema,
            max_depth=spec["depth"],
            seed=seed,
            leaf_prob=spec["leaf_prob"],
        )
        compiled = compiled_for(tree)
        for batch in batch_sizes:
            columns = random_columns(schema, batch, seed=seed + batch)
            oracle_s, want = best_of(
                lambda: predict_oracle(tree, columns), repeats
            )
            timings = {"oracle": oracle_s}
            for backend in ("numpy", "native"):
                if backend == "native" and not have_native:
                    continue
                seconds, got = best_of(
                    lambda b=backend: compiled.predict(columns, backend=b),
                    repeats,
                )
                timings[backend] = seconds
                if not np.array_equal(got, want):
                    mismatches.append((spec["name"], batch, backend))
            for backend, seconds in timings.items():
                results.append({
                    "kind": "predict",
                    "tree": spec["name"],
                    "depth": spec["depth"],
                    "n_nodes": compiled.n_nodes,
                    "backend": backend,
                    "batch": batch,
                    "threads": 1,
                    "seconds": seconds,
                    "rows_per_s": batch / seconds,
                    "speedup_vs_oracle": oracle_s / seconds,
                })
            for n_workers in threads:
                engine_batch = max(batch // max(n_workers, 1), 1)
                with InferenceEngine(
                    tree, batch_size=engine_batch, n_workers=n_workers
                ) as engine:
                    def through_engine():
                        pending = [
                            engine.submit(
                                {
                                    k: v[lo:lo + engine_batch]
                                    for k, v in columns.items()
                                }
                            )
                            for lo in range(0, batch, engine_batch)
                        ]
                        return np.concatenate(
                            [p.result(timeout=300) for p in pending]
                        )

                    seconds, got = best_of(through_engine, repeats)
                if not np.array_equal(got, want):
                    mismatches.append(
                        (spec["name"], batch, f"engine-{n_workers}")
                    )
                results.append({
                    "kind": "engine",
                    "tree": spec["name"],
                    "depth": spec["depth"],
                    "n_nodes": compiled.n_nodes,
                    "backend": "native" if have_native else "numpy",
                    "batch": batch,
                    "threads": n_workers,
                    "seconds": seconds,
                    "rows_per_s": batch / seconds,
                    "speedup_vs_oracle": oracle_s / seconds,
                })
    eligible = [
        e
        for e in results
        if e["kind"] == "predict"
        and e["backend"] != "oracle"
        and e["depth"] >= 12
        and e["batch"] >= 65536
    ]
    best = max(
        eligible, key=lambda e: e["speedup_vs_oracle"], default=None
    )
    return {
        "results": results,
        "summary": {
            "native_available": have_native,
            "all_outputs_match_oracle": not mismatches,
            "best_deep_batch_speedup": (
                best["speedup_vs_oracle"] if best else None
            ),
            "best_deep_batch_config": (
                {k: best[k] for k in ("tree", "backend", "batch")}
                if best
                else None
            ),
        },
    }


SUITE = Suite(
    schema="bench_predict/1",
    run=run,
    full=dict(trees=TREES, batch_sizes=[4096, 65536, 262144],
              threads=[1, 2, 4], repeats=5, seed=7),
    quick=dict(trees=QUICK_TREES, batch_sizes=[1024, 8192], threads=[1, 2],
               repeats=2, seed=7),
    tables=(
        Table(
            key=("kind", "tree", "backend", "batch", "threads"),
            required=("kind", "tree", "depth", "n_nodes", "backend",
                      "batch", "threads", "seconds", "rows_per_s",
                      "speedup_vs_oracle"),
            enums={"kind": ("predict", "engine"), "backend": BACKENDS},
            positive=("seconds",),
            ratios=(Ratio("rows_per_s", "batch", "seconds", tol=1e-6),),
            metrics=(("speedup_vs_oracle", "higher"),),
        ),
    ),
    summary_true=("all_outputs_match_oracle",),
    summary_metrics=(("all_outputs_match_oracle", "bool"),),
)


if __name__ == "__main__":
    sys.exit(SUITE.main())
