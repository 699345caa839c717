"""Wall-clock benchmark of the real-thread build backend.

Times ``build_classifier(runtime="threads")`` against the serial
(1-thread) build for every scheme on generated F2/F7 datasets, in both
runtime modes:

* **raw** (``pace=0``) — pure host wall clock.  On a multi-core host
  this shows whatever genuine thread-level overlap the GIL-releasing
  numpy kernels achieve; on a single-core host it honestly reports
  ~1.0x.
* **paced** (``pace>0``) — wall-clock replay of the virtual cost model:
  every charged model second becomes ``pace`` real seconds slept with
  the GIL released, so the overlap (and the measured speedup) is real
  concurrency between OS threads, reproducing the model's speedup
  curves in wall time even on one core.

Every timed build's tree is compared against the virtual-time build of
the same dataset; the document fails its gate (and is not written) if
any (scheme, procs, mode) tree differs.  Output is a
``bench_wallclock/1`` document, written through :mod:`suite`::

    PYTHONPATH=src python benchmarks/bench_wallclock.py
"""

import sys

from repro.core.builder import ALGORITHMS, build_classifier
from repro.core.serialize import _node_to_dict
from repro.data.generator import DatasetSpec, generate_dataset
from suite import Ratio, Suite, Table, best_of

SCHEMES = tuple(sorted(ALGORITHMS))
MODES = ("raw", "paced")

#: Full matrix: one mostly-continuous and one deeper-tree function,
#: small enough that the full sweep stays in the low tens of seconds.
DATASETS = [
    {"name": "F2", "function": 2, "n_attributes": 9, "n_records": 2000},
    {"name": "F7", "function": 7, "n_attributes": 9, "n_records": 1500},
]
QUICK_DATASETS = [
    {"name": "F2", "function": 2, "n_attributes": 9, "n_records": 600},
]


def run(datasets, procs, pace, repeats, seed):
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
        reference = _node_to_dict(
            build_classifier(
                dataset, algorithm="serial", runtime="virtual"
            ).tree.root
        )
        for mode in MODES:
            mode_pace = pace if mode == "paced" else 0.0
            for scheme in SCHEMES:
                # The serial scheme has no parallel phase; one data point.
                scheme_procs = (1,) if scheme == "serial" else procs
                baseline = None
                for n_procs in scheme_procs:
                    build_s, result = best_of(
                        lambda: build_classifier(
                            dataset,
                            algorithm=scheme,
                            n_procs=n_procs,
                            runtime="threads",
                            pace=mode_pace,
                        ),
                        repeats,
                    )
                    if n_procs == 1:
                        baseline = build_s
                    results.append({
                        "dataset": spec["name"],
                        "mode": mode,
                        "scheme": scheme,
                        "procs": n_procs,
                        "build_s": build_s,
                        "speedup": baseline / build_s,
                        "tree_matches_virtual": (
                            _node_to_dict(result.tree.root) == reference
                        ),
                    })
    best = max(
        (e for e in results if e["procs"] > 1),
        key=lambda e: e["speedup"],
        default=None,
    )
    return {
        "results": results,
        "summary": {
            "all_trees_match": all(
                e["tree_matches_virtual"] for e in results
            ),
            "max_parallel_speedup": best["speedup"] if best else None,
            "max_parallel_config": (
                {k: best[k] for k in ("dataset", "mode", "scheme", "procs")}
                if best else None
            ),
        },
    }


SUITE = Suite(
    schema="bench_wallclock/1",
    run=run,
    # ``procs`` must include 1: it is every series' speedup baseline.
    full=dict(datasets=DATASETS, procs=[1, 2, 4], pace=0.1, repeats=2,
              seed=7),
    quick=dict(datasets=QUICK_DATASETS, procs=[1, 2, 4], pace=0.1,
               repeats=1, seed=7),
    tables=(
        Table(
            key=("dataset", "mode", "scheme", "procs"),
            required=("dataset", "mode", "scheme", "procs", "build_s",
                      "speedup", "tree_matches_virtual"),
            enums={"mode": MODES, "scheme": SCHEMES},
            positive=("build_s",),
            ratios=(
                Ratio("speedup", "build_s", "build_s",
                      series=("dataset", "mode", "scheme"),
                      base=("procs", 1)),
            ),
            true=("tree_matches_virtual",),
            metrics=(
                ("speedup", "higher"),
                ("build_s", "lower"),
                ("tree_matches_virtual", "bool"),
            ),
        ),
    ),
    summary_true=("all_trees_match",),
    summary_metrics=(("all_trees_match", "bool"),),
)


if __name__ == "__main__":
    sys.exit(SUITE.main())
