"""In-kernel thread-scaling benchmark for the native worker pool.

Two kernel families go through ``repro_parallel_for`` — single-tree
routing and the fused forest walker (the training kernels are
single-threaded) — and each is timed across a pool-lane sweep (default
``1, 2, 4``) and a row sweep.  Every cell is checked *bit-identical*
against the numpy reference before its time counts: the pool's
contract is that lane count changes wall-clock and nothing else, so a
benchmark cell that diverged would be measuring a different
computation.

Speedups are relative to the same kernel at one lane.  A speedup floor
for ``L`` lanes is checked only when the host has at least ``L`` usable
CPUs (``env.available_cpus``, which ignores ``REPRO_NATIVE_THREADS``);
past that, lanes time-share cores and scaling is report-only.
Bit-identity gates apply everywhere, always.

Output is a ``bench_native_threads/1`` document, written through
:mod:`suite`::

    PYTHONPATH=src python benchmarks/bench_native_threads.py
"""

import sys

import numpy as np

from repro._native import cc, pool
from repro.classify import native as cnative
from repro.classify.compiled import compiled_for
from repro.classify.forest import compile_forest
from repro.classify.treegen import random_columns, random_schema, random_tree
from suite import Ratio, Suite, Table, best_of

KNOWN_KERNELS = ("route.predict", "route.forest")
FOREST_TREES = 32
TREE_DEPTH = 12

#: Speedup floor per (kernel, lanes), enforced only where ``lanes`` <=
#: the host's usable CPUs.  The fused forest walker is compute-bound
#: and must reach 2x at 4 lanes; its 2-lane floor is the same 50%
#: parallel efficiency.  The single-tree router moves more bytes per
#: flop, so the gate only demands that lanes never make it slower.
SPEEDUP_FLOORS = {
    ("route.forest", 2): 1.0,
    ("route.forest", 4): 2.0,
    ("route.predict", 2): 1.0,
    ("route.predict", 4): 1.0,
}


# -- workloads ----------------------------------------------------------------
#
# Each workload returns ``(run, reference)``: ``run()`` executes the
# kernel under whatever gate/lane context the sweep installed and
# returns a comparable result; ``reference`` is the numpy answer.


def _predict_workload(rows, rng):
    schema = random_schema(rng)
    compiled = compiled_for(random_tree(schema, TREE_DEPTH, seed=7))
    columns = random_columns(schema, rows, rng=rng)

    def run():
        return compiled.predict(columns)

    with cc.native_override("off"):
        return run, run()


def _forest_workload(rows, rng):
    schema = random_schema(rng)
    forest = compile_forest(
        [
            random_tree(schema, TREE_DEPTH, seed=100 + i, leaf_prob=0.2)
            for i in range(FOREST_TREES)
        ]
    )
    columns = random_columns(schema, rows, rng=rng)

    def run():
        return forest.predict(columns)

    with cc.native_override("off"):
        return run, run()


WORKLOADS = {
    "route.predict": _predict_workload,
    "route.forest": _forest_workload,
}


def _results_equal(got, ref):
    return bool(np.array_equal(np.asarray(got), np.asarray(ref)))


# -- the sweep ----------------------------------------------------------------


def _sweep(rows_list, threads_list, repeats, seed):
    entries = []
    all_identical = True
    for kernel, make in WORKLOADS.items():
        for rows in rows_list:
            rng = np.random.default_rng(seed + rows)
            run, reference = make(rows, rng)
            base_s = None
            for threads in threads_list:
                with cc.native_override("on"), pool.thread_override(threads):
                    got = run()
                    identical = _results_equal(got, reference)
                    seconds = best_of(run, repeats)[0]
                all_identical = all_identical and identical
                if threads == threads_list[0]:
                    base_s = seconds
                entries.append({
                    "kernel": kernel,
                    "rows": rows,
                    "threads": threads,
                    "seconds": seconds,
                    "speedup_vs_1": base_s / seconds,
                    "bit_identical": identical,
                })
    return entries, all_identical


def run(rows, threads, repeats, seed):
    if not cnative.native_available():
        raise SystemExit(
            "native kernels unavailable (no C compiler?); nothing to benchmark"
        )
    if pool.load() is None:
        raise SystemExit(
            "worker pool unavailable (no pthreads?); nothing to benchmark"
        )
    entries, all_identical = _sweep(rows, threads, repeats, seed)
    min_speedup = {}
    for e in entries:
        if e["threads"] == threads[0]:
            continue
        lanes = min_speedup.setdefault(e["kernel"], {})
        key = str(e["threads"])
        lanes[key] = min(lanes.get(key, float("inf")), e["speedup_vs_1"])
    return {
        "results": entries,
        "summary": {
            "native_available": cnative.native_available(),
            "pool_available": pool.load() is not None,
            # Worst speedup per kernel and lane count, keyed "<lanes>".
            "min_speedup": min_speedup,
            "all_bit_identical": all_identical,
        },
    }


def check_lane_floors(doc):
    """Each :data:`SPEEDUP_FLOORS` entry whose lanes fit the host's CPUs."""
    if not doc["summary"].get("pool_available"):
        return
    cpus = doc["env"].get("available_cpus")
    if not isinstance(cpus, int) or cpus < 1:
        raise ValueError("env.available_cpus must be a positive int")
    min_speedup = doc["summary"].get("min_speedup", {})
    for (kernel, lanes), floor in SPEEDUP_FLOORS.items():
        got = min_speedup.get(kernel, {}).get(str(lanes))
        if got is None or lanes > cpus:
            continue
        if not got >= floor:
            raise ValueError(
                f"summary.min_speedup[{kernel!r}][{lanes}] must be >= "
                f"{floor} with {cpus} usable CPUs, got {got:.2f}"
            )


SUITE = Suite(
    schema="bench_native_threads/1",
    run=run,
    # ``threads`` must start at 1: it is every cell's speedup baseline.
    full=dict(rows=[65536, 262144], threads=[1, 2, 4], repeats=5, seed=0),
    quick=dict(rows=[65536], threads=[1, 2], repeats=1, seed=0),
    tables=(
        Table(
            key=("kernel", "rows", "threads"),
            required=("kernel", "rows", "threads", "seconds",
                      "speedup_vs_1", "bit_identical"),
            enums={"kernel": KNOWN_KERNELS},
            positive=("seconds",),
            ratios=(
                Ratio("speedup_vs_1", "seconds", "seconds",
                      series=("kernel", "rows"), base=("threads", 1)),
            ),
            # A cell that computed something else has no business
            # contributing a timing, on any host.
            true=("bit_identical",),
            metrics=(
                # Identity is the pool's contract and holds on any host;
                # the lane-scaling ratio is banded like any ratio.
                ("bit_identical", "bool"),
                ("speedup_vs_1", "higher"),
            ),
        ),
    ),
    summary_true=("all_bit_identical",),
    summary_metrics=(("all_bit_identical", "bool"),),
    checks=(check_lane_floors,),
)


if __name__ == "__main__":
    sys.exit(SUITE.main())
