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
CPUs (``summary.available_cpus``); past that, lanes time-share cores
and scaling is report-only.  Bit-identity gates apply everywhere,
always.

Usage::

    PYTHONPATH=src python benchmarks/bench_native_threads.py \
        --out BENCH_native_threads.json
    PYTHONPATH=src python benchmarks/bench_native_threads.py --quick
    PYTHONPATH=src python benchmarks/bench_native_threads.py \
        --validate BENCH_native_threads.json
"""

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

from repro._native import cc, pool
from repro.classify import native as cnative
from repro.classify.compiled import compiled_for
from repro.classify.forest import compile_forest
from repro.classify.treegen import random_columns, random_schema, random_tree
from repro.smp.cpus import available_cpus

SCHEMA = "bench_native_threads/1"
KNOWN_KERNELS = ("route.predict", "route.forest")
FOREST_TREES = 32
TREE_DEPTH = 12

MIN_TIMING_SECONDS = 0.02
MAX_REPEATS = 200

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


def run_benchmarks(rows_list, threads_list, repeats, seed):
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
                    seconds = _best_of(run, repeats)
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


def summarize(entries, all_identical, threads_list):
    """Worst speedup per kernel and lane count, keyed ``"<lanes>"``."""
    min_speedup = {}
    for e in entries:
        if e["threads"] == threads_list[0]:
            continue
        lanes = min_speedup.setdefault(e["kernel"], {})
        key = str(e["threads"])
        lanes[key] = min(lanes.get(key, float("inf")), e["speedup_vs_1"])
    return {
        "native_available": cnative.native_available(),
        "pool_available": pool.load() is not None,
        "available_cpus": available_cpus(),
        "min_speedup": min_speedup,
        "all_bit_identical": all_identical,
    }


def run_all(rows_list, threads_list, repeats, seed):
    entries, all_identical = run_benchmarks(
        rows_list, threads_list, repeats, seed
    )
    return {
        "schema": SCHEMA,
        "config": {
            "rows": list(rows_list),
            "threads": list(threads_list),
            "repeats": repeats,
            "seed": seed,
        },
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "available_cpus": available_cpus(),
            "compiler": cc.find_compiler(),
        },
        "results": entries,
        "summary": summarize(entries, all_identical, threads_list),
    }


# -- validation ---------------------------------------------------------------


def validate_bench_doc(doc):
    """Schema check for ``bench_native_threads/1``; raises ValueError."""
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise ValueError(f"schema must be {SCHEMA!r}")
    for section in ("config", "env", "results", "summary"):
        if section not in doc:
            raise ValueError(f"missing section {section!r}")
    results = doc["results"]
    if not isinstance(results, list) or not results:
        raise ValueError("results must be a non-empty list")
    base = {}
    for i, e in enumerate(results):
        for key in ("kernel", "rows", "threads", "seconds",
                    "speedup_vs_1", "bit_identical"):
            if key not in e:
                raise ValueError(f"results[{i}] missing {key!r}")
        if e["kernel"] not in KNOWN_KERNELS:
            raise ValueError(f"results[{i}] unknown kernel {e['kernel']!r}")
        if not (isinstance(e["seconds"], (int, float)) and e["seconds"] > 0):
            raise ValueError(f"results[{i}].seconds must be > 0")
        if e["bit_identical"] is not True:
            # Unconditional: a cell that computed something else has no
            # business contributing a timing, on any host.
            raise ValueError(
                f"results[{i}] ({e['kernel']}, rows={e['rows']}, "
                f"threads={e['threads']}) is not bit-identical"
            )
        cell = (e["kernel"], e["rows"])
        base.setdefault(cell, e["seconds"])
        expected = base[cell] / e["seconds"]
        if abs(e["speedup_vs_1"] - expected) > 1e-9 * max(expected, 1.0):
            raise ValueError(f"results[{i}].speedup_vs_1 inconsistent")
    summary = doc["summary"]
    if summary.get("all_bit_identical") is not True:
        raise ValueError("summary.all_bit_identical must be true")
    if not summary.get("pool_available"):
        return
    cpus = summary.get("available_cpus")
    if not isinstance(cpus, int) or cpus < 1:
        raise ValueError("summary.available_cpus must be a positive int")
    for (kernel, lanes), floor in SPEEDUP_FLOORS.items():
        got = summary.get("min_speedup", {}).get(kernel, {}).get(str(lanes))
        if got is None or lanes > cpus:
            continue
        if not got >= floor:
            raise ValueError(
                f"summary.min_speedup[{kernel!r}][{lanes}] must be >= "
                f"{floor} with {cpus} usable CPUs, got {got:.2f}"
            )


# -- CLI ----------------------------------------------------------------------


def _print_report(doc):
    header = (f"{'kernel':<15} {'rows':>9} {'threads':>7} "
              f"{'seconds (ms)':>13} {'speedup':>8} {'identical':>9}")
    print(header)
    print("-" * len(header))
    for e in doc["results"]:
        print(f"{e['kernel']:<15} {e['rows']:>9} {e['threads']:>7} "
              f"{e['seconds'] * 1e3:>13.3f} {e['speedup_vs_1']:>7.2f}x "
              f"{'yes' if e['bit_identical'] else 'NO':>9}")
    summary = doc["summary"]
    cpus = summary["available_cpus"]
    for kernel, by_lanes in sorted(summary["min_speedup"].items()):
        for lanes in sorted(by_lanes, key=int):
            speedup = by_lanes[lanes]
            tag = "" if int(lanes) <= cpus else \
                f" (> {cpus} usable CPUs, report-only)"
            print(f"{kernel}: {speedup:.2f}x at {lanes} lanes{tag}")
    print(f"all cells bit-identical: {summary['all_bit_identical']}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Thread-scaling benchmark of the in-kernel worker pool."
    )
    parser.add_argument("--rows", type=int, nargs="+",
                        default=[65536, 262144])
    parser.add_argument("--threads", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="shrink the sweep for CI smoke runs")
    parser.add_argument("--out", default="BENCH_native_threads.json")
    parser.add_argument("--validate", metavar="FILE",
                        help="validate an existing document and exit")
    args = parser.parse_args(argv)

    if args.validate:
        with open(args.validate) as handle:
            validate_bench_doc(json.load(handle))
        print(f"{args.validate}: valid {SCHEMA} document")
        return 0

    if not cnative.native_available():
        print("native kernels unavailable (no C compiler?); nothing to "
              "benchmark", file=sys.stderr)
        return 1
    if pool.load() is None:
        print("worker pool unavailable (no pthreads?); nothing to "
              "benchmark", file=sys.stderr)
        return 1

    if args.quick:
        rows, threads, repeats = [65536], [1, 2], 1
    else:
        rows, threads, repeats = args.rows, args.threads, args.repeats
    if threads[0] != 1:
        parser.error("--threads must start at 1 (the speedup baseline)")

    doc = run_all(rows, threads, repeats, args.seed)
    validate_bench_doc(doc)
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    _print_report(doc)
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
