"""Command-line interface.

Everything the library does, driveable from a shell::

    python -m repro generate  --function 7 --attributes 32 \
                              --records 10000 -o data.npz
    python -m repro build     -i data.npz --algorithm mwk --procs 4 \
                              --machine b -o tree.json --prune
    python -m repro classify  -i data.npz --tree tree.json
    python -m repro predict   --model tree.json --data data.npz \
                              --batch-size 8192 --workers 2
    echo '{"salary": 50e3, ...}' | python -m repro serve --model tree.json \
                              --telemetry-port 9100
    python -m repro top       --url http://127.0.0.1:9100
    python -m repro benchmark --experiment fig10
    python -m repro info
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench import experiments
from repro.bench.reporting import format_table, speedup_table
from repro.classify.metrics import accuracy, confusion_matrix
from repro.classify.prune import mdl_prune
from repro.core.builder import ALGORITHMS, build_classifier
from repro.core.params import BuildParams
from repro.core.serialize import load_model, save_model, save_tree
from repro.data.generator import DatasetSpec, generate_dataset
from repro.data.io import (
    load_dataset_csv,
    load_dataset_npz,
    save_dataset_csv,
    save_dataset_npz,
)
from repro.smp.machine import machine_a, machine_b

_MACHINES = {"a": machine_a, "b": machine_b}


def _load_dataset(path: str):
    if path.endswith(".csv"):
        return load_dataset_csv(path)
    return load_dataset_npz(path)


def _save_dataset(dataset, path: str) -> None:
    if path.endswith(".csv"):
        save_dataset_csv(dataset, path)
    else:
        save_dataset_npz(dataset, path)


def _add_native_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--native", default="auto", choices=("auto", "on", "off"),
        help="C training kernels: auto (default) follows REPRO_NATIVE, "
             "on/off override the environment",
    )
    sub.add_argument(
        "--native-threads", type=int, default=0, metavar="N",
        help="in-kernel worker-pool threads for the native inference "
             "kernels, tree routing and forest voting (0 = follow "
             "REPRO_NATIVE_THREADS, then all available CPUs; 1 = serial); "
             "training kernels are single-threaded",
    )


def _apply_native_mode(args: argparse.Namespace) -> None:
    """Install the --native override; precedence: flag > env > default-on."""
    from repro._native import cc, pool
    from repro.sprint import native as sprint_native

    cc.set_native_override(args.native)
    pool.set_thread_override(getattr(args, "native_threads", 0) or None)
    if args.native == "on" and not sprint_native.native_available():
        print(
            "warning: --native on, but the C kernels are unavailable "
            "(no C compiler, or compilation failed); using numpy",
            file=sys.stderr,
        )


def cmd_generate(args: argparse.Namespace) -> int:
    spec = DatasetSpec(
        function=args.function,
        n_attributes=args.attributes,
        n_records=args.records,
        perturbation=args.perturbation,
        seed=args.seed,
    )
    dataset = generate_dataset(spec)
    _save_dataset(dataset, args.output)
    print(
        f"wrote {dataset.name}: {dataset.n_records} records, "
        f"{dataset.n_attributes} attributes, "
        f"{dataset.nbytes / 1e6:.1f} MB -> {args.output}"
    )
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    _apply_native_mode(args)
    dataset = _load_dataset(args.input)
    shards = None
    if args.runtime == "procs":
        # --shards 0 (the default) falls back to --procs, then to the
        # CPUs in this process's affinity mask.
        from repro.smp.cpus import available_cpus

        shards = args.shards or args.procs or available_cpus()
    if args.forest:
        return _build_forest(args, dataset, shards)
    n_procs = shards if shards is not None else args.procs
    machine = _MACHINES[args.machine](n_procs)
    params = BuildParams(window=args.window, max_depth=args.max_depth)
    collector = None
    if args.trace_out or args.metrics_out:
        from repro.obs import SpanCollector

        collector = SpanCollector()
    result = build_classifier(
        dataset,
        algorithm=args.algorithm,
        machine=machine,
        n_procs=args.procs,
        params=params,
        collector=collector,
        runtime=args.runtime,
        pace=args.pace,
        shards=shards,
        merge=args.merge,
        vote_k=args.vote_k,
    )
    tree = result.tree
    if args.prune:
        tree, report = mdl_prune(tree)
        print(
            f"pruned {report.nodes_removed} nodes "
            f"({report.nodes_before} -> {report.nodes_after})"
        )
    t = result.timings
    clock = "virtual" if args.runtime == "virtual" else (
        "wall, paced model replay" if args.pace else "wall"
    )
    print(
        f"{dataset.name} via {result.algorithm} on {result.n_procs} "
        f"processor(s) [{machine.name}]: setup {t['setup']:.2f}s, "
        f"sort {t['sort']:.2f}s, build {t['build']:.2f}s, "
        f"total {t['total']:.2f}s ({clock})"
    )
    print(
        f"tree: {tree.n_nodes} nodes, {tree.n_leaves} leaves, "
        f"{tree.n_levels} levels; training accuracy "
        f"{accuracy(tree, dataset):.4f}"
    )
    if result.shard is not None:
        sh = result.shard
        rounds = sum(sh.rounds.values())
        print(
            f"shards: {sh.shards} worker(s) [{sh.start_method}], "
            f"merge={sh.merge}, {rounds} rounds, "
            f"{sh.bytes_total:,} bytes exchanged, "
            f"worker busy {sh.worker_busy_s:.2f}s"
        )
    if args.output:
        save_tree(tree, args.output)
        print(f"tree saved to {args.output}")
    if args.render:
        print(tree.render(max_depth=args.render_depth))
    if result.observation is not None:
        if args.trace_out:
            result.observation.write_chrome_trace(args.trace_out)
            print(
                f"Chrome trace -> {args.trace_out} "
                f"(open in Perfetto / chrome://tracing)"
            )
        if args.metrics_out:
            result.observation.write_prometheus(args.metrics_out)
            print(f"metrics -> {args.metrics_out}")
    return 0


def _build_forest(args: argparse.Namespace, dataset, shards) -> int:
    """`repro build --forest N`: train a bagged forest, save it as v3."""
    from repro.ensemble import train_forest

    if args.prune:
        print(
            "--prune applies to single trees only; ignoring for a forest",
            file=sys.stderr,
        )
    result = train_forest(
        dataset,
        args.forest,
        subsample=args.subsample,
        feature_frac=args.feature_frac,
        seed=args.forest_seed,
        algorithm=args.algorithm,
        n_procs=args.procs,
        tree_runtime=args.runtime,
        shards=shards,
        merge=args.merge,
        workers=args.forest_workers or args.procs,
    )
    forest = result.forest
    print(
        f"{dataset.name}: forest of {forest.n_trees} tree(s) via "
        f"{args.algorithm} (subsample {args.subsample:g}, feature-frac "
        f"{args.feature_frac:g}, seed {args.forest_seed}, "
        f"{result.workers} concurrent build(s)) in {result.train_s:.2f}s wall"
    )
    print(
        f"forest: {forest.n_nodes} total nodes, max depth "
        f"{forest.max_depth}; training accuracy "
        f"{accuracy(forest, dataset):.4f}"
    )
    if args.output:
        save_model(forest, args.output)
        print(f"forest saved to {args.output} (v3 container)")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.input)
    model = load_model(args.tree)
    acc = accuracy(model, dataset)
    matrix = confusion_matrix(model, dataset)
    print(f"accuracy on {dataset.name or args.input}: {acc:.4f}")
    classes = model.schema.class_names
    rows = [
        (classes[i], *[int(matrix[i, j]) for j in range(len(classes))])
        for i in range(len(classes))
    ]
    print(format_table(("actual \\ predicted", *classes), rows))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    import time

    from repro.classify.engine import InferenceEngine
    from repro.classify.forest import compile_model

    _apply_native_mode(args)
    model = load_model(args.model)
    compiled = compile_model(model)
    if args.oracle and compiled.kind == "forest":
        print(
            f"error: --oracle differential mode checks one tree against "
            f"the recursive reference, but {args.model} is a v3 forest "
            f"container with {compiled.n_trees} trees. Run without "
            "--oracle (forest backends are differentially tested against "
            "the per-tree oracle + vote in the test suite), or predict "
            "with a single-tree model file.",
            file=sys.stderr,
        )
        return 2
    dataset = _load_dataset(args.data)
    engine = InferenceEngine(
        model,
        batch_size=args.batch_size,
        n_workers=args.workers or None,
        name=args.model,
    )
    start = time.perf_counter()
    with engine:
        # Submit in batch_size chunks so the queue actually micro-batches.
        pending = []
        for lo in range(0, max(dataset.n_records, 1), args.batch_size):
            hi = min(lo + args.batch_size, dataset.n_records)
            chunk = {k: v[lo:hi] for k, v in dataset.columns.items()}
            pending.append(engine.submit(chunk))
        parts = [p.result() for p in pending]
    elapsed = time.perf_counter() - start
    import numpy as np

    predicted = (
        np.concatenate(parts) if parts else np.empty(0, dtype=np.int32)
    )
    stats = engine.stats()
    rate = dataset.n_records / elapsed if elapsed > 0 else float("inf")
    print(
        f"{dataset.n_records} rows through {args.model} in {elapsed:.3f}s "
        f"({rate:,.0f} rows/s; {int(stats.get('engine_batches_total', 0))} "
        f"batches of <= {args.batch_size}, {engine.n_workers} worker(s))"
    )
    if dataset.n_records:
        agreement = float(np.mean(predicted == dataset.labels))
        print(f"label agreement: {agreement:.4f}")
    if args.oracle:
        from repro.classify.predict import predict_oracle

        reference = predict_oracle(model, dataset)
        mismatches = int(np.count_nonzero(predicted != reference))
        if mismatches:
            print(
                f"ORACLE MISMATCH: {mismatches} of {dataset.n_records} "
                "row(s) differ from the recursive reference",
                file=sys.stderr,
            )
            return 1
        print(
            f"oracle check: all {dataset.n_records} row(s) bit-identical "
            "to the recursive reference"
        )
    if args.output:
        names = compiled.schema.class_names
        with open(args.output, "w") as f:
            for c in predicted:
                f.write(names[int(c)] + "\n")
        print(f"predictions -> {args.output}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a model: stdin JSONL loop and/or an async TCP/HTTP tier.

    The model goes into a :class:`~repro.serve.registry.ModelRegistry`
    (versioned, hot-swappable, bounded admission queue).  By default
    stdin runs the classic JSONL loop — one request object per line,
    one reply per line — as a thin client of that registry.  With
    ``--port``, an asyncio server additionally speaks persistent
    JSONL-over-TCP and HTTP (``POST /predict``, ``GET /models``,
    ``GET /healthz``, ``POST /models/<name>/swap``) on the same
    registry; ``--no-stdin`` serves sockets only.

    A request is ``{"attr": value, ...}`` (single row),
    ``{"attr": [values...], ...}`` (batch; ``[]`` columns get
    ``{"classes": []}`` back), or an envelope
    ``{"data": {...}, "model": name, "id": anything}``.  Malformed,
    overdue (the engine drops the cancelled work), or shed requests get
    an ``{"error": ..., "reason": ...}`` reply and the loop continues.
    With ``--telemetry-port``, a background HTTP server publishes
    ``/metrics``, ``/healthz`` and ``/snapshot`` for the whole tier
    while traffic flows (``repro top`` renders those snapshots live).
    """
    import json as _json

    from repro.serve import ModelRegistry, ServeServer, submit_and_wait

    _apply_native_mode(args)
    model = load_model(args.model)
    registry = ModelRegistry()
    registry.add(
        args.model,
        model,
        version=args.model_version,
        workers=args.workers or None,
        batch_size=args.batch_size,
        max_pending=args.max_pending,
    )
    server = None
    telemetry = None
    served = 0
    try:
        if args.port is not None:
            server = ServeServer(
                registry, host=args.host, port=args.port,
                timeout=args.timeout,
            ).start()
            print(
                f"serving on {server.address} (JSONL + HTTP)",
                file=sys.stderr, flush=True,
            )
        if args.telemetry_port is not None:
            from repro.obs.telemetry import TelemetryServer

            telemetry = TelemetryServer.for_registry(
                registry, port=args.telemetry_port
            ).start()
            print(f"telemetry: {telemetry.url}", file=sys.stderr, flush=True)
        if args.no_stdin:
            if server is None:
                print("--no-stdin requires --port", file=sys.stderr)
                return 2
            try:
                import threading as _threading

                _threading.Event().wait()
            except KeyboardInterrupt:
                pass
        else:
            for line in sys.stdin:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = _json.loads(line)
                except ValueError as exc:
                    reply = {"error": f"bad JSON: {exc}", "reason": "invalid"}
                else:
                    reply = submit_and_wait(
                        registry, obj, timeout=args.timeout
                    )
                print(_json.dumps(reply), flush=True)
                if "error" not in reply:
                    served += 1
    finally:
        if server is not None:
            server.close()
        registry.close()
        if args.trace_out:
            from repro.obs.tracectx import write_chrome_trace_for

            write_chrome_trace_for(
                args.trace_out, registry.all_traces(), model=args.model
            )
            print(f"chrome trace -> {args.trace_out}", file=sys.stderr)
        if telemetry is not None:
            telemetry.close()
    values = registry.metrics.values()
    breakdown = registry.rejections()
    rejected = sum(breakdown.values())
    detail = ", ".join(
        f"{reason}: {count}"
        for reason, count in sorted(breakdown.items()) if count
    )
    shed = registry.shed_total()
    line = (
        f"served {served} request(s), "
        f"{int(values.get('engine_rows_total', 0))} row(s), "
        f"{rejected} rejected" + (f" ({detail})" if detail else "")
    )
    if shed:
        line += f", {shed} shed"
    cancelled = int(values.get("engine_cancelled_requests_total", 0))
    if cancelled:
        line += f", {cancelled} cancelled"
    print(line, file=sys.stderr)
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live text dashboard over a serving telemetry endpoint.

    Polls ``<url>/snapshot`` every ``--interval`` seconds and renders
    traffic, latency percentiles, rejections, batch-size shape and the
    kernel backend split.  ``--once`` prints a single frame (lifetime
    averages); continuous mode shows per-interval rates.
    """
    import json as _json
    import time as _time
    from urllib.error import URLError
    from urllib.request import urlopen

    from repro.obs.telemetry import render_dashboard

    url = args.url.rstrip("/")
    prev = None
    frames = 0
    try:
        while True:
            try:
                with urlopen(url + "/snapshot", timeout=args.timeout) as resp:
                    doc = _json.loads(resp.read().decode())
            except (URLError, OSError, ValueError) as exc:
                print(f"cannot fetch {url}/snapshot: {exc}", file=sys.stderr)
                return 1
            interval = doc["ts"] - prev["ts"] if prev is not None else None
            if frames and sys.stdout.isatty():
                print("\x1b[2J\x1b[H", end="")
            print(render_dashboard(doc, prev, interval), flush=True)
            frames += 1
            if args.once or (args.frames and frames >= args.frames):
                return 0
            prev = doc
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    _apply_native_mode(args)
    name = args.experiment
    if name == "table1":
        rows = experiments.table1(args.records)
        print(
            format_table(
                ("dataset", "DB (MB)", "levels", "max leaves", "setup (s)",
                 "sort (s)", "total (s)", "setup %", "sort %"),
                [
                    (r.dataset_name, r.db_size_mb, r.tree_levels,
                     r.max_leaves_per_level, r.setup_time, r.sort_time,
                     r.total_time, r.setup_pct, r.sort_pct)
                    for r in rows
                ],
            )
        )
        return 0
    figures = {
        "fig8": experiments.figure8,
        "fig9": experiments.figure9,
        "fig10": experiments.figure10,
        "fig11": experiments.figure11,
    }
    if name not in figures:
        print(f"unknown experiment {name!r}; choose from "
              f"{sorted(figures) + ['table1']}", file=sys.stderr)
        return 2
    curves = figures[name](args.records)
    print("\n\n".join(speedup_table(c) for c in curves.values()))
    return 0


def cmd_cross_validate(args: argparse.Namespace) -> int:
    from repro.classify.evaluate import cross_validate

    dataset = _load_dataset(args.input)
    report = cross_validate(
        dataset,
        k=args.folds,
        algorithm=args.algorithm,
        prune=not args.no_prune,
        seed=args.seed,
    )
    rows = [
        (f.fold, f.train_records, f.test_records, f.test_accuracy,
         f.tree_nodes, f.pruned_nodes)
        for f in report.folds
    ]
    print(
        format_table(
            ("fold", "train", "test", "accuracy", "grown nodes",
             "final nodes"),
            rows,
        )
    )
    print(report.summary())
    return 0


def _kernel_batch_summary(metrics) -> str:
    """One-line digest of the level-batched kernel counters."""
    values = metrics.values()
    lines = []
    for backend in ("native", "numpy"):
        if values.get(f'kernel_backend_info{{backend="{backend}"}}', 0):
            lines.append(f"  backend: {backend} kernels")
            break
    for kernel in ("E", "S"):
        calls = values.get(f'kernel_level_calls_total{{kernel="{kernel}"}}', 0)
        leaves = values.get(f'kernel_level_leaves_total{{kernel="{kernel}"}}', 0)
        if calls:
            lines.append(
                f"  {kernel}: {int(calls)} batched calls covering "
                f"{int(leaves)} leaves ({leaves / calls:.1f} leaves/call)"
            )
    saved = values.get("kernel_saved_alloc_bytes_total", 0)
    if saved:
        lines.append(
            f"  partition arenas saved {saved / 1e6:.2f} MB of allocations"
        )
    if not lines:
        return ""
    return "kernel batching:\n" + "\n".join(lines)


def cmd_timeline(args: argparse.Namespace) -> int:
    _apply_native_mode(args)
    from repro.obs import SpanCollector, write_chrome_trace, write_jsonl
    from repro.smp.runtime import VirtualSMP
    from repro.smp.trace import render_timeline, utilization_table

    dataset = _load_dataset(args.input)
    machine = _MACHINES[args.machine](args.procs)
    # A SpanCollector is a Tracer, so the text renderers keep working;
    # every format additionally gets the E/W/S spans and live metrics
    # (the text table reports the batched-kernel counters from them).
    tracer = SpanCollector()
    if args.runtime == "procs":
        # Lane 0 is the coordinator (merge = busy, waiting on workers =
        # io); lanes 1..N are the shard workers.
        result = build_classifier(
            dataset,
            runtime="procs",
            shards=args.procs,
            merge=args.merge,
            machine=machine,
            pace=args.pace,
            collector=tracer,
        )
    else:
        if args.runtime == "threads":
            from repro.smp.threads import RealThreadRuntime

            runtime = RealThreadRuntime(
                args.procs, machine, tracer=tracer, pace=args.pace
            )
        else:
            runtime = VirtualSMP(machine, args.procs, tracer=tracer)
        result = build_classifier(
            dataset,
            algorithm=args.algorithm,
            runtime=runtime,
            n_procs=args.procs,
        )
        if args.runtime == "threads" and not tracer.intervals:
            # Raw wall-clock runs charge no busy/io intervals; project
            # the E/W/S phase spans onto the busy lanes so the timeline
            # renders where the wall time actually went.
            for span in tracer.spans:
                if span.end > span.start:
                    tracer.record(span.pid, "busy", span.start, span.end)
    clock = "virtual" if args.runtime == "virtual" else (
        "wall, paced model replay" if args.pace else "wall"
    )
    print(
        f"{result.algorithm} on {result.n_procs} processor(s): build "
        f"{result.build_time:.2f}s ({clock})"
    )
    if args.format == "text":
        print(render_timeline(tracer, width=args.width))
        print(utilization_table(tracer))
        summary = _kernel_batch_summary(tracer.metrics)
        if summary:
            print(summary)
        return 0
    out = args.out or (
        "timeline.json" if args.format == "chrome" else "timeline.jsonl"
    )
    if args.format == "chrome":
        write_chrome_trace(
            out, tracer, algorithm=result.algorithm, procs=result.n_procs
        )
        print(f"Chrome trace -> {out} (open in Perfetto / chrome://tracing)")
    else:
        n_lines = write_jsonl(out, tracer)
        print(f"{n_lines} JSONL events -> {out}")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    print("algorithms:")
    for name, description in ALGORITHMS.items():
        print(f"  {name:10s} {description}")
    print("\nmachines:")
    for key, factory in _MACHINES.items():
        m = factory()
        print(
            f"  {key}: {m.name} — {m.n_processors} processors, "
            f"{'memory-resident files' if m.files_cached else 'disk-bound'}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Parallel decision-tree classification on shared-memory "
            "multiprocessors (Zaki, Ho & Agrawal, ICDE 1999)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a Quest synthetic dataset")
    g.add_argument("--function", type=int, default=2, help="Quest function 1-10")
    g.add_argument("--attributes", type=int, default=9)
    g.add_argument("--records", type=int, default=10_000)
    g.add_argument("--perturbation", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", required=True,
                   help=".npz (lossless) or .csv")
    g.set_defaults(func=cmd_generate)

    b = sub.add_parser("build", help="build a decision-tree classifier")
    b.add_argument("-i", "--input", required=True, help=".npz or .csv dataset")
    b.add_argument("--algorithm", default="mwk", choices=sorted(ALGORITHMS))
    b.add_argument("--procs", type=int, default=1)
    b.add_argument("--machine", default="b", choices=sorted(_MACHINES))
    b.add_argument("--window", type=int, default=4)
    b.add_argument("--max-depth", type=int, default=64)
    b.add_argument(
        "--runtime", default="virtual",
        choices=("virtual", "threads", "procs"),
        help="virtual-time model (default), real OS threads, or sharded "
             "worker processes over shared memory (both wall clock)",
    )
    b.add_argument(
        "--pace", type=float, default=0.0, metavar="SCALE",
        help="with --runtime threads/procs: replay the machine's cost "
             "model in real time, sleeping SCALE wall seconds per virtual "
             "second (0 = raw wall clock)",
    )
    b.add_argument(
        "--shards", type=int, default=0,
        help="with --runtime procs: worker process count "
             "(0 = --procs, else the CPUs in the affinity mask)",
    )
    b.add_argument(
        "--merge", default="exact", choices=("exact", "vote"),
        help="with --runtime procs: split-merge protocol — exact "
             "(bit-identical trees) or vote (top-k candidate voting, "
             "less traffic)",
    )
    b.add_argument(
        "--vote-k", type=int, default=3, dest="vote_k", metavar="K",
        help="with --merge vote: local ballot size per shard",
    )
    b.add_argument(
        "--forest", type=int, default=0, metavar="N",
        help="train a bagged forest of N trees instead of one tree "
             "(saved as a v3 forest container); 0 = single tree",
    )
    b.add_argument(
        "--subsample", type=float, default=1.0, metavar="FRAC",
        help="with --forest: bootstrap sample fraction per tree "
             "(drawn with replacement; default 1.0)",
    )
    b.add_argument(
        "--feature-frac", type=float, default=1.0, metavar="FRAC",
        dest="feature_frac",
        help="with --forest: fraction of attributes visible to each tree "
             "(default 1.0 = all)",
    )
    b.add_argument(
        "--forest-seed", type=int, default=0, dest="forest_seed",
        help="with --forest: root seed of the spawned per-tree RNG "
             "streams (same seed => bit-identical forest)",
    )
    b.add_argument(
        "--forest-workers", type=int, default=0, dest="forest_workers",
        metavar="N",
        help="with --forest: trees trained concurrently "
             "(0 = --procs; determinism does not depend on this)",
    )
    b.add_argument("--prune", action="store_true", help="MDL-prune the tree")
    b.add_argument("-o", "--output", help="save the tree as JSON")
    b.add_argument("--render", action="store_true", help="print the tree")
    b.add_argument("--render-depth", type=int, default=3)
    b.add_argument(
        "--trace-out", metavar="FILE",
        help="record E/W/S phase spans and write a Chrome trace JSON",
    )
    b.add_argument(
        "--metrics-out", metavar="FILE",
        help="write wait/disk/buffer/scheme metrics in Prometheus text format",
    )
    _add_native_flag(b)
    b.set_defaults(func=cmd_build)

    c = sub.add_parser("classify", help="evaluate a saved tree on a dataset")
    c.add_argument("-i", "--input", required=True)
    c.add_argument("--tree", required=True,
                   help="model JSON from `build -o` (tree or forest)")
    c.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "predict", help="batch inference: run a saved tree over a dataset"
    )
    p.add_argument("--model", required=True,
                   help="model JSON from `build -o` (tree or forest)")
    p.add_argument("--data", required=True, help=".npz or .csv dataset")
    p.add_argument("--batch-size", type=int, default=8192,
                   help="rows per vectorized micro-batch")
    p.add_argument("--workers", type=int, default=1,
                   help="engine worker threads (from the shared pool; "
                        "0 = all CPUs in the affinity mask)")
    p.add_argument("-o", "--output",
                   help="write predicted class names, one per line")
    p.add_argument(
        "--oracle", action="store_true",
        help="differential mode: check every prediction against the "
             "recursive reference implementation (single-tree models "
             "only; fails with a clear error on forest containers)",
    )
    _add_native_flag(p)
    p.set_defaults(func=cmd_predict)

    s = sub.add_parser(
        "serve",
        help="serve a model: stdin JSONL loop and/or async TCP/HTTP tier",
    )
    s.add_argument("--model", required=True,
                   help="model JSON from `build -o` (tree or forest)")
    s.add_argument("--model-version", default="", metavar="TAG",
                   help="version tag reported in replies (default gen1)")
    s.add_argument("--batch-size", type=int, default=1024)
    s.add_argument("--workers", type=int, default=1,
                   help="engine worker threads (0 = all CPUs in the "
                        "affinity mask)")
    s.add_argument("--timeout", type=float, default=30.0,
                   help="seconds to wait for one reply (overdue requests "
                        "are cancelled and their work dropped)")
    s.add_argument(
        "--port", type=int, default=None, metavar="PORT",
        help="also serve persistent JSONL-over-TCP and HTTP on this port "
             "(0 = ephemeral; the bound address is printed to stderr)",
    )
    s.add_argument("--host", default="127.0.0.1",
                   help="bind address for --port (default 127.0.0.1)")
    s.add_argument(
        "--max-pending", type=int, default=1024, metavar="N",
        help="admission limit: shed requests past N pending (429/"
             '{"shed": true} replies) instead of queueing unboundedly',
    )
    s.add_argument(
        "--no-stdin", action="store_true",
        help="socket tier only: don't read requests from stdin "
             "(requires --port; run until interrupted)",
    )
    s.add_argument(
        "--telemetry-port", type=int, default=None, metavar="PORT",
        help="publish /metrics, /healthz, /snapshot over HTTP on this "
             "port while serving (0 = pick an ephemeral port; the bound "
             "URL is printed to stderr)",
    )
    s.add_argument(
        "--trace-out", metavar="PATH",
        help="on exit, write the buffered request traces as a Chrome "
             "trace JSON (one track per engine worker)",
    )
    _add_native_flag(s)
    s.set_defaults(func=cmd_serve)

    o = sub.add_parser(
        "top", help="live text dashboard over a serving telemetry endpoint"
    )
    o.add_argument(
        "--url", default="http://127.0.0.1:9100",
        help="base URL of a `repro serve --telemetry-port` server",
    )
    o.add_argument("--interval", type=float, default=2.0,
                   help="seconds between dashboard refreshes")
    o.add_argument("--once", action="store_true",
                   help="print one frame and exit")
    o.add_argument("--frames", type=int, default=0,
                   help="stop after N frames (0 = run until interrupted)")
    o.add_argument("--timeout", type=float, default=5.0,
                   help="HTTP timeout per snapshot fetch")
    o.set_defaults(func=cmd_top)

    n = sub.add_parser("benchmark", help="rerun one paper experiment")
    n.add_argument(
        "--experiment", required=True,
        help="table1, fig8, fig9, fig10 or fig11",
    )
    n.add_argument("--records", type=int, default=0,
                   help="dataset size (0 = benchmark default)")
    _add_native_flag(n)
    n.set_defaults(func=cmd_benchmark)

    v = sub.add_parser(
        "cross-validate", help="k-fold cross-validation on a dataset"
    )
    v.add_argument("-i", "--input", required=True)
    v.add_argument("--folds", type=int, default=5)
    v.add_argument("--algorithm", default="serial", choices=sorted(ALGORITHMS))
    v.add_argument("--no-prune", action="store_true")
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_cross_validate)

    t = sub.add_parser(
        "timeline", help="trace a build and render a processor timeline"
    )
    t.add_argument("-i", "--input", required=True)
    t.add_argument("--algorithm", default="mwk", choices=sorted(ALGORITHMS))
    t.add_argument("--procs", type=int, default=4)
    t.add_argument("--machine", default="b", choices=sorted(_MACHINES))
    t.add_argument(
        "--merge", default="exact", choices=("exact", "vote"),
        help="with --runtime procs: split-merge protocol",
    )
    t.add_argument(
        "--runtime", default="virtual",
        choices=("virtual", "threads", "procs"),
        help="trace the virtual-time model (default) or a real-thread run",
    )
    t.add_argument(
        "--pace", type=float, default=0.0, metavar="SCALE",
        help="with --runtime threads: paced cost-model replay factor",
    )
    t.add_argument("--width", type=int, default=100)
    t.add_argument(
        "--format", default="text", choices=("text", "chrome", "jsonl"),
        help="text timeline (default), Chrome trace JSON, or JSONL events",
    )
    t.add_argument(
        "-o", "--out",
        help="output file for chrome/jsonl (default timeline.json[l])",
    )
    _add_native_flag(t)
    t.set_defaults(func=cmd_timeline)

    i = sub.add_parser("info", help="list algorithms and machine models")
    i.set_defaults(func=cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
