"""One measured process of the benchmark.

``run.py`` starts this file as a child process; it is not meant to be
run by hand.  Modes:

``--warm``
    Load (compiling on first use) every native library into the
    checkout-local cache and print the host record.
``--workload W --seed N --seconds S --trace T [--setup-only]``
    Set the workload up, print ``READY`` (the parent times set-up from
    the spawn to this line), then, unless ``--setup-only``, run the
    timed loop and print ``RESULT {json}`` with raw samples.

Every timed operation calls a public entry point of the program and
checks its output: build workloads compare each tree node for node with
a serial build made after set-up, the serve workload compares every
reply with ``predict_oracle``, the forest workload every label with
``predict_forest_oracle``.  With ``--trace 1`` the first half of the
time runs untraced and the second half traced (see ``spans.py``), so
the trace overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402

ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build"

#: Offset between the training seed and the seed of the held-out rows.
TEST_SEED_OFFSET = 1_000_003

WORKLOADS = {
    "build-f7-serial": dict(kind="build", function=7, n_records=100_000,
                            algorithm="serial", n_procs=1),
    "build-f7-mwk2": dict(kind="build", function=7, n_records=100_000,
                          algorithm="mwk", n_procs=2),
    "serve-tree-1row": dict(kind="serve", function=7, n_records=100_000,
                            test_rows=4096, workers=1),
    "predict-forest-batch": dict(kind="forest", function=7, n_records=4000,
                                 n_trees=32, test_rows=65536,
                                 batch_rows=8192, workers=1),
}

#: Set-ups measured per run, each in a fresh process (the measured
#: process's own included); setup_s is their median.
SETUPS = 3
#: Seconds of checked, untimed traffic before any timed loop.
WARMUP_S = 0.5


def emit(tag: str, doc=None) -> None:
    line = tag if doc is None else f"{tag} {json.dumps(doc)}"
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def peak_rss_mb(pid="self") -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not in /proc status")


def dataset(function: int, n_records: int, seed: int):
    from repro import DatasetSpec, generate_dataset

    return generate_dataset(DatasetSpec(
        function=function, n_attributes=9, n_records=n_records, seed=seed,
    ))


def host_record(engine_workers: int = 0) -> dict:
    """Where the numbers were measured, loading every native library."""
    import numpy

    from repro._native import pool
    from repro.classify import native as classify_native
    from repro.smp.cpus import available_cpus
    from repro.sprint import native as sprint_native

    lanes = pool.sync()
    cpus = available_cpus()
    return {
        "available_cpus": cpus,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "native": {
            "training_kernels": sprint_native.native_available(),
            "inference_kernel": classify_native.native_available(),
            "pool": pool.load() is not None,
        },
        "pool_lanes": lanes,
        "engine_workers": engine_workers,
        "oversubscribed": max(1, engine_workers) * max(1, lanes) > cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class Timed:
    """Checked, timed operations of one phase: each operation's latency
    and the ``perf_counter`` time it completed at."""

    def __init__(self, rows_per_op: int = 1) -> None:
        self.rows_per_op = rows_per_op
        self.t_start = time.perf_counter()
        self.op_s: list = []
        self.op_end: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def record(self, ok: bool, dt: float, message: str = "wrong output") -> None:
        self.attempted += 1
        self.op_s.append(dt)
        self.op_end.append(time.perf_counter())
        if not ok:
            self.fail(message)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def loop(op, seconds: float, rows_per_op: int = 1, min_ops: int = 5) -> Timed:
    """Run ``op`` (returns whether its output checked out, and its
    latency) until ``seconds`` have passed and at least ``min_ops`` ran."""
    timed = Timed(rows_per_op)
    deadline = timed.t_start + seconds
    while True:
        t0 = time.perf_counter()
        try:
            ok, dt = op()
        except Exception as exc:  # noqa: BLE001 - an exception is a failure
            timed.record(False, time.perf_counter() - t0,
                         f"{type(exc).__name__}: {exc}")
        else:
            timed.record(ok, dt)
        if time.perf_counter() >= deadline and timed.attempted >= min_ops:
            return timed


def phases(args):
    """(untraced seconds, traced seconds) of this run."""
    if args.trace:
        return args.seconds / 2.0, args.seconds / 2.0
    return float(args.seconds), 0.0


# -- build workloads -----------------------------------------------------------


def run_build(spec, args) -> dict:
    from repro import build_classifier
    from repro._native import stats

    data = dataset(spec["function"], spec["n_records"], args.seed)
    host = host_record()
    emit("READY")
    if args.setup_only:
        return {}
    reference = build_classifier(
        data, algorithm="serial", runtime="threads"
    ).tree.signature()

    def op():
        t0 = time.perf_counter()
        tree = build_classifier(
            data, algorithm=spec["algorithm"], n_procs=spec["n_procs"],
            runtime="threads",
        ).tree
        dt = time.perf_counter() - t0
        return checks.same_tree(tree, reference), dt

    loop(op, 0.0, min_ops=1)  # warm-up, checked but not reported
    untraced_s, traced_s = phases(args)
    before = stats.snapshot()
    plain = loop(op, untraced_s, spec["n_records"])
    result = {"host": host, "phase": vars(plain)}
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(spans.BUILD_LAYERS)
        tracer.install_sync_waits()
        pool0 = stats.pool_snapshot()["tasks_total"]
        mid = stats.snapshot()
        try:
            traced = loop(op, traced_s, spec["n_records"])
        finally:
            tracer.restore()
        n = len(traced.op_s)
        layers = build_layers(tracer, n, spec["n_procs"] * sum(traced.op_s))
        layers.update(kernel_layers(
            checks.kernel_deltas(mid, stats.snapshot()), n,
            stats.pool_snapshot()["tasks_total"] - pool0,
            stats.pool_snapshot()["threads"],
        ))
        layers["trace.overhead"] = (
            statistics.median(traced.op_s) / statistics.median(plain.op_s)
        )
        result["layers"] = layers
        result["traced_phase"] = vars(traced)
    result["fallback"] = checks.fallback_errors(
        checks.kernel_deltas(before, stats.snapshot())
    )
    result["peak_rss_mb"] = peak_rss_mb()
    return result


def build_layers(tracer, n_ops: int, proc_wall_s: float) -> dict:
    """Per-build self seconds and calls of the traced build layers."""
    out = {}
    names = sorted({name for _, _, name in spans.BUILD_LAYERS})
    for name in names + [spans.SYNC_WAIT]:
        out[f"{name}.s"] = tracer.self_s.get(name, 0.0) / n_ops
        out[f"{name}.calls"] = tracer.calls.get(name, 0) / n_ops
    covered = sum(tracer.self_s.values())
    out["core.unattributed.s"] = (proc_wall_s - covered) / n_ops
    return out


def kernel_layers(deltas, n_ops: int, pool_tasks: int, lanes: int) -> dict:
    """Per-operation kernel traffic by backend, plus pool counters."""
    out = {}
    for kernel in checks.KERNELS:
        for backend in checks.BACKENDS:
            calls, rows = deltas.get((kernel, backend), (0, 0))
            out[f"kernel.{kernel}.{backend}.calls"] = calls / n_ops
            out[f"kernel.{kernel}.{backend}.rows"] = rows / n_ops
    out["native.pool.tasks"] = pool_tasks / n_ops
    out["native.pool.threads"] = lanes
    return out


def engine_layers(samples) -> dict:
    """Engine and server layer numbers from a ``/metrics`` exposition."""
    def p50_us(name):
        return samples.get(f'{name}{{quantile="0.5"}}', 0.0) * 1e6

    batches = samples.get("engine_batch_rows_count", 0.0)
    return {
        "classify.engine.queue_wait.p50_us": p50_us("engine_queue_wait_seconds"),
        "classify.engine.request.p50_us":
            p50_us("engine_request_latency_seconds"),
        "serve.server.request.p50_us": p50_us("serve_request_latency_seconds"),
        "classify.engine.batch_rows.mean":
            samples.get("engine_batch_rows_sum", 0.0) / batches
            if batches else 0.0,
        "serve.shed.count": checks.prom_sum(samples, "serve_shed_total"),
    }


# -- forest workload -----------------------------------------------------------


def run_forest(spec, args) -> dict:
    import numpy as np

    from repro._native import stats
    from repro.classify.engine import InferenceEngine
    from repro.classify.forest import predict_forest_oracle
    from repro.ensemble import train_forest
    from repro.obs.export import prometheus_text

    data = dataset(spec["function"], spec["n_records"], args.seed)
    trained = train_forest(
        data, n_trees=spec["n_trees"], seed=args.seed, algorithm="serial",
        tree_runtime="threads",
    )
    engine = InferenceEngine(trained.forest, n_workers=spec["workers"])
    try:
        test = dataset(spec["function"], spec["test_rows"],
                       args.seed + TEST_SEED_OFFSET)
        host = host_record(engine_workers=spec["workers"])
        emit("READY")
        if args.setup_only:
            return {}
        expected = predict_forest_oracle(trained.trees, test)
        step = spec["batch_rows"]
        batches = [
            ({k: v[s:s + step] for k, v in test.columns.items()},
             expected[s:s + step])
            for s in range(0, spec["test_rows"], step)
        ]
        cursor = [0]

        def op():
            columns, want = batches[cursor[0] % len(batches)]
            cursor[0] += 1
            t0 = time.perf_counter()
            got = engine.submit(columns).result(timeout=60)
            dt = time.perf_counter() - t0
            return bool(np.array_equal(got, want)), dt

        loop(op, WARMUP_S)
        untraced_s, traced_s = phases(args)
        before = stats.snapshot()
        plain = loop(op, untraced_s, step)
        result = {"host": host, "phase": vars(plain)}
        if args.trace:
            tracer = spans.Tracer()
            tracer.install(spans.FOREST_LAYERS)
            pool0 = stats.pool_snapshot()["tasks_total"]
            mid = stats.snapshot()
            try:
                traced = loop(op, traced_s, step)
            finally:
                tracer.restore()
            wall = traced.op_end[-1] - traced.t_start
            n = len(traced.op_s)
            predict_s = tracer.total_s.get("classify.forest.predict", 0.0)
            layers = {
                "classify.forest.predict.s": predict_s / n,
                "classify.forest.predict.wall_share": predict_s / wall,
                "trace.overhead": statistics.median(traced.op_s)
                / statistics.median(plain.op_s),
            }
            layers.update(kernel_layers(
                checks.kernel_deltas(mid, stats.snapshot()), n,
                stats.pool_snapshot()["tasks_total"] - pool0,
                stats.pool_snapshot()["threads"],
            ))
            layers.update(engine_layers(
                checks.parse_prometheus(prometheus_text(engine.metrics))
            ))
            result["layers"] = layers
            result["traced_phase"] = vars(traced)
        result["fallback"] = checks.fallback_errors(
            checks.kernel_deltas(before, stats.snapshot())
        )
        result["peak_rss_mb"] = peak_rss_mb()
        return result
    finally:
        engine.close()


# -- serve workload ------------------------------------------------------------


class Server:
    """A ``repro serve`` child process on an ephemeral port."""

    def __init__(self, cmd, env) -> None:
        self.sent = 0
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, env=env, cwd=str(ROOT),
        )
        self._lines: "queue.Queue" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.address = self.telemetry = None
        deadline = time.monotonic() + 60
        while self.address is None or self.telemetry is None:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError("server did not report its addresses")
            if line.startswith("serving on "):
                host, port = line.split()[2].rsplit(":", 1)
                self.address = (host, int(port))
            elif line.startswith("telemetry: "):
                self.telemetry = line.split()[1]

    def _drain(self) -> None:
        for raw in self.proc.stderr:
            self._lines.put(raw.decode(errors="replace").strip())
        self._lines.put(None)

    def connect(self) -> "Connection":
        return Connection(self)

    def get(self, url: str) -> bytes:
        with urllib.request.urlopen(url, timeout=30) as reply:
            return reply.read()

    def models(self) -> dict:
        host, port = self.address
        return json.loads(self.get(f"http://{host}:{port}/models"))

    def metrics(self) -> dict:
        return checks.parse_prometheus(
            self.get(self.telemetry + "/metrics").decode()
        )

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)


class Connection:
    """One persistent JSONL connection, one row per request."""

    def __init__(self, server: Server) -> None:
        self.server = server
        self.sock = socket.create_connection(server.address, timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def request(self, line: bytes) -> bytes:
        self.server.sent += 1
        self.sock.sendall(line)
        return self.reader.readline()

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def closed_loop(server: Server, lines, expected, seconds: float) -> Timed:
    """One client on one connection, sending its next row when the
    previous reply arrived; one row per request.

    A single connection keeps the load to one client thread.  With two
    connections the client threads and the server's threads outnumbered
    the 2 CPUs of the host, and the best throughput spread 0.13 between
    seeds instead of 0.07."""
    conn = server.connect()
    timed = Timed()
    deadline = timed.t_start + seconds
    row = 0
    try:
        while True:
            k = row % len(lines)
            row += 1
            t0 = time.perf_counter()
            try:
                reply = conn.request(lines[k])
            except OSError as exc:
                reply = b""
                message = f"{type(exc).__name__}: {exc}"
            else:
                message = f"row {k}: {reply[:200]!r}"
            dt = time.perf_counter() - t0
            timed.record(checks.reply_ok(reply, expected[k]), dt, message)
            if t0 + dt >= deadline or not reply:
                return timed
    finally:
        conn.close()


def start_server(cmd, env, lines, expected) -> "tuple[Server, float]":
    """Spawn a server; its set-up time runs to the first correct reply."""
    server = Server(cmd, env)
    try:
        conn = server.connect()
        try:
            ok = checks.reply_ok(conn.request(lines[0]), expected[0])
        finally:
            conn.close()
        if not ok:
            raise RuntimeError("first reply of a fresh server was wrong")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - server.started


def serve_checks(server: Server, timed: Timed) -> dict:
    """Check the registry accounting and native status after a serve
    phase; returns the accounting with the requests sent."""
    models = server.models()
    errors = checks.accounting_errors(models, server.sent)
    samples = server.metrics()
    kernels = checks.prom_kernel_counts(samples)
    if not kernels.get(("route", "native"), (0, 0))[0]:
        errors.append("server routed no request through the native kernel")
    errors += checks.fallback_errors(kernels)
    if "native_pool_threads" not in samples:
        errors.append("server did not load the native pool")
    if errors:
        timed.failed = timed.attempted
        timed.errors.extend(errors)
    accounting = dict(models["models"][0]) if models.get("models") else {}
    return {"sent": server.sent, **{
        k: accounting.get(k) for k in ("arrivals", "admitted", "shed", "rejected")
    }}


def run_serve(spec, args) -> dict:
    from repro import build_classifier
    from repro.classify.predict import predict_oracle
    from repro.core.serialize import save_tree

    data = dataset(spec["function"], spec["n_records"], args.seed)
    tree = build_classifier(data, algorithm="serial", runtime="threads").tree
    test = dataset(spec["function"], spec["test_rows"],
                   args.seed + TEST_SEED_OFFSET)
    expected = [int(c) for c in predict_oracle(tree, test)]
    names = list(test.columns)
    lines = [
        json.dumps({k: test.columns[k][i].item() for k in names}).encode()
        + b"\n"
        for i in range(spec["test_rows"])
    ]
    WORKDIR.mkdir(exist_ok=True)
    model_path = WORKDIR / f"serve-model-{os.getpid()}.json"
    layers_path = WORKDIR / f"serve-layers-{os.getpid()}.json"
    save_tree(tree, str(model_path))
    serve_args = [
        "serve", "--model", str(model_path), "--port", "0", "--no-stdin",
        "--workers", str(spec["workers"]), "--telemetry-port", "0",
    ]
    plain_cmd = [sys.executable, "-m", "repro"] + serve_args
    env = dict(os.environ)
    servers = []
    try:
        setup_s = []
        for _ in range(1 if args.trace else SETUPS):
            server, seconds = start_server(plain_cmd, env, lines, expected)
            servers.append(server)
            setup_s.append(seconds)
        for server in servers[:-1]:
            server.stop()
        server = servers[-1]
        host = host_record(engine_workers=spec["workers"])
        emit("READY")
        closed_loop(server, lines, expected, WARMUP_S)
        untraced_s, traced_s = phases(args)
        plain = closed_loop(server, lines, expected, untraced_s)
        result = {
            "host": host,
            "accounting": serve_checks(server, plain),
            "setup_s": setup_s,
            "phase": vars(plain),
            "peak_rss_mb": peak_rss_mb(server.proc.pid),
            "fallback": [],
        }
        server.stop()
        if args.trace:
            launcher = [sys.executable, str(HERE / "serve_launcher.py"),
                        str(layers_path)] + serve_args
            server, _ = start_server(launcher, env, lines, expected)
            servers.append(server)
            closed_loop(server, lines, expected, WARMUP_S)
            traced = closed_loop(server, lines, expected, traced_s)
            serve_checks(server, traced)
            samples = server.metrics()
            server.stop()
            with open(layers_path) as f:
                inside = json.load(f)
            result["layers"] = serve_layers(
                inside, samples, traced, plain, server.sent
            )
            result["traced_phase"] = vars(traced)
        return result
    finally:
        for server in servers:
            server.stop()
        for path in (model_path, layers_path):
            if path.exists():
                path.unlink()


def serve_layers(inside, samples, traced: Timed, plain: Timed, sent) -> dict:
    layers = {
        f"{name}.us": inside.get(name, {}).get("p50_us", 0.0)
        for _, _, name in spans.SERVE_LAYERS
    }
    layers.update(engine_layers(samples))
    client_p50_us = statistics.median(traced.op_s) * 1e6
    layers["serve.outside_server.p50_us"] = (
        client_p50_us - layers["serve.server.request.p50_us"]
    )
    layers["trace.overhead"] = (
        statistics.median(traced.op_s) / statistics.median(plain.op_s)
    )
    kernels = checks.prom_kernel_counts(samples)
    layers.update(kernel_layers(
        kernels, sent,
        int(checks.prom_sum(samples, "native_pool_tasks_total")),
        int(checks.prom_sum(samples, "native_pool_threads")),
    ))
    return layers


# -- entry point ---------------------------------------------------------------


RUNNERS = {"build": run_build, "forest": run_forest, "serve": run_serve}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--warm", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.warm:
        emit("RESULT", host_record())
        return 0
    spec = WORKLOADS[args.workload]
    result = RUNNERS[spec["kind"]](spec, args)
    if not args.setup_only:
        emit("RESULT", result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
