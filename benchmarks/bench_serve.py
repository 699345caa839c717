"""Serving-tier load generator: open/closed-loop latency + hot-swap proof.

Stands up the real asyncio serving tier (:class:`repro.serve.ServeServer`
over a :class:`repro.serve.ModelRegistry`) on a loopback TCP port and
drives it three ways, at each worker count:

* **closed-loop** — K client threads, each a persistent JSONL
  connection in strict request-reply lockstep.  Throughput is
  self-limiting; latency is the server's honest per-request cost.
* **open-loop** — requests dispatched on a fixed arrival schedule over
  a pipelined connection (``id``-matched replies), latency measured
  from the *scheduled* send time, so a stalled server accrues the
  delay instead of hiding it (no coordinated omission).
* **swap-under-load** — closed-loop traffic while the model is
  hot-swapped mid-run; every request must get exactly one successful
  reply, each consistent with exactly one version, with zero requests
  lost — the zero-downtime acceptance gate.

Every run also checks the registry's exact accounting invariants
(``arrivals = admitted + shed + rejected`` and, drained,
``admitted = completed + errored + cancelled``) — a run that drops or
double-counts a request fails the document, not just a test.

Output is a ``bench_serve/1`` document, written through :mod:`suite`::

    PYTHONPATH=src python benchmarks/bench_serve.py
"""

import json
import socket
import sys
import threading
import time

import numpy as np

from repro.core.builder import build_classifier
from repro.data.generator import DatasetSpec, generate_dataset
from repro.serve import ModelRegistry, ServeServer
from suite import Suite, Table

MODES = ("closed", "open", "swap")


def _models(seed):
    """Two builds of the same schema — the serving and the swap target."""
    ds = generate_dataset(
        DatasetSpec(function=2, n_attributes=9, n_records=2000, seed=seed)
    )
    ds2 = generate_dataset(
        DatasetSpec(function=7, n_attributes=9, n_records=2000, seed=seed)
    )
    return build_classifier(ds).tree, build_classifier(ds2).tree


def _request_row(tree, rng):
    names = tree.schema.attribute_names
    return {n: float(rng.uniform(0.0, 100.0)) for n in names}


def _percentiles(latencies):
    arr = np.asarray(latencies, dtype=np.float64)
    if arr.size == 0:
        return {"p50_s": 0.0, "p90_s": 0.0, "p99_s": 0.0}
    return {
        "p50_s": float(np.percentile(arr, 50)),
        "p90_s": float(np.percentile(arr, 90)),
        "p99_s": float(np.percentile(arr, 99)),
    }


def _connect(server):
    sock = socket.create_connection((server.host, server.port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _check_accounting(registry):
    """The tier's exact invariants, evaluated after close/drain."""
    acct = registry.accounting()
    values = registry.metrics.values()
    resolved = sum(
        int(values.get(name, 0))
        for name in (
            "engine_completed_requests_total",
            "engine_errored_requests_total",
            "engine_cancelled_requests_total",
        )
    )
    ok = (
        acct["pending"] == 0
        and acct["arrivals"] == acct["admitted"] + acct["shed"]
        + acct["rejected"]
        and acct["admitted"] == resolved
    )
    return ok, acct


def _closed_loop(server, tree, clients, duration_s, seed, swap_at=None,
                 registry=None, swap_tree=None):
    """K request-reply clients; optionally hot-swap the model mid-run."""
    latencies = []
    versions = {}
    errors = []
    sent = [0] * clients
    lock = threading.Lock()
    stop = time.perf_counter() + duration_s

    def client(idx):
        rng = np.random.default_rng(seed + idx)
        row = _request_row(tree, rng)
        sock = _connect(server)
        f = sock.makefile("rwb")
        local_lat, local_ver, local_err, n = [], {}, [], 0
        try:
            while time.perf_counter() < stop:
                t0 = time.perf_counter()
                f.write((json.dumps(row) + "\n").encode())
                f.flush()
                reply = json.loads(f.readline())
                local_lat.append(time.perf_counter() - t0)
                n += 1
                if "error" in reply:
                    local_err.append(reply)
                else:
                    v = reply.get("version", "?")
                    local_ver[v] = local_ver.get(v, 0) + 1
        finally:
            f.close()
            sock.close()
        with lock:
            latencies.extend(local_lat)
            errors.extend(local_err)
            sent[idx] = n
            for v, c in local_ver.items():
                versions[v] = versions.get(v, 0) + c

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(clients)
    ]
    t_start = time.perf_counter()
    for t in threads:
        t.start()
    swapped = False
    if swap_at is not None:
        time.sleep(swap_at)
        registry.swap(registry.default_model, swap_tree, version="v2")
        swapped = True
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t_start
    requests = sum(sent)
    return {
        "requests": requests,
        "replies": len(latencies),
        "errors": len(errors),
        "elapsed_s": elapsed,
        "throughput_rps": requests / elapsed if elapsed > 0 else 0.0,
        "versions": versions,
        "swapped": swapped,
        **_percentiles(latencies),
    }


def _open_loop(server, tree, rate, duration_s, seed):
    """Scheduled arrivals over a pipelined id-matched connection.

    Latency is measured from each request's *scheduled* dispatch time:
    if the writer (or server) falls behind, the delay lands in the
    recorded latency rather than silently stretching the schedule.
    """
    rng = np.random.default_rng(seed)
    row = _request_row(tree, rng)
    n_requests = max(int(rate * duration_s), 1)
    interval = 1.0 / rate
    sock = _connect(server)
    f = sock.makefile("rwb")
    scheduled = {}
    latencies = []
    errors = []
    done = threading.Event()

    def reader():
        seen = 0
        while seen < n_requests:
            line = f.readline()
            if not line:
                break
            reply = json.loads(line)
            t_reply = time.perf_counter()
            rid = reply.get("id")
            if rid in scheduled:
                latencies.append(t_reply - scheduled[rid])
                seen += 1
            if "error" in reply:
                errors.append(reply)
        done.set()

    reader_thread = threading.Thread(target=reader)
    t_start = time.perf_counter()
    # Pre-compute the schedule before starting the reader so the dict
    # is never mutated while the reader looks ids up.
    for i in range(n_requests):
        scheduled[i] = t_start + i * interval
    reader_thread.start()
    try:
        for i in range(n_requests):
            now = time.perf_counter()
            if scheduled[i] > now:
                time.sleep(scheduled[i] - now)
            f.write(
                (json.dumps({"data": row, "id": i}) + "\n").encode()
            )
            f.flush()
        done.wait(timeout=duration_s * 10 + 30)
    finally:
        f.close()
        sock.close()
        reader_thread.join(timeout=10)
    elapsed = time.perf_counter() - t_start
    return {
        "requests": n_requests,
        "replies": len(latencies),
        "errors": len(errors),
        "elapsed_s": elapsed,
        "throughput_rps": len(latencies) / elapsed if elapsed > 0 else 0.0,
        "versions": {},
        "swapped": False,
        **_percentiles(latencies),
    }


def run(workers, closed_clients, open_rates, duration_s, seed):
    tree, swap_tree = _models(seed)
    results = []
    zero_lost_swap = True
    all_accounted = True

    def run_cell(mode, n_workers, clients, rate, fn):
        nonlocal zero_lost_swap, all_accounted
        registry = ModelRegistry()
        registry.add(
            "bench", tree, version="v1", workers=n_workers,
            max_pending=4096,
        )
        server = ServeServer(registry, port=0, timeout=60.0).start()
        try:
            row = fn(server, registry)
        finally:
            server.close()
            registry.close()
        ok, acct = _check_accounting(registry)
        all_accounted = all_accounted and ok
        lost = row["requests"] - row["replies"]
        zero_lost = lost == 0 and row["errors"] == 0
        if mode == "swap":
            zero_lost_swap = zero_lost_swap and zero_lost and row["swapped"]
            if not (len(row["versions"]) >= 2 or row["requests"] < 2):
                # Both versions must actually have served traffic for
                # the swap run to prove anything.
                zero_lost_swap = False
        results.append({
            "mode": mode,
            "workers": n_workers,
            "clients": clients,
            "rate": rate,
            "duration_s": duration_s,
            "requests": row["requests"],
            "replies": row["replies"],
            "errors": row["errors"],
            "lost": lost,
            "zero_lost": zero_lost,
            "throughput_rps": row["throughput_rps"],
            "p50_s": row["p50_s"],
            "p90_s": row["p90_s"],
            "p99_s": row["p99_s"],
            "versions": row["versions"],
            "accounting": acct,
            "accounting_ok": ok,
        })

    for n_workers in workers:
        for clients in closed_clients:
            run_cell(
                "closed", n_workers, clients, 0.0,
                lambda server, registry, c=clients: _closed_loop(
                    server, tree, c, duration_s, seed
                ),
            )
        for rate in open_rates:
            run_cell(
                "open", n_workers, 1, rate,
                lambda server, registry, r=rate: _open_loop(
                    server, tree, r, duration_s, seed
                ),
            )
        run_cell(
            "swap", n_workers, closed_clients[0], 0.0,
            lambda server, registry, c=closed_clients[0]: _closed_loop(
                server, tree, c, duration_s, seed,
                swap_at=duration_s / 2, registry=registry,
                swap_tree=swap_tree,
            ),
        )

    return {
        "results": results,
        "summary": {
            "zero_lost_swap": zero_lost_swap,
            "all_accounted": all_accounted,
        },
    }


def check_serving(doc):
    """Latency order, and a matrix wide enough to mean something."""
    modes = set()
    worker_counts = set()
    for i, entry in enumerate(doc["results"]):
        modes.add(entry["mode"])
        worker_counts.add(entry["workers"])
        if entry["p50_s"] > entry["p99_s"]:
            raise ValueError(f"results[{i}] p50 > p99")
    if modes != set(MODES):
        raise ValueError(f"results must cover modes {MODES}, got {modes}")
    if len(worker_counts) < 2:
        raise ValueError("results must cover >= 2 worker counts")


SUITE = Suite(
    schema="bench_serve/1",
    run=run,
    full=dict(workers=[1, 2], closed_clients=[4], open_rates=[200.0],
              duration_s=3.0, seed=7),
    quick=dict(workers=[1, 2], closed_clients=[2], open_rates=[50.0],
               duration_s=0.6, seed=7),
    tables=(
        Table(
            key=("mode", "workers", "clients", "rate"),
            required=("mode", "workers", "clients", "rate", "duration_s",
                      "requests", "replies", "errors", "lost", "zero_lost",
                      "throughput_rps", "p50_s", "p90_s", "p99_s",
                      "accounting_ok"),
            enums={"mode": MODES},
            within={
                "requests": (1, None),
                "throughput_rps": (0, None),
                "p50_s": (0, None),
                "p90_s": (0, None),
                "p99_s": (0, None),
            },
            metrics=(
                ("throughput_rps", "higher"),
                ("p99_s", "lower"),
                # A swap run that drops requests is a correctness
                # failure, not a slow day on the runner.
                ("zero_lost", "bool"),
                ("accounting_ok", "bool"),
            ),
        ),
        Table(where={"mode": "swap"}, true=("zero_lost",)),
    ),
    summary_true=("zero_lost_swap", "all_accounted"),
    summary_metrics=(
        ("zero_lost_swap", "bool"),
        ("all_accounted", "bool"),
    ),
    checks=(check_serving,),
)


if __name__ == "__main__":
    sys.exit(SUITE.main())
