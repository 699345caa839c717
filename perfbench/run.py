"""The repository's reference benchmark: builds and serving, end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload build-f7-serial --seed 1 \
        --seconds 20 --trace 0

Workloads, metrics and units are declared in ``BENCHMARK.json``.  Each
run warms the native-library cache, sets the workload up several times
in fresh processes (``setup_s`` is their median), then runs the timed
loop in a child process (``worker.py``) that checks every output.  It
prints every metric with its unit, sample count, median and quartiles,
then the host record, and last one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Everything the run writes stays under ``.bench_build/``
in the checkout, including the compiled native libraries.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build"
sys.path.insert(0, str(HERE))

from checks import native_errors, quantile  # noqa: E402
from worker import SETUPS, WORKLOADS  # noqa: E402

#: The timed phase is cut into this many runs of consecutive operations
#: (fewer if it has fewer operations); the gated latency and throughput
#: come from the best of them.  Short runs find the stretches a shared
#: host leaves undisturbed: on the serve workload, going from 5 to 30
#: runs cut the spread of the best rate between seeds from 0.07 to 0.03.
CHUNKS = 30
#: No child may outlive this many seconds.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark could not run here; no result is printed."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def bench_env() -> dict:
    """Child environment: the checkout's sources and a checkout-local
    native cache; native gates and lane overrides left at their defaults."""
    env = dict(os.environ)
    for name in ("REPRO_NATIVE", "REPRO_NATIVE_THREADS"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["XDG_CACHE_HOME"] = str(WORKDIR / "cache")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def kill_group(proc) -> None:
    """Kill a worker and the servers it started (its process group)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(args, env, deadline: float) -> dict:
    """Run ``worker.py args``; return its set-up seconds (spawn to
    ``READY``, None if it never got there) and its ``RESULT`` document."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            cwd=str(ROOT), start_new_session=True)
    # A worker past the deadline is killed, which also ends the read loop.
    watchdog = threading.Timer(
        max(0.0, deadline - time.perf_counter()), kill_group, (proc,)
    )
    watchdog.start()
    ready = None
    result = None
    try:
        for raw in proc.stdout:
            line = raw.decode().rstrip("\n")
            if line == "READY" and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            kill_group(proc)
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)}: worker exited {proc.returncode}")
    return {"setup_s": ready, "result": result}


def summarize(values) -> dict:
    """n, median and quartiles of a sample."""
    values = list(values)
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": quantile(values, 0.25),
        "q3": quantile(values, 0.75),
    }


def chunks(phase: dict):
    """Split a phase, in completion order, into ``CHUNKS`` runs of
    consecutive operations: (latencies in ms, rows per second) each."""
    ops = sorted(zip(phase["op_end"], phase["op_s"]))
    k = min(CHUNKS, len(ops))
    previous_end = phase["t_start"]
    for i in range(k):
        part = ops[i * len(ops) // k:(i + 1) * len(ops) // k]
        end = part[-1][0]
        yield ([dt * 1000.0 for _, dt in part],
               len(part) * phase["rows_per_op"] / (end - previous_end))
        previous_end = end


def end_to_end(result: dict, setup_s) -> dict:
    """The end-to-end metrics of one run, each with its sample summary.

    Other tenants of a shared host slow whole stretches of seconds, not
    single operations, so the median of one run swings with how much
    of it they covered.  The gated latency is the median of the chunk
    where it was lowest, and the gated throughput that of the chunk
    where it was highest; the whole-run figures are printed beside them.
    """
    parts = list(chunks(result["phase"]))
    best = min(parts, key=lambda part: statistics.median(part[0]))
    return {
        "p50_ms": summarize(best[0]),
        "rows_per_s": single(max(rate for _, rate in parts)),
        "setup_s": summarize(setup_s),
        "peak_rss_mb": single(result["peak_rss_mb"]),
    }


def ungated(kind: str, result: dict, attempted: int, failed: int) -> dict:
    """Figures printed for readers but not declared in BENCHMARK.json:
    whole-run latency and throughput, the tail latency (too unsteady
    between runs on a shared host to be a gate), the error rate (0 on
    every correct run) and the workload's own name for its headline."""
    phase = result["phase"]
    op_ms = [s * 1000.0 for s in phase["op_s"]]
    wall = max(phase["op_end"]) - phase["t_start"]
    rate = single(len(op_ms) * phase["rows_per_op"] / wall)
    rows = {
        "p50_ms.whole_run": ("ms", summarize(op_ms)),
        "p99_ms.whole_run": ("ms", {"n": len(op_ms),
                                    "median": quantile(op_ms, 0.99),
                                    "q1": None, "q3": None}),
        "rows_per_s.whole_run": ("1/s", rate),
        "error_rate": ("1", {"n": attempted, "median": failed / attempted,
                             "q1": None, "q3": None}),
    }
    if kind == "build":
        rows["build_s.whole_run"] = ("s", summarize(s / 1000.0 for s in op_ms))
    if kind == "serve":
        rows["rps.whole_run"] = ("1/s", rate)
    return rows


def single(value: float) -> dict:
    return {"n": 1, "median": value, "q1": value, "q3": value}


def outcome(result: dict, host: dict, trace: bool) -> "tuple[int, int, list]":
    """attempted, failed and the reasons, over every checked operation."""
    phases = [result["phase"]] + ([result["traced_phase"]] if trace else [])
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    reasons = [e for p in phases for e in p["errors"]]
    broken = native_errors(host) + result.get("fallback", [])
    if broken:
        failed = attempted
        reasons += broken
    return attempted, failed, reasons


def run(args, spec) -> dict:
    """One benchmark run; returns the printable report."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {ROOT / 'src'}")
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    WORKDIR.mkdir(exist_ok=True)
    env = bench_env()
    spawn(["--warm"], env, deadline)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    kind = WORKLOADS[args.workload]["kind"]
    setup_s = []
    if not args.trace and kind != "serve":  # a serve worker times its servers
        for _ in range(SETUPS - 1):
            setup_s.append(spawn(common + ["--setup-only"], env, deadline)["setup_s"])
    child = spawn(common, env, deadline)
    result = child["result"]
    if result is None:
        raise BenchError("worker printed no result")
    setup_s = result.get("setup_s") or setup_s + [child["setup_s"]]
    host = result["host"]
    attempted, failed, reasons = outcome(result, host, bool(args.trace))
    idle = []
    extra = {}
    if args.trace:
        declared = spec["per_layer"]
        table = {name: single(value) for name, value in result["layers"].items()}
        # A layer this workload never enters reads 0 (e.g. the serving
        # layers on a build); the report lists them.
        idle = [m["name"] for m in declared if m["name"] not in table]
        table.update({name: single(0.0) for name in idle})
    else:
        declared = spec["end_to_end"]
        table = end_to_end(result, setup_s)
        extra = ungated(kind, result, attempted, failed)
    names = {m["name"] for m in declared}
    if set(table) != names:
        raise BenchError(
            f"measured metrics {sorted(table)} differ from declared {sorted(names)}"
        )
    return {
        "host": host,
        "reasons": reasons,
        "idle": idle,
        "accounting": result.get("accounting"),
        "extra": extra,
        "table": table,
        "line": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                m["name"]: {"value": table[m["name"]]["median"], "unit": m["unit"]}
                for m in declared
            },
        },
        "units": {m["name"]: m["unit"] for m in declared},
    }


def print_report(workload: str, report: dict) -> None:
    line = report["line"]
    print(f"workload {workload}: {line['attempted']} operation(s), "
          f"{line['failed']} failed (error_rate "
          f"{line['failed'] / line['attempted']:.6f})")
    for reason in report["reasons"][:10]:
        print(f"  failure: {reason}")
    print(f"{'metric':<52} {'unit':>8} {'n':>7} {'median':>14} "
          f"{'q1':>14} {'q3':>14}")
    rows = [(name, unit, report["table"][name])
            for name, unit in report["units"].items()]
    for name, unit, s in rows + [(f"{name} (not gated)", unit, s)
                                 for name, (unit, s) in report["extra"].items()]:
        quartiles = "".join(
            f" {'-' if q is None else format(q, '.6g'):>14}"
            for q in (s["q1"], s["q3"])
        )
        print(f"{name:<52} {unit:>8} {s['n']:>7} {s['median']:>14.6g}"
              + quartiles)
    if report["idle"]:
        print("layers this workload does not enter (reported as 0): "
              + ", ".join(report["idle"]))
    if report["accounting"]:
        print("server accounting (setup and warm-up requests included) "
              + json.dumps(report["accounting"]))
    print("host " + json.dumps(report["host"], sort_keys=True))
    print(json.dumps(line))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; one of {names}")
        report = run(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print_report(args.workload, report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
