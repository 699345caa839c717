"""Tests of the benchmark's own checks.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_dataset(function=2, n=2000, seed=3):
    return worker.dataset(function, n, seed)


# -- trees ---------------------------------------------------------------------


def test_wrong_tree_counts_as_failure():
    from repro import build_classifier

    data = small_dataset()
    reference = build_classifier(data, algorithm="serial").tree.signature()
    other = build_classifier(small_dataset(seed=4), algorithm="serial").tree
    same = build_classifier(data, algorithm="mwk", n_procs=2,
                            runtime="threads").tree
    assert checks.same_tree(same, reference)
    assert not checks.same_tree(other, reference)

    timed = worker.loop(lambda: (checks.same_tree(other, reference), 0.1),
                        0.0, min_ops=3)
    assert (timed.attempted, timed.failed) == (3, 3)


def test_exception_in_operation_counts_as_failure():
    def op():
        raise ValueError("boom")

    timed = worker.loop(op, 0.0, min_ops=2)
    assert (timed.attempted, timed.failed) == (2, 2)
    assert "ValueError: boom" in timed.errors[0]


# -- serve replies -------------------------------------------------------------


def test_reply_checks():
    good = b'{"class": "B", "class_index": 1, "model": "m", "version": ""}\n'
    assert checks.reply_ok(good, 1)
    assert not checks.reply_ok(good, 0)
    assert not checks.reply_ok(b'{"error": "x", "reason": "shed"}\n', 1)
    assert not checks.reply_ok(b"not json\n", 1)
    assert not checks.reply_ok(b"", 1)
    assert not checks.reply_ok(b"[1]\n", 1)


def test_accounting_checks():
    def doc(**acct):
        base = {"arrivals": 10, "admitted": 10, "shed": 0, "rejected": 0}
        base.update(acct)
        return {"models": [base]}

    assert checks.accounting_errors(doc(), 10) == []
    assert checks.accounting_errors(doc(), 11)  # a request went missing
    assert checks.accounting_errors(doc(admitted=8, shed=2), 10)  # shed
    assert checks.accounting_errors(doc(admitted=9), 10)  # does not add up
    assert checks.accounting_errors({"models": []}, 0)


@pytest.fixture
def served_model(tmp_path):
    """A real ``repro serve`` child over a small tree, plus its rows."""
    from repro import build_classifier
    from repro.classify.predict import predict_oracle
    from repro.core.serialize import save_tree

    tree = build_classifier(small_dataset(), algorithm="serial").tree
    test = small_dataset(n=64, seed=9)
    expected = [int(c) for c in predict_oracle(tree, test)]
    lines = [
        json.dumps({k: v[i].item() for k, v in test.columns.items()}).encode()
        + b"\n"
        for i in range(64)
    ]
    path = tmp_path / "tree.json"
    save_tree(tree, str(path))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "repro", "serve", "--model", str(path),
           "--port", "0", "--no-stdin", "--telemetry-port", "0"]
    server, setup_s = worker.start_server(cmd, env, lines, expected)
    try:
        yield server, lines, expected
    finally:
        server.stop()
    assert server.proc.poll() is not None


def test_correct_replies_pass_and_accounting_adds_up(served_model):
    server, lines, expected = served_model
    timed = worker.closed_loop(server, lines, expected, 0.3)
    assert timed.attempted > 0 and timed.failed == 0
    accounting = worker.serve_checks(server, timed)
    assert timed.failed == 0, timed.errors
    assert accounting["sent"] == accounting["arrivals"] == server.sent
    assert accounting["shed"] == accounting["rejected"] == 0


def test_wrong_replies_count_as_failures(served_model):
    server, lines, expected = served_model
    flipped = [1 - c for c in expected]
    timed = worker.closed_loop(server, lines, flipped, 0.2)
    assert timed.attempted > 0 and timed.failed == timed.attempted


def test_error_replies_count_as_failures(served_model):
    server, lines, expected = served_model
    broken = [b'{"salary": "lots"}\n'] * len(lines)
    timed = worker.closed_loop(server, broken, expected, 0.2)
    assert timed.attempted > 0 and timed.failed == timed.attempted
    # The rejected requests still add up in the registry's accounting.
    acct = server.models()["models"][0]
    assert acct["rejected"] == timed.attempted
    assert checks.accounting_errors(server.models(), server.sent) == []


def test_wrong_first_reply_fails_server_setup(tmp_path, served_model):
    server, lines, expected = served_model
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "repro", "serve", "--model",
           str(tmp_path / "tree.json"), "--port", "0", "--no-stdin",
           "--telemetry-port", "0"]
    try:
        started, _ = worker.start_server(cmd, env, lines,
                                         [1 - c for c in expected])
    except RuntimeError as exc:
        assert "first reply" in str(exc)
    else:
        started.stop()
        pytest.fail("a server whose first reply is wrong passed set-up")


# -- native backend ------------------------------------------------------------


def result_doc(attempted=5, failed=0, fallback=()):
    phase = {"op_s": [0.1] * attempted, "op_end": [0.1 * (i + 1) for i in range(attempted)],
             "t_start": 0.0, "rows_per_op": 10, "attempted": attempted,
             "failed": failed, "errors": []}
    return {"phase": phase, "fallback": list(fallback)}


def host_doc(**native):
    flags = {"training_kernels": True, "inference_kernel": True, "pool": True}
    flags.update(native)
    return {"native": flags}


def test_missing_native_backend_fails_every_operation():
    assert run.outcome(result_doc(), host_doc(), False)[:2] == (5, 0)
    for part in ("training_kernels", "inference_kernel", "pool"):
        attempted, failed, reasons = run.outcome(
            result_doc(), host_doc(**{part: False}), False
        )
        assert failed == attempted == 5
        assert any(part in r for r in reasons)


def test_numpy_fallback_fails_every_operation():
    deltas = checks.kernel_deltas(
        {("partition", "native"): (1, 10)},
        {("partition", "native"): (3, 30), ("partition", "numpy"): (1, 7)},
    )
    assert deltas == {("partition", "native"): (2, 20),
                      ("partition", "numpy"): (1, 7)}
    fallback = checks.fallback_errors(deltas)
    assert fallback
    attempted, failed, _ = run.outcome(result_doc(fallback=fallback),
                                       host_doc(), False)
    assert failed == attempted


def test_native_disabled_worker_reports_it():
    env = run.bench_env()
    env["REPRO_NATIVE"] = "0"
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--warm"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    host = json.loads(out.splitlines()[-1][len("RESULT "):])
    assert checks.native_errors(host)


# -- spans ---------------------------------------------------------------------


def test_self_time_excludes_nested_spans():
    tracer = spans.Tracer()

    def inner():
        time.sleep(0.02)

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        traced_inner()
        traced_inner()

    tracer.wrap("outer", outer)()
    assert tracer.calls == {"inner": 2, "outer": 1}
    assert tracer.self_s["outer"] < 0.01
    assert tracer.total_s["outer"] >= tracer.total_s["inner"] >= 0.04


def test_spans_are_per_thread():
    tracer = spans.Tracer()
    work = tracer.wrap("work", lambda: time.sleep(0.02))
    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert tracer.calls["work"] == 2
    assert tracer.self_s["work"] == pytest.approx(tracer.total_s["work"])


def test_build_layers_patch_and_restore():
    from repro.core import context

    original = context.BuildContext.__dict__["winner_phase"]
    tracer = spans.Tracer()
    tracer.install(spans.BUILD_LAYERS)
    tracer.install_sync_waits()
    assert context.BuildContext.__dict__["winner_phase"] is not original
    tracer.restore()
    assert context.BuildContext.__dict__["winner_phase"] is original


# -- metric names and units ----------------------------------------------------


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_end_to_end_names_match_benchmark_json():
    result = result_doc()
    result.update(peak_rss_mb=10.0)
    assert set(run.end_to_end(result, [0.2, 0.3])) == set(declared("end_to_end"))


def test_best_chunk_skips_a_slow_stretch():
    # Ten 100 ms operations, then ten slowed to 300 ms by a noisy host.
    op_s = [0.1] * 10 + [0.3] * 10
    op_end = []
    t = 0.0
    for dt in op_s:
        t += dt
        op_end.append(t)
    phase = {"op_s": op_s, "op_end": op_end, "t_start": 0.0,
             "rows_per_op": 1}
    metrics = run.end_to_end({"phase": phase, "peak_rss_mb": 1.0}, [1.0])
    assert metrics["p50_ms"]["median"] == pytest.approx(100.0)
    assert metrics["rows_per_s"]["median"] == pytest.approx(10.0)


def test_layer_names_are_declared():
    names = set(declared("per_layer"))
    tracer = spans.Tracer()
    produced = set(worker.build_layers(tracer, 1, 1.0))
    produced |= set(worker.kernel_layers({}, 1, 0, 1))
    produced |= set(worker.engine_layers({}))
    timed = worker.Timed()
    timed.op_s = [0.001]
    produced |= set(worker.serve_layers({}, {}, timed, timed, 1))
    produced |= {"classify.forest.predict.s",
                 "classify.forest.predict.wall_share"}
    assert produced == names


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(worker.WORKLOADS)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert max(m["bound"] for m in SPEC["end_to_end"]) == setup[0]["bound"]


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "build-f7-serial",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    units = {name: m["unit"] for name, m in doc["metrics"].items()}
    assert units == declared(kind)
    for name, unit in declared(kind).items():  # the human-readable table
        assert any(line.split()[:2] == [name, unit] for line in lines)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build-f7-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
