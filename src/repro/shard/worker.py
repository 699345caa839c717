"""The shard worker: one process, one tid range, all attributes.

Spawn-safe by construction: :func:`worker_main` is a module-level
function, all state arrives pickled in the ``load`` message, shared
segments are attached by name, and the native kernels re-resolve
through the :mod:`repro._native` source-hash ``.so`` cache — a worker
process *loads* the already-compiled object instead of invoking the
compiler again (the ``info`` reply reports the per-process compiler
invocation count so tests can prove it).

Because sharding is by record range, **every** attribute record of a
given tuple lives in the same shard: step S (probe + stable partition)
is fully local, and only split *statistics* (histograms, count
matrices, local candidates) ever cross the pipe.

With ``pace > 0`` each command sleeps ``pace`` wall seconds per virtual
second of the machine cost model it would have charged — the same
model-replay idea as the paced threads runtime, except the sleeps
overlap across *processes*, so a multi-shard build genuinely finishes
faster in wall time even on a starved host.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.shard import stats as shard_stats
from repro.shard.protocol import Channel
from repro.shard.shm import SharedArray
from repro.shard.store import ShardStore
from repro.sprint import native as sprint_native
from repro.sprint import runs
from repro.sprint.kernels import ScratchArena, partition_stable
from repro.sprint.probe import BitProbe
from repro.sprint.splitter import winner_left_mask
from repro._native import cc


class _WorkerState:
    """Everything one loaded build needs inside the worker."""

    def __init__(self, payload: Dict) -> None:
        self.schema = payload["schema"]
        self.params = payload["params"]
        self.n_classes = payload["n_classes"]
        self.machine = payload["machine"]
        self.pace = payload["pace"]
        self.n_records_global = payload["n_records_global"]
        self.store = ShardStore(
            memory_budget_bytes=payload.get("memory_budget_bytes"),
            spill_dir=payload.get("spill_dir"),
        )
        self.probe = BitProbe(self.n_records_global)
        self.arena = ScratchArena()
        self.shm_arrays: List[SharedArray] = []
        #: (node_id, attr) -> stats payload, computed at vote time and
        #: reused by the follow-up eval so vote mode does one histogram
        #: pass per leaf/attr, not two.
        self.stat_cache: Dict[Tuple[int, int], Tuple] = {}

    def attach_segments(self, segments: Dict[int, Optional[Dict]]) -> None:
        for attr_index, spec in segments.items():
            if spec is None:
                continue
            shared = SharedArray.attach(spec)
            self.shm_arrays.append(shared)
            self.store.put((attr_index, 0), shared.array)

    def close(self) -> None:
        self.store.close()
        self.stat_cache.clear()
        for shared in self.shm_arrays:
            shared.close()
        self.shm_arrays = []


def _leaf_attr_stats(state: _WorkerState, node_id: int, attr_index: int):
    """This shard's statistics for one (leaf, attribute) pair.

    Continuous: ``("c", ValueHistogram)``.  Categorical:
    ``("k", count_matrix)``.  Cached per level for vote mode.
    """
    cached = state.stat_cache.get((node_id, attr_index))
    if cached is not None:
        return cached, 0.0
    attr = state.schema.attributes[attr_index]
    records = state.store.get((attr_index, node_id))
    n = 0 if records is None else len(records)
    if attr.is_continuous:
        if records is None:
            hist = runs.empty_histogram(state.n_classes)
        else:
            hist = runs.run_histogram(
                records["value"], records["cls"], state.n_classes
            )
        out = ("c", hist)
        cost = state.machine.cpu_eval_record * n
    else:
        if records is None:
            counts = np.zeros(
                (attr.cardinality, state.n_classes), dtype=np.int64
            )
        else:
            counts = shard_stats.categorical_counts(
                records["value"], records["cls"],
                attr.cardinality, state.n_classes,
            )
        out = ("k", counts)
        cost = state.machine.cpu_count_record * n
    state.stat_cache[(node_id, attr_index)] = out
    return out, cost


def _local_candidate(state: _WorkerState, payload: Tuple):
    """Local split candidate from this shard's own statistics."""
    kind, data = payload
    if kind == "c":
        return runs.evaluate_runs(data, criterion=state.params.criterion)[0]
    return shard_stats.categorical_split_from_counts(
        data, state.params.max_exhaustive_subset, state.params.criterion
    )


def _cmd_eval(state: _WorkerState, payload: Dict) -> Tuple[Dict, float]:
    """Statistics for the requested leaves (optionally attr-restricted)."""
    out: Dict[Tuple[int, int], Tuple] = {}
    cost = 0.0
    for node_id in payload["leaves"]:
        attrs = payload.get("attrs")
        wanted = (
            range(state.schema.n_attributes)
            if attrs is None else attrs.get(node_id, ())
        )
        for attr_index in wanted:
            stats_payload, c = _leaf_attr_stats(state, node_id, attr_index)
            out[(node_id, attr_index)] = stats_payload
            cost += c
    return {"stats": out}, cost


def _cmd_vote(state: _WorkerState, payload: Dict) -> Tuple[Dict, float]:
    """Local top-k candidate attributes per leaf (Meng-style round 1)."""
    k = payload["k"]
    votes: Dict[int, List[Tuple[int, float]]] = {}
    cost = 0.0
    for node_id in payload["leaves"]:
        ranked: List[Tuple[float, int]] = []
        for attr_index in range(state.schema.n_attributes):
            stats_payload, c = _leaf_attr_stats(state, node_id, attr_index)
            cost += c
            cand = _local_candidate(state, stats_payload)
            if cand is not None:
                ranked.append((cand.weighted_gini, attr_index))
        ranked.sort()
        votes[node_id] = [(attr, gini) for gini, attr in ranked[:k]]
    return {"votes": votes}, cost


def _cmd_probe(state: _WorkerState, payload: Dict) -> Tuple[Dict, float]:
    """Step W, shard-local: mark the probe bits of the winning splits
    and report the local left-child class histograms.

    The coordinator sums the per-shard histograms — exact integer
    arithmetic, identical to the baseline's single global ``bincount``
    over the winning attribute's list — then decides which children
    survive the purity pre-test before the split round runs.
    """
    cost = 0.0
    left_counts: Dict[int, List[int]] = {}
    for node_id, spec in payload["winners"].items():
        seg = state.store.get((spec["attr"], node_id))
        if seg is None:
            left_counts[node_id] = [0] * state.n_classes
            continue
        mask = winner_left_mask(seg, spec["cand"])
        tids = seg["tid"]
        state.probe.mark_left(tids[mask])
        state.probe.clear(tids[~mask])
        left_counts[node_id] = np.bincount(
            seg["cls"][mask], minlength=state.n_classes
        ).tolist()
        cost += state.machine.cpu_probe_record * len(seg)
    return {"left_counts": left_counts}, cost


def _cmd_split(state: _WorkerState, payload: Dict) -> Tuple[Dict, float]:
    """Step S, shard-local: partition every attribute list by the probe.

    Mirrors the in-process kernel's memory discipline: when both
    children persist the partition buffer is handed to the store as two
    views; when one was pruned the partition runs through the worker's
    scratch arena and only the surviving side is copied out.
    """
    cost = 0.0
    for attr_index in range(state.schema.n_attributes):
        for node_id, spec in payload["splits"].items():
            seg = state.store.get((attr_index, node_id))
            state.store.delete((attr_index, node_id))
            if seg is None:
                continue
            mask = state.probe.is_left(seg["tid"])
            keep_left, keep_right = spec["keep_left"], spec["keep_right"]
            if keep_left and keep_right:
                left, right = partition_stable(seg, mask)
                state.store.put((attr_index, 2 * node_id + 1), left)
                state.store.put((attr_index, 2 * node_id + 2), right)
            else:
                left, right = partition_stable(seg, mask, state.arena)
                if keep_left:
                    state.store.put(
                        (attr_index, 2 * node_id + 1), left.copy()
                    )
                if keep_right:
                    state.store.put(
                        (attr_index, 2 * node_id + 2), right.copy()
                    )
            cost += state.machine.cpu_split_record * len(seg)
    for node_id in payload.get("drop", ()):
        for attr_index in range(state.schema.n_attributes):
            state.store.delete((attr_index, node_id))
    state.stat_cache.clear()
    return {}, cost


def _info(state: Optional[_WorkerState], channel: Channel) -> Dict:
    backend = sprint_native.active_kernels()
    out = {
        "pid": os.getpid(),
        "native_backend": "native" if backend is not None else "numpy",
        "compiler_invocations": cc.compiler_invocations(),
        "bytes_sent": channel.bytes_sent,
        "bytes_received": channel.bytes_received,
    }
    if state is not None:
        out["store"] = {
            "memory_bytes": state.store.memory_bytes,
            "spilled_bytes": state.store.spilled_bytes,
            "faulted_bytes": state.store.faulted_bytes,
            "spill_segments": state.store.spill_segments,
        }
        out["arena_bytes"] = state.arena.reused_bytes
    return out


def worker_main(conn, worker_index: int) -> None:
    """The worker loop; exits on ``shutdown`` or a closed pipe."""
    channel = Channel(conn)
    state: Optional[_WorkerState] = None
    while True:
        try:
            kind, payload = channel.recv()
        except (EOFError, OSError):
            break
        started = time.perf_counter()
        try:
            if kind == "shutdown":
                channel.send("ok", {})
                break
            if kind == "load":
                if state is not None:
                    state.close()
                if payload.get("native_mode") is not None:
                    cc.set_native_override(payload["native_mode"])
                state = _WorkerState(payload)
                state.attach_segments(payload["segments"])
                reply = _info(state, channel)
                cost = 0.0
            elif kind == "unload":
                if state is not None:
                    state.close()
                    state = None
                reply, cost = {}, 0.0
            elif kind == "info":
                reply, cost = _info(state, channel), 0.0
            elif kind == "eval":
                reply, cost = _cmd_eval(state, payload)
            elif kind == "vote":
                reply, cost = _cmd_vote(state, payload)
            elif kind == "probe":
                reply, cost = _cmd_probe(state, payload)
            elif kind == "split":
                reply, cost = _cmd_split(state, payload)
            else:
                raise ValueError(f"unknown command {kind!r}")
            if cost and state is not None and state.pace > 0:
                time.sleep(state.pace * cost)
            reply["busy"] = time.perf_counter() - started
            reply["model_seconds"] = cost
            channel.send("ok", reply)
        except Exception:
            channel.send("error", {"traceback": traceback.format_exc()})
    if state is not None:
        state.close()
    channel.close()
