"""The level-synchronous sharded build driver.

One coordinator process owns the tree and the decision rule; ``N``
worker processes own disjoint tid ranges of every attribute list (in
shared memory, spill-backed past a budget).  Each level runs as
broadcast rounds over the pool:

``exact`` merge (default)
    eval → merge histograms → winner → probe → split.  The coordinator
    merges per-shard run-compressed value histograms / categorical
    count matrices and evaluates them with float arithmetic mirroring
    the global scan operation-for-operation, then reuses the *same*
    winner rule (:func:`repro.core.context.choose_winner_from`) and
    purity pre-test as every in-process scheme — the resulting tree is
    bit-identical to the virtual baseline.

``vote`` merge (Meng et al., communication-efficient)
    vote → tally → restricted eval → merge → winner → probe → split.
    Round 1 ships only each shard's local top-k (attribute, impurity)
    pairs; full histograms are exchanged solely for the globally voted
    attribute set.  Bytes shrink by roughly ``n_attrs / k``; the tree
    may differ from exact when the true winner was locally unpopular,
    so accuracy is tracked (EXPERIMENTS.md) instead of asserted.

Every round's bytes, worker-busy seconds and spill traffic are folded
into the attached :class:`~repro.obs.spans.SpanCollector` (coordinator
on lane 0, shard ``s`` on lane ``s + 1``) so ``repro timeline`` shows
coordinator-vs-worker occupancy, and returned on the result's
``shard`` stats for collector-less callers (benchmarks).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.context import choose_winner_from, should_pre_finalize
from repro.core.params import BuildParams
from repro.core.tree import DecisionTree, Node, Split
from repro.data.dataset import Dataset
from repro.obs.report import ObservationReport
from repro.obs.spans import SpanCollector
from repro.shard import shm as shard_shm
from repro.shard import stats as shard_stats
from repro.shard.pool import ShardPool, get_pool
from repro.shard.protocol import ShardWorkerError
from repro.smp.cpus import available_cpus
from repro.smp.machine import MachineConfig, machine_b
from repro.sprint import runs
from repro.sprint.records import make_records
from repro.storage.temp import create_spill_dir, release_spill_dir

#: Supported merge protocols.
MERGE_MODES = ("exact", "vote")

#: Default size of each shard's local candidate ballot in vote mode.
DEFAULT_VOTE_K = 3


class ShardBuildError(RuntimeError):
    """The sharded build could not run (bad arguments, dead pool)."""


@dataclass
class ShardRunStats:
    """What one sharded build moved and did (for benchmarks and obs)."""

    shards: int
    merge: str
    start_method: str
    levels: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    rounds: Dict[str, int] = field(default_factory=dict)
    worker_busy_s: float = 0.0
    model_seconds: float = 0.0
    spilled_bytes: int = 0
    faulted_bytes: int = 0
    spill_segments: int = 0
    worker_pids: List[int] = field(default_factory=list)

    @property
    def bytes_total(self) -> int:
        return self.bytes_sent + self.bytes_received


class _Rounds:
    """Broadcast helper: byte/round accounting + obs lanes per call."""

    def __init__(
        self,
        pool: ShardPool,
        stats: ShardRunStats,
        collector: Optional[SpanCollector],
        clock,
    ) -> None:
        self.pool = pool
        self.stats = stats
        self.collector = collector
        self.clock = clock

    def __call__(self, phase: str, kind: str, payloads) -> List[Dict]:
        sent0, recv0 = self.pool.bytes_sent, self.pool.bytes_received
        t0 = self.clock()
        replies = self.pool.broadcast(kind, payloads)
        t1 = self.clock()
        self.stats.rounds[phase] = self.stats.rounds.get(phase, 0) + 1
        sent = self.pool.bytes_sent - sent0
        received = self.pool.bytes_received - recv0
        self.stats.bytes_sent += sent
        self.stats.bytes_received += received
        busy = [float(r.get("busy", 0.0)) for r in replies]
        self.stats.worker_busy_s += sum(busy)
        self.stats.model_seconds += sum(
            float(r.get("model_seconds", 0.0)) for r in replies
        )
        if self.collector is not None:
            m = self.collector.metrics
            m.counter(
                "shard_rounds_total", {"phase": phase},
                help="coordinator broadcast rounds by phase",
            ).inc()
            for direction, n in (("sent", sent), ("received", received)):
                m.counter(
                    "shard_bytes_total",
                    {"phase": phase, "direction": direction},
                    help="pickled frame bytes over the shard pipes",
                ).inc(n)
            # Lane 0 is the coordinator (its wait shows as io); lane
            # s+1 is shard s, busy for as long as it reported working.
            self.collector.record(0, "io", t0, t1)
            for index, worker_busy in enumerate(busy):
                self.collector.record(
                    index + 1, "busy", t0, min(t0 + worker_busy, t1)
                )
        return replies


def _merged_candidate(
    schema, attr_index: int, payloads, params: BuildParams, n_classes: int
):
    """Merge one attribute's shard statistics and evaluate the result."""
    attr = schema.attributes[attr_index]
    if attr.is_continuous:
        hist = runs.merge_value_histograms([p[1] for p in payloads], n_classes)
        return runs.evaluate_runs(hist, criterion=params.criterion)[0]
    counts = payloads[0][1].copy()
    for payload in payloads[1:]:
        counts += payload[1]
    return shard_stats.categorical_split_from_counts(
        counts, params.max_exhaustive_subset, params.criterion
    )


def _tally_votes(
    vote_replies: List[Dict], leaves: List[int], vote_k: int
) -> Dict[int, List[int]]:
    """Global ballot: most shard votes win; ties to the lower summed
    local impurity, then to the lower attribute index (deterministic)."""
    chosen: Dict[int, List[int]] = {}
    for node_id in leaves:
        counts: Dict[int, int] = {}
        impurity: Dict[int, float] = {}
        for reply in vote_replies:
            for attr_index, local_gini in reply["votes"].get(node_id, ()):
                counts[attr_index] = counts.get(attr_index, 0) + 1
                impurity[attr_index] = (
                    impurity.get(attr_index, 0.0) + local_gini
                )
        ranked = sorted(
            counts, key=lambda a: (-counts[a], impurity[a], a)
        )
        chosen[node_id] = sorted(ranked[:vote_k])
    return chosen


def build_sharded(
    dataset: Dataset,
    *,
    params: Optional[BuildParams] = None,
    shards: Optional[int] = None,
    merge: str = "exact",
    vote_k: int = DEFAULT_VOTE_K,
    start_method: Optional[str] = None,
    machine: Optional[MachineConfig] = None,
    pace: float = 0.0,
    collector: Optional[SpanCollector] = None,
    memory_budget_bytes: Optional[int] = None,
    pool: Optional[ShardPool] = None,
):
    """Build a tree on a pool of shard processes; see the module doc.

    Returns a :class:`repro.core.builder.BuildResult` whose ``shard``
    field carries the run's communication/spill statistics.  The pool
    is taken from (and left in) the process-wide cache unless one is
    passed explicitly; shared-memory segments and spill files are
    removed even when the build raises.
    """
    from repro.core.builder import BuildResult  # cycle: builder dispatches here

    if dataset.n_records == 0:
        raise ShardBuildError("cannot build a classifier from an empty dataset")
    if merge not in MERGE_MODES:
        raise ShardBuildError(
            f"merge must be one of {MERGE_MODES}, got {merge!r}"
        )
    if vote_k < 1:
        raise ShardBuildError(f"vote_k must be >= 1, got {vote_k}")
    params = params if params is not None else BuildParams()
    n_shards = shards if shards else available_cpus()
    if machine is None:
        machine = machine_b(n_shards)

    t_origin = time.perf_counter()

    def clock() -> float:
        return time.perf_counter() - t_origin

    schema = dataset.schema
    n = dataset.n_records
    n_classes = schema.n_classes
    n_attrs = schema.n_attributes

    # ---- setup + sort: build the global lists, slice them by tid range
    # into shared memory.  Timed separately to match the paper's Table 1
    # breakdown (wall seconds here, not model seconds).
    token = shard_shm.new_token()
    bounds = [s * n // n_shards for s in range(n_shards + 1)]
    segments: List[List[Optional[shard_shm.SharedArray]]] = [
        [None] * n_attrs for _ in range(n_shards)
    ]
    setup_s = 0.0
    sort_s = 0.0
    try:
        for attr_index, attr in enumerate(schema.attributes):
            t0 = time.perf_counter()
            tids = np.arange(n, dtype=np.int64)
            records = make_records(
                attr, dataset.columns[attr.name], dataset.labels, tids
            )
            setup_s += time.perf_counter() - t0
            if attr.is_continuous:
                t0 = time.perf_counter()
                order = np.lexsort((records["tid"], records["value"]))
                records = records[order]
                sort_s += time.perf_counter() - t0
            t0 = time.perf_counter()
            rec_tids = records["tid"]
            for s in range(n_shards):
                mask = (rec_tids >= bounds[s]) & (rec_tids < bounds[s + 1])
                segments[s][attr_index] = shard_shm.SharedArray.create(
                    records[mask], token, f"a{attr_index}-s{s}"
                )
            setup_s += time.perf_counter() - t0

        own_pool = pool is None
        if own_pool:
            pool = get_pool(n_shards, start_method)
        if pool.n != n_shards:
            raise ShardBuildError(
                f"pool has {pool.n} workers but {n_shards} shards requested"
            )

        spill_dir: Optional[str] = None
        if memory_budget_bytes is not None:
            spill_dir = create_spill_dir()

        stats = ShardRunStats(
            shards=n_shards, merge=merge, start_method=pool.start_method,
            worker_pids=pool.pids(),
        )
        rounds = _Rounds(pool, stats, collector, clock)

        t_build0 = time.perf_counter()
        loaded = False
        try:
            from repro._native import cc

            load_payloads = [
                {
                    "schema": schema,
                    "params": params,
                    "n_classes": n_classes,
                    "machine": machine,
                    "pace": pace,
                    "n_records_global": n,
                    "segments": {
                        attr_index: (
                            seg.spec() if seg is not None else None
                        )
                        for attr_index, seg in enumerate(segments[s])
                    },
                    "memory_budget_bytes": memory_budget_bytes,
                    "spill_dir": spill_dir,
                    "native_mode": cc.get_native_override(),
                }
                for s in range(n_shards)
            ]
            rounds("load", "load", load_payloads)
            loaded = True

            root = Node(0, 0, dataset.class_histogram())
            frontier: List[Node] = (
                [] if should_pre_finalize(root, params) else [root]
            )
            while frontier:
                stats.levels += 1
                leaves = [node.node_id for node in frontier]
                if collector is not None:
                    collector.instant(
                        0, "shard_level", clock(),
                        level=stats.levels - 1, leaves=len(leaves),
                    )

                eval_attrs: Optional[Dict[int, List[int]]] = None
                if merge == "vote" and n_attrs > vote_k:
                    vote_replies = rounds(
                        "vote", "vote", {"leaves": leaves, "k": vote_k}
                    )
                    eval_attrs = _tally_votes(vote_replies, leaves, vote_k)

                eval_replies = rounds(
                    "eval", "eval",
                    {"leaves": leaves, "attrs": eval_attrs},
                )

                t_merge0 = clock()
                winners: Dict[int, Tuple[int, "object"]] = {}
                node_by_id = {node.node_id: node for node in frontier}
                for node in frontier:
                    wanted = (
                        range(n_attrs) if eval_attrs is None
                        else eval_attrs[node.node_id]
                    )
                    candidates = [None] * n_attrs
                    for attr_index in wanted:
                        payloads = [
                            reply["stats"][(node.node_id, attr_index)]
                            for reply in eval_replies
                        ]
                        candidates[attr_index] = _merged_candidate(
                            schema, attr_index, payloads, params, n_classes
                        )
                    choice = choose_winner_from(node, candidates, params)
                    if choice is None:
                        node.make_leaf()
                    else:
                        winners[node.node_id] = choice
                if collector is not None:
                    collector.record(0, "busy", t_merge0, clock())

                drop = [nid for nid in leaves if nid not in winners]
                next_frontier: List[Node] = []
                split_specs: Dict[int, Dict] = {}
                if winners:
                    probe_replies = rounds(
                        "probe", "probe",
                        {
                            "winners": {
                                nid: {"attr": attr_index, "cand": cand}
                                for nid, (attr_index, cand) in winners.items()
                            }
                        },
                    )
                    t_w0 = clock()
                    for nid, (attr_index, cand) in winners.items():
                        node = node_by_id[nid]
                        left_counts = np.zeros(n_classes, dtype=np.int64)
                        for reply in probe_replies:
                            left_counts += np.asarray(
                                reply["left_counts"][nid], dtype=np.int64
                            )
                        right_counts = node.class_counts - left_counts
                        left = Node(2 * nid + 1, node.depth + 1, left_counts)
                        right = Node(2 * nid + 2, node.depth + 1, right_counts)
                        attr = schema.attributes[attr_index]
                        node.set_split(
                            Split(
                                attribute=attr.name,
                                attribute_index=attr_index,
                                threshold=cand.threshold,
                                subset=cand.subset,
                                weighted_gini=cand.weighted_gini,
                            ),
                            left,
                            right,
                        )
                        keep_left = not should_pre_finalize(left, params)
                        keep_right = not should_pre_finalize(right, params)
                        split_specs[nid] = {
                            "keep_left": keep_left,
                            "keep_right": keep_right,
                        }
                        if keep_left:
                            next_frontier.append(left)
                        if keep_right:
                            next_frontier.append(right)
                    if collector is not None:
                        collector.record(0, "busy", t_w0, clock())
                if split_specs or drop:
                    rounds(
                        "split", "split",
                        {"splits": split_specs, "drop": drop},
                    )
                frontier = next_frontier

            info_replies = rounds("info", "info", {})
            for reply in info_replies:
                store = reply.get("store") or {}
                stats.spilled_bytes += int(store.get("spilled_bytes", 0))
                stats.faulted_bytes += int(store.get("faulted_bytes", 0))
                stats.spill_segments += int(store.get("spill_segments", 0))
            if collector is not None:
                m = collector.metrics
                for kind_name, value in (
                    ("spilled", stats.spilled_bytes),
                    ("faulted", stats.faulted_bytes),
                ):
                    if value:
                        m.counter(
                            "shard_spill_bytes_total", {"kind": kind_name},
                            help="bytes moved through the per-shard "
                                 "spill pagefiles",
                        ).inc(value)
        finally:
            if loaded and not pool.broken:
                try:
                    rounds("unload", "unload", {})
                except ShardWorkerError:
                    pass
            if spill_dir is not None:
                release_spill_dir(spill_dir)

        if not root.finalized and root.split is None:
            root.make_leaf()
        tree = DecisionTree(schema, root)
        build_s = time.perf_counter() - t_build0
    finally:
        for per_shard in segments:
            for seg in per_shard:
                if seg is not None:
                    seg.close()

    timings = {
        "setup": setup_s,
        "sort": sort_s,
        "build": build_s,
        "total": setup_s + sort_s + build_s,
    }
    observation = None
    if collector is not None:
        observation = ObservationReport(
            collector=collector,
            metrics=collector.metrics,
            algorithm=f"shard-{merge}",
            n_procs=n_shards,
        )
    return BuildResult(
        tree=tree,
        algorithm=f"shard-{merge}",
        n_procs=n_shards,
        machine=machine,
        timings=timings,
        stats=None,
        dataset_name=dataset.name,
        observation=observation,
        shard=stats,
    )
