"""Record data parallelism — the scheme the paper argues *against*.

Parallel SPRINT on the IBM SP (Shafer et al., VLDB 1996) partitions every
attribute list into P contiguous ranges, one per processor (paper §3.1).
The paper's position: "Record parallelism is not well suited to SMP
systems since it is likely to cause excessive synchronization, and
replication of data structures."  This module implements the scheme on
the SMP runtime so the claim can be measured
(``benchmarks/bench_ablation_recordpar.py``).

Per leaf, per level:

1. every processor scans its chunk of every attribute, building partial
   run histograms (continuous, :func:`~repro.sprint.runs.run_histogram`)
   or partial count matrices (categorical) — the *replicated data
   structures*;
2. a barrier, then each processor is charged for evaluating its
   chunk's candidate split points — the evaluation cost of parallel
   SPRINT, which the virtual-time model keeps;
3. a barrier, then the master merges each continuous attribute's
   partial histograms by exact addition (a run of equal values cut by
   a chunk boundary sums back into one run) and evaluates the merged
   histogram once (:func:`~repro.sprint.runs.evaluate_runs`), so the
   candidate — ties included — is the one serial SPRINT finds; it
   merges the categorical matrices, runs the subset search and picks
   the winner;
4. a barrier, then all processors mark their chunk of the winning
   attribute in the shared probe and publish partial left-histograms;
5. a barrier, the master creates the children;
6. a barrier, then the split phase: every processor partitions its chunk
   of every attribute and appends to the children's lists **in chunk
   order** (a condition-variable chain per attribute — order must be
   preserved to keep the lists sorted).

That is five barriers plus an ordered-append chain per leaf per level,
versus MWK's single condition wait per leaf — the synchronization gap
the paper predicts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.context import BuildContext, LeafTask
from repro.core.tree import DecisionTree
from repro.sprint.gini import (
    SplitCandidate,
    best_categorical_split_from_counts,
)
from repro.sprint.kernels import partition_stable
from repro.sprint.runs import (
    evaluate_runs,
    merge_value_histograms,
    run_histogram,
)
from repro.sprint.splitter import winner_left_mask


def chunk_bounds(n: int, pid: int, n_procs: int) -> Tuple[int, int]:
    """Contiguous range ``[lo, hi)`` of records owned by ``pid``."""
    base, extra = divmod(n, n_procs)
    lo = pid * base + min(pid, extra)
    hi = lo + base + (1 if pid < extra else 0)
    return lo, hi


class _LeafShared:
    """Published per-chunk partials for one leaf (the replicated state)."""

    def __init__(self, n_procs: int, n_attrs: int) -> None:
        #: [pid][attr] -> run histogram (continuous) or count matrix.
        self.partials: List[list] = [[None] * n_attrs for _ in range(n_procs)]
        #: [pid] -> partial left-child class counts after probe marking.
        self.left_partials: List[Optional[np.ndarray]] = [None] * n_procs
        #: Per-attribute ordered-append cursor for the split phase.
        self.append_next: List[int] = [0] * n_attrs
        #: (attr_index, candidate) chosen by the reduce phase, consumed
        #: by the probe/finalize phases on the other side of a barrier.
        self.winner: Optional[Tuple[int, SplitCandidate]] = None


class RecordParScheme:
    """Record-partitioned SPRINT on the SMP runtime."""

    name = "recordpar"

    def __init__(self, ctx: BuildContext):
        self.ctx = ctx
        runtime = ctx.runtime
        self.n_procs = runtime.n_procs
        self.barrier = runtime.make_barrier()
        self.append_lock = runtime.make_lock()
        self.append_cond = runtime.make_condition(self.append_lock)
        self._append_wait_counter = (
            ctx.obs.metrics.counter(
                "recordpar_append_waits_total",
                help="ordered-append chain stalls (arrived out of order)",
            )
            if ctx.obs is not None
            else None
        )
        root = ctx.make_root_task()
        self.tasks: Optional[List[LeafTask]] = (
            [root] if root is not None else None
        )
        self.shared: Dict[int, _LeafShared] = {}
        if self.tasks:
            self._alloc_shared(self.tasks)
        #: Per-processor cache of the chunks read in phase 1, reused by
        #: the evaluate/probe/split phases (one physical scan per level).
        self._chunks: Dict[int, Dict[tuple, np.ndarray]] = {}

    def _alloc_shared(self, tasks: List[LeafTask]) -> None:
        self.shared = {
            t.node.node_id: _LeafShared(self.n_procs, self.ctx.n_attrs)
            for t in tasks
        }

    def build(self) -> DecisionTree:
        if self.tasks is not None:
            self.ctx.runtime.run(self._worker)
        return self.ctx.finish()

    # -- worker -----------------------------------------------------------------

    def _worker(self, pid: int) -> None:
        ctx = self.ctx
        while True:
            tasks = self.tasks
            if tasks is None:
                break
            self._chunks[pid] = {}
            for task in tasks:
                self._leaf_ews(pid, task)
            self.barrier.wait()
            if pid == 0:
                frontier = ctx.next_frontier(tasks)
                self.tasks = frontier if frontier else None
                if frontier:
                    self._alloc_shared(frontier)
            self.barrier.wait()

    # -- per-leaf phases ---------------------------------------------------------

    def _spanned(self, phase: str, pid: int, task: LeafTask, fn, *args):
        """Run one chunked phase, wrapped in an E/W/S span when observing.

        Record parallelism bypasses the shared kernels in
        :class:`~repro.core.context.BuildContext`, so it emits its own
        per-leaf spans (attribute None: every phase touches all
        attributes of this processor's chunk).
        """
        obs = self.ctx.obs
        if obs is None:
            return fn(*args)
        runtime = self.ctx.runtime
        start = runtime.now()
        out = fn(*args)
        obs.phase(
            pid, phase, start, runtime.now(),
            leaf=task.node.node_id, level=task.level,
        )
        return out

    def _leaf_ews(self, pid: int, task: LeafTask) -> None:
        ctx = self.ctx
        shared = self.shared[task.node.node_id]

        self._spanned("E", pid, task, self._phase_scan, pid, task, shared)
        self.barrier.wait()
        self._spanned("E", pid, task, self._phase_evaluate, pid, task, shared)
        self.barrier.wait()
        if pid == 0:
            self._spanned("W", pid, task, self._phase_reduce, task, shared)
        self.barrier.wait()
        if shared.winner is not None:
            self._spanned("W", pid, task, self._phase_probe, pid, task, shared)
            self.barrier.wait()
            if pid == 0:

                def finalize() -> None:
                    left_counts = np.sum(shared.left_partials, axis=0)
                    attr_index, cand = shared.winner
                    ctx.finalize_winner(task, attr_index, cand, left_counts)

                self._spanned("W", pid, task, finalize)
            self.barrier.wait()
        self._spanned("S", pid, task, self._phase_split, pid, task, shared)
        self.barrier.wait()

    def _read_chunk(
        self, pid: int, task: LeafTask, attr_index: int
    ) -> np.ndarray:
        """Read (and cache) this processor's chunk of one attribute."""
        cache = self._chunks[pid]
        key = (task.node.node_id, attr_index)
        if key in cache:
            return cache[key]
        ctx = self.ctx
        seg_key = ctx.segment_key(attr_index, task.node.node_id)
        records = ctx.backend.read(seg_key)
        lo, hi = chunk_bounds(len(records), pid, self.n_procs)
        chunk = records[lo:hi]
        # Each processor seeks to its own chunk separately.
        ctx.runtime.read_file(seg_key, chunk.nbytes)
        cache[key] = chunk
        return chunk

    def _phase_scan(self, pid: int, task: LeafTask, shared: _LeafShared) -> None:
        """Phase 1: partial histograms / count matrices per attribute."""
        ctx = self.ctx
        machine = ctx.machine
        for attr_index, attr in enumerate(ctx.schema.attributes):
            own = self._read_chunk(pid, task, attr_index)
            if attr.is_continuous:
                partial = run_histogram(
                    own["value"], own["cls"], ctx.n_classes
                )
            else:
                partial = np.zeros(
                    (attr.cardinality, ctx.n_classes), dtype=np.int64
                )
                np.add.at(
                    partial,
                    (own["value"].astype(np.int64), own["cls"]),
                    1,
                )
            ctx.runtime.compute(machine.cpu_count_record * len(own))
            shared.partials[pid][attr_index] = partial

    def _phase_evaluate(
        self, pid: int, task: LeafTask, shared: _LeafShared
    ) -> None:
        """Phase 2: charge this chunk's candidate evaluation.

        Parallel SPRINT (paper §3.1) evaluates every chunk's candidates
        on its own processor; the cost model charges that per chunk.
        The arithmetic itself runs once, on the merged histogram, in
        the master's reduce.
        """
        ctx = self.ctx
        machine = ctx.machine
        for attr_index, attr in enumerate(ctx.schema.attributes):
            if attr.is_continuous:
                own = self._chunks[pid][(task.node.node_id, attr_index)]
                ctx.runtime.compute(machine.cpu_eval_record * len(own))

    def _phase_reduce(self, task: LeafTask, shared: _LeafShared) -> None:
        """Phase 3 (master): global candidates, winner selection."""
        ctx = self.ctx
        machine = ctx.machine
        n_total = task.n_records
        for attr_index, attr in enumerate(ctx.schema.attributes):
            partials = [
                shared.partials[p][attr_index] for p in range(self.n_procs)
            ]
            if attr.is_continuous:
                merged = merge_value_histograms(partials, ctx.n_classes)
                cand = evaluate_runs(merged, ctx.params.criterion)[0]
            else:
                merged = np.sum(partials, axis=0)
                cand = best_categorical_split_from_counts(
                    merged, n_total,
                    max_exhaustive=ctx.params.max_exhaustive_subset,
                    criterion=ctx.params.criterion,
                )
                subsets = cand.work_points if cand is not None else 1
                ctx.runtime.compute(machine.cpu_subset_eval * subsets)
            task.candidates[attr_index] = cand

        choice = ctx.choose_winner(task)
        if choice is None:
            task.node.make_leaf()
            task.valid_children = []
            task.w_done = True
            return
        shared.winner = choice

    def _phase_probe(self, pid: int, task: LeafTask, shared: _LeafShared) -> None:
        """Phase 4: chunked probe marking for the winning attribute."""
        ctx = self.ctx
        attr_index, cand = shared.winner
        own = self._chunks[pid][(task.node.node_id, attr_index)]
        mask = winner_left_mask(own, cand)
        probe = ctx.bit_probe
        probe.mark_left(own["tid"][mask])
        probe.clear(own["tid"][~mask])
        task.probe = probe
        ctx.runtime.compute(ctx.machine.cpu_probe_record * len(own))
        shared.left_partials[pid] = np.bincount(
            own["cls"][mask], minlength=ctx.n_classes
        )

    def _phase_split(self, pid: int, task: LeafTask, shared: _LeafShared) -> None:
        """Phase 6: chunked splits with ordered appends per attribute."""
        ctx = self.ctx
        node = task.node
        machine = ctx.machine
        for attr_index in range(ctx.n_attrs):
            own = self._chunks[pid][(node.node_id, attr_index)]
            if node.is_leaf:
                parts = None
            else:
                mask = task.probe.is_left(own["tid"])
                keep_left = node.left in task.valid_children
                keep_right = node.right in task.valid_children
                if keep_left and keep_right:
                    # Both sides persist: fresh memory, no re-copy.
                    parts = partition_stable(own, mask)
                else:
                    # The arena recycles its buffer on the next attribute
                    # and the backend keeps references, so copy the
                    # surviving side out of the scratch space.
                    left, right = partition_stable(own, mask, ctx.arena())
                    parts = (
                        left.copy() if keep_left else None,
                        right.copy() if keep_right else None,
                    )
                ctx.runtime.compute(machine.cpu_split_record * len(own))
            # Ordered append: processor p writes after p-1 so the child
            # lists keep global record order (sorted lists stay sorted).
            with self.append_lock:
                if (
                    shared.append_next[attr_index] != pid
                    and self._append_wait_counter is not None
                ):
                    self._append_wait_counter.inc()
                while shared.append_next[attr_index] != pid:
                    self.append_cond.wait()
            if parts is not None:
                for child, part in zip((node.left, node.right), parts):
                    if part is not None:
                        key = ctx.segment_key(attr_index, child.node_id)
                        ctx.backend.append(key, part)
                        ctx.runtime.write_file(key, part.nbytes)
            with self.append_lock:
                shared.append_next[attr_index] += 1
                self.append_cond.broadcast()
        if pid == self.n_procs - 1:
            for attr_index in range(ctx.n_attrs):
                ctx.delete_segment(attr_index, node.node_id)
