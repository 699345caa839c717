"""Level-batched kernels for the E/W/S steps.

The schemes in :mod:`repro.core` used to run every kernel one leaf ×
one attribute at a time; at deep levels with hundreds of small leaves
the Python call overhead and per-call temporaries dominated real
wall-clock time, not the work the timing model charges.  This module
batches the numeric work of a whole tree level per attribute into
single array passes:

* :func:`segmented_continuous_splits` — best ``value < x`` split for
  *every* leaf of a level from the concatenated, per-leaf sorted
  attribute lists.  The records become one segmented run histogram
  (:func:`repro.sprint.runs.run_histogram`) evaluated once by
  :func:`repro.sprint.runs.evaluate_runs`, so the working set is
  O(runs × classes).
* :func:`segmented_categorical_counts` / ``_splits`` — all leaves' count
  matrices from one ``bincount`` over ``(leaf, value, class)`` codes.
* :func:`partition_stable` + :class:`ScratchArena` — step S's
  order-preserving two-way partition into one backing buffer (counted
  ``np.compress`` halves above a size threshold, plain boolean indexing
  below it); a reusable per-processor arena provides the buffer when
  the result does not need to outlive the call.

When the embedded C training kernels are available and the native gate
is open (``REPRO_NATIVE`` / the CLI's ``--native``; see
:mod:`repro._native.cc`), the gini split scan, the categorical count
tensor and the stable partition run in :mod:`repro.sprint.native`
instead — one single-threaded C source per kernel, same results
bit-for-bit, but the loops release the GIL so the real-thread runtime
overlaps them across cores.  The numpy spellings here are the fallback
and the differential reference;
:func:`repro.sprint.histogram.scan_continuous_split` remains the
independent record-at-a-time oracle.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sprint import native as _native
from repro.sprint.gini import (
    DEFAULT_MAX_EXHAUSTIVE,
    SplitCandidate,
    best_categorical_split_from_counts,
)
from repro.sprint.runs import evaluate_runs, run_histogram

#: Largest ``leaves × cardinality × n_classes`` product for which the
#: categorical count tensor is built densely in one bincount; above it
#: the kernel falls back to per-leaf accumulation (same results).
DENSE_COUNTS_LIMIT = 1 << 24

#: Below this many records a plain boolean-index partition beats the
#: counted two-pass compress into a shared buffer (the count is an
#: extra pass that small inputs never amortize).
PARTITION_COMPRESS_MIN = 1 << 12


# -- segment bookkeeping ------------------------------------------------------


def segment_offsets(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Offsets array ``[0, n0, n0+n1, ...]`` for a list of segments."""
    offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
    if arrays:
        np.cumsum([len(a) for a in arrays], out=offsets[1:])
    return offsets


def concat_field(arrays: Sequence[np.ndarray], field: str) -> np.ndarray:
    """One contiguous array of ``field`` across per-leaf record arrays."""
    if not arrays:
        return np.empty(0)
    if len(arrays) == 1:
        return arrays[0][field]
    return np.concatenate([a[field] for a in arrays])


# -- step E, continuous: segmented split search -------------------------------


def segmented_continuous_splits(
    values: np.ndarray,
    classes: np.ndarray,
    offsets: np.ndarray,
    n_classes: int,
    criterion: str = "gini",
) -> List[Optional[SplitCandidate]]:
    """Best continuous split of every segment of a level.

    ``values``/``classes`` hold all leaves of a level concatenated, each
    segment individually sorted ascending; ``offsets[s]:offsets[s+1]``
    delimits segment ``s``.  Returns one candidate (or ``None``) per
    segment.  The gini criterion runs the C scan when native kernels
    are active; otherwise, and for every other criterion, the segments
    become one run histogram evaluated by
    :func:`~repro.sprint.runs.evaluate_runs` — bit-identical either way.
    """
    n_segments = len(offsets) - 1
    if criterion == "gini" and len(values) > 0 and n_segments > 0:
        nat = _native.active_kernels()
        if nat is not None:
            return _continuous_splits_native(
                nat, values, classes, offsets, n_segments, n_classes
            )
    return evaluate_runs(
        run_histogram(values, classes, n_classes, offsets), criterion
    )


def _continuous_splits_native(
    nat: "_native.TrainingKernels",
    values: np.ndarray,
    classes: np.ndarray,
    offsets: np.ndarray,
    n_segments: int,
    n_classes: int,
) -> List[Optional[SplitCandidate]]:
    """The C spelling of the gini split scan (see :mod:`repro.sprint.native`).

    Staging note: record fields arrive as strided views of the packed
    record array, and the kernel wants flat C buffers, so both columns
    are ``ascontiguousarray``-staged (a no-op when already flat).  The
    threshold midpoint is computed here with the identical Python-float
    expression the numpy path uses.
    """
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    values = np.ascontiguousarray(values, dtype=np.float64)
    classes = np.ascontiguousarray(classes, dtype=np.int32)
    weighted, boundary, n_left = nat.continuous_splits(
        values, classes, offsets, n_classes
    )
    out: List[Optional[SplitCandidate]] = [None] * n_segments
    for s in range(n_segments):
        b = int(boundary[s])
        if b < 0:
            continue
        nl = int(n_left[s])
        n_seg = int(offsets[s + 1] - offsets[s])
        threshold = (float(values[b - 1]) + float(values[b])) / 2.0
        out[s] = SplitCandidate(
            weighted_gini=float(weighted[s]),
            threshold=threshold,
            subset=None,
            n_left=nl,
            n_right=n_seg - nl,
            work_points=n_seg,
        )
    return out


# -- step E, categorical: segmented count matrices ----------------------------


def segmented_categorical_counts(
    values: np.ndarray,
    classes: np.ndarray,
    offsets: np.ndarray,
    cardinality: int,
    n_classes: int,
    arena: Optional["ScratchArena"] = None,
) -> np.ndarray:
    """Count tensor ``(n_segments, cardinality, n_classes)`` in one pass.

    Equivalent to building one
    :class:`~repro.sprint.histogram.CountMatrix` per leaf; all leaves'
    matrices come from a single ``bincount`` over fused
    ``(segment, value, class)`` codes.

    ``arena`` is an optional scratch source for the native path: when
    given *and* the C kernel runs, the returned tensor is recycled
    arena memory — valid only until the arena's next int64 ``take`` on
    this thread, so callers must consume it before partitioning.  The
    numpy fallback ignores the arena and returns fresh memory.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    n_segments = len(offsets) - 1
    shape = (n_segments, cardinality, n_classes)
    dense_cells = n_segments * cardinality * n_classes
    if dense_cells > 0:
        nat = _native.active_kernels()
        if nat is not None:
            offsets64 = np.ascontiguousarray(offsets, dtype=np.int64)
            values64 = np.ascontiguousarray(values, dtype=np.int64)
            classes32 = np.ascontiguousarray(classes, dtype=np.int32)
            if arena is not None:
                # zero= is load-bearing: the C kernel only increments,
                # and a reused arena buffer holds the previous level's
                # counts.
                flat = arena.take(np.int64, dense_cells, zero=True)
            else:
                flat = np.zeros(dense_cells, dtype=np.int64)
            nat.categorical_counts(
                values64, classes32, offsets64, cardinality, n_classes, flat
            )
            return flat.reshape(shape)
    if dense_cells > DENSE_COUNTS_LIMIT:
        counts = np.zeros(shape, dtype=np.int64)
        for s in range(n_segments):
            lo, hi = offsets[s], offsets[s + 1]
            np.add.at(counts[s], (values[lo:hi], classes[lo:hi]), 1)
        return counts
    seg_len = offsets[1:] - offsets[:-1]
    seg_id = np.repeat(np.arange(n_segments, dtype=np.int64), seg_len)
    flat = (seg_id * cardinality + values) * n_classes + classes
    return (
        np.bincount(flat, minlength=dense_cells)
        .reshape(shape)
        .astype(np.int64, copy=False)
    )


def segmented_categorical_splits(
    values: np.ndarray,
    classes: np.ndarray,
    offsets: np.ndarray,
    cardinality: int,
    n_classes: int,
    max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE,
    criterion: str = "gini",
    arena: Optional["ScratchArena"] = None,
) -> List[Optional[SplitCandidate]]:
    """Best categorical split per segment: fused counting, then the
    (inherently per-leaf) subset search on each leaf's matrix.

    The count tensor is consumed within this call, so it may live in
    ``arena`` scratch (see :func:`segmented_categorical_counts`).
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    counts = segmented_categorical_counts(
        values, classes, offsets, cardinality, n_classes, arena=arena
    )
    out: List[Optional[SplitCandidate]] = []
    for s in range(len(offsets) - 1):
        n = int(offsets[s + 1] - offsets[s])
        if n < 2:
            out.append(None)
            continue
        out.append(
            best_categorical_split_from_counts(
                counts[s], n, max_exhaustive=max_exhaustive, criterion=criterion
            )
        )
    return out


# -- step S: stable-order scatter partition -----------------------------------


class ScratchArena:
    """Reusable per-processor buffers for partition scratch space.

    Step S partitions one list per (leaf, attribute); allocating the
    scratch array every call churns the allocator at exactly the tree
    depths where leaves are small and calls are many.  One arena per
    processor keeps a high-water buffer per dtype and hands out views.
    ``reused_bytes`` counts bytes served without allocation — the
    figure the observability layer reports as saved allocations.

    Thread-safe: buffers are keyed by ``(owning thread, dtype)``, so a
    view handed out is private to the thread that took it even if two
    threads share one arena (the real-thread runtime preempts at any
    instruction, unlike the virtual engine's one-runnable-at-a-time
    schedule), and the byte counters mutate under a lock.
    """

    __slots__ = ("_buffers", "_lock", "allocated_bytes", "reused_bytes")

    def __init__(self) -> None:
        self._buffers: Dict[tuple, np.ndarray] = {}
        self._lock = threading.Lock()
        self.allocated_bytes = 0
        self.reused_bytes = 0

    def take(self, dtype: np.dtype, n: int, zero: bool = False) -> np.ndarray:
        """A length-``n`` view of the arena's buffer for ``dtype``.

        Contents are uninitialized — a reused buffer still holds
        whatever bytes the previous borrower left — unless ``zero`` is
        set, which is mandatory for any consumer that only *accumulates*
        into the view (the native categorical counter, for one) instead
        of overwriting every element.  The view is only valid until the
        next ``take`` of the same dtype on this arena from the calling
        thread.
        """
        dtype = np.dtype(dtype)
        key = (threading.get_ident(), dtype)
        with self._lock:
            buf = self._buffers.get(key)
            if buf is None or len(buf) < n:
                capacity = n if buf is None else max(n, 2 * len(buf))
                buf = np.empty(capacity, dtype=dtype)
                self._buffers[key] = buf
                self.allocated_bytes += buf.nbytes
            else:
                self.reused_bytes += n * dtype.itemsize
        view = buf[:n]
        if zero:
            view.fill(0)
        return view


def partition_stable(
    records: np.ndarray,
    mask: np.ndarray,
    arena: Optional[ScratchArena] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Order-preserving two-way partition into one backing buffer.

    Returns ``(left, right)``: ``left`` holds ``records[mask]`` and
    ``right`` ``records[~mask]``, both in input order.  Large inputs
    are compressed into the two halves of a single buffer (one counted
    ``np.compress`` per side — measurably faster than two boolean-index
    copies); small ones take the plain boolean-index path, which wins
    below :data:`PARTITION_COMPRESS_MIN`.

    Without an ``arena`` the results own (or are views of) fresh memory
    and may be persisted directly.  With an ``arena`` the buffer is
    recycled scratch — both sides are only valid until the arena's next
    ``take``, so callers must copy whichever side they keep.
    """
    n = len(records)
    if n == 0:
        empty = records[:0]
        return empty, empty
    nat = _native.active_kernels()
    if (
        nat is not None
        and records.flags.c_contiguous
        and not records.dtype.hasobject
    ):
        mask = np.asarray(mask)
        if mask.dtype != np.bool_:
            mask = mask.astype(np.bool_)
        if not mask.flags.c_contiguous:
            mask = np.ascontiguousarray(mask)
        # `out` needs no zeroing: the scatter overwrites every one of
        # its n records exactly once (n_left from the left, n - n_left
        # from the right).
        out = (
            arena.take(records.dtype, n)
            if arena is not None
            else np.empty(n, dtype=records.dtype)
        )
        n_left = nat.partition(records, mask.view(np.uint8), out)
        return out[:n_left], out[n_left:]
    if arena is None and n < PARTITION_COMPRESS_MIN:
        return records[mask], records[~mask]
    out = (
        arena.take(records.dtype, n)
        if arena is not None
        else np.empty(n, dtype=records.dtype)
    )
    n_left = int(np.count_nonzero(mask))
    np.compress(mask, records, out=out[:n_left])
    np.compress(~mask, records, out=out[n_left:])
    return out[:n_left], out[n_left:]
