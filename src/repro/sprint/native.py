"""Optional native (C) implementations of the training hot loops.

Profiling the wall-clock threads backend shows the same three loops
dominating tree *building* that the histogram/split kernels dominate in
LightGBM-style learners: the continuous split scan of step E, the
categorical count accumulation of step E, and the stable partition of
step S (plus the hash-probe membership test feeding it).  All four are
numpy passes today — fast, but they hold the GIL, so
``runtime="threads"`` raw mode cannot overlap them across cores.

This module embeds C versions of those loops, compiled once per machine
through the shared :mod:`repro._native.cc` helper (the same plumbing the
inference router uses) and bound via :mod:`ctypes`, whose foreign calls
release the GIL.  Nothing here is required: with no compiler, a failed
build, ``REPRO_NATIVE=0``, or the CLI's ``--native off``, every caller
gets ``None`` from :func:`active_kernels` and runs the numpy twin —
results are bit-identical either way.

Each kernel has exactly one C source, single-threaded; the in-kernel
worker pool (:mod:`repro._native.pool`) serves only inference routing
and forest voting, where it pays.  Bit-identity is engineered, not
hoped for:

* The split scan walks the same equal-value runs that
  :func:`repro.sprint.runs.run_histogram` produces, and its float
  arithmetic is :func:`repro.sprint.runs.evaluate_runs`' operation for
  operation — int64 class counts, one double square per class summed in
  class order (numpy's pairwise summation degenerates to this
  sequential order below 8 classes, and the partial sums are exact
  integers in float64 at any realistic leaf size), then
  ``(n_L*(1 - sqL/n_L^2) + n_R*(1 - sqR/n_R^2)) / n`` with the same
  multiply/divide/add shape.  The shared object is built with
  ``-ffp-contract=off`` so no FMA fuses that multiply-add differently
  from numpy.  Ties break to the earliest run boundary via a strict
  ``<``, exactly like ``np.argmin``.
* The categorical counter and the partition move integers and raw
  record bytes — nothing to round.
* Membership is a binary search over the same sorted ``int64`` table
  ``np.isin`` merges against.

The scan returns (weighted gini, boundary index, left count) per
segment; the Python wrapper in :mod:`repro.sprint.kernels` builds the
:class:`~repro.sprint.gini.SplitCandidate` — including the midpoint
threshold — with the identical Python-float expressions the numpy path
uses.
"""

from __future__ import annotations

import ctypes
import threading
from typing import Optional

import numpy as np

from repro._native import cc
from repro._native import stats as kernel_stats

C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* ---- step E, continuous: segmented best-split scan ----------------------
 *
 * One pass per segment over the (per-segment sorted) values: walk the
 * maximal equal-value runs, keep cumulative class counts on the left of
 * the run boundary, and evaluate the weighted gini of every boundary.
 * scratch holds 2*n_classes int64 (totals, then left counts).
 *
 * out_boundary[s] = index of the first record right of the best split
 * (the first record of run r + 1 in the numpy evaluator), or -1 when the
 * segment has no candidate (fewer than two records, or a single run).
 * The float expression mirrors the numpy evaluator exactly; see the
 * module docstring for why the summation order matches too.
 */
void seg_continuous_best(
    const double *values, const int32_t *classes,
    const int64_t *offsets, int64_t n_segments, int64_t n_classes,
    int64_t *scratch,
    double *out_weighted, int64_t *out_boundary, int64_t *out_nleft)
{
    int64_t *total = scratch;
    int64_t *left = scratch + n_classes;
    int64_t s;
    for (s = 0; s < n_segments; s++) {
        int64_t lo = offsets[s], hi = offsets[s + 1];
        int64_t n = hi - lo;
        int64_t i, c;
        out_weighted[s] = 0.0;
        out_boundary[s] = -1;
        out_nleft[s] = 0;
        if (n < 2)
            continue;
        memset(total, 0, (size_t)n_classes * sizeof(int64_t));
        for (i = lo; i < hi; i++)
            total[classes[i]]++;
        memset(left, 0, (size_t)n_classes * sizeof(int64_t));
        i = lo;
        while (i < hi) {
            double v = values[i];
            int64_t j = i;
            do {                       /* consume one equal-value run;   */
                left[classes[j]]++;    /* the do-while guarantees        */
                j++;                   /* progress even for NaN values   */
            } while (j < hi && values[j] == v);
            if (j < hi) {
                int64_t nl = 0;
                double sql = 0.0, sqr = 0.0;
                for (c = 0; c < n_classes; c++) {
                    double dl = (double)left[c];
                    double dr = (double)(total[c] - left[c]);
                    nl += left[c];
                    sql += dl * dl;
                    sqr += dr * dr;
                }
                {
                    int64_t nr = n - nl;
                    double nlf = (double)nl, nrf = (double)nr;
                    double w = (nlf * (1.0 - sql / (nlf * nlf))
                              + nrf * (1.0 - sqr / (nrf * nrf)))
                              / (double)n;
                    if (out_boundary[s] < 0 || w < out_weighted[s]) {
                        out_weighted[s] = w;
                        out_boundary[s] = j;
                        out_nleft[s] = nl;
                    }
                }
            }
            i = j;
        }
    }
}

/* ---- step E, categorical: fused count tensor ----------------------------
 *
 * out has n_segments * cardinality * n_classes int64 cells and MUST be
 * zeroed by the caller (the kernel only increments) — that contract is
 * why ScratchArena.take grew a `zero` flag.
 */
void seg_categorical_counts(
    const int64_t *values, const int32_t *classes,
    const int64_t *offsets, int64_t n_segments,
    int64_t cardinality, int64_t n_classes,
    int64_t *out)
{
    int64_t s;
    for (s = 0; s < n_segments; s++) {
        int64_t lo = offsets[s], hi = offsets[s + 1];
        int64_t *seg = out + s * cardinality * n_classes;
        int64_t i;
        for (i = lo; i < hi; i++)
            seg[values[i] * n_classes + classes[i]]++;
    }
}

/* ---- step S: stable two-way partition of raw records --------------------
 *
 * Counts the mask, then scatters each itemsize-byte record into the
 * left half [0, n_left) or right half [n_left, n) of out, preserving
 * input order on both sides.  Returns n_left.
 */
int64_t partition_stable_bytes(
    const char *src, int64_t n, int64_t itemsize,
    const uint8_t *mask, char *out)
{
    int64_t n_left = 0;
    int64_t i;
    char *pl, *pr;
    for (i = 0; i < n; i++)
        n_left += mask[i] != 0;
    pl = out;
    pr = out + n_left * itemsize;
    for (i = 0; i < n; i++) {
        const char *rec = src + i * itemsize;
        if (mask[i]) {
            memcpy(pl, rec, (size_t)itemsize);
            pl += itemsize;
        } else {
            memcpy(pr, rec, (size_t)itemsize);
            pr += itemsize;
        }
    }
    return n_left;
}

/* ---- step W/S: sorted-table membership (the hash probe) -----------------
 *
 * Two spellings, chosen by the Python wrapper: a byte lookup table over
 * the tid range (tids are dense in [0, n_tuples), so this is the common
 * case and what np.isin picks too — O(1) per query, no branches), and a
 * branchy binary search for sparse ranges where the map would be too
 * large.  `map` has t_max - t_min + 1 bytes and MUST be zeroed.
 */
void membership_lookup(
    const int64_t *table, int64_t n_table, int64_t t_min,
    const int64_t *queries, int64_t n_queries,
    uint8_t *map, int64_t map_len,
    uint8_t *out)
{
    int64_t i, q;
    for (i = 0; i < n_table; i++)
        map[table[i] - t_min] = 1;
    for (q = 0; q < n_queries; q++) {
        int64_t off = queries[q] - t_min;
        out[q] = (uint8_t)(off >= 0 && off < map_len && map[off]);
    }
}

void sorted_membership(
    const int64_t *table, int64_t n_table,
    const int64_t *queries, int64_t n_queries,
    uint8_t *out)
{
    int64_t q;
    for (q = 0; q < n_queries; q++) {
        int64_t key = queries[q];
        int64_t lo = 0, hi = n_table;
        while (lo < hi) {
            int64_t mid = lo + ((hi - lo) >> 1);
            if (table[mid] < key)
                lo = mid + 1;
            else
                hi = mid;
        }
        out[q] = (uint8_t)(lo < n_table && table[lo] == key);
    }
}
"""

def _ptr(a: np.ndarray) -> ctypes.c_void_p:
    return a.ctypes.data_as(ctypes.c_void_p)


class TrainingKernels:
    """ctypes binding of the compiled training kernels.

    One instance per process; all methods are thread-safe (the C code
    touches only its arguments) and release the GIL for the duration of
    the foreign call.
    """

    def __init__(self, lib: ctypes.CDLL, path: str) -> None:
        self.path = path
        self._continuous = lib.seg_continuous_best
        self._continuous.restype = None
        self._categorical = lib.seg_categorical_counts
        self._categorical.restype = None
        self._partition = lib.partition_stable_bytes
        self._partition.restype = ctypes.c_int64
        self._membership = lib.sorted_membership
        self._membership.restype = None
        self._membership_lookup = lib.membership_lookup
        self._membership_lookup.restype = None

    # -- step E, continuous ------------------------------------------------

    def continuous_splits(
        self,
        values: np.ndarray,
        classes: np.ndarray,
        offsets: np.ndarray,
        n_classes: int,
    ):
        """Best gini split per segment: ``(weighted, boundary, n_left)``.

        ``boundary[s] == -1`` means segment ``s`` has no candidate.
        Inputs must be C-contiguous float64/int32/int64 (the caller in
        :mod:`repro.sprint.kernels` stages them).
        """
        kernel_stats.record("continuous_splits", "native", len(values))
        n_segments = len(offsets) - 1
        weighted = np.empty(n_segments, dtype=np.float64)
        boundary = np.empty(n_segments, dtype=np.int64)
        n_left = np.empty(n_segments, dtype=np.int64)
        scratch = np.empty(2 * n_classes, dtype=np.int64)
        self._continuous(
            _ptr(values), _ptr(classes), _ptr(offsets),
            ctypes.c_int64(n_segments), ctypes.c_int64(n_classes),
            _ptr(scratch),
            _ptr(weighted), _ptr(boundary), _ptr(n_left),
        )
        return weighted, boundary, n_left

    # -- step E, categorical -----------------------------------------------

    def categorical_counts(
        self,
        values: np.ndarray,
        classes: np.ndarray,
        offsets: np.ndarray,
        cardinality: int,
        n_classes: int,
        out: np.ndarray,
    ) -> None:
        """Accumulate the ``(segment, value, class)`` count tensor.

        ``out`` must be zeroed, C-contiguous int64 of exactly
        ``n_segments * cardinality * n_classes`` cells — the kernel only
        increments.
        """
        kernel_stats.record("categorical_counts", "native", len(values))
        self._categorical(
            _ptr(values), _ptr(classes), _ptr(offsets),
            ctypes.c_int64(len(offsets) - 1),
            ctypes.c_int64(cardinality), ctypes.c_int64(n_classes),
            _ptr(out),
        )

    # -- step S ------------------------------------------------------------

    def partition(
        self, records: np.ndarray, mask: np.ndarray, out: np.ndarray
    ) -> int:
        """Stable-partition ``records`` by ``mask`` into ``out``.

        Returns ``n_left``; ``out[:n_left]`` is the masked side,
        ``out[n_left:]`` the rest, both in input order.  All three
        arrays must be C-contiguous and ``out`` at least ``len(records)``
        items of the same dtype.
        """
        kernel_stats.record("partition", "native", len(records))
        return int(
            self._partition(
                _ptr(records), ctypes.c_int64(len(records)),
                ctypes.c_int64(records.dtype.itemsize),
                _ptr(mask), _ptr(out),
            )
        )

    # -- probe membership --------------------------------------------------

    def membership(self, table: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Boolean mask: which ``queries`` occur in sorted ``table``.

        Semantics of ``np.isin(queries, table)`` for a sorted unique
        int64 table.  Dense tid ranges — the normal case, since tids
        are drawn from ``[0, n_tuples)`` — take a byte lookup table
        over the range (np.isin's own fast path, minus the GIL); sparse
        ranges fall back to one binary search per query.
        """
        kernel_stats.record("membership", "native", len(queries))
        n_table = len(table)
        n_queries = len(queries)
        out = np.empty(n_queries, dtype=np.uint8)
        span = int(table[-1]) - int(table[0]) + 1 if n_table else 0
        if 0 < span <= 8 * (n_table + n_queries):
            table_map = np.zeros(span, dtype=np.uint8)
            self._membership_lookup(
                _ptr(table), ctypes.c_int64(n_table),
                ctypes.c_int64(int(table[0])),
                _ptr(queries), ctypes.c_int64(n_queries),
                _ptr(table_map), ctypes.c_int64(span),
                _ptr(out),
            )
        else:
            self._membership(
                _ptr(table), ctypes.c_int64(n_table),
                _ptr(queries), ctypes.c_int64(n_queries),
                _ptr(out),
            )
        return out.view(np.bool_)


_lock = threading.Lock()
_kernels: Optional[TrainingKernels] = None
_tried = False


def kernels() -> Optional[TrainingKernels]:
    """The process-wide training kernels, compiled on first use.

    Ignores the gate — this is the "does a kernel exist" question.  Most
    callers want :func:`active_kernels`.
    """
    global _kernels, _tried
    if _tried:
        return _kernels
    with _lock:
        if _tried:
            return _kernels
        _kernels = _compile_and_bind()
        _tried = True
        return _kernels


def _compile_and_bind() -> Optional[TrainingKernels]:
    so_path = cc.compile_cached(C_SOURCE, "train")
    if so_path is not None:
        try:
            return TrainingKernels(ctypes.CDLL(so_path), so_path)
        except OSError:
            pass
    return None


def active_kernels() -> Optional[TrainingKernels]:
    """The kernels when the native gate is open, else ``None``.

    The gate (``REPRO_NATIVE`` / ``--native``) is re-read every call, so
    flipping it mid-process — as the differential tests and benchmarks
    do — switches backends immediately; only the compiled library is
    cached.
    """
    if not cc.native_enabled():
        return None
    return kernels()


def native_available() -> bool:
    """True when the training kernels compiled and loaded."""
    return kernels() is not None
