"""Run-compressed class histograms: the one input of continuous split search.

SPRINT's continuous split (paper §2.1–2.2) walks a leaf's sorted
attribute list with ``C_below``/``C_above`` class counts and takes the
best weighted gini at a boundary between two distinct values.  Only the
*runs* of equal values matter to that walk: a candidate split sits
between two runs, and the counts on its left are the prefix sum of the
runs' class counts.  So every continuous search in this package is
spelled as

1. a *producer* that turns records into a :class:`ValueHistogram`
   (distinct values ascending plus per-class ``int64`` counts, per
   segment): :func:`run_histogram` for sorted record segments,
   :func:`merge_value_histograms` for partial histograms of the same
   segment (shards, record-parallel chunks), which add exactly;
2. the one numpy evaluator, :func:`evaluate_runs`: earliest-argmin
   weighted impurity and midpoint threshold per segment.

The C scan ``seg_continuous_best`` in :mod:`repro.sprint.native` walks
the same runs inline over the records; :func:`evaluate_runs` is its
bit-exact reference.  Gini is computed with the float spelling the C
kernel mirrors — one float64 square per class summed in class order,
then ``(n_L*(1 - sqL/n_L^2) + n_R*(1 - sqR/n_R^2)) / n`` — on the same
integer counts, so weighted impurity, threshold and tie-break agree
bit for bit.  Other criteria go through
:func:`repro.sprint.criteria.weighted_impurity`.
:func:`repro.sprint.histogram.scan_continuous_split` stays the
independent record-at-a-time oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.sprint.criteria import get_criterion, weighted_impurity
from repro.sprint.gini import SplitCandidate


@dataclass
class ValueHistogram:
    """Run-compressed class distribution of sorted attribute segments.

    ``values[r]`` is the attribute value of run ``r`` and
    ``counts[r, j]`` how many of its records carry class ``j``; values
    ascend strictly within a segment.  Segment ``s`` owns the runs
    ``offsets[s]:offsets[s + 1]`` (``offsets`` defaults to one segment
    holding every run).  Any array may be empty.
    """

    values: np.ndarray  # (runs,) float64
    counts: np.ndarray  # (runs, n_classes) int64
    offsets: Optional[np.ndarray] = None  # (segments + 1,) int64

    def __post_init__(self) -> None:
        if self.offsets is None:
            self.offsets = np.array([0, len(self.values)], dtype=np.int64)

    @property
    def n_records(self) -> int:
        return int(self.counts.sum())


def empty_histogram(n_classes: int) -> ValueHistogram:
    """One empty segment."""
    return ValueHistogram(
        values=np.empty(0, dtype=np.float64),
        counts=np.empty((0, n_classes), dtype=np.int64),
    )


def run_histogram(
    values: np.ndarray,
    classes: np.ndarray,
    n_classes: int,
    offsets: Optional[np.ndarray] = None,
) -> ValueHistogram:
    """Runs of concatenated, per-segment sorted records.

    ``offsets[s]:offsets[s+1]`` delimits record segment ``s`` (default:
    one segment).  Every segment start begins a run, even when its first
    value equals the previous segment's last, so no run crosses a leaf.
    """
    values = np.asarray(values, dtype=np.float64)
    classes = np.asarray(classes)
    n = len(values)
    if offsets is None:
        offsets = np.array([0, n], dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    is_start = np.zeros(n, dtype=bool)
    starts = offsets[:-1]
    is_start[starts[starts < n]] = True
    if n > 1:
        np.logical_or(is_start[1:], values[1:] != values[:-1], out=is_start[1:])
    run_starts = np.flatnonzero(is_start)
    n_runs = len(run_starts)
    counts = np.empty((n_runs, n_classes), dtype=np.int64)
    if n_runs:
        # One reduceat per class but the last, whose counts follow from
        # the run lengths — for binary problems that halves the passes.
        run_len = np.diff(run_starts, append=n)
        acc = np.zeros(n_runs, dtype=np.int64)
        for j in range(n_classes - 1):
            np.add.reduceat(
                classes == j, run_starts, dtype=np.int64, out=counts[:, j]
            )
            acc += counts[:, j]
        np.subtract(run_len, acc, out=counts[:, -1])
    return ValueHistogram(
        values=values[run_starts],
        counts=counts,
        offsets=np.searchsorted(run_starts, offsets).astype(np.int64),
    )


def merge_value_histograms(
    histograms: Sequence[ValueHistogram], n_classes: int
) -> ValueHistogram:
    """Sum single-segment partial histograms of one segment.

    Values collide exactly (they are the same float64 bit patterns the
    full list holds), so runs split across partials sum with integer
    arithmetic — no rounding anywhere.
    """
    live: List[ValueHistogram] = [h for h in histograms if len(h.values)]
    if not live:
        return empty_histogram(n_classes)
    if len(live) == 1:
        return live[0]
    values = np.concatenate([h.values for h in live])
    counts = np.concatenate([h.counts for h in live], axis=0)
    order = np.argsort(values, kind="stable")
    values = values[order]
    counts = counts[order]
    run_starts = np.flatnonzero(
        np.concatenate(([True], values[1:] != values[:-1]))
    )
    return ValueHistogram(
        values=values[run_starts],
        counts=np.add.reduceat(counts, run_starts, axis=0),
    )


def evaluate_runs(
    hist: ValueHistogram, criterion: str = "gini"
) -> List[Optional[SplitCandidate]]:
    """Best ``value < x`` split of every segment of ``hist``.

    Candidates are the boundaries after every run but a segment's last;
    the earliest of equal minima wins.  A segment with fewer than two
    runs has no candidate (``None``).
    """
    offsets = hist.offsets
    n_segments = len(offsets) - 1
    out: List[Optional[SplitCandidate]] = [None] * n_segments
    if len(hist.values) == 0:
        return out
    seg_first, seg_end = offsets[:-1], offsets[1:]
    runs_per_seg = seg_end - seg_first
    # Per-run left-side counts: the prefix sum over all runs minus the
    # segment's base (the prefix before its first run).
    n_runs, n_classes = hist.counts.shape
    cum = np.zeros((n_runs + 1, n_classes), dtype=np.int64)
    np.cumsum(hist.counts, axis=0, out=cum[1:])
    base = cum[seg_first]
    totals = cum[seg_end] - base
    seg_len = totals.sum(axis=1)
    left = cum[1:] - np.repeat(base, runs_per_seg, axis=0)
    right = np.repeat(totals, runs_per_seg, axis=0) - left
    n_left = left.sum(axis=1)
    n_seg = np.repeat(seg_len, runs_per_seg)
    n_right = n_seg - n_left

    # Each segment's last run is no candidate (n_right = 0 there; the
    # argmin range below excludes it), so the divide warnings its rows
    # raise are suppressed.
    if criterion == "gini":
        sq_left = (left.astype(np.float64) ** 2).sum(axis=1)
        sq_right = (right.astype(np.float64) ** 2).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            weighted = (
                n_left * (1.0 - sq_left / (n_left.astype(np.float64) ** 2))
                + n_right * (1.0 - sq_right / (n_right.astype(np.float64) ** 2))
            ) / n_seg
    else:
        weighted = weighted_impurity(left, right, get_criterion(criterion))

    values = hist.values
    for s in range(n_segments):
        lo, hi = int(seg_first[s]), int(seg_end[s]) - 1
        if hi <= lo:
            continue
        r = lo + int(np.argmin(weighted[lo:hi]))  # earliest tie
        n_s = int(seg_len[s])
        out[s] = SplitCandidate(
            weighted_gini=float(weighted[r]),
            threshold=(float(values[r]) + float(values[r + 1])) / 2.0,
            subset=None,
            n_left=int(n_left[r]),
            n_right=n_s - int(n_left[r]),
            work_points=n_s,
        )
    return out
