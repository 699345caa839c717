"""Gini-index split evaluation (vectorized production path).

SPRINT chooses the split minimizing the weighted gini index
``gini_split = (n_L * gini(L) + n_R * gini(R)) / n`` where
``gini(S) = 1 - sum_j p_j^2`` (paper §2.2).

* Continuous attributes: candidate points are mid-points between
  consecutive distinct values of the pre-sorted list; evaluated over
  the list's run-compressed class histogram
  (:mod:`repro.sprint.runs`).
* Categorical attributes: all subsets of the present values are
  considered; above :data:`DEFAULT_MAX_EXHAUSTIVE` present values a
  greedy hill-climbing subsetting is used instead (paper §2.2: "If the
  cardinality is too large a greedy subsetting algorithm is used").

Ties are broken toward the earliest candidate in scan order, which makes
every scheme (serial, BASIC, FWK, MWK, SUBTREE, any processor count)
produce bit-identical trees.

Every search accepts ``criterion="gini"`` (SPRINT's measure, the fast
inlined path) or ``"entropy"`` (the C4.5-family alternative, via
:mod:`repro.sprint.criteria`); ``SplitCandidate.weighted_gini`` holds
whichever weighted impurity was minimized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

import numpy as np

from repro.sprint.criteria import get_criterion, weighted_impurity

#: Largest number of *present* categorical values for which subsets are
#: enumerated exhaustively; above it the greedy algorithm runs.
DEFAULT_MAX_EXHAUSTIVE = 10


@dataclass(frozen=True)
class SplitCandidate:
    """The best split found for one attribute at one leaf.

    Exactly one of ``threshold`` (continuous: test ``value < threshold``)
    and ``subset`` (categorical: test ``value in subset``) is set.
    ``work_points`` counts gini evaluations performed, used by the cost
    model (continuous: records scanned; categorical: subsets evaluated).
    """

    weighted_gini: float
    threshold: Optional[float]
    subset: Optional[FrozenSet[int]]
    n_left: int
    n_right: int
    work_points: int

    def __post_init__(self) -> None:
        if (self.threshold is None) == (self.subset is None):
            raise ValueError("exactly one of threshold/subset must be set")
        if self.n_left <= 0 or self.n_right <= 0:
            raise ValueError("both sides of a split must be non-empty")

    @property
    def is_continuous(self) -> bool:
        return self.threshold is not None


def gini_from_counts(counts: np.ndarray) -> float:
    """``gini = 1 - sum_j p_j^2`` for a class-count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.dot(p, p))


def gini(class_labels: np.ndarray, n_classes: int) -> float:
    """Gini index of a set of class labels."""
    return gini_from_counts(np.bincount(class_labels, minlength=n_classes))


def best_continuous_split(
    values: np.ndarray,
    classes: np.ndarray,
    n_classes: int,
    criterion: str = "gini",
) -> Optional[SplitCandidate]:
    """Best ``value < x`` split of a *sorted* attribute list.

    Returns ``None`` when no valid split point exists (fewer than two
    records, or all values equal).  ``criterion`` selects the impurity
    measure ("gini" — SPRINT's — or "entropy").

    This is the single-segment entry into the level-batched kernel in
    :mod:`repro.sprint.kernels` (the C scan, or the run-histogram
    evaluator of :mod:`repro.sprint.runs`).
    """
    # Local import: kernels imports SplitCandidate from this module.
    from repro.sprint.kernels import segmented_continuous_splits

    n = len(values)
    if n < 2:
        return None
    offsets = np.array([0, n], dtype=np.int64)
    return segmented_continuous_splits(
        np.asarray(values), np.asarray(classes), offsets, n_classes,
        criterion=criterion,
    )[0]


def best_categorical_split(
    values: np.ndarray,
    classes: np.ndarray,
    cardinality: int,
    n_classes: int,
    max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE,
    criterion: str = "gini",
) -> Optional[SplitCandidate]:
    """Best ``value in X`` split of a categorical attribute list.

    Enumerates all subsets of the present values when few enough,
    otherwise runs greedy hill-climbing.  Returns ``None`` when fewer
    than two distinct values are present.
    """
    n = len(values)
    if n < 2:
        return None
    counts = np.zeros((cardinality, n_classes), dtype=np.int64)
    np.add.at(counts, (values, classes), 1)
    return best_categorical_split_from_counts(
        counts, n, max_exhaustive, criterion
    )


def best_categorical_split_from_counts(
    counts: np.ndarray,
    n: int,
    max_exhaustive: int = DEFAULT_MAX_EXHAUSTIVE,
    criterion: str = "gini",
) -> Optional[SplitCandidate]:
    """Subset search over a pre-built count matrix.

    Used directly by the record-parallel scheme, which builds the matrix
    from per-processor partial matrices merged under a lock.
    """
    present = np.flatnonzero(counts.sum(axis=1))
    if len(present) < 2:
        return None
    if len(present) <= max_exhaustive:
        return _exhaustive_subsets(counts, present, n, criterion)
    return _greedy_subsets(counts, present, n, criterion)


def _weighted_gini(
    left: np.ndarray, totals: np.ndarray, n: int, criterion: str = "gini"
) -> Optional[float]:
    """Weighted impurity for a candidate left-side count vector."""
    n_left = int(left.sum())
    n_right = n - n_left
    if n_left == 0 or n_right == 0:
        return None
    right = totals - left
    if criterion == "gini":
        g_l = 1.0 - float(np.dot(left, left)) / (n_left * n_left)
        g_r = 1.0 - float(np.dot(right, right)) / (n_right * n_right)
        return (n_left * g_l + n_right * g_r) / n
    fn = get_criterion(criterion)
    return float(
        weighted_impurity(left[np.newaxis, :], right[np.newaxis, :], fn)[0]
    )


def _exhaustive_subsets(
    counts: np.ndarray, present: np.ndarray, n: int, criterion: str = "gini"
) -> Optional[SplitCandidate]:
    """Enumerate every proper subset of the present values.

    The last present value is pinned to the right side so each binary
    partition is generated exactly once.
    """
    totals = counts[present].sum(axis=0)
    free = present[:-1]
    best_gini: Optional[float] = None
    best_mask = 0
    evaluated = 0
    for mask in range(1, 1 << len(free)):
        members = [free[b] for b in range(len(free)) if mask >> b & 1]
        left = counts[members].sum(axis=0)
        g = _weighted_gini(left, totals, n, criterion)
        evaluated += 1
        if g is not None and (best_gini is None or g < best_gini):
            best_gini = g
            best_mask = mask
    if best_gini is None:
        return None
    subset = frozenset(
        int(free[b]) for b in range(len(free)) if best_mask >> b & 1
    )
    left = counts[sorted(subset)].sum(axis=0)
    n_left = int(left.sum())
    return SplitCandidate(
        weighted_gini=best_gini,
        threshold=None,
        subset=subset,
        n_left=n_left,
        n_right=n - n_left,
        work_points=evaluated,
    )


def _greedy_subsets(
    counts: np.ndarray, present: np.ndarray, n: int, criterion: str = "gini"
) -> Optional[SplitCandidate]:
    """Greedy hill-climbing: grow the subset by the best single value.

    Starts empty and repeatedly moves the value whose addition most
    lowers the weighted gini, stopping when no addition improves it (or
    when only one value would remain on the right).
    """
    totals = counts[present].sum(axis=0)
    chosen: list = []
    left = np.zeros_like(totals)
    remaining = list(present)
    best_overall: Optional[float] = None
    best_subset: Optional[FrozenSet[int]] = None
    best_n_left = 0
    evaluated = 0
    while len(remaining) > 1:
        step_gini: Optional[float] = None
        step_value = None
        for v in remaining:
            g = _weighted_gini(left + counts[v], totals, n, criterion)
            evaluated += 1
            if g is not None and (step_gini is None or g < step_gini):
                step_gini = g
                step_value = v
        if step_gini is None:
            break
        if best_overall is not None and step_gini >= best_overall:
            break  # no improvement from growing further
        left = left + counts[step_value]
        chosen.append(int(step_value))
        remaining.remove(step_value)
        best_overall = step_gini
        best_subset = frozenset(chosen)
        best_n_left = int(left.sum())
    if best_subset is None:
        return None
    return SplitCandidate(
        weighted_gini=best_overall,
        threshold=None,
        subset=best_subset,
        n_left=best_n_left,
        n_right=n - best_n_left,
        work_points=evaluated,
    )
