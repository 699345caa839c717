"""Mergeable per-shard split statistics.

The coordinator never sees records — only *statistics*:

* continuous attributes: a run-compressed
  :class:`~repro.sprint.runs.ValueHistogram` (distinct values ascending
  plus per-class ``int64`` counts), produced per shard by
  :func:`~repro.sprint.runs.run_histogram`.  Shard histograms merge by
  exact integer addition (:func:`~repro.sprint.runs
  .merge_value_histograms`) into the histogram of the global sorted
  list, and :func:`~repro.sprint.runs.evaluate_runs` — the same
  evaluator behind the serial build's numpy path, and the bit-exact
  reference of its C scan — picks the split.
* categorical attributes: a ``(cardinality, n_classes)`` count matrix;
  matrices add exactly and the subset search runs on the merged matrix
  through the same :func:`best_categorical_split_from_counts` the
  serial build uses.

This is what makes ``merge="exact"`` provably equal to the virtual
baseline while shipping O(distinct values) bytes instead of O(records).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sprint.gini import (
    SplitCandidate,
    best_categorical_split_from_counts,
)


def categorical_counts(
    values: np.ndarray, classes: np.ndarray, cardinality: int, n_classes: int
) -> np.ndarray:
    """One shard's categorical count matrix (merges by plain addition)."""
    counts = np.zeros((cardinality, n_classes), dtype=np.int64)
    if len(values):
        np.add.at(counts, (np.asarray(values), np.asarray(classes)), 1)
    return counts


def categorical_split_from_counts(
    counts: np.ndarray,
    max_exhaustive: int,
    criterion: str = "gini",
) -> Optional[SplitCandidate]:
    """Subset search over a merged count matrix (shared with serial)."""
    n = int(counts.sum())
    if n < 2:
        return None
    return best_categorical_split_from_counts(
        counts, n, max_exhaustive, criterion
    )
