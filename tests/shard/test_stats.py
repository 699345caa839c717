"""Property tests: merged shard statistics == the global scan.

The coordinator's split decisions must be bit-identical to the serial
kernels, so these tests treat the run evaluator on the *global* sorted
list and :func:`best_categorical_split_from_counts` as oracles and
check the shard histogram round trip against them on randomized inputs
— including the tid-range sharding the coordinator actually performs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.shard.stats import categorical_counts, categorical_split_from_counts
from repro.sprint.gini import best_categorical_split_from_counts
from repro.sprint.runs import (
    empty_histogram,
    evaluate_runs,
    merge_value_histograms,
    run_histogram,
)

N_CLASSES = 3


def sorted_column(rng, n, distinct):
    values = rng.choice(
        rng.normal(size=distinct), size=n
    ).astype(np.float64)
    classes = rng.integers(0, N_CLASSES, size=n).astype(np.int32)
    order = np.argsort(values, kind="stable")
    return values[order], classes[order]


def shard_slices(values, classes, n_shards, rng):
    """Random contiguous tid-range shards, re-sorted per shard by value."""
    n = len(values)
    tids = rng.permutation(n)
    bounds = [s * n // n_shards for s in range(n_shards + 1)]
    out = []
    for s in range(n_shards):
        mask = (tids >= bounds[s]) & (tids < bounds[s + 1])
        v, c = values[mask], classes[mask]
        order = np.argsort(v, kind="stable")
        out.append((v[order], c[order]))
    return out


class TestContinuous:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_merged_split_matches_dense_oracle(self, seed, n_shards):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 400))
        values, classes = sorted_column(rng, n, distinct=int(rng.integers(1, 40)))
        oracle = evaluate_runs(run_histogram(values, classes, N_CLASSES))[0]

        hists = [
            run_histogram(v, c, N_CLASSES)
            for v, c in shard_slices(values, classes, n_shards, rng)
        ]
        merged = merge_value_histograms(hists, N_CLASSES)
        got = evaluate_runs(merged)[0]

        if oracle is None:
            assert got is None
            return
        # Bit-identical: same position, same float threshold, same gini.
        assert got.threshold == oracle.threshold
        assert got.weighted_gini == oracle.weighted_gini
        assert got.n_left == oracle.n_left
        assert got.n_right == oracle.n_right

    def test_histogram_counts_are_exact(self):
        rng = np.random.default_rng(42)
        values, classes = sorted_column(rng, 200, distinct=10)
        hist = run_histogram(values, classes, N_CLASSES)
        assert hist.n_records == 200
        assert int(hist.counts.sum()) == 200
        assert (np.diff(hist.values) > 0).all()
        for j in range(N_CLASSES):
            assert int(hist.counts[:, j].sum()) == int((classes == j).sum())

    def test_empty_and_single_shard_merge(self):
        rng = np.random.default_rng(7)
        values, classes = sorted_column(rng, 50, distinct=5)
        hist = run_histogram(values, classes, N_CLASSES)
        merged = merge_value_histograms(
            [empty_histogram(N_CLASSES), hist, empty_histogram(N_CLASSES)],
            N_CLASSES,
        )
        assert (merged.values == hist.values).all()
        assert (merged.counts == hist.counts).all()

    def test_fewer_than_two_records_is_no_split(self):
        hist = run_histogram(
            np.array([1.5]), np.array([0], dtype=np.int32), N_CLASSES
        )
        assert evaluate_runs(hist) == [None]
        assert evaluate_runs(empty_histogram(N_CLASSES)) == [None]


class TestCategorical:
    @pytest.mark.parametrize("seed", range(6))
    def test_summed_counts_match_oracle(self, seed):
        rng = np.random.default_rng(seed + 100)
        n, cardinality = int(rng.integers(2, 300)), int(rng.integers(2, 7))
        values = rng.integers(0, cardinality, size=n).astype(np.int32)
        classes = rng.integers(0, N_CLASSES, size=n).astype(np.int32)

        full = categorical_counts(values, classes, cardinality, N_CLASSES)
        oracle = best_categorical_split_from_counts(full, n)

        parts = np.array_split(np.arange(n), 3)
        summed = sum(
            categorical_counts(values[p], classes[p], cardinality, N_CLASSES)
            for p in parts
        )
        assert (summed == full).all()
        got = categorical_split_from_counts(summed, max_exhaustive=10)

        if oracle is None:
            assert got is None
            return
        assert got.weighted_gini == oracle.weighted_gini
        assert got.subset == oracle.subset
