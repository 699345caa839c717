"""Scheme-specific tests for record data parallelism."""

import numpy as np
import pytest

from repro.core.builder import build_classifier
from repro.core.params import BuildParams
from repro.core.recordpar import chunk_bounds
from repro.smp.machine import machine_b
from repro.sprint.runs import (
    evaluate_runs,
    merge_value_histograms,
    run_histogram,
)


class TestChunkBounds:
    def test_even_division(self):
        bounds = [chunk_bounds(12, p, 4) for p in range(4)]
        assert bounds == [(0, 3), (3, 6), (6, 9), (9, 12)]

    def test_remainder_spread_to_low_pids(self):
        bounds = [chunk_bounds(10, p, 4) for p in range(4)]
        assert bounds == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_partition_is_exact(self):
        for n in (0, 1, 5, 17, 100):
            for n_procs in (1, 2, 3, 7):
                ranges = [chunk_bounds(n, p, n_procs) for p in range(n_procs)]
                assert ranges[0][0] == 0
                assert ranges[-1][1] == n
                for (_lo1, hi), (lo, _hi2) in zip(ranges, ranges[1:]):
                    assert hi == lo

    def test_more_procs_than_records(self):
        bounds = [chunk_bounds(2, p, 4) for p in range(4)]
        assert bounds == [(0, 1), (1, 2), (2, 2), (2, 2)]


def chunked_split(values, classes, n_procs, n_classes=2):
    """The record-parallel evaluation: one partial histogram per chunk,
    merged by addition, evaluated once."""
    partials = []
    for pid in range(n_procs):
        lo, hi = chunk_bounds(len(values), pid, n_procs)
        partials.append(run_histogram(values[lo:hi], classes[lo:hi], n_classes))
    return evaluate_runs(merge_value_histograms(partials, n_classes))[0]


class TestChunkedEvaluation:
    @pytest.mark.parametrize("n_procs", [1, 2, 3, 5])
    def test_chunked_matches_global(self, n_procs):
        """Merged chunk histograms reproduce the global split exactly."""
        rng = np.random.default_rng(7)
        n = 97
        values = np.sort(rng.integers(0, 25, n).astype(np.float64))
        classes = rng.integers(0, 2, n).astype(np.int32)

        reference = evaluate_runs(run_histogram(values, classes, 2))[0]
        assert repr(chunked_split(values, classes, n_procs)) == repr(reference)

    def test_empty_chunk(self):
        # More processors than records: the empty chunks add nothing.
        values = np.array([1.0, 2.0])
        classes = np.array([0, 1], dtype=np.int32)
        got = chunked_split(values, classes, n_procs=4)
        assert got.threshold == 1.5
        assert (got.n_left, got.n_right) == (1, 1)

    def test_constant_chunk_without_boundary(self):
        # A chunk boundary inside a run of equal values: the run's two
        # halves must sum back into one run, so the only split point is
        # after the whole run (n_left = 4), never inside it (n_left = 2).
        values = np.array([2.0, 2.0, 2.0, 2.0, 3.0, 3.0])
        classes = np.array([0, 0, 1, 1, 1, 1], dtype=np.int32)
        got = chunked_split(values, classes, n_procs=3)
        assert got.threshold == 2.5
        assert (got.n_left, got.n_right) == (4, 2)
        assert got.weighted_gini == pytest.approx(1 / 3)


class TestRecordParScheme:
    @pytest.mark.parametrize("n_procs", [1, 2, 4])
    def test_tree_equality(self, small_f2, n_procs):
        reference = build_classifier(small_f2, algorithm="serial").tree
        result = build_classifier(
            small_f2, algorithm="recordpar",
            machine=machine_b(n_procs), n_procs=n_procs,
        )
        assert result.tree.signature() == reference.signature()

    def test_tree_equality_complex(self, small_f7):
        reference = build_classifier(small_f7, algorithm="serial").tree
        result = build_classifier(
            small_f7, algorithm="recordpar", machine=machine_b(3), n_procs=3
        )
        assert result.tree.signature() == reference.signature()

    def test_chunk_boundary_inside_a_run(self, tiny_schema):
        """Three chunks cut the root's run of equal ages twice; the
        partial runs must sum back so the split lands after the run."""
        from repro.data.dataset import Dataset

        columns = {
            "age": np.array([2.0, 2.0, 2.0, 2.0, 3.0, 3.0]),
            "car": np.zeros(6, dtype=np.int64),
        }
        labels = np.array([0, 0, 1, 1, 1, 1], dtype=np.int32)
        data = Dataset(tiny_schema, columns, labels, name="tied-run")
        reference = build_classifier(data, algorithm="serial").tree
        assert reference.root.split.threshold == 2.5
        result = build_classifier(
            data, algorithm="recordpar", machine=machine_b(3), n_procs=3
        )
        assert result.tree.signature() == reference.signature()

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_tree_equality_under_criterion(self, small_f7, criterion):
        params = BuildParams(criterion=criterion)
        reference = build_classifier(
            small_f7, algorithm="serial", params=params
        ).tree
        result = build_classifier(
            small_f7, algorithm="recordpar", machine=machine_b(3),
            n_procs=3, params=params,
        )
        assert result.tree.signature() == reference.signature()

    def test_more_synchronization_than_mwk(self, small_f7):
        """The paper's claim: record parallelism over-synchronizes."""
        rp = build_classifier(
            small_f7, algorithm="recordpar", machine=machine_b(4), n_procs=4
        )
        mwk = build_classifier(
            small_f7, algorithm="mwk", machine=machine_b(4), n_procs=4
        )
        assert sum(rp.stats.barrier_wait) > sum(mwk.stats.barrier_wait)

    def test_threads_runtime(self, small_f2):
        reference = build_classifier(small_f2, algorithm="serial").tree
        result = build_classifier(
            small_f2, algorithm="recordpar", n_procs=3, runtime="threads"
        )
        assert result.tree.signature() == reference.signature()

    def test_segments_cleaned_up(self, small_f2):
        from repro.storage.backends import MemoryBackend

        backend = MemoryBackend()
        build_classifier(
            small_f2, algorithm="recordpar", n_procs=2, backend=backend
        )
        assert backend.keys() == []
