"""Property tests for the level-batched E/W/S kernels.

The segmented kernels in :mod:`repro.sprint.kernels` must reproduce the
per-leaf evaluation *bit-for-bit* (same thresholds, subsets and
tie-breaks — every scheme's determinism rests on that) and agree with
the record-at-a-time scan reference in :mod:`repro.sprint.histogram`
up to float round-off.  For continuous attributes the per-leaf
reference is the numpy run evaluator of :mod:`repro.sprint.runs` on one
leaf's histogram.  These tests cross-check them on random leaf
partitions, including the awkward shapes the batched path must
survive: empty segments, single-record leaves, all-equal values, and
both impurity criteria.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sprint.kernels as kernels
from repro.sprint.gini import best_categorical_split
from repro.sprint.histogram import CountMatrix, scan_continuous_split
from repro.sprint.kernels import (
    ScratchArena,
    concat_field,
    partition_stable,
    segment_offsets,
    segmented_categorical_counts,
    segmented_categorical_splits,
    segmented_continuous_splits,
)
from repro.sprint.records import CONTINUOUS_RECORD
from repro.sprint.runs import evaluate_runs, run_histogram

CRITERIA = ("gini", "entropy")


def leaf_split(values, classes, n_classes, criterion="gini"):
    """One leaf through the numpy run evaluator (the per-leaf reference)."""
    hist = run_histogram(values, classes, n_classes)
    return evaluate_runs(hist, criterion)[0]


def random_level(rng, n_classes, quantized):
    """Random per-leaf sorted segments, with empty/tiny leaves likely."""
    n_segs = int(rng.integers(1, 7))
    segments = []
    for _ in range(n_segs):
        m = int(rng.integers(0, 16))
        if quantized:
            values = np.sort(rng.choice([0.0, 1.5, 2.0, 7.25], m))
        else:
            values = np.sort(rng.random(m))
        classes = rng.integers(0, n_classes, m).astype(np.int32)
        segments.append((values, classes))
    values = np.concatenate([v for v, _ in segments])
    classes = np.concatenate([c for _, c in segments])
    offsets = np.zeros(n_segs + 1, dtype=np.int64)
    np.cumsum([len(v) for v, _ in segments], out=offsets[1:])
    return segments, values, classes, offsets


def exact_impurity_tie(classes, a, b, n_classes, criterion):
    """True when split candidates *a* and *b* tie exactly in impurity.

    Two different boundaries can have mathematically equal weighted
    impurity while each implementation's float round-off orders the tie
    differently, so cross-implementation tests cannot assume a unique
    argmin.  Weighted gini is rational in the class counts, so the tie is
    decided exactly with Fraction arithmetic.  Entropy is not rational; a
    tie is recognised only when one partition's per-side count multisets
    are a permutation of the other's (which makes the impurity sums equal
    termwise).
    """

    def side_counts(n_left):
        left = np.bincount(classes[:n_left], minlength=n_classes)
        right = np.bincount(classes[n_left:], minlength=n_classes)
        return left, right

    la, ra = side_counts(a.n_left)
    lb, rb = side_counts(b.n_left)
    if criterion == "gini":

        def weighted_gini(left, right):
            total = int(left.sum()) + int(right.sum())
            acc = Fraction(0)
            for side in (left, right):
                n = int(side.sum())
                if n:
                    sq = sum(int(k) * int(k) for k in side)
                    acc += Fraction(n) - Fraction(sq, n)
            return acc / total

        return weighted_gini(la, ra) == weighted_gini(lb, rb)
    sides_a = sorted((tuple(sorted(map(int, la))), tuple(sorted(map(int, ra)))))
    sides_b = sorted((tuple(sorted(map(int, lb))), tuple(sorted(map(int, rb)))))
    return sides_a == sides_b


class TestSegmentedContinuous:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_classes=st.integers(2, 4),
        criterion=st.sampled_from(CRITERIA),
        quantized=st.booleans(),
    )
    def test_bit_identical_to_dense(self, seed, n_classes, criterion, quantized):
        """Same floats, same tie-breaks as evaluating each leaf alone."""
        rng = np.random.default_rng(seed)
        segments, values, classes, offsets = random_level(
            rng, n_classes, quantized
        )
        got = segmented_continuous_splits(
            values, classes, offsets, n_classes, criterion=criterion
        )
        assert len(got) == len(segments)
        for candidate, (v, c) in zip(got, segments):
            want = leaf_split(v, c, n_classes, criterion=criterion)
            # repr-level equality: exact weighted impurity, threshold and
            # counts — bit-identity, not approximation.
            assert repr(candidate) == repr(want)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_classes=st.integers(2, 3),
        criterion=st.sampled_from(CRITERIA),
    )
    def test_agrees_with_scan_reference(self, seed, n_classes, criterion):
        """The histogram scan is the independent oracle (paper §2.2)."""
        rng = np.random.default_rng(seed)
        segments, values, classes, offsets = random_level(
            rng, n_classes, quantized=True
        )
        got = segmented_continuous_splits(
            values, classes, offsets, n_classes, criterion=criterion
        )
        for candidate, (v, c) in zip(got, segments):
            want = scan_continuous_split(v, c, n_classes, criterion=criterion)
            assert (candidate is None) == (want is None)
            if candidate is not None:
                assert candidate.weighted_gini == pytest.approx(
                    want.weighted_gini
                )
                if candidate.threshold == pytest.approx(want.threshold):
                    assert candidate.n_left == want.n_left
                    assert candidate.n_right == want.n_right
                else:
                    # A different boundary is acceptable only on an exact
                    # impurity tie, and the candidate must still be
                    # self-consistent with its own threshold.
                    assert exact_impurity_tie(
                        c, candidate, want, n_classes, criterion
                    )
                    assert int(np.sum(v < candidate.threshold)) == (
                        candidate.n_left
                    )
                    assert candidate.n_left + candidate.n_right == len(v)

    def test_single_record_leaves(self):
        values = np.array([3.0, 1.0, 2.0])
        classes = np.array([0, 1, 0], dtype=np.int32)
        offsets = np.array([0, 1, 2, 3], dtype=np.int64)
        assert segmented_continuous_splits(values, classes, offsets, 2) == [
            None,
            None,
            None,
        ]

    def test_all_equal_values_has_no_split(self):
        values = np.full(8, 4.0)
        classes = np.array([0, 1] * 4, dtype=np.int32)
        offsets = np.array([0, 4, 8], dtype=np.int64)
        assert segmented_continuous_splits(values, classes, offsets, 2) == [
            None,
            None,
        ]

    def test_empty_segments_between_leaves(self):
        values = np.array([1.0, 2.0, 5.0, 6.0])
        classes = np.array([0, 1, 0, 1], dtype=np.int32)
        offsets = np.array([0, 0, 2, 2, 4, 4], dtype=np.int64)
        got = segmented_continuous_splits(values, classes, offsets, 2)
        assert got[0] is None and got[2] is None and got[4] is None
        assert got[1].threshold == pytest.approx(1.5)
        assert got[3].threshold == pytest.approx(5.5)

    def test_equal_boundary_values_across_segments(self):
        """A segment starting with its predecessor's last value must
        still start a fresh run — no split point leaks across leaves."""
        values = np.array([1.0, 2.0, 2.0, 3.0])
        classes = np.array([0, 1, 0, 1], dtype=np.int32)
        offsets = np.array([0, 2, 4], dtype=np.int64)
        got = segmented_continuous_splits(values, classes, offsets, 2)
        assert got[0].threshold == pytest.approx(1.5)
        assert got[1].threshold == pytest.approx(2.5)

    def test_tie_break_picks_earliest_candidate(self):
        """Symmetric data ties two thresholds; the first wins, exactly
        as in the per-leaf scan order."""
        values = np.array([1.0, 2.0, 3.0, 4.0])
        classes = np.array([0, 1, 0, 1], dtype=np.int32)
        offsets = np.array([0, 4], dtype=np.int64)
        got = segmented_continuous_splits(values, classes, offsets, 2)[0]
        want = leaf_split(values, classes, 2)
        assert repr(got) == repr(want)
        assert got.threshold == pytest.approx(1.5)

    def test_large_single_segment_takes_segmented_path(self):
        """A large tie-heavy leaf goes through the same segmented entry
        point and still matches the per-leaf evaluation."""
        n = (1 << 15) + 1
        rng = np.random.default_rng(0)
        values = np.sort(rng.integers(0, 16, n).astype(np.float64))
        classes = rng.integers(0, 2, n).astype(np.int32)
        offsets = np.array([0, n], dtype=np.int64)
        got = segmented_continuous_splits(values, classes, offsets, 2)[0]
        want = leaf_split(values, classes, 2)
        assert repr(got) == repr(want)


class TestSegmentedCategorical:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        cardinality=st.integers(2, 6),
        n_classes=st.integers(2, 3),
        criterion=st.sampled_from(CRITERIA),
    )
    def test_counts_and_splits_match_per_leaf(
        self, seed, cardinality, n_classes, criterion
    ):
        rng = np.random.default_rng(seed)
        n_segs = int(rng.integers(1, 6))
        lengths = [int(rng.integers(0, 12)) for _ in range(n_segs)]
        values = [rng.integers(0, cardinality, m) for m in lengths]
        classes = [
            rng.integers(0, n_classes, m).astype(np.int32) for m in lengths
        ]
        offsets = segment_offsets(values)
        flat_v = np.concatenate(values)
        flat_c = np.concatenate(classes)

        counts = segmented_categorical_counts(
            flat_v, flat_c, offsets, cardinality, n_classes
        )
        for s in range(n_segs):
            reference = CountMatrix.from_records(
                values[s], classes[s], cardinality, n_classes
            )
            np.testing.assert_array_equal(counts[s], reference.counts)

        got = segmented_categorical_splits(
            flat_v, flat_c, offsets, cardinality, n_classes,
            criterion=criterion,
        )
        for s in range(n_segs):
            want = (
                best_categorical_split(
                    values[s], classes[s], cardinality, n_classes,
                    criterion=criterion,
                )
                if lengths[s] >= 2
                else None
            )
            assert repr(got[s]) == repr(want)  # includes the subset

    def test_dense_and_fallback_counting_agree(self, monkeypatch):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 5, 60)
        classes = rng.integers(0, 2, 60).astype(np.int32)
        offsets = np.array([0, 20, 20, 60], dtype=np.int64)
        dense = segmented_categorical_counts(values, classes, offsets, 5, 2)
        monkeypatch.setattr(kernels, "DENSE_COUNTS_LIMIT", 0)
        fallback = segmented_categorical_counts(values, classes, offsets, 5, 2)
        np.testing.assert_array_equal(dense, fallback)


class TestPartitionStable:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(0, 64))
    def test_matches_boolean_indexing(self, seed, n):
        rng = np.random.default_rng(seed)
        records = np.zeros(n, dtype=CONTINUOUS_RECORD)
        records["tid"] = rng.permutation(n)
        records["value"] = rng.random(n)
        mask = rng.random(n) < 0.5
        left, right = partition_stable(records, mask)
        np.testing.assert_array_equal(left, records[mask])
        np.testing.assert_array_equal(right, records[~mask])

    def test_all_one_side(self):
        records = np.arange(5, dtype=np.int64)
        left, right = partition_stable(records, np.ones(5, dtype=bool))
        np.testing.assert_array_equal(left, records)
        assert len(right) == 0
        left, right = partition_stable(records, np.zeros(5, dtype=bool))
        assert len(left) == 0
        np.testing.assert_array_equal(right, records)

    def test_compress_path_matches_boolean_indexing(self):
        """Above PARTITION_COMPRESS_MIN the counted-compress spelling
        runs; it must produce the same stable order."""
        n = kernels.PARTITION_COMPRESS_MIN + 17
        rng = np.random.default_rng(5)
        records = np.zeros(n, dtype=CONTINUOUS_RECORD)
        records["tid"] = rng.permutation(n)
        mask = rng.random(n) < 0.3
        left, right = partition_stable(records, mask)
        np.testing.assert_array_equal(left, records[mask])
        np.testing.assert_array_equal(right, records[~mask])
        # Results share one backing buffer and persist without copying.
        assert left.base is not None and left.base is right.base

    def test_arena_path_used_for_any_size(self):
        arena = ScratchArena()
        records = np.arange(7, dtype=np.int64)
        mask = np.array([1, 0, 1, 1, 0, 0, 1], dtype=bool)
        left, right = partition_stable(records, mask, arena)
        np.testing.assert_array_equal(left, records[mask])
        np.testing.assert_array_equal(right, records[~mask])
        assert arena.allocated_bytes == records.nbytes

    def test_arena_reuses_buffers(self):
        arena = ScratchArena()
        records = np.arange(100, dtype=np.int64)
        mask = records % 2 == 0
        partition_stable(records, mask, arena)
        first_alloc = arena.allocated_bytes
        assert first_alloc == records.nbytes
        assert arena.reused_bytes == 0
        partition_stable(records, mask, arena)
        assert arena.allocated_bytes == first_alloc  # no new allocation
        assert arena.reused_bytes == records.nbytes

    def test_arena_grows_geometrically(self):
        arena = ScratchArena()
        arena.take(np.int64, 10)
        arena.take(np.int64, 11)  # grows to max(11, 2*10) = 20
        view = arena.take(np.int64, 20)
        assert len(view) == 20
        assert arena.allocated_bytes == (10 + 20) * 8
        assert arena.reused_bytes == 20 * 8

    def test_arena_views_are_per_dtype(self):
        arena = ScratchArena()
        a = arena.take(np.int64, 4)
        b = arena.take(np.float32, 4)
        assert a.dtype == np.int64 and b.dtype == np.float32

    def test_take_zero_clears_recycled_bytes(self):
        # take() hands back whatever the previous borrower left unless
        # zero= is set — accumulate-only consumers (the native
        # categorical counter) depend on the flag.
        arena = ScratchArena()
        dirty = arena.take(np.int64, 16)
        dirty.fill(-1)
        stale = arena.take(np.int64, 8)
        assert stale.base is dirty.base  # recycled, stale bytes visible
        assert (stale == -1).all()
        clean = arena.take(np.int64, 8, zero=True)
        assert clean.base is dirty.base  # still recycled, but cleared
        assert not clean.any()

    def test_categorical_counts_arena_reuse_no_stale_counts(self):
        # Regression: an arena-backed count tensor must not inherit the
        # previous level's counts (the C kernel only increments, so a
        # non-zeroed buffer double-counts).  Shrinking sizes guarantee
        # buffer reuse; the fresh non-arena result is the oracle.
        rng = np.random.default_rng(11)
        arena = ScratchArena()
        arena.take(np.int64, 4096).fill(99)  # pre-dirty the buffer
        for n, card, ncls in ((300, 6, 3), (120, 4, 2), (40, 3, 2)):
            offsets = np.array([0, n // 3, n // 3, n], dtype=np.int64)
            values = rng.integers(0, card, size=n).astype(np.int64)
            classes = rng.integers(0, ncls, size=n).astype(np.int32)
            got = segmented_categorical_counts(
                values, classes, offsets, card, ncls, arena=arena
            )
            fresh = segmented_categorical_counts(
                values, classes, offsets, card, ncls
            )
            np.testing.assert_array_equal(got, fresh)


class TestLevelHelpers:
    def test_segment_offsets(self):
        arrays = [np.arange(3), np.arange(0), np.arange(2)]
        np.testing.assert_array_equal(
            segment_offsets(arrays), [0, 3, 3, 5]
        )
        np.testing.assert_array_equal(segment_offsets([]), [0])

    def test_concat_field_single_array_is_a_view(self):
        records = np.zeros(4, dtype=CONTINUOUS_RECORD)
        field = concat_field([records], "value")
        assert field.base is records  # no copy on the single-leaf path
