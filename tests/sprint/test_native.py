"""Differential + gate tests for the native (C) training kernels.

Every kernel in :mod:`repro.sprint.native` must reproduce its numpy twin
in :mod:`repro.sprint.kernels` *bit-for-bit* — same weighted ginis, same
tie-breaks, same byte order out of the partition.  The tests here flip
the backend mid-process through the shared gate in
:mod:`repro._native.cc`, which also gets its precedence rules pinned
down (CLI override > environment > default-on), and the
"one compile/cache helper, zero duplicated compiler probing" refactor
is asserted structurally.

Kernel tests skip cleanly when no C compiler is available; the gate
tests run everywhere.
"""

import inspect
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro._native import cc
from repro.sprint import kernels as K
from repro.sprint import native
from repro.sprint.probe import HashProbe
from repro.sprint.records import CATEGORICAL_RECORD, CONTINUOUS_RECORD
from repro.sprint.runs import evaluate_runs, run_histogram

needs_native = pytest.mark.skipif(
    not native.native_available(),
    reason="no C compiler / native kernels unavailable",
)


def random_continuous_level(rng, n_classes, quantized=False):
    """Random sorted segments with empty/tiny leaves and value ties."""
    n_segs = int(rng.integers(1, 8))
    offsets = [0]
    vs, cs = [], []
    for _ in range(n_segs):
        m = int(rng.integers(0, 24))
        if quantized:
            values = np.sort(rng.choice([0.0, 1.5, 2.0, 7.25], m))
        else:
            values = np.sort(rng.random(m))
        vs.append(values)
        cs.append(rng.integers(0, n_classes, m).astype(np.int32))
        offsets.append(offsets[-1] + m)
    values = np.concatenate(vs) if vs else np.empty(0)
    classes = np.concatenate(cs) if cs else np.empty(0, np.int32)
    return values, classes, np.asarray(offsets, dtype=np.int64)


def assert_candidates_identical(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if x is None or y is None:
            assert x is None and y is None
            continue
        assert x.weighted_gini == y.weighted_gini  # bit-identical, no tol
        assert x.threshold == y.threshold
        assert x.subset == y.subset
        assert (x.n_left, x.n_right, x.work_points) == (
            y.n_left, y.n_right, y.work_points
        )


@needs_native
class TestContinuousDifferential:
    @pytest.mark.parametrize("quantized", [False, True])
    @pytest.mark.parametrize("n_classes", [2, 3, 5])
    def test_matches_numpy(self, n_classes, quantized):
        rng = np.random.default_rng(17 * n_classes + quantized)
        for _ in range(40):
            values, classes, offsets = random_continuous_level(
                rng, n_classes, quantized
            )
            with cc.native_override("off"):
                ref = K.segmented_continuous_splits(
                    values, classes, offsets, n_classes
                )
            with cc.native_override("on"):
                got = K.segmented_continuous_splits(
                    values, classes, offsets, n_classes
                )
            assert_candidates_identical(ref, got)

    def test_strided_record_fields(self):
        # concat_field's single-chunk path yields strided views of the
        # packed record array; the native wrapper must stage them.
        rng = np.random.default_rng(5)
        rec = np.empty(200, dtype=CONTINUOUS_RECORD)
        rec["value"] = np.sort(rng.normal(size=200))
        rec["cls"] = rng.integers(0, 3, 200)
        rec["tid"] = np.arange(200)
        offsets = np.array([0, 90, 90, 200], dtype=np.int64)
        with cc.native_override("off"):
            ref = K.segmented_continuous_splits(
                rec["value"], rec["cls"], offsets, 3
            )
        with cc.native_override("on"):
            got = K.segmented_continuous_splits(
                rec["value"], rec["cls"], offsets, 3
            )
        assert_candidates_identical(ref, got)

    def test_entropy_stays_on_numpy(self):
        # The C scan implements gini only; other criteria must fall
        # through to the numpy spelling (not crash, not mis-score).
        rng = np.random.default_rng(9)
        values, classes, offsets = random_continuous_level(rng, 3)
        with cc.native_override("on"):
            got = K.segmented_continuous_splits(
                values, classes, offsets, 3, criterion="entropy"
            )
        with cc.native_override("off"):
            ref = K.segmented_continuous_splits(
                values, classes, offsets, 3, criterion="entropy"
            )
        assert_candidates_identical(ref, got)


def _run_shape(name, rng):
    """(segment lengths, values per segment, n_classes) for one shape."""
    if name == "multi-segment":
        lengths = [int(m) for m in rng.integers(50, 400, size=12)]
        return lengths, [np.sort(rng.random(m)) for m in lengths], 4
    if name == "tie-heavy":
        lengths = [3000, 1, 2500]
        return lengths, [
            np.sort(rng.integers(0, 6, m).astype(np.float64)) for m in lengths
        ], 2
    if name == "all-equal":
        lengths = [40, 7]
        return lengths, [np.full(m, 2.5) for m in lengths], 3
    if name == "single-record":
        lengths = [1, 1, 1]
        return lengths, [rng.random(1) for _ in lengths], 2
    # "empty": empty segments around and between real ones.
    lengths = [0, 5, 0, 0, 9, 0]
    return lengths, [np.sort(rng.random(m)) for m in lengths], 3


@needs_native
class TestRunEvaluatorDifferential:
    """The C scan against its bit-exact reference, the numpy run
    evaluator fed the histogram of the same segments."""

    @pytest.mark.parametrize(
        "shape",
        ["multi-segment", "tie-heavy", "all-equal", "single-record", "empty"],
    )
    def test_c_scan_matches_run_evaluator(self, shape):
        rng = np.random.default_rng(len(shape))
        lengths, segments, n_classes = _run_shape(shape, rng)
        values = np.concatenate(segments)
        classes = rng.integers(0, n_classes, len(values)).astype(np.int32)
        offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        want = evaluate_runs(
            run_histogram(values, classes, n_classes, offsets)
        )
        with cc.native_override("on"):
            got = K.segmented_continuous_splits(
                values, classes, offsets, n_classes
            )
        assert_candidates_identical(want, got)
        n_splits = {"all-equal": 0, "single-record": 0, "empty": 2}
        if shape in n_splits:
            assert sum(c is not None for c in got) == n_splits[shape]


@needs_native
class TestCategoricalDifferential:
    def test_counts_match_numpy(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n_seg = int(rng.integers(1, 6))
            card = int(rng.integers(1, 8))
            ncls = int(rng.integers(2, 4))
            lens = rng.integers(0, 30, size=n_seg)
            offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
            n = int(offsets[-1])
            values = rng.integers(0, card, size=n).astype(np.int64)
            classes = rng.integers(0, ncls, size=n).astype(np.int32)
            with cc.native_override("off"):
                ref = K.segmented_categorical_counts(
                    values, classes, offsets, card, ncls
                )
            with cc.native_override("on"):
                got = K.segmented_categorical_counts(
                    values, classes, offsets, card, ncls
                )
            np.testing.assert_array_equal(ref, got)

    def test_splits_match_numpy(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            n = int(rng.integers(4, 80))
            card, ncls = 5, 3
            offsets = np.array([0, n // 2, n], dtype=np.int64)
            values = rng.integers(0, card, size=n).astype(np.int64)
            classes = rng.integers(0, ncls, size=n).astype(np.int32)
            with cc.native_override("off"):
                ref = K.segmented_categorical_splits(
                    values, classes, offsets, card, ncls
                )
            with cc.native_override("on"):
                got = K.segmented_categorical_splits(
                    values, classes, offsets, card, ncls
                )
            assert_candidates_identical(ref, got)


@needs_native
class TestPartitionDifferential:
    @pytest.mark.parametrize("dtype", [CONTINUOUS_RECORD, CATEGORICAL_RECORD])
    def test_matches_numpy(self, dtype):
        rng = np.random.default_rng(4)
        for n in (0, 1, 2, 17, 500):
            rec = np.zeros(n, dtype=dtype)
            rec["cls"] = rng.integers(0, 3, n)
            rec["tid"] = rng.permutation(n)
            mask = rng.random(n) < 0.4
            with cc.native_override("off"):
                l0, r0 = K.partition_stable(rec, mask)
            with cc.native_override("on"):
                l1, r1 = K.partition_stable(rec, mask)
            np.testing.assert_array_equal(l0, l1)
            np.testing.assert_array_equal(r0, r1)

    def test_arena_halves_share_buffer(self):
        arena = K.ScratchArena()
        rec = np.zeros(64, dtype=CONTINUOUS_RECORD)
        rec["tid"] = np.arange(64)
        mask = rec["tid"] % 3 == 0
        with cc.native_override("on"):
            left, right = K.partition_stable(rec, mask, arena=arena)
        assert left.base is right.base  # one scatter buffer, two views
        np.testing.assert_array_equal(left["tid"], rec["tid"][mask])
        np.testing.assert_array_equal(right["tid"], rec["tid"][~mask])


@needs_native
class TestMembershipDifferential:
    def test_matches_isin(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            probe = HashProbe()
            stored = rng.choice(
                2000, size=int(rng.integers(0, 60)), replace=False
            ).astype(np.int64)
            if stored.size:
                probe.mark_left(stored)
            queries = rng.integers(0, 2000, int(rng.integers(0, 90))).astype(
                np.int64
            )
            with cc.native_override("off"):
                ref = probe.contains(queries)
            with cc.native_override("on"):
                got = probe.contains(queries)
            np.testing.assert_array_equal(ref, got)

    def test_strided_queries(self):
        probe = HashProbe()
        probe.mark_left(np.array([3, 7, 11], dtype=np.int64))
        rec = np.zeros(20, dtype=CONTINUOUS_RECORD)
        rec["tid"] = np.arange(20)
        with cc.native_override("on"):
            got = probe.contains(rec["tid"])  # strided field view
        with cc.native_override("off"):
            ref = probe.contains(rec["tid"])
        np.testing.assert_array_equal(ref, got)


class TestGate:
    """Override > environment > default-on; re-read every call."""

    def test_default_on(self, monkeypatch):
        monkeypatch.delenv(cc.ENV_FLAG, raising=False)
        cc.set_native_override(None)
        assert cc.native_enabled()

    @pytest.mark.parametrize("value", ["0", "false", "no", "FALSE"])
    def test_env_disables(self, monkeypatch, value):
        monkeypatch.setenv(cc.ENV_FLAG, value)
        cc.set_native_override(None)
        assert not cc.native_enabled()
        assert native.active_kernels() is None

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(cc.ENV_FLAG, "0")
        with cc.native_override("on"):
            assert cc.native_enabled()
        monkeypatch.setenv(cc.ENV_FLAG, "1")
        with cc.native_override("off"):
            assert not cc.native_enabled()
            assert native.active_kernels() is None
        assert cc.native_enabled()  # restored to env control

    def test_auto_defers_to_env(self, monkeypatch):
        monkeypatch.setenv(cc.ENV_FLAG, "0")
        with cc.native_override("auto"):
            assert not cc.native_enabled()

    def test_invalid_override_rejected(self):
        with pytest.raises(ValueError):
            cc.set_native_override("maybe")

    def test_override_nesting_restores(self):
        cc.set_native_override(None)
        with cc.native_override("off"):
            with cc.native_override("on"):
                assert cc.native_enabled()
            assert not cc.native_enabled()
        assert cc.get_native_override() is None


class TestSharedCompilePlumbing:
    """Both kernel families ride one cc helper — no duplicated probing."""

    def test_no_compiler_probing_outside_cc(self):
        # The refactor's contract: subprocess/shutil/compiler handling
        # lives in repro._native.cc and nowhere else.
        import repro.classify.native as route_native

        for mod in (route_native, native):
            src = inspect.getsource(mod)
            assert "subprocess" not in src
            assert "shutil.which" not in src
            assert "cc.compile_cached" in src
        for legacy in ("_compile", "_cache_dir"):
            assert not hasattr(route_native, legacy)

    def test_env_flag_reexported(self):
        import repro.classify.native as route_native

        assert route_native.ENV_FLAG == cc.ENV_FLAG == "REPRO_NATIVE"

    @needs_native
    def test_artifacts_share_cache_dir(self):
        import repro.classify.native as route_native

        train = native.kernels()
        with cc.native_override("on"):  # route kernel honors the gate
            route = route_native.native_kernel()
        assert train is not None and route is not None
        cache = cc.cache_dir()
        assert os.path.dirname(train.path) == cache
        assert os.path.dirname(route.path) == cache
        assert train.path != route.path  # distinct sources, distinct tags

    def test_compile_failure_memoized(self, monkeypatch):
        calls = []

        def failing_probe():
            calls.append(1)
            return None

        monkeypatch.setattr(cc, "find_compiler", failing_probe)
        monkeypatch.setattr(cc, "_compiled", {})
        assert cc.compile_cached("int bogus;", "bogus") is None
        assert cc.compile_cached("int bogus;", "bogus") is None
        assert len(calls) == 1  # broken toolchain probed once, not per call


@needs_native
class TestGilRelease:
    """The C scan must release the GIL (that is the whole point)."""

    @staticmethod
    def _big_scan_args():
        # ~4M records, 64 classes, all-distinct values: a few hundred
        # ms of pure C per call, no numpy work inside the call.
        n, n_classes = 1 << 22, 64
        values = np.arange(n, dtype=np.float64)
        classes = np.arange(n, dtype=np.int64).astype(np.int32) % n_classes
        offsets = np.array([0, n], dtype=np.int64)
        return values, classes, offsets, n_classes

    def test_main_thread_progresses_during_scan(self):
        # Works even on one core: while the worker is inside the C call
        # the interpreter must keep scheduling this thread.  A kernel
        # holding the GIL freezes the loop for the whole call, so the
        # observed tick throughput collapses to the tiny pre/post-call
        # scheduling windows.
        nat = native.kernels()
        values, classes, offsets, n_classes = self._big_scan_args()

        def solo_rate():
            ticks, t0 = 0, time.monotonic()
            while time.monotonic() - t0 < 0.05:
                ticks += 1
            return ticks / 0.05

        rate = solo_rate()
        done = threading.Event()

        def worker():
            nat.continuous_splits(values, classes, offsets, n_classes)
            done.set()

        t = threading.Thread(target=worker)
        start = time.monotonic()
        t.start()
        ticks = 0
        while not done.is_set():
            ticks += 1
        duration = time.monotonic() - start
        t.join()
        assert duration > 0.01, "scan too fast to observe; enlarge input"
        # Demand >=2% of solo throughput for the call's duration — a
        # GIL-holding kernel yields only one ~5ms switch window.
        assert ticks > rate * duration * 0.02

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2, reason="needs >=2 hardware threads"
    )
    def test_two_scans_overlap(self):
        nat = native.kernels()
        values, classes, offsets, n_classes = self._big_scan_args()

        def run():
            nat.continuous_splits(values, classes, offsets, n_classes)

        run()  # warm: page in the inputs, load the .so
        t0 = time.monotonic()
        run()
        run()
        serial = time.monotonic() - t0

        threads = [threading.Thread(target=run) for _ in range(2)]
        t0 = time.monotonic()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        concurrent = time.monotonic() - t0
        # Serialized execution would cost ~serial; true overlap halves
        # it.  0.75 leaves headroom for noisy shared CI runners.
        assert concurrent < 0.75 * serial
