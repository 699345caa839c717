"""In-kernel SMP: the worker pool under the inference kernels.

The pool (:mod:`repro._native.pool`) serves single-tree routing and the
fused forest vote; the training kernels are single-threaded.  It
promises *bit-identical* results at any lane count — parallelism must
change wall-clock time and nothing else.  These tests pin that promise
for the routers across lane counts straddling the blocking grain, and
cover the pool mechanics: block planning, override precedence, the
stats counters telemetry folds in, concurrent callers, and GIL release
while helpers run.  Everything skips cleanly when no C compiler (or no
pthreads pool) is available.
"""

import threading
import time

import numpy as np
import pytest

from repro._native import cc, pool
from repro.classify import native as cnative
from repro.classify.compiled import compile_tree
from repro.classify.forest import compile_forest
from repro.classify.treegen import random_columns, random_schema, random_tree


def _threaded_kernels_available() -> bool:
    kernel = cnative.native_kernel()
    return kernel is not None and kernel._route_mt is not None


needs_pool = pytest.mark.skipif(
    not _threaded_kernels_available(),
    reason="threaded native kernels unavailable (no pool)",
)

#: Lane counts exercised by the identity tests: serial, the smallest
#: parallel pool, a typical one, and more lanes than blocks.
LANES = (1, 2, 4, 7)


@pytest.fixture(scope="module")
def model():
    """(schema, one tree, a 16-tree forest) over a random schema."""
    rng = np.random.default_rng(7)
    schema = random_schema(rng)
    trees = [
        random_tree(schema, max_depth=8, seed=100 + i, leaf_prob=0.25)
        for i in range(16)
    ]
    return schema, compile_tree(trees[0]), compile_forest(trees)


def _columns(model, n, seed):
    return random_columns(model[0], n, seed=seed, wild=True)


@needs_pool
class TestRouteThreadIdentity:
    @pytest.mark.parametrize("n", [100_000, 8_193, 100, 1])
    def test_route_and_vote_identical_at_every_lane_count(self, model, n):
        _, tree, forest = model
        columns = _columns(model, n, seed=n)
        with cc.native_override("off"):
            rows_ref = tree.route_rows(columns)
            votes_ref = forest.predict(columns)
        for lanes in LANES:
            with cc.native_override("on"), pool.thread_override(lanes):
                rows = tree.route_rows(columns, backend="native")
                votes = forest.predict(columns, backend="native")
            np.testing.assert_array_equal(rows_ref, rows)
            np.testing.assert_array_equal(votes_ref, votes)


@needs_pool
class TestPoolMechanics:
    def test_blocks_planner(self):
        lib = pool.load()
        with pool.thread_override(4):
            pool.sync()
            assert lib.repro_pool_blocks(0, 8192) == 0
            assert lib.repro_pool_blocks(100, 8192) == 1
            # ceil(100000/8192) = 13, capped at 4 lanes.
            assert lib.repro_pool_blocks(100_000, 8192) == 4
            # grain dominates when rows are scarce.
            assert lib.repro_pool_blocks(16_384, 8192) == 2
        with pool.thread_override(1):
            pool.sync()
            assert lib.repro_pool_blocks(1 << 20, 1) == 1

    def test_override_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "2")
        assert pool.configured_threads() == 2
        with pool.thread_override(5):
            assert pool.configured_threads() == 5
            assert pool.sync() == 5
        assert pool.configured_threads() == 2
        assert pool.sync() == 2

    def test_sync_reconfigures_c_side(self):
        with pool.thread_override(3):
            assert pool.sync() == 3
            assert pool.stats()["threads"] == 3
        with pool.thread_override(1):
            assert pool.sync() == 1
            assert pool.stats()["threads"] == 1

    def test_stats_snapshot_shape(self):
        snap = pool.stats()
        assert set(snap) == {"loaded", "threads", "spawned", "tasks_total"}
        assert snap["loaded"] == 1  # needs_pool already loaded it

    def test_regions_counted(self, model):
        columns = _columns(model, 100_000, seed=11)
        before = pool.stats()["tasks_total"]
        with cc.native_override("on"), pool.thread_override(2):
            model[1].route_rows(columns, backend="native")
        assert pool.stats()["tasks_total"] > before

    def test_helpers_spawn_lazily_and_persist(self, model):
        columns = _columns(model, 50_000, seed=12)
        with cc.native_override("on"), pool.thread_override(2):
            model[2].predict(columns, backend="native")
            # 2 lanes = caller + >=1 persistent helper.
            assert pool.stats()["spawned"] >= 1

    def test_concurrent_python_callers_serialize_safely(self, model):
        # Two Python threads hitting parallel kernels at once must queue
        # on the single job slot, not corrupt each other's results.
        _, tree, forest = model
        columns = _columns(model, 60_000, seed=13)
        with cc.native_override("off"):
            rows_ref = tree.route_rows(columns)
            votes_ref = forest.predict(columns)
        results = [None] * 4
        errors = []

        def run(i):
            try:
                with cc.native_override("on"):
                    if i % 2:
                        results[i] = forest.predict(columns, backend="native")
                    else:
                        results[i] = tree.route_rows(columns, backend="native")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with pool.thread_override(2):
            threads = [
                threading.Thread(target=run, args=(i,))
                for i in range(len(results))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        for i, got in enumerate(results):
            np.testing.assert_array_equal(votes_ref if i % 2 else rows_ref, got)


@needs_pool
class TestGilOverlap:
    def test_main_thread_ticks_during_threaded_forest(self, model):
        # The parallel region must run with the GIL dropped: while the
        # pool chews a multi-block forest vote, the interpreter keeps
        # scheduling this thread.  Works even on one core — a
        # GIL-holding kernel would freeze the tick loop for the whole
        # call.
        forest = model[2]
        columns = _columns(model, 400_000, seed=14)
        kernel = cnative.native_kernel()

        def solo_rate():
            ticks, t0 = 0, time.monotonic()
            while time.monotonic() - t0 < 0.05:
                ticks += 1
            return ticks / 0.05

        rate = solo_rate()
        done = threading.Event()

        def worker():
            with pool.thread_override(2):
                kernel.predict_forest(forest, columns, 400_000)
            done.set()

        t = threading.Thread(target=worker)
        start = time.monotonic()
        t.start()
        ticks = 0
        while not done.is_set():
            ticks += 1
        duration = time.monotonic() - start
        t.join()
        assert duration > 0.01, "vote too fast to observe; enlarge input"
        assert ticks > rate * duration * 0.02
