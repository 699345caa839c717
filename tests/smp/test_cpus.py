"""Affinity-aware worker sizing (``available_cpus``) and its callers."""

from __future__ import annotations

import os

import pytest

from repro.smp import cpus
from repro.smp.cpus import (
    available_cpus,
    cgroup_quota_cpus,
    env_thread_override,
    usable_cpus,
)
from repro.smp.threads import RealThreadRuntime


class TestAvailableCpus:
    def test_positive(self):
        assert available_cpus() >= 1

    def test_matches_affinity_mask(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
        if hasattr(os, "sched_getaffinity"):
            affinity = max(1, len(os.sched_getaffinity(0)))
        else:
            affinity = max(1, os.cpu_count() or 1)
        quota = cgroup_quota_cpus()
        expect = affinity if quota is None else min(affinity, quota)
        assert available_cpus() == max(1, expect)

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "7")
        assert available_cpus() == 7

    @pytest.mark.parametrize("raw", ["0", "-3", "four", ""])
    def test_env_override_ignores_nonpositive_and_garbage(
        self, monkeypatch, raw
    ):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", raw)
        assert env_thread_override() is None
        assert available_cpus() >= 1

    def test_override_sizes_pools_but_not_usable_cpus(self, monkeypatch):
        # A 2-CPU affinity mask with the operator asking for 4 lanes:
        # pools oversubscribe on purpose, the hardware count stays 2.
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "4")
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        monkeypatch.setattr(cpus, "_quota_cap", lambda: None)
        assert available_cpus() == 4
        assert usable_cpus() == 2

    def test_env_thread_override_parses(self):
        assert env_thread_override({"REPRO_NATIVE_THREADS": "4"}) == 4
        assert env_thread_override({"REPRO_NATIVE_THREADS": "0"}) is None
        assert env_thread_override({"REPRO_NATIVE_THREADS": "x"}) is None
        assert env_thread_override({}) is None


class TestCgroupQuota:
    def test_v2_limited(self, tmp_path):
        (tmp_path / "cpu.max").write_text("150000 100000\n")
        assert cgroup_quota_cpus(str(tmp_path)) == 2  # ceil(1.5)

    def test_v2_exact(self, tmp_path):
        (tmp_path / "cpu.max").write_text("400000 100000\n")
        assert cgroup_quota_cpus(str(tmp_path)) == 4

    def test_v2_unlimited(self, tmp_path):
        (tmp_path / "cpu.max").write_text("max 100000\n")
        assert cgroup_quota_cpus(str(tmp_path)) is None

    def test_v2_fractional_floors_at_one(self, tmp_path):
        (tmp_path / "cpu.max").write_text("50000 100000\n")
        assert cgroup_quota_cpus(str(tmp_path)) == 1

    def test_v1_limited(self, tmp_path):
        cpu = tmp_path / "cpu"
        cpu.mkdir()
        (cpu / "cpu.cfs_quota_us").write_text("250000\n")
        (cpu / "cpu.cfs_period_us").write_text("100000\n")
        assert cgroup_quota_cpus(str(tmp_path)) == 3  # ceil(2.5)

    def test_v1_unlimited(self, tmp_path):
        cpu = tmp_path / "cpu"
        cpu.mkdir()
        (cpu / "cpu.cfs_quota_us").write_text("-1\n")
        (cpu / "cpu.cfs_period_us").write_text("100000\n")
        assert cgroup_quota_cpus(str(tmp_path)) is None

    def test_no_cgroup_files(self, tmp_path):
        assert cgroup_quota_cpus(str(tmp_path)) is None

    def test_v2_beats_v1(self, tmp_path):
        # A v2 "unlimited" must not fall through to a stale v1 quota.
        (tmp_path / "cpu.max").write_text("max 100000\n")
        cpu = tmp_path / "cpu"
        cpu.mkdir()
        (cpu / "cpu.cfs_quota_us").write_text("100000\n")
        (cpu / "cpu.cfs_period_us").write_text("100000\n")
        assert cgroup_quota_cpus(str(tmp_path)) is None


class TestCallers:
    def test_thread_runtime_defaults_to_affinity(self):
        assert RealThreadRuntime(None).n_procs == available_cpus()
        assert RealThreadRuntime(0).n_procs == available_cpus()

    def test_thread_runtime_explicit_wins(self):
        assert RealThreadRuntime(3).n_procs == 3

    def test_inference_engine_defaults_to_affinity(self, small_f2):
        from repro.classify.engine import InferenceEngine
        from repro.core.builder import build_classifier

        tree = build_classifier(small_f2, algorithm="serial").tree
        engine = InferenceEngine(tree, n_workers=0)
        assert engine.n_workers == available_cpus()
        engine.close()

    def test_shard_default_is_affinity(self, small_f2):
        from repro.core.builder import build_classifier
        from repro.shard.pool import shutdown_pools

        res = build_classifier(small_f2, runtime="procs")
        assert res.shard.shards == available_cpus()
        shutdown_pools()
