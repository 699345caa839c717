"""CPU availability for pool sizing.

Every place a pool of workers is sized — the threads runtime's daemon
pool, the inference engine, the sharded process pool, the in-kernel
native thread pool — must respect what the scheduler will actually give
the process, not the machine's raw core count.  Three signals feed in,
strongest first:

1. ``REPRO_NATIVE_THREADS``: an explicit operator override.  A positive
   integer wins over everything (it may deliberately oversubscribe);
   zero, negative, or garbage values are ignored.
2. The affinity mask (``os.sched_getaffinity``): inside a container
   pinned to a cpuset, ``os.cpu_count()`` still reports the host's
   cores and oversubscribing them just adds context-switch churn.
3. The cgroup cpu *quota* (v2 ``cpu.max`` or v1 ``cfs_quota_us``/
   ``cfs_period_us``): a container limited to e.g. ``150000/100000``
   may see 64 CPUs in its affinity mask but only ever gets 1.5 cores of
   runtime — sizing pools to the mask throttles every worker.  The cap
   is ``ceil(quota / period)``, floored at 1.
"""

from __future__ import annotations

import math
import os
from typing import Optional

#: Positive integers here override every inferred CPU count.
ENV_THREADS = "REPRO_NATIVE_THREADS"

#: Default cgroup mount point (parametrized for tests).
CGROUP_ROOT = "/sys/fs/cgroup"

#: Lazily-computed quota cap (files don't change within a process);
#: ``-1`` means "not read yet", ``0`` means "no quota".
_quota_cache = -1


def env_thread_override(environ=os.environ) -> Optional[int]:
    """The ``REPRO_NATIVE_THREADS`` override, or None when unset/invalid."""
    raw = environ.get(ENV_THREADS)
    if not raw:
        return None
    try:
        n = int(raw)
    except ValueError:
        return None
    return n if n > 0 else None


def _affinity_cpus() -> int:
    """CPUs in the scheduler affinity mask (raw core count elsewhere)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def cgroup_quota_cpus(root: str = CGROUP_ROOT) -> Optional[int]:
    """CPU cap implied by the cgroup cpu quota, or None when unlimited.

    Reads cgroup v2 ``cpu.max`` first (``"max 100000"`` means no limit,
    ``"150000 100000"`` means 1.5 CPUs), then the v1
    ``cpu/cpu.cfs_quota_us`` / ``cpu.cfs_period_us`` pair (quota ``-1``
    means no limit).  Returns ``ceil(quota / period)`` floored at 1 so a
    fractional allowance still gets one worker.
    """
    try:
        with open(os.path.join(root, "cpu.max")) as f:
            quota_s, _, period_s = f.read().strip().partition(" ")
        if quota_s != "max":
            quota, period = int(quota_s), int(period_s or "100000")
            if quota > 0 and period > 0:
                return max(1, math.ceil(quota / period))
        return None  # v2 present and unlimited: don't consult v1
    except (OSError, ValueError):
        pass
    try:
        with open(os.path.join(root, "cpu", "cpu.cfs_quota_us")) as f:
            quota = int(f.read().strip())
        if quota <= 0:
            return None
        with open(os.path.join(root, "cpu", "cpu.cfs_period_us")) as f:
            period = int(f.read().strip())
        if period <= 0:
            return None
        return max(1, math.ceil(quota / period))
    except (OSError, ValueError):
        return None


def _quota_cap() -> Optional[int]:
    global _quota_cache
    if _quota_cache < 0:
        _quota_cache = cgroup_quota_cpus() or 0
    return _quota_cache or None


def usable_cpus() -> int:
    """CPUs the scheduler really gives this process (always >= 1).

    The affinity mask, capped by the cgroup cpu quota when one is
    present; ``REPRO_NATIVE_THREADS`` is ignored.  Anything that judges
    the hardware (e.g. whether a benchmark's scaling gate is attainable)
    reads this, not :func:`available_cpus`.
    """
    cpus = _affinity_cpus()
    quota = _quota_cap()
    if quota is not None:
        cpus = min(cpus, quota)
    return max(1, cpus)


def available_cpus() -> int:
    """CPUs this process should size pools for (always >= 1).

    ``REPRO_NATIVE_THREADS`` (positive integer) overrides everything;
    otherwise :func:`usable_cpus`.
    """
    override = env_thread_override()
    if override is not None:
        return override
    return usable_cpus()
