"""Process-wide persistent pthreads worker pool for the native kernels.

The paper's whole argument is shared-memory parallelism, yet a C kernel
called through ctypes runs on one core no matter how many Python
threads surround it — the GIL is released, but the *work* is serial.
This module embeds the parallelism inside the compiled code: one
pthreads pool per process, driving a ``repro_parallel_for`` primitive
with static blocking.  It serves the inference kernels (single-tree
routing and the fused forest vote); the training kernels are
single-threaded.

Design notes
------------

* **Its own ``.so``.**  The pool lives in its own shared object
  compiled with ``-pthread`` and loaded with ``RTLD_GLOBAL`` so its
  symbols (``repro_parallel_for`` & co.) are visible to every kernel
  library loaded afterwards.  The kernel sources just declare the
  externs; the dynamic linker binds them at ``dlopen`` time.  If the
  pool fails to build or load, the inference module falls back to its
  single-threaded source — native stays available, just serial.

* **Lazy spawn, persistent helpers.**  No thread is created until the
  first parallel region actually fans out (``blocks >= 2``).  Helpers
  are detached and park on a condition variable between regions, so a
  region dispatch is a mutex + broadcast, not a thread spawn.

* **Static blocking, dynamic claiming.**  Callers plan a block count
  with ``repro_pool_blocks(n, grain)`` (≤ configured lanes) and the
  region runs exactly that decomposition: block ``b`` covers rows
  ``[b*chunk, min((b+1)*chunk, n))``.  *Which thread* runs a block is
  dynamic (first-come claiming), but the block boundaries — and
  therefore any per-block partial results — are a pure function of
  ``(n, blocks)``.  Determinism comes from merging partials in block
  order, never from scheduling.

* **Regions serialize.**  Two Python threads that hit a parallel kernel
  simultaneously queue: one region owns the pool at a time.  Kernels
  are short (milliseconds) and the alternative — per-region job arrays
  — buys nothing on the pool sizes we target.

* **Fork safety.**  A ``pthread_atfork`` child handler re-initializes
  the mutex/condvars and forgets the (nonexistent-in-the-child) helper
  threads, so a forked worker lazily respawns its own pool instead of
  deadlocking on phantom threads.

Thread-count resolution, strongest first: the CLI's ``--native-threads``
override installed via :func:`set_thread_override`, then the
``REPRO_NATIVE_THREADS`` environment variable, then
:func:`repro.smp.cpus.available_cpus` (affinity mask capped by the
cgroup cpu quota).  The environment is re-read on every :func:`sync`,
so tests and benchmarks can flip thread counts mid-process.
"""

from __future__ import annotations

import contextlib
import ctypes
import threading
from typing import Dict, Iterator, Optional

from repro._native import cc
from repro.smp.cpus import available_cpus, env_thread_override

#: Extra compiler flags for the pool object (kernel ``.so``s only
#: *reference* the pool symbols and need nothing special).
POOL_CFLAGS = ("-pthread",)

#: Extern declarations spliced into kernel sources that call the pool.
POOL_DECLS = r"""
#include <stdint.h>

typedef void (*repro_task_fn)(void *ctx, int64_t start, int64_t end,
                              int block);
extern void repro_parallel_for(int64_t n, int blocks, repro_task_fn fn,
                               void *ctx);
extern int repro_pool_blocks(int64_t n, int64_t grain);
extern int repro_pool_threads(void);
"""

POOL_SOURCE = r"""
/* Persistent process-wide worker pool: one mutex, two condvars, lazy
 * detached helpers.  Lane 0 of every region is the calling thread, so
 * a 1-lane pool never touches a lock beyond the counters. */
#include <pthread.h>
#include <stdint.h>

typedef void (*repro_task_fn)(void *ctx, int64_t start, int64_t end,
                              int block);

static pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t cv_go = PTHREAD_COND_INITIALIZER;   /* job published */
static pthread_cond_t cv_done = PTHREAD_COND_INITIALIZER; /* job finished */

static int target = 1;       /* lanes, including the calling thread */
static int spawned = 0;      /* helper threads alive */
static uint64_t seq = 0;     /* job generation */
static int64_t tasks = 0;    /* completed parallel regions */

static int job_active = 0;   /* a region owns the pool */
static repro_task_fn job_fn;
static void *job_ctx;
static int64_t job_n, job_chunk;
static int job_blocks, job_next, job_pending;

/* Claim and run blocks of the current job; mu held on entry and exit.
 * Block boundaries depend only on (job_n, job_blocks) — claiming order
 * never changes what any block computes. */
static void run_blocks(void) {
    while (job_next < job_blocks) {
        int b = job_next++;
        int64_t start = (int64_t)b * job_chunk;
        int64_t end = start + job_chunk;
        if (end > job_n)
            end = job_n;
        pthread_mutex_unlock(&mu);
        job_fn(job_ctx, start, end, b);
        pthread_mutex_lock(&mu);
        if (--job_pending == 0)
            pthread_cond_broadcast(&cv_done);
    }
}

static void *worker_main(void *arg) {
    uint64_t seen = (uint64_t)(uintptr_t)arg;
    pthread_mutex_lock(&mu);
    for (;;) {
        while (seq == seen)
            pthread_cond_wait(&cv_go, &mu);
        seen = seq;
        run_blocks();
    }
    return 0; /* unreachable: helpers live for the process */
}

void repro_pool_configure(int n) {
    if (n < 1)
        n = 1;
    pthread_mutex_lock(&mu);
    target = n;
    pthread_mutex_unlock(&mu);
}

int repro_pool_threads(void) {
    int n;
    pthread_mutex_lock(&mu);
    n = target;
    pthread_mutex_unlock(&mu);
    return n;
}

int repro_pool_spawned(void) {
    int n;
    pthread_mutex_lock(&mu);
    n = spawned;
    pthread_mutex_unlock(&mu);
    return n;
}

int64_t repro_pool_tasks_total(void) {
    int64_t n;
    pthread_mutex_lock(&mu);
    n = tasks;
    pthread_mutex_unlock(&mu);
    return n;
}

/* The block count repro_parallel_for should be given for n items at
 * the requested grain: ceil(n / grain) capped by the configured lanes.
 * Callers size per-block scratch from this, then pass it back down so
 * plan and execution can never disagree. */
int repro_pool_blocks(int64_t n, int64_t grain) {
    int64_t blocks;
    int lanes;
    if (n <= 0)
        return 0;
    if (grain < 1)
        grain = 1;
    pthread_mutex_lock(&mu);
    lanes = target;
    pthread_mutex_unlock(&mu);
    blocks = (n + grain - 1) / grain;
    if (blocks > lanes)
        blocks = lanes;
    if (blocks < 1)
        blocks = 1;
    return (int)blocks;
}

void repro_parallel_for(int64_t n, int blocks, repro_task_fn fn,
                        void *ctx) {
    if (n <= 0)
        return;
    if (blocks < 1)
        blocks = 1;
    if ((int64_t)blocks > n)
        blocks = (int)n;
    if (blocks == 1) { /* inline: no publish, no wakeup */
        fn(ctx, 0, n, 0);
        pthread_mutex_lock(&mu);
        tasks++;
        pthread_mutex_unlock(&mu);
        return;
    }
    pthread_mutex_lock(&mu);
    while (job_active) /* one region at a time */
        pthread_cond_wait(&cv_done, &mu);
    job_active = 1;
    while (spawned < blocks - 1) { /* lazy helper spawn */
        pthread_t tid;
        pthread_attr_t attr;
        if (pthread_attr_init(&attr) != 0)
            break;
        pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
        if (pthread_create(&tid, &attr, worker_main,
                           (void *)(uintptr_t)seq) != 0) {
            pthread_attr_destroy(&attr);
            break; /* can't spawn: run with whatever we have */
        }
        pthread_attr_destroy(&attr);
        spawned++;
    }
    job_fn = fn;
    job_ctx = ctx;
    job_n = n;
    job_chunk = (n + blocks - 1) / blocks;
    job_blocks = blocks;
    job_next = 0;
    job_pending = blocks;
    seq++;
    tasks++;
    pthread_cond_broadcast(&cv_go);
    run_blocks(); /* the caller is lane 0 */
    while (job_pending > 0)
        pthread_cond_wait(&cv_done, &mu);
    job_active = 0;
    pthread_cond_broadcast(&cv_done); /* admit a queued region */
    pthread_mutex_unlock(&mu);
}

/* After fork the helper threads don't exist in the child; reset so the
 * child lazily respawns instead of waiting on phantom lanes. */
static void pool_atfork_child(void) {
    pthread_mutex_init(&mu, 0);
    pthread_cond_init(&cv_go, 0);
    pthread_cond_init(&cv_done, 0);
    spawned = 0;
    job_active = 0;
    job_blocks = 0;
    job_next = 0;
    job_pending = 0;
    seq = 0;
}

__attribute__((constructor)) static void pool_ctor(void) {
    pthread_atfork(0, 0, pool_atfork_child);
}
"""

_lock = threading.Lock()
_lib: Optional[ctypes.CDLL] = None
_probed = False
_override: Optional[int] = None  # CLI --native-threads
_synced = -1  # last lane count pushed into the C side


def load() -> Optional[ctypes.CDLL]:
    """Compile (once) and load the pool with ``RTLD_GLOBAL``.

    Returns None on any failure — no compiler, no pthreads, unloadable
    object — and memoizes the outcome; kernel modules then compile
    their single-threaded sources instead.
    """
    global _lib, _probed
    if _probed:
        return _lib
    with _lock:
        if _probed:
            return _lib
        _lib = _load_uncached()
        _probed = True
        return _lib


def _load_uncached() -> Optional[ctypes.CDLL]:
    path = cc.compile_cached(POOL_SOURCE, "pool", extra_flags=POOL_CFLAGS)
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(path, mode=ctypes.RTLD_GLOBAL)
    except OSError:
        return None
    lib.repro_pool_configure.argtypes = [ctypes.c_int]
    lib.repro_pool_configure.restype = None
    lib.repro_pool_threads.argtypes = []
    lib.repro_pool_threads.restype = ctypes.c_int
    lib.repro_pool_spawned.argtypes = []
    lib.repro_pool_spawned.restype = ctypes.c_int
    lib.repro_pool_tasks_total.argtypes = []
    lib.repro_pool_tasks_total.restype = ctypes.c_int64
    lib.repro_pool_blocks.argtypes = [ctypes.c_int64, ctypes.c_int64]
    lib.repro_pool_blocks.restype = ctypes.c_int
    return lib


def set_thread_override(n: Optional[int]) -> None:
    """Install the process-wide lane override (``--native-threads``).

    Positive integers win over ``REPRO_NATIVE_THREADS`` and the CPU
    probe; ``None`` or ``0`` restores environment control.
    """
    global _override, _synced
    with _lock:
        _override = n if n and n > 0 else None
        _synced = -1  # force a reconfigure on the next sync


def get_thread_override() -> Optional[int]:
    """The current CLI override, or None (environment control)."""
    return _override


@contextlib.contextmanager
def thread_override(n: Optional[int]) -> Iterator[None]:
    """Scoped :func:`set_thread_override` for tests and benchmarks."""
    previous = get_thread_override()
    set_thread_override(n)
    try:
        yield
    finally:
        set_thread_override(previous)


def configured_threads() -> int:
    """Lanes the pool should run with right now (>= 1).

    CLI override > ``REPRO_NATIVE_THREADS`` > :func:`available_cpus`
    (the env variable is consulted inside ``available_cpus`` too, so
    both spellings agree).
    """
    override = _override
    if override is not None:
        return override
    return env_thread_override() or available_cpus()


def sync() -> int:
    """Load the pool and push the current lane count; return the lanes.

    Returns 0 when the pool is unavailable (callers use their serial
    kernels).  Called on every parallel-kernel dispatch: the reconfigure
    is skipped unless the resolved count changed, so the steady-state
    cost is one env read and an integer compare.
    """
    global _synced
    lib = load()
    if lib is None:
        return 0
    n = configured_threads()
    if n != _synced:
        with _lock:
            if n != _synced:
                lib.repro_pool_configure(n)
                _synced = n
    return n


def stats() -> Dict[str, int]:
    """Pool observability snapshot; never triggers a compile.

    ``loaded`` is 0 until some kernel actually initialized the pool, so
    a telemetry scrape on a numpy-only process stays cheap.
    """
    lib = _lib
    if lib is None:
        return {"loaded": 0, "threads": 0, "spawned": 0, "tasks_total": 0}
    return {
        "loaded": 1,
        "threads": int(lib.repro_pool_threads()),
        "spawned": int(lib.repro_pool_spawned()),
        "tasks_total": int(lib.repro_pool_tasks_total()),
    }
