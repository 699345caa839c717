"""Per-layer spans recorded from outside the program.

The traced run wraps public functions at the site the program calls
them from (a module attribute or a class method) and restores them
afterwards.  Each call is one span; a span's self time is its duration
minus the time covered by wrapped calls nested inside it on the same
thread, so the self times of all layers never overlap and can be
subtracted from the wall clock.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List

#: Build layers: (owner module or class path, attribute, layer name).
#: Each owner is the place the program looks the function up at call
#: time, so patching it there catches every call.
BUILD_LAYERS = (
    ("repro.core.builder", "write_root_segments",
     "core.builder.write_root_segments"),
    ("repro.core.context", "segmented_continuous_splits",
     "sprint.kernels.segmented_continuous_splits"),
    ("repro.core.context", "segmented_categorical_splits",
     "sprint.kernels.segmented_categorical_splits"),
    ("repro.sprint.kernels", "best_categorical_split_from_counts",
     "sprint.gini.best_categorical_split_from_counts"),
    ("repro.sprint.gini", "best_categorical_split_from_counts",
     "sprint.gini.best_categorical_split_from_counts"),
    ("repro.core.context:BuildContext", "winner_phase",
     "core.context.winner_phase"),
    ("repro.core.context:BuildContext", "split_attribute_level",
     "core.context.split_attribute_level"),
    ("repro.core.context", "partition_stable",
     "sprint.kernels.partition_stable"),
)

#: Serving layers, timed inside the server process by the launcher.
SERVE_LAYERS = (
    ("repro.serve.protocol", "parse_request", "serve.protocol.parse_request"),
    ("repro.serve.registry:ModelRegistry", "submit", "serve.registry.submit"),
    ("repro.classify.compiled:CompiledTree", "predict",
     "classify.compiled.predict"),
    ("repro.serve.protocol", "success_reply", "serve.protocol.success_reply"),
)

#: The forest's vectorized predict, timed in the forest workload.
FOREST_LAYERS = (
    ("repro.classify.forest:CompiledForest", "predict",
     "classify.forest.predict"),
)

SYNC_WAIT = "smp.threads.sync_wait"


def resolve(owner: str):
    """``"pkg.mod"`` -> module, ``"pkg.mod:Class"`` -> class."""
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """Thread-safe span recorder: per-layer calls, total and self time."""

    def __init__(self, keep_samples: bool = False) -> None:
        self.keep_samples = keep_samples
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list = []

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with one span per call recorded under ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)  # time covered by nested spans
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += duration
                with self._lock:
                    self.calls[name] += 1
                    self.total_s[name] += duration
                    self.self_s[name] += duration - nested
                    if self.keep_samples:
                        self.samples[name].append(duration)

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, original))
        self._patches.append((owner, attr, original))

    def install(self, layers) -> None:
        for owner, attr, name in layers:
            self.patch(resolve(owner), attr, name)

    def install_sync_waits(self) -> None:
        """Time ``wait``/``acquire`` on every lock, barrier and condition
        the real-thread runtime hands out."""
        from repro.smp.threads import RealThreadRuntime

        def factory(make, method):
            def make_traced(runtime, *args, **kwargs):
                obj = make(runtime, *args, **kwargs)
                setattr(obj, method, self.wrap(SYNC_WAIT, getattr(obj, method)))
                return obj

            return make_traced

        for make, method in (("make_lock", "acquire"),
                             ("make_barrier", "wait"),
                             ("make_condition", "wait")):
            original = RealThreadRuntime.__dict__[make]
            setattr(RealThreadRuntime, make, factory(original, method))
            self._patches.append((RealThreadRuntime, make, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        with self._lock:
            for table in (self.calls, self.total_s, self.self_s, self.samples):
                table.clear()
