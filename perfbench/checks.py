"""Output checks shared by the workloads: pure functions, no I/O.

Every timed operation is checked; a check that fails counts the
operation as failed.  A run whose native kernels did not load, or that
silently fell back to the numpy kernels, measured a different program
and counts every operation as failed.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

#: Kernels and backends published by ``repro._native.stats``.
KERNELS = ("continuous_splits", "categorical_counts", "partition",
           "membership", "route", "vote")
BACKENDS = ("native", "numpy")


def same_tree(tree, reference_signature: tuple) -> bool:
    """Node-for-node equality with the reference build."""
    return tree.signature() == reference_signature


def reply_ok(line: bytes, expected_class: int) -> bool:
    """A serve reply is correct iff it is a success reply for the class
    the oracle predicts."""
    try:
        doc = json.loads(line)
    except ValueError:
        return False
    return (
        isinstance(doc, dict)
        and "error" not in doc
        and doc.get("class_index") == expected_class
    )


def accounting_errors(models_doc: Mapping, sent: int) -> List[str]:
    """Check the registry's exact accounting after a serve run.

    Every request sent must have arrived, and arrivals must split
    exactly into admitted + shed + rejected, with nothing shed.
    """
    errors = []
    models = models_doc.get("models") or []
    if len(models) != 1:
        return [f"expected one served model, /models lists {len(models)}"]
    acct = models[0]
    arrivals = acct.get("arrivals")
    parts = [acct.get(k) for k in ("admitted", "shed", "rejected")]
    if None in parts or arrivals is None:
        return [f"/models lacks accounting: {dict(acct)}"]
    if arrivals != sum(parts):
        errors.append(
            f"arrivals {arrivals} != admitted + shed + rejected {parts}"
        )
    if acct["shed"]:
        errors.append(f"{acct['shed']} request(s) shed")
    if arrivals != sent:
        errors.append(f"sent {sent} request(s) but {arrivals} arrived")
    return errors


def native_errors(host: Mapping) -> List[str]:
    """Reasons the native backend is not the one being measured."""
    return [
        f"native {part} not loaded"
        for part in ("training_kernels", "inference_kernel", "pool")
        if not host.get("native", {}).get(part)
    ]


def kernel_deltas(
    before: Mapping[Tuple[str, str], Tuple[int, int]],
    after: Mapping[Tuple[str, str], Tuple[int, int]],
) -> Dict[Tuple[str, str], Tuple[int, int]]:
    """``(kernel, backend) -> (calls, rows)`` counted between snapshots."""
    out = {}
    for key, (calls, rows) in after.items():
        c0, r0 = before.get(key, (0, 0))
        out[key] = (calls - c0, rows - r0)
    return out


def fallback_errors(deltas: Mapping[Tuple[str, str], Tuple[int, int]]) -> List[str]:
    """Any numpy kernel rows mean the native path silently fell back."""
    return [
        f"kernel {kernel} ran {rows} row(s) on numpy"
        for (kernel, backend), (_calls, rows) in sorted(deltas.items())
        if backend == "numpy" and rows > 0
    ]


def parse_prometheus(text: str) -> Dict[str, float]:
    """``'name{labels}' -> value`` for every sample line."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        try:
            out[key] = float(value)
        except ValueError:
            continue
    return out


def prom_sum(samples: Mapping[str, float], name: str,
             must_contain: Iterable[str] = ()) -> float:
    """Sum of every sample of metric ``name`` whose labels contain all
    of ``must_contain`` (e.g. ``'backend="native"'``)."""
    total = 0.0
    for key, value in samples.items():
        base = key.split("{", 1)[0]
        if base == name and all(part in key for part in must_contain):
            total += value
    return total


def prom_kernel_counts(
    samples: Mapping[str, float],
) -> Dict[Tuple[str, str], Tuple[int, int]]:
    """The kernel traffic counters a ``/metrics`` scrape publishes."""
    out = {}
    for kernel in KERNELS:
        for backend in BACKENDS:
            labels = (f'kernel="{kernel}"', f'backend="{backend}"')
            calls = prom_sum(samples, "kernel_calls_total", labels)
            rows = prom_sum(samples, "kernel_rows_total", labels)
            if calls or rows:
                out[(kernel, backend)] = (int(calls), int(rows))
    return out


def quantile(values: List[float], q: float) -> Optional[float]:
    """Linear-interpolation quantile of ``values`` (None when empty)."""
    if not values:
        return None
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
