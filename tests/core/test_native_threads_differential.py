"""End-to-end thread-count differential: bit-identical trees and votes.

The in-kernel pool must be invisible in every result: a build with
``REPRO_NATIVE_THREADS=4`` has to produce *exactly* the tree a numpy
serial build produces, for every scheme, and a forest has to vote the
same classes at any lane count.  The training kernels are
single-threaded, so the build half pins that the lane setting leaves
them alone; the forest half runs the pool-parallel vote over enough
rows to span many pool blocks.

Thread counts are driven through the ``REPRO_NATIVE_THREADS``
environment variable (the spelling operators use); the CLI-override
precedence is covered in ``tests/sprint/test_native_threads.py``.
"""

import numpy as np
import pytest

from repro._native import cc, pool
from repro.classify.forest import compile_forest
from repro.classify.treegen import random_columns, random_schema, random_tree
from repro.core.builder import build_classifier
from repro.data.generator import DatasetSpec, generate_dataset
from repro.smp.machine import machine_b
from repro.sprint import native

pytestmark = pytest.mark.skipif(
    not native.native_available(),
    reason="no C compiler / native kernels unavailable",
)

SCHEMES = ("serial", "basic", "fwk", "mwk", "subtree", "recordpar")
THREADS = (1, 2, 4)


@pytest.fixture(scope="module")
def dataset():
    # 40k records: large enough that the native kernels, not numpy's
    # small-input fallbacks, do the root-level work.
    return generate_dataset(
        DatasetSpec(function=2, n_attributes=9, n_records=40_000, seed=3)
    )


@pytest.fixture(scope="module")
def numpy_reference(dataset):
    with cc.native_override("off"):
        return build_classifier(dataset, algorithm="serial").tree.signature()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_trees_bit_identical_across_thread_counts(
    dataset, numpy_reference, scheme, monkeypatch
):
    for n_threads in THREADS:
        monkeypatch.setenv("REPRO_NATIVE_THREADS", str(n_threads))
        with pool.thread_override(None), cc.native_override("on"):
            result = build_classifier(
                dataset,
                algorithm=scheme,
                machine=machine_b(2),
                n_procs=2,
            )
        assert result.tree.signature() == numpy_reference, (
            f"native {scheme} with REPRO_NATIVE_THREADS={n_threads} "
            f"diverged from the numpy serial reference"
        )


def test_forest_votes_bit_identical_across_thread_counts(monkeypatch):
    rng = np.random.default_rng(7)
    schema = random_schema(rng)
    forest = compile_forest(
        [
            random_tree(schema, max_depth=8, seed=100 + i, leaf_prob=0.25)
            for i in range(32)
        ]
    )
    columns = random_columns(schema, 70_000, seed=5, wild=True)
    with cc.native_override("off"):
        ref = forest.predict(columns)
    for n_threads in THREADS:
        monkeypatch.setenv("REPRO_NATIVE_THREADS", str(n_threads))
        with pool.thread_override(None), cc.native_override("on"):
            got = forest.predict(columns)
        np.testing.assert_array_equal(ref, got)
