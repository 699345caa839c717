"""The benchmark-suite harness (benchmarks/suite.py) and every declared gate.

Each committed ``BENCH_*.json`` must validate against its suite, and
every gate a suite declares must reject a document that breaks it.
"""

import copy
import glob
import json
import os
import re
import sys

import pytest

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks",
)
REPO_ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import suite  # noqa: E402

sys.path.pop(0)

DOCS = sorted(
    os.path.basename(p) for p in glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json"))
)


def committed(name):
    with open(os.path.join(REPO_ROOT, name)) as handle:
        return json.load(handle)


def _at(doc, path):
    for part in path:
        doc = doc[part]
    return doc


def declared_mutations(owner, doc):
    """``(id, field, mutate)`` for every declared gate of ``owner``.

    Each ``mutate`` must make ``doc`` invalid, with an error naming
    ``field``.
    """
    yield "schema", "schema", lambda d: d.update(schema="bench_other/1")
    for section in owner.sections:
        yield f"drop-{section}", section, lambda d, s=section: d.pop(s)
    for table in owner.tables:
        first = table.rows(doc)[0][0]

        def edit(fn, path=table.path, first=first):
            """``fn(row)`` applied to this table's first row."""
            return lambda d: fn(_at(d, path)[first])

        def setter(name, value):
            return edit(lambda r: r.__setitem__(name, value))

        tag = table.name + "".join(f"[{v}]" for v in table.where.values())
        yield f"{tag}-empty", table.name, (
            lambda d, p=table.path: _at(d, p).clear()
        )
        for name in table.required:
            yield f"{tag}-drop-{name}", name, edit(
                lambda r, n=name: r.pop(n)
            )
        for name in list(table.enums) + list(table.where):
            yield f"{tag}-unknown-{name}", name, setter(name, "__unknown__")
        for name in table.positive:
            yield f"{tag}-nonpositive-{name}", name, setter(name, 0)
        for name, (lo, hi) in table.within.items():
            if lo is not None:
                yield f"{tag}-below-{name}", name, setter(name, lo - 1)
            if hi is not None:
                yield f"{tag}-above-{name}", name, setter(name, hi + 1)
        for ratio in table.ratios:
            yield f"{tag}-inconsistent-{ratio.field}", ratio.field, edit(
                lambda r, f=ratio.field: r.__setitem__(f, r[f] * 1.5 + 1.0)
            )
        for name in table.true:
            yield f"{tag}-false-{name}", name, setter(name, False)
    for name in owner.summary_true:
        yield f"summary-false-{name}", name, (
            lambda d, n=name: d["summary"].__setitem__(n, False)
        )


def _set_speedup(kernel, lanes, value):
    def mutate(doc):
        doc["summary"]["min_speedup"][kernel][lanes] = value
    return mutate


def _serve_single_worker_count(doc):
    for row in doc["results"]:
        row["workers"] = 1


#: Gates that live in a suite's check function: id -> (error text,
#: mutation).
CHECK_MUTATIONS = {
    "BENCH_build_native.json": {
        "continuous-floor": (
            "min_continuous_speedup_64plus",
            lambda d: d["summary"].update(
                native_available=True, min_continuous_speedup_64plus=1.99
            ),
        ),
        "multicore-thread-scaling": (
            "threads_build_speedup",
            lambda d: d["summary"].update(
                multicore_host=True, threads_build_speedup={"2": 1.0}
            ),
        ),
    },
    "BENCH_native_threads.json": {
        "no-usable-cpus": (
            "available_cpus",
            lambda d: d["env"].update(available_cpus=0),
        ),
        "forest-2-lanes": (
            "route.forest", _set_speedup("route.forest", "2", 0.99)
        ),
        "predict-2-lanes": (
            "route.predict", _set_speedup("route.predict", "2", 0.99)
        ),
        "forest-4-lanes-on-4-cpus": (
            "with 4 usable CPUs",
            lambda d: (
                d["env"].update(available_cpus=4),
                _set_speedup("route.forest", "4", 1.99)(d),
            ),
        ),
    },
    "BENCH_serve.json": {
        "p50-above-p99": (
            "p50 > p99",
            lambda d: d["results"][0].update(
                p50_s=d["results"][0]["p99_s"] * 2
            ),
        ),
        "one-worker-count": ("worker counts", _serve_single_worker_count),
        "mode-missing": (
            "modes",
            lambda d: d.update(
                results=[r for r in d["results"] if r["mode"] != "open"]
            ),
        ),
    },
}


def _cases():
    for name in DOCS:
        owner = suite.for_document(name)
        doc = committed(name)
        for mid, text, mutate in declared_mutations(owner, doc):
            yield pytest.param(name, text, mutate, id=f"{owner.name}-{mid}")
        for mid, (text, mutate) in CHECK_MUTATIONS.get(name, {}).items():
            yield pytest.param(
                name, text, mutate, id=f"{owner.name}-check-{mid}"
            )


@pytest.mark.parametrize("name", DOCS)
def test_committed_doc_validates(name):
    suite.for_document(name).validate(committed(name))


@pytest.mark.parametrize("name,text,mutate", list(_cases()))
def test_gate_rejects_its_mutation(name, text, mutate):
    doc = copy.deepcopy(committed(name))
    mutate(doc)
    with pytest.raises(ValueError, match=re.escape(text)):
        suite.for_document(name).validate(doc)


class TestHostCpus:
    def test_env_records_usable_not_override(self, monkeypatch):
        from repro.smp import cpus

        monkeypatch.setenv("REPRO_NATIVE_THREADS", "4")
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        monkeypatch.setattr(cpus, "_quota_cap", lambda: None)
        assert suite.env()["available_cpus"] == 2

    def test_lane_floor_not_armed_past_usable_cpus(self):
        doc = copy.deepcopy(committed("BENCH_native_threads.json"))
        doc["env"]["available_cpus"] = 2
        doc["summary"]["min_speedup"]["route.forest"]["4"] = 1.51
        suite.for_document("BENCH_native_threads.json").validate(doc)


class TestHarness:
    @staticmethod
    def fake(ok):
        return suite.Suite(
            schema="bench_fake/1",
            run=lambda n: {
                "results": [{"x": n, "t_s": 0.5}],
                "summary": {"ok": ok},
            },
            full={"n": 3},
            quick={"n": 1},
            tables=(suite.Table(key=("x",), required=("x", "t_s"),
                                positive=("t_s",)),),
            summary_true=("ok",),
        )

    def test_failed_gate_prints_report_and_writes_nothing(
        self, tmp_path, capsys
    ):
        out = tmp_path / "BENCH_fake.json"
        assert self.fake(False).main(["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "t_s" in captured.out and "0.5" in captured.out
        assert "summary.ok must be true" in captured.err
        assert not out.exists()

    def test_quick_writes_a_valid_document(self, tmp_path):
        out = tmp_path / "BENCH_fake.json"
        owner = self.fake(True)
        assert owner.main(["--quick", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["config"] == {"n": 1}
        assert doc["env"]["available_cpus"] >= 1
        assert owner.main(["--validate", str(out)]) == 0

    def test_validate_reports_invalid_without_traceback(
        self, tmp_path, capsys
    ):
        path = tmp_path / "BENCH_fake.json"
        path.write_text(json.dumps({"schema": "bench_fake/1"}))
        assert self.fake(True).main(["--validate", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_best_of_returns_best_and_last_output(self):
        calls = []
        best, out = suite.best_of(lambda: calls.append(1) or len(calls), 3)
        assert len(calls) >= 3 and out == len(calls) and best >= 0
