"""Gate behaviour tests for benchmarks/check_regression.py."""

import copy
import json
import os
import sys

import pytest

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks",
)
sys.path.insert(0, BENCH_DIR)
import check_regression  # noqa: E402
import suite  # noqa: E402

sys.path.pop(0)

REPO_ROOT = os.path.dirname(BENCH_DIR)


def baseline(name):
    with open(os.path.join(REPO_ROOT, name)) as handle:
        return json.load(handle)


def run(argv):
    return check_regression.main(argv)


def scale_speedup(row, factor):
    """Scale a kernels row's speedup, keeping it consistent with timings."""
    row["after_s"] /= factor
    row["speedup"] = row["before_s"] / row["after_s"]


class TestSelfCheck:
    def test_committed_baselines_pass(self, capsys):
        assert run([]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out
        for name in (
            "BENCH_kernels.json", "BENCH_wallclock.json",
            "BENCH_predict.json", "BENCH_build_native.json",
            "BENCH_shard.json",
        ):
            assert name in out

    def test_every_committed_doc_maps_to_one_suite(self):
        import glob

        owners = {}
        for path in glob.glob(os.path.join(BENCH_DIR, "bench_*.py")):
            with open(path) as handle:
                if "\nSUITE = Suite(" not in handle.read():
                    continue
            name = os.path.basename(path)[len("bench_"):-len(".py")]
            owner = suite.for_document(f"BENCH_{name}.json")
            owners.setdefault(owner.schema, []).append(name)
        docs = glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json"))
        assert docs
        for path in docs:
            name = os.path.basename(path)
            schema = baseline(name).get("schema")
            assert owners.get(schema) == [suite.for_document(name).name], (
                f"{name} declares {schema!r}, owned by {owners.get(schema)}"
            )

    def test_orphaned_document_fails(self, tmp_path, capsys):
        (tmp_path / "BENCH_nosuch.json").write_text(
            json.dumps(baseline("BENCH_kernels.json"))
        )
        assert run(["--current", str(tmp_path)]) == 1
        assert "orphaned" in capsys.readouterr().out


class TestDegradations:
    def degrade(self, tmp_path, name, mutate):
        doc = copy.deepcopy(baseline(name))
        mutate(doc)
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(tmp_path)

    def test_halved_speedup_fails(self, tmp_path, capsys):
        current = self.degrade(
            tmp_path, "BENCH_kernels.json",
            lambda d: scale_speedup(d["results"][0], 0.5),
        )
        assert run(["--current", current]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "speedup" in out

    def test_small_wobble_passes(self, tmp_path):
        def mutate(doc):
            for row in doc["results"]:
                scale_speedup(row, 0.9)  # inside the 25% band

        current = self.degrade(tmp_path, "BENCH_kernels.json", mutate)
        assert run(["--current", current]) == 0

    def test_tolerance_flag_tightens_the_band(self, tmp_path):
        def mutate(doc):
            scale_speedup(doc["results"][0], 0.9)

        current = self.degrade(tmp_path, "BENCH_kernels.json", mutate)
        assert run(["--current", current]) == 0
        assert run(["--current", current, "--tolerance", "0.05"]) == 1

    def test_slower_build_fails(self, tmp_path):
        def mutate(doc):
            # Every build of one series: its speedups stay consistent.
            first = doc["results"][0]
            for row in doc["results"]:
                if all(row[k] == first[k]
                       for k in ("dataset", "mode", "scheme")):
                    row["build_s"] *= 2.0

        current = self.degrade(tmp_path, "BENCH_wallclock.json", mutate)
        assert run(["--current", current]) == 1

    def test_correctness_flag_is_zero_tolerance(self, tmp_path, capsys):
        def mutate(doc):
            doc["summary"]["all_outputs_match_oracle"] = False

        current = self.degrade(tmp_path, "BENCH_predict.json", mutate)
        assert run(["--current", current]) == 1
        assert "zero tolerance" in capsys.readouterr().out

    def test_tree_match_regression_in_nested_table(self, tmp_path):
        def mutate(doc):
            doc["results"]["builds"][0]["tree_matches"] = False

        current = self.degrade(tmp_path, "BENCH_build_native.json", mutate)
        assert run(["--current", current]) == 1

    def test_shard_exact_tree_regression_fails(self, tmp_path):
        def mutate(doc):
            for row in doc["results"]:
                if row["merge"] == "exact":
                    row["tree_matches_serial"] = False
                    break

        current = self.degrade(tmp_path, "BENCH_shard.json", mutate)
        assert run(["--current", current]) == 1

    def test_shard_traffic_regression_fails(self, tmp_path):
        def mutate(doc):
            doc["results"][0]["bytes_total"] *= 3

        current = self.degrade(tmp_path, "BENCH_shard.json", mutate)
        assert run(["--current", current]) == 1

    def test_stable_only_ignores_timing_regressions(self, tmp_path):
        def mutate(doc):
            # 100x slower multi-shard builds, speedups consistent.
            for row in doc["results"]:
                if row["shards"] > 1:
                    row["build_s"] *= 100
                    row["speedup"] /= 100

        current = self.degrade(tmp_path, "BENCH_shard.json", mutate)
        assert run(["--current", current, "--stable-only"]) == 0
        assert run(["--current", current]) == 1

    def test_stable_only_still_blocks_correctness(self, tmp_path, capsys):
        def mutate(doc):
            doc["summary"]["all_exact_trees_match"] = False

        current = self.degrade(tmp_path, "BENCH_shard.json", mutate)
        assert run(["--current", current, "--stable-only"]) == 1
        assert "zero tolerance" in capsys.readouterr().out

    def test_report_only_reports_but_exits_zero(self, tmp_path, capsys):
        def mutate(doc):
            doc["results"][0]["speedup"] = 0.01

        current = self.degrade(tmp_path, "BENCH_kernels.json", mutate)
        assert run(["--current", current, "--report-only"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" in out and "report-only" in out

    def test_missing_rows_noted_not_failed(self, tmp_path, capsys):
        def mutate(doc):
            doc["results"] = doc["results"][:10]

        current = self.degrade(tmp_path, "BENCH_kernels.json", mutate)
        assert run(["--current", current]) == 0
        assert "baseline row(s) missing" in capsys.readouterr().out

    def test_schema_mismatch_fails(self, tmp_path, capsys):
        def mutate(doc):
            doc["schema"] = "bench_predict/1"

        current = self.degrade(tmp_path, "BENCH_kernels.json", mutate)
        assert run(["--current", current]) == 1
        assert "schema mismatch" in capsys.readouterr().out

    def test_single_file_current(self, tmp_path):
        def mutate(doc):
            scale_speedup(doc["results"][0], 0.5)

        current = self.degrade(tmp_path, "BENCH_kernels.json", mutate)
        path = os.path.join(current, "BENCH_kernels.json")
        assert run(["--current", path]) == 1

    def test_invalid_document_fails_even_without_regression(
        self, tmp_path, capsys
    ):
        def mutate(doc):
            # A better, but inconsistent, speedup: no metric regressed.
            doc["results"][0]["speedup"] *= 1.1

        current = self.degrade(tmp_path, "BENCH_kernels.json", mutate)
        assert run(["--current", current]) == 1
        out = capsys.readouterr().out
        assert "invalid document" in out and "0 regression(s)" in out


class TestCompare:
    def test_higher_better_band(self):
        assert check_regression._compare("higher", 2.0, 1.6, 0.25)[0]
        assert not check_regression._compare("higher", 2.0, 1.4, 0.25)[0]
        assert check_regression._compare("higher", 2.0, 3.0, 0.25)[0]

    def test_lower_better_band(self):
        assert check_regression._compare("lower", 1.0, 1.2, 0.25)[0]
        assert not check_regression._compare("lower", 1.0, 1.3, 0.25)[0]
        assert check_regression._compare("lower", 1.0, 0.5, 0.25)[0]

    def test_bool_only_fails_true_to_false(self):
        assert not check_regression._compare("bool", True, False, 0.25)[0]
        assert check_regression._compare("bool", True, True, 0.25)[0]
        assert check_regression._compare("bool", False, True, 0.25)[0]
        assert check_regression._compare("bool", False, False, 0.25)[0]

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown metric kind"):
            check_regression._compare("sideways", 1.0, 1.0, 0.25)
