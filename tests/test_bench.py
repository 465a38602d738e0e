"""The benchmark harness: schema, determinism, and the regression gate."""

import copy
import json

import pytest

from repro.bench import (
    EXIT_REGRESSION,
    SCHEMA,
    WORKLOADS,
    compare,
    load_bench,
    run_bench,
    validate,
    write_bench,
)
from repro.cli import main
from repro.errors import ReproError


@pytest.fixture(scope="module")
def quick_doc():
    return run_bench(tag="test", quick=True, seed=0)


class TestRunBench:
    def test_schema_valid(self, quick_doc):
        assert validate(quick_doc) == []
        assert quick_doc["schema"] == SCHEMA
        assert quick_doc["quick"] is True

    def test_quick_is_strict_subset_of_full(self):
        quick_keys = {key for key, spec in WORKLOADS if spec["quick"]}
        all_keys = {key for key, _spec in WORKLOADS}
        assert quick_keys and quick_keys < all_keys

    def test_quick_doc_covers_the_quick_rows(self, quick_doc):
        assert set(quick_doc["workloads"]) == {
            key for key, spec in WORKLOADS if spec["quick"]
        }

    def test_records_are_populated(self, quick_doc):
        for record in quick_doc["workloads"].values():
            assert record["ticks"] > 0
            assert record["total_ops"] > 0
            assert record["queries"] > 0
            assert record["budget"] > 0
            assert 0 < record["peak_buffered_contexts"] <= record["budget"]
            assert record["stage_profile"], "per-stage profile missing"

    def test_totals_sum_the_workloads(self, quick_doc):
        assert quick_doc["totals"]["ticks"] == sum(
            w["ticks"] for w in quick_doc["workloads"].values()
        )

    def test_deterministic_under_fixed_seed(self, quick_doc):
        # Nothing in a document depends on the host: a rerun differs in
        # its tag only.
        again = run_bench(tag="other-tag", quick=True, seed=0)
        assert dict(again, tag=quick_doc["tag"]) == quick_doc


class TestValidate:
    def test_rejects_non_object(self):
        assert validate([]) != []

    def test_rejects_missing_keys(self, quick_doc):
        broken = copy.deepcopy(quick_doc)
        del broken["totals"]
        assert any("totals" in p for p in validate(broken))

    def test_rejects_wrong_schema(self, quick_doc):
        broken = copy.deepcopy(quick_doc)
        broken["schema"] = "something-else/9"
        assert validate(broken) != []

    def test_rejects_non_numeric_metric(self, quick_doc):
        broken = copy.deepcopy(quick_doc)
        key = next(iter(broken["workloads"]))
        broken["workloads"][key]["ticks"] = "fast"
        assert any("ticks" in p for p in validate(broken))

    def test_load_rejects_invalid_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": SCHEMA}))
        with pytest.raises(ReproError, match="bad.json"):
            load_bench(str(path))


class TestCompare:
    def test_self_compare_is_clean(self, quick_doc):
        regressions, lines = compare(quick_doc, quick_doc, threshold=25.0)
        assert regressions == []
        assert lines

    def test_injected_slowdown_detected(self, quick_doc):
        slowed = copy.deepcopy(quick_doc)
        key = next(iter(slowed["workloads"]))
        slowed["workloads"][key]["ticks"] = int(
            quick_doc["workloads"][key]["ticks"] * 2
        )
        regressions, _lines = compare(slowed, quick_doc, threshold=25.0)
        assert [(k, metric) for k, metric, _pct in regressions] \
            == [(key, "ticks")]

    def test_threshold_is_respected(self, quick_doc):
        slowed = copy.deepcopy(quick_doc)
        key = next(iter(slowed["workloads"]))
        slowed["workloads"][key]["ticks"] = int(
            quick_doc["workloads"][key]["ticks"] * 1.2
        )
        clean, _ = compare(slowed, quick_doc, threshold=25.0)
        caught, _ = compare(slowed, quick_doc, threshold=10.0)
        assert clean == []
        assert caught

    def test_quick_run_compares_against_full_baseline(self, quick_doc):
        # A full doc has extra workloads; only the common quick rows gate.
        full = copy.deepcopy(quick_doc)
        full["workloads"]["extra_only_in_full"] = copy.deepcopy(
            next(iter(quick_doc["workloads"].values()))
        )
        regressions, lines = compare(quick_doc, full, threshold=25.0)
        assert regressions == []
        assert not any("extra_only_in_full" in line for line in lines)

    def test_disjoint_docs_flagged(self, quick_doc):
        other = copy.deepcopy(quick_doc)
        other["workloads"] = {
            "different": next(iter(quick_doc["workloads"].values()))
        }
        regressions, _ = compare(quick_doc, other)
        assert regressions


class TestBenchCli:
    def test_round_trip_and_compare_ok(self, tmp_path, capsys, quick_doc):
        baseline = tmp_path / "BENCH_base.json"
        write_bench(quick_doc, str(baseline))
        out_path = tmp_path / "BENCH_new.json"
        code = main([
            "bench", "--quick", "--tag", "new", "--out", str(out_path),
            "--compare", str(baseline), "--threshold", "25",
        ])
        assert code == 0
        assert validate(json.loads(out_path.read_text())) == []
        out = capsys.readouterr().out
        assert "OK: no gated metric regressed" in out

    def test_regression_exits_nonzero(self, tmp_path, capsys, quick_doc):
        # A baseline that claims to have been much faster forces the
        # freshly measured run to look like a regression.
        faster = copy.deepcopy(quick_doc)
        for record in faster["workloads"].values():
            record["ticks"] = max(1, record["ticks"] // 2)
            record["total_ops"] = max(1, record["total_ops"] // 2)
        baseline = tmp_path / "BENCH_fast.json"
        write_bench(faster, str(baseline))
        code = main([
            "bench", "--quick", "--tag", "x",
            "--out", str(tmp_path / "BENCH_x.json"),
            "--compare", str(baseline), "--threshold", "25",
        ])
        assert code == EXIT_REGRESSION
        assert code != 0
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_checked_in_seed_baseline_matches(self, tmp_path, capsys):
        """BENCH_seed.json stays truthful: a quick run at seed 0 must
        gate cleanly against the repository's checked-in baseline."""
        import os

        seed_path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_seed.json",
        )
        doc = load_bench(seed_path)
        assert doc["tag"] == "seed"
        code = main([
            "bench", "--quick", "--tag", "ci",
            "--out", str(tmp_path / "BENCH_ci.json"),
            "--compare", seed_path, "--threshold", "25",
        ])
        assert code == 0


class TestPlannerPillar:
    def test_pillar_in_quick_matrix(self):
        specs = dict(WORKLOADS)
        planner_keys = [
            key for key, spec in specs.items()
            if spec.get("kind") == "planner"
        ]
        assert planner_keys, "planner pillar missing from the matrix"
        assert all(specs[key]["quick"] for key in planner_keys)

    def test_pillar_record_beats_naive_with_identical_rows(self, quick_doc):
        pillars = {
            key: record
            for key, record in quick_doc["workloads"].items()
            if "planner_rows_match" in record
        }
        assert pillars
        for record in pillars.values():
            assert record["planner_rows_match"] is True
            assert record["ticks"] < record["naive_ticks"]
            assert record["total_ops"] < record["naive_total_ops"]
            assert record["work_messages"] < record["naive_work_messages"]

    def test_pillar_record_passes_schema(self, quick_doc):
        # The extra naive_* fields must not break the shared schema.
        assert validate(quick_doc) == []
