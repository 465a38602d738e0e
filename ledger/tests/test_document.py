"""Result-document schema, and the agreement check between two sets."""

import copy

from ledger import agree, document
from ledger.child import per_layer_metrics
from ledger.trace import Tracer
from ledger.workloads import WORKLOADS, PassRecord, Setup


def _untraced(wall=2.0):
    passes = [
        {"wall_s": wall * factor, "query_p50_ms": 9.0 * factor,
         "query_p95_ms": 27.0 * factor}
        for factor in (1.00, 1.01, 1.02, 1.01, 1.00)
    ]
    return {
        "setup_s": [0.5, 0.52, 0.51, 0.5, 0.53],
        "passes": passes,
        "floor": dict(passes[0]),
        "queries_per_pass": 210,
        "peak_rss_mb": 70.0,
        "exact": dict(PassRecord().exact, **{"sim.ticks": 123}),
        "attempted": 1260,
        "failed": 0,
    }


def _traced():
    exact = PassRecord().exact
    return {
        "per_layer": per_layer_metrics(Tracer(), Setup(), exact, 2.0, 2.5,
                                       2 ** 20),
        "layers": {},
        "exact": exact,
        "attempted": 630,
        "failed": 0,
    }


def _document(**changes):
    entry = document.workload_entry(
        WORKLOADS["short_queries"], _untraced(**changes), _traced()
    )
    return {
        "schema": document.SCHEMA,
        "provenance": {"git_sha": None, "python": "3", "nproc": 2,
                       "seed": 0, "PYTHONHASHSEED": "0"},
        "workloads": {"short_queries": entry},
        "claim": None,
    }


def test_a_complete_document_validates():
    benchmark = document.load_benchmark()
    assert document.validate(_document(), benchmark) == []
    entry = _document()["workloads"]["short_queries"]
    p95 = entry["end_to_end"]["query_p95_ms"]
    assert p95["supported"] and p95["beyond"] == 10
    assert p95["samples"] == 5 and p95["min"] <= p95["median"] <= p95["max"]
    assert entry["end_to_end"]["failed_share"]["value"] == 0.0


def test_validation_names_what_is_missing():
    benchmark = document.load_benchmark()
    broken = _document()
    del broken["workloads"]["short_queries"]["end_to_end"]["wall_s"]
    del broken["workloads"]["short_queries"]["per_layer"]["sim.ticks"]
    broken["claim"] = "2x faster"
    broken["workloads"]["bogus"] = broken["workloads"]["short_queries"]
    problems = "\n".join(document.validate(broken, benchmark))
    assert "'wall_s'" in problems and "'sim.ticks'" in problems
    assert "claim" in problems and "undeclared workload 'bogus'" in problems


def test_benchmark_declares_the_fixed_names():
    benchmark = document.load_benchmark()
    assert [each["name"] for each in benchmark["workloads"]] == [
        "match_heavy", "match_pressure", "short_queries", "service_mix",
    ]
    assert [(each["name"], each["why"]) for each in benchmark["workloads"]] \
        == [(each.name, each.why) for each in WORKLOADS.values()]
    names = [each["name"] for each in benchmark["end_to_end"]]
    assert names == ["setup_s", "wall_s", "query_p50_ms", "query_p95_ms",
                     "peak_rss_mb"]
    assert len(benchmark["per_layer"]) <= 128
    assert all(each["bound"] <= 0.25 for each in benchmark["end_to_end"])


def test_agree_separates_agreement_disagreement_and_unresolved():
    benchmark = document.load_benchmark()
    first = _document()
    report, agreed = agree.compare(first, copy.deepcopy(first), benchmark)
    assert agreed and "DISAGREE" not in "\n".join(report)

    slower = _document(wall=2.0 * 1.5)
    report, agreed = agree.compare(first, slower, benchmark)
    assert not agreed
    assert any("wall_s" in line and "DISAGREE" in line for line in report)

    noisy = copy.deepcopy(first)
    wall = noisy["workloads"]["short_queries"]["end_to_end"]["wall_s"]
    wall["passes"] = [2.0, 2.0, 3.0, 4.0, 2.0]
    report, agreed = agree.compare(first, noisy, benchmark)
    assert agreed
    assert any("wall_s" in line and "unresolved" in line for line in report)

    drifted = copy.deepcopy(first)
    drifted["workloads"]["short_queries"]["exact"]["sim.ticks"] += 1
    report, agreed = agree.compare(first, drifted, benchmark)
    assert not agreed and any("sim.ticks" in line for line in report)
