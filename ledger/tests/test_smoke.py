"""``--smoke``: untraced, traced and verify phases end to end."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from ledger import ROOT, document, verify
from ledger.workloads import WORKLOADS


def _ledger(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "ledger", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_smoke_full_run_produces_a_valid_document(tmp_path):
    out = tmp_path / "smoke.json"
    done = _ledger("--smoke", "--out", str(out))
    assert done.returncode == 0, done.stderr
    result = document.load(str(out))
    assert json.loads(done.stdout) == result
    assert document.validate(result, document.load_benchmark()) == []
    assert sorted(result["workloads"]) == sorted(WORKLOADS)
    assert result["provenance"]["smoke"] and result["claim"] is None
    for name, entry in result["workloads"].items():
        assert entry["failed"] == 0 and entry["attempted"] > 0, name
        assert entry["end_to_end"]["failed_share"]["value"] == 0
        assert entry["per_layer"]["sim.steps"]["value"] > 0
        assert entry["per_layer"]["trace.unattributed_share"]["value"] < 0.5
        service_ticks = entry["per_layer"]["service.global_ticks"]["value"]
        assert (service_ticks > 0) == (name == "service_mix")


@pytest.mark.parametrize("trace", (0, 1))
def test_driver_line_has_exactly_the_declared_metrics(trace):
    done = _ledger("--smoke", "--workload", "match_pressure", "--seed", "4",
                   "--seconds", "0", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    declared = document.load_benchmark()[section]
    assert list(line["metrics"]) == [each["name"] for each in declared]
    for each in declared:
        assert line["metrics"][each["name"]]["unit"] == each["unit"]


def test_refuses_to_run_without_the_engine_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "ledger"), tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _ledger("--workload", "match_heavy", "--seed", "0",
                   "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_differing_exact_counts_are_an_error():
    workload = WORKLOADS["match_pressure"]
    setup = workload.setup("smoke")
    first = workload.run_pass(setup, 0)
    second = workload.run_pass(setup, 0)
    verify.assert_identical([("a", first), ("b", second)])
    assert verify.count_failures(
        [first, second], verify.reference_digests(setup)
    ) == (2 * len(first.outcomes), 0)
    second.exact["sim.ticks"] += 1
    with pytest.raises(verify.ExactMismatch, match="sim.ticks"):
        verify.assert_identical([("a", first), ("b", second)])
    # A wrong row set is a failed query, not a silent pass.
    text, (count, digest) = first.outcomes[0]
    first.outcomes[0] = (text, (count, digest ^ 1))
    assert verify.count_failures(
        [first], verify.reference_digests(setup)
    )[1] == 1
