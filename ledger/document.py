"""The ledger result document (schema ``ledger/1``).

One document holds, per workload, the end-to-end metrics of the untraced
child, the per-layer metrics of the traced child and the exact counts,
plus the provenance of the run.  ``ledger.agree`` compares two of them.
"""

import json
import os
import platform
import statistics
import subprocess

from ledger import ROOT, stats

SCHEMA = "ledger/1"


def load_benchmark():
    """``BENCHMARK.json``: the declared metrics, units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _summary(value, unit, samples, estimator):
    return {
        "value": value,
        "unit": unit,
        "estimator": estimator,
        "samples": len(samples),
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "passes": samples,
    }


def end_to_end(untraced):
    """The end-to-end table of one untraced child result.

    Timings report the *floor* (see README, "Why the floor") with the
    per-pass median, min and max beside it; ``setup_s`` reports the
    quietest of its from-scratch repeats.
    """
    table = {
        "setup_s": _summary(
            min(untraced["setup_s"]), "s", untraced["setup_s"], "floor",
        ),
    }
    queries = untraced["queries_per_pass"]
    for name, unit, p in (("wall_s", "s", None),
                          ("query_p50_ms", "ms", 50),
                          ("query_p95_ms", "ms", 95)):
        entry = _summary(
            untraced["floor"][name], unit,
            [each[name] for each in untraced["passes"]], "floor",
        )
        if p is not None:
            entry["queries_per_pass"] = queries
            entry["beyond"] = stats.samples_beyond(queries, p)
            entry["supported"] = stats.supported(queries, p)
        table[name] = entry
    table["peak_rss_mb"] = {
        "value": untraced["peak_rss_mb"], "unit": "MB", "samples": 1,
    }
    table["failed_share"] = {
        "value": untraced["failed"] / untraced["attempted"],
        "unit": "ratio",
    }
    return table


def _git(*arguments):
    """Standard output of one git command in the checkout, or None (the
    driver's checkout is not a git repository)."""
    try:
        done = subprocess.run(
            ("git",) + arguments, cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed, seconds, smoke, environment):
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        # True when the measured tree has changes the sha does not name.
        "git_dirty": bool(_git("status", "--porcelain")),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "PYTHONHASHSEED": environment["PYTHONHASHSEED"],
        "seconds": seconds,
        "smoke": smoke,
    }


def workload_entry(workload, untraced, traced):
    return {
        "why": workload.why,
        "end_to_end": end_to_end(untraced),
        "per_layer": traced["per_layer"],
        "layers": traced["layers"],
        "exact": untraced["exact"],
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
    }


def validate(document, benchmark):
    """Schema check against *benchmark*; returns a list of problems."""
    problems = []
    if document.get("schema") != SCHEMA:
        problems.append("schema is %r, expected %r"
                        % (document.get("schema"), SCHEMA))
    if "claim" not in document or document["claim"] is not None:
        problems.append("the benchmark's own document must carry "
                        "\"claim\": null")
    for key in ("git_sha", "python", "nproc", "seed", "PYTHONHASHSEED"):
        if key not in document.get("provenance", {}):
            problems.append("provenance lacks %r" % key)
    declared = {each["name"] for each in benchmark["workloads"]}
    workloads = document.get("workloads", {})
    for name in sorted(set(workloads) - declared):
        problems.append("undeclared workload %r" % name)
    for name, entry in workloads.items():
        for section in ("end_to_end", "per_layer"):
            table = entry.get(section, {})
            for metric in benchmark[section]:
                got = table.get(metric["name"])
                if got is None:
                    problems.append("%s lacks %s metric %r"
                                    % (name, section, metric["name"]))
                elif got.get("unit") != metric["unit"]:
                    problems.append(
                        "%s %r has unit %r, declared %r"
                        % (name, metric["name"], got.get("unit"),
                           metric["unit"]))
                elif not isinstance(got.get("value"), (int, float)):
                    problems.append("%s %r has no numeric value"
                                    % (name, metric["name"]))
        if "failed_share" not in entry.get("end_to_end", {}):
            problems.append("%s lacks failed_share" % name)
        if not isinstance(entry.get("exact"), dict) or not entry["exact"]:
            problems.append("%s lacks exact counts" % name)
    return problems


def write(document, path):
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load(path):
    with open(path) as handle:
        return json.load(handle)
