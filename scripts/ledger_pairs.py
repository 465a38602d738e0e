#!/usr/bin/env python
"""Alternating parent/change pairs of the ledger's end-to-end metrics.

The rule for a performance claim in this repository (ledger/README.md):
at least ten pairs of parent and change, alternating which side runs
first; the change must win nine tenths of the pairs (ties count for
neither) and the medians must differ by more than the distance between
the parent's own quartiles.  This script makes those runs with one
command: it exports *REF* with ``git archive`` into a scratch directory
(the repository itself is not touched), runs the driver form of the
ledger on both trees, prints every run made, and then, per metric, each
side's median and quartiles, the wins, and the change of the median
against its ``BENCHMARK.json`` bound.

Usage (from the repo root)::

    python scripts/ledger_pairs.py --parent HEAD~1 --workload match_pressure \\
        --pairs 10 [--seed 0] [--seconds 12] [--dir DIR] [--out runs.json]
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export_parent(ref, directory):
    """The tree of *ref* under *directory* (reused when already there)."""
    target = os.path.join(directory, "parent")
    if not os.path.isdir(target):
        os.makedirs(target)
        archive = subprocess.Popen(
            ["git", "archive", ref], cwd=ROOT, stdout=subprocess.PIPE
        )
        subprocess.run(["tar", "-x", "-C", target], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit("ledger_pairs: git archive %s failed" % ref)
    return target


def one_run(tree, workload, seed, seconds):
    """``name -> value`` of one untraced driver-form run in *tree*."""
    done = subprocess.run(
        [sys.executable, "-m", "ledger", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    metrics = {
        name: entry["value"] for name, entry in result["metrics"].items()
    }
    metrics["failed"], metrics["attempted"] = \
        result["failed"], result["attempted"]
    return metrics


def summarize(workload, runs, declared):
    """The per-metric table of one workload's pairs, as printed lines."""
    lines = ["%s: %d pairs" % (workload, len(runs))]
    for metric in declared:
        name, bound = metric["name"], metric["bound"]
        parent = [pair["parent"][name] for pair in runs]
        change = [pair["change"][name] for pair in runs]
        wins = sum(c < p for p, c in zip(parent, change))
        losses = sum(c > p for p, c in zip(parent, change))
        p_low, p_mid, p_high = statistics.quantiles(
            parent, n=4, method="inclusive")
        c_low, c_mid, c_high = statistics.quantiles(
            change, n=4, method="inclusive")
        delta = (c_mid - p_mid) / p_mid if p_mid else 0.0
        gain = (
            wins >= 0.9 * len(runs) and p_mid - c_mid > p_high - p_low
        )
        verdict = "gain" if gain else (
            "WORSE than bound" if delta > bound else "within bound"
        )
        lines.append(
            "  %-13s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  "
            "%+.1f%% (bound %.0f%%)  wins %d losses %d  %s"
            % (name, p_mid, p_low, p_high, c_mid, c_low, c_high,
               100 * delta, 100 * bound, wins, losses, verdict)
        )
    failed = sum(pair[side]["failed"] for pair in runs
                 for side in ("parent", "change"))
    lines.append("  failed operations, both sides: %d" % failed)
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git ref to compare")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--dir", help="scratch directory for the parent "
                        "tree (default: a temporary one, removed)")
    parser.add_argument("--out", help="write every run made here as JSON")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    seconds = args.seconds or benchmark["run_seconds"]
    scratch = args.dir or tempfile.mkdtemp(prefix="ledger-pairs-")
    trees = {"parent": export_parent(args.parent, scratch), "change": ROOT}
    everything = {}
    try:
        for workload in args.workload:
            runs = everything[workload] = []
            for index in range(args.pairs):
                order = ("parent", "change") if index % 2 == 0 \
                    else ("change", "parent")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = one_run(
                        trees[side], workload, args.seed, seconds
                    )
                runs.append(pair)
                print("%s pair %d (%s first): wall_s parent %.4g change %.4g"
                      % (workload, index + 1, order[0],
                         pair["parent"]["wall_s"], pair["change"]["wall_s"]),
                      flush=True)
    finally:
        if args.dir is None:
            shutil.rmtree(scratch)
    for workload, runs in everything.items():
        print("\n".join(summarize(workload, runs, benchmark["end_to_end"])))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"parent": args.parent, "seed": args.seed,
                       "seconds": seconds, "runs": everything}, handle,
                      indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
