#!/usr/bin/env python
"""Fail unless the ledger's exact counts still equal the checked-in baseline.

A change that claims to be a pure speed-up must leave the *simulated*
behaviour bit-identical.  This runs each ledger workload's traced child
(``--seconds 2``; the traced child makes one pass whatever the time)
under ``PYTHONHASHSEED`` 0, 1 and 2 and compares each child's ``exact``
block — ``sim.ticks``, ``sim.total_ops``,
``sim.peak_buffered_contexts``, ``engine.rows``,
``network.work_messages``, ``network.contexts_shipped`` and, on
``service_mix``, the ``service.*`` tick counts — with the one recorded in
``ledger/baseline_seed0.json``, exiting non-zero if any workload differs
under any hash seed.  It starts ``ledger.child`` itself, in the ledger's
child environment with only the hash seed changed: an iteration over a
set or a salted hash that feeds the simulation shows up as a difference.

The traced pass is the third one on its engines, so on the workloads
that repeat their query texts (``PREPARED``) it must find every plan
prepared: a non-zero ``pgql.calls`` or ``plan.calls`` there means the
engine's prepared-plan lookup has silently stopped hitting, and fails
the run too.

Usage (from the repo root)::

    python scripts/ledger_exact.py [workload ...]
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from ledger.__main__ import (  # noqa: E402  (needs ROOT on the path)
    CHILD_TIMEOUT,
    child_environment,
)

#: Workloads whose every pass runs the same texts on the same engines.
PREPARED = ("short_queries", "service_mix")
HASH_SEEDS = ("0", "1", "2")


def run_child(workload, seed, hash_seed):
    """The traced child's result object for *workload* under *hash_seed*."""
    environment = child_environment()
    environment["PYTHONHASHSEED"] = hash_seed
    request = json.dumps({
        "workload": workload, "seed": seed, "seconds": 2, "trace": 1,
        "smoke": False,
    })
    done = subprocess.run(
        [sys.executable, "-m", "ledger.child", request], cwd=ROOT,
        env=environment, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def main(argv):
    with open(os.path.join(ROOT, "ledger", "baseline_seed0.json")) as handle:
        baseline = json.load(handle)
    seed = baseline["provenance"]["seed"]
    failed = False
    for workload in argv[1:] or sorted(baseline["workloads"]):
        expected = baseline["workloads"][workload]["exact"]
        for hash_seed in HASH_SEEDS:
            label = "%s (PYTHONHASHSEED=%s)" % (workload, hash_seed)
            child = run_child(workload, seed, hash_seed)
            measured = child["exact"]
            if workload in PREPARED:
                for name in ("pgql.calls", "plan.calls"):
                    calls = child["per_layer"][name]["value"]
                    if calls:
                        failed = True
                        print("%s: %s is %d in a warm pass, expected 0 "
                              "(every query prepared)" % (label, name, calls))
            if measured == expected:
                print("%s: %d exact counts equal" % (label, len(expected)))
                continue
            failed = True
            print("%s: simulated behaviour changed" % label)
            for name in sorted(set(expected) | set(measured)):
                if expected.get(name) != measured.get(name):
                    print("  %s: baseline %r, now %r"
                          % (name, expected.get(name), measured.get(name)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
