#!/usr/bin/env python
"""Deterministic host-cost proxy: call events of one warm ledger pass.

Wall time on a shared box moves by tens of percent between runs of the
same tree; the number of Python and C calls a pass makes does not move
at all.  This sets a ledger workload up, runs one untimed pass to fill
every cache (prepared plans, compiled kernels, CSR lists), then runs one
pass of the same operation sequence under ``cProfile`` and prints the
total call count and the ten functions called most often.  Run twice it
prints the same total; compare parent and change with the same command.

It is a count, not a speed-up: it omits what calls cost and everything
that is not a call (attribute loads, loops inside one frame).

Usage (from the repo root)::

    python scripts/call_count.py WORKLOAD [--seed 0] [--top 10]
"""

import argparse
import cProfile
import gc
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from ledger.workloads import WORKLOADS  # noqa: E402  (needs ROOT on the path)


def count_calls(workload_name, seed):
    """``(total calls, {(file, line, name): calls})`` of one warm pass."""
    workload = WORKLOADS[workload_name]
    setup = workload.setup("full")
    workload.run_pass(setup, seed)
    gc.collect()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        workload.run_pass(setup, seed)
    finally:
        profiler.disable()
    calls = {}
    for entry in profiler.getstats():
        code = entry.code
        key = ("~", 0, code) if isinstance(code, str) else (
            code.co_filename, code.co_firstlineno, code.co_name)
        calls[key] = calls.get(key, 0) + entry.callcount
    return sum(calls.values()), calls


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=10)
    args = parser.parse_args(argv)
    total, calls = count_calls(args.workload, args.seed)
    print("%s seed %d: %d calls in one warm pass"
          % (args.workload, args.seed, total))
    by_calls = sorted(calls.items(), key=lambda item: (-item[1], item[0]))
    for (filename, line, name), count in by_calls[:args.top]:
        where = "%s:%d" % (os.path.relpath(filename, ROOT), line) \
            if os.path.isabs(filename) else filename
        print("  %9d  %s (%s)" % (count, name, where))
    return 0


if __name__ == "__main__":
    sys.exit(main())
