"""``python -m ledger``: run the ledger benchmark.

Two shapes of run share every measuring line of code:

* *Full* (no ``--trace``): every workload (or ``--workload NAME``), each
  in a fresh untraced child then a fresh traced child, assembled into
  one result document printed as JSON and written to ``--out``.
  ``--agree`` does this twice and compares the two sets.
* *Driver* (``--workload W --seed N --seconds S --trace 0|1``): one child,
  and the last line of standard output is one JSON object with exactly
  ``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
  metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import argparse
import json
import os
import subprocess
import sys

from ledger import ROOT, SRC

#: Wall-clock ceiling of one child, below the driver's 180 s limit.
CHILD_TIMEOUT = 170


def child_environment():
    """Fixed hash seed and one thread: ``nproc`` is 2 on the reference
    box and the second core is left to the operating system."""
    environment = dict(os.environ)
    environment["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        environment[name] = "1"
    return environment


def run_child(workload, seed, seconds, trace, smoke):
    """One measuring child, waited for; returns its result object."""
    request = json.dumps({
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke,
    })
    try:
        done = subprocess.run(
            [sys.executable, "-m", "ledger.child", request], cwd=ROOT,
            env=child_environment(), stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        sys.exit("ledger: %s child exceeded %d s" % (workload, CHILD_TIMEOUT))
    if done.returncode != 0:
        sys.exit("ledger: %s child exited with %d"
                 % (workload, done.returncode))
    return json.loads(done.stdout.splitlines()[-1])


def driver_run(args):
    from ledger import document

    result = run_child(args.workload, args.seed, args.seconds,
                       args.trace, args.smoke)
    benchmark = document.load_benchmark()
    if args.trace:
        table, declared = result["per_layer"], benchmark["per_layer"]
    else:
        table, declared = document.end_to_end(result), benchmark["end_to_end"]
    metrics = {
        each["name"]: {"value": table[each["name"]]["value"],
                       "unit": each["unit"]}
        for each in declared
    }
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def full_run(args, names):
    """One complete set of runs -> one result document."""
    from ledger import document
    from ledger.workloads import WORKLOADS

    entries = {}
    for name in names:
        print("ledger: %s ..." % name, file=sys.stderr)
        untraced = run_child(name, args.seed, args.seconds, 0, args.smoke)
        traced = run_child(name, args.seed, args.seconds, 1, args.smoke)
        if untraced["exact"] != traced["exact"]:
            sys.exit(
                "ledger: %s: exact counts differ between the untraced "
                "child %r and the traced child %r"
                % (name, untraced["exact"], traced["exact"])
            )
        entries[name] = document.workload_entry(
            WORKLOADS[name], untraced, traced
        )
        if args.spans:
            document.write(traced["spans"], "%s.%s.json" % (args.spans, name))
    return {
        "schema": document.SCHEMA,
        "provenance": document.provenance(
            args.seed, args.seconds, args.smoke, child_environment()
        ),
        "workloads": entries,
        # The benchmark's own change measures and claims nothing.
        "claim": None,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m ledger",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per untraced run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: 0 end-to-end, 1 per-layer")
    parser.add_argument("--out", help="write the result document here")
    parser.add_argument("--agree", action="store_true",
                        help="run two complete sets and compare them")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: exercises every phase in seconds")
    parser.add_argument("--spans", metavar="PREFIX",
                        help="write each traced pass's coarse spans to "
                             "PREFIX.<workload>.json")
    args = parser.parse_args(argv)

    if not os.path.isdir(SRC):
        sys.exit("ledger: %s not found; the benchmark measures the "
                 "engine in src/ and cannot run without it" % SRC)
    from ledger import agree, document
    from ledger.workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error("unknown workload %r (known: %s)"
                     % (args.workload, ", ".join(WORKLOADS)))
    if args.seconds is None:
        args.seconds = 0 if args.smoke \
            else document.load_benchmark()["run_seconds"]
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return driver_run(args)

    names = [args.workload] if args.workload else list(WORKLOADS)
    first = full_run(args, names)
    problems = document.validate(first, document.load_benchmark())
    if problems:
        sys.exit("ledger: result document invalid: " + "; ".join(problems))
    if args.out:
        document.write(first, args.out)
    if not args.agree:
        print(json.dumps(first, indent=1, sort_keys=True))
        return 0
    report, agreed = agree.compare(
        first, full_run(args, names), document.load_benchmark()
    )
    print("\n".join(report))
    return 0 if agreed else 1


if __name__ == "__main__":
    sys.exit(main())
