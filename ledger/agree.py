"""``python -m ledger.agree A.json B.json``: do two result sets agree?

Compares two ledger documents metric by metric against the bounds in
``BENCHMARK.json``, one row per workload and end-to-end metric.  A metric
whose pass-to-pass spread exceeds its bound in either document is
reported as *unresolved*, not as unchanged.  Exact counts must be
bit-identical and ``failed_share`` equal and 0.  Exits non-zero on
disagreement.
"""

import sys

from ledger import document, stats


def _pass_spread(entry):
    return stats.spread(entry.get("passes", ()))


def compare(first, second, benchmark):
    """``(report lines, agreed)`` for two documents of one benchmark."""
    lines = ["%-14s %-14s %12s %12s %8s %7s  %s"
             % ("workload", "metric", "A", "B", "B/A-1", "bound", "verdict")]
    agreed = True
    common = [name for name in first["workloads"]
              if name in second["workloads"]]
    if not common:
        return ["no workload is in both documents"], False
    for name in common:
        ours, theirs = first["workloads"][name], second["workloads"][name]
        for metric in benchmark["end_to_end"]:
            mine = ours["end_to_end"][metric["name"]]
            other = theirs["end_to_end"][metric["name"]]
            relative = other["value"] / mine["value"] - 1.0
            spreads = [spread for spread in
                       (_pass_spread(mine), _pass_spread(other))
                       if spread is not None]
            if abs(relative) > metric["bound"]:
                verdict = "DISAGREE"
                agreed = False
            elif spreads and max(spreads) > metric["bound"]:
                verdict = "unresolved (pass spread %.1f%%)" % (
                    100.0 * max(spreads))
            else:
                verdict = "agree"
            lines.append("%-14s %-14s %12.6g %12.6g %+7.1f%% %6.0f%%  %s" % (
                name, metric["name"], mine["value"], other["value"],
                100.0 * relative, 100.0 * metric["bound"], verdict))
        failed = [each["end_to_end"]["failed_share"]["value"]
                  for each in (ours, theirs)]
        if failed != [0, 0]:
            agreed = False
            lines.append("%-14s failed_share %r, must be 0 in both: DISAGREE"
                         % (name, failed))
        if ours["exact"] != theirs["exact"]:
            agreed = False
            differing = sorted(
                key for key in set(ours["exact"]) | set(theirs["exact"])
                if ours["exact"].get(key) != theirs["exact"].get(key))
            lines.append("%-14s exact counts differ (%s): DISAGREE"
                         % (name, ", ".join(differing)))
        else:
            lines.append("%-14s %d exact counts bit-identical"
                         % (name, len(ours["exact"])))
    lines.append("the two sets %s" % ("agree" if agreed else "DISAGREE"))
    return lines, agreed


def main(argv=None):
    paths = (argv if argv is not None else sys.argv[1:])
    if len(paths) != 2:
        sys.exit("usage: python -m ledger.agree A.json B.json")
    report, agreed = compare(
        document.load(paths[0]), document.load(paths[1]),
        document.load_benchmark(),
    )
    print("\n".join(report))
    return 0 if agreed else 1


if __name__ == "__main__":
    sys.exit(main())
