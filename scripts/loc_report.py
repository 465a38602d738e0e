#!/usr/bin/env python
"""Lines of Python under ``src/``, by package, plus the total — and
the knobs: fields per settings object, option flags per sub-command.

The line count is the number ROADMAP item 5 ("least code") trends:
physical lines of every ``*.py`` file, exactly what ``find src -name
'*.py' | xargs cat | wc -l`` counts.  A package is the first directory
below ``src/repro`` (modules directly in ``src/repro`` count as
``repro``).  The settings table is the other half of "fewest options":
every field of a settings dataclass and every ``repro`` command-line
flag is a value somebody can set independently.

Usage::

    python scripts/loc_report.py [src]
"""

import dataclasses
import os
import sys


def count_lines(root):
    """``{package: lines}`` for every ``*.py`` file under *root*."""
    packages = {}
    for directory, _subdirs, files in os.walk(root):
        parts = os.path.relpath(directory, root).split(os.sep)
        package = ".".join(parts[:2])
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    lines = handle.read().count(b"\n")
                packages[package] = packages.get(package, 0) + lines
    return packages


def count_settings(root):
    """``[(name, count)]``: fields of each settings dataclass, then the
    option flags of each ``repro`` sub-command (``-h`` aside)."""
    sys.path.insert(0, os.path.abspath(root))
    from repro import ChaosConfig, ClusterConfig, ExecutionContext, \
        PlannerOptions
    from repro.cli import build_parser
    from repro.service import ServiceConfig, TrafficConfig

    rows = [
        (settings.__name__, len(dataclasses.fields(settings)))
        for settings in (ClusterConfig, PlannerOptions, ExecutionContext,
                         ServiceConfig, TrafficConfig, ChaosConfig)
    ]
    (subcommands,) = (
        action.choices for action in build_parser()._actions
        if getattr(action, "choices", None)
    )
    for command, subparser in sorted(subcommands.items()):
        flags = sum(
            1 for action in subparser._actions
            if action.option_strings and action.dest != "help"
        )
        rows.append(("repro %s" % command, flags))
    return rows


def main(argv):
    root = argv[1] if len(argv) > 1 else "src"
    packages = count_lines(root)
    for package in sorted(packages):
        print("%-20s %6d" % (package, packages[package]))
    print("%-20s %6d" % ("total", sum(packages.values())))
    print()
    for name, count in count_settings(root):
        print("%-20s %6d" % (name, count))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
