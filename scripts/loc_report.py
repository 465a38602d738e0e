#!/usr/bin/env python
"""Lines of Python under ``src/``, by package, plus the total.

The number ROADMAP item 5 ("least code") trends: physical lines of every
``*.py`` file, exactly what ``find src -name '*.py' | xargs cat | wc -l``
counts.  A package is the first directory below ``src/repro`` (modules
directly in ``src/repro`` count as ``repro``).

Usage::

    python scripts/loc_report.py [src]
"""

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


def main(argv):
    root = argv[1] if len(argv) > 1 else "src"
    packages = count_lines(root)
    for package in sorted(packages):
        print("%-20s %6d" % (package, packages[package]))
    print("%-20s %6d" % ("total", sum(packages.values())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
