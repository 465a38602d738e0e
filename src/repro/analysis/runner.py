"""Collect files, run the rule pack, apply inline suppressions."""

import os

from repro.analysis.core import load_module, package_root
from repro.analysis.rules import default_rules
from repro.errors import AnalysisError


class AnalysisResult:
    """The outcome of one analysis run."""

    __slots__ = ("findings", "suppressed", "files_scanned")

    def __init__(self, findings, suppressed, files_scanned):
        #: Findings that survived inline suppression, ordered by
        #: (path, line, rule).
        self.findings = findings
        #: Findings silenced by a ``# repro: allow(RPR00N)`` comment.
        self.suppressed = suppressed
        self.files_scanned = files_scanned

    def count(self, severity):
        return sum(1 for f in self.findings if f.severity == severity)

    def fails(self, fail_on):
        """True when the run should exit non-zero under *fail_on*."""
        if fail_on == "warning":
            return bool(self.findings)
        return self.count("error") > 0


def iter_source_files(paths):
    """Yield the ``.py`` files named by *paths* (dirs walked, sorted)."""
    for path in paths:
        path = os.path.abspath(path)
        if os.path.isfile(path):
            yield path
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d != "__pycache__"
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(dirpath, filename)
        else:
            raise AnalysisError("no such file or directory: %s" % path)


def load_modules(paths):
    """Parse every source file under *paths* into SourceModules."""
    modules = []
    for abspath in iter_source_files(paths):
        modules.append(load_module(abspath, root=package_root(abspath)))
    return modules


def analyze(paths, rules=None):
    """Run *rules* (default: the full pack) over *paths*.

    Inline ``# repro: allow(RPR00N)`` comments are the one suppression
    mechanism; the returned :class:`AnalysisResult` carries only live
    findings plus the count of suppressed ones.
    """
    modules = load_modules(paths)
    if rules is None:
        rules = default_rules()
    by_path = {module.path: module for module in modules}

    raw = []
    for rule in rules:
        if rule.project_wide:
            raw.extend(rule.check_project(modules))
        else:
            for module in modules:
                if rule.applies(module):
                    raw.extend(rule.check(module))

    findings, suppressed = [], 0
    for finding in raw:
        module = by_path.get(finding.path)
        if module is not None and module.suppressed(finding.rule,
                                                    finding.line):
            suppressed += 1
        else:
            findings.append(finding)

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return AnalysisResult(findings, suppressed, len(modules))
