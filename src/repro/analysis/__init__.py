"""Invariant-aware static analysis for the repro codebase (`repro lint`).

A self-contained, ``ast``-based rule engine that machine-checks the
cross-cutting contracts the paper's guarantees rest on — simulator
determinism (RPR001), zero-cost-off instrumentation (RPR002, the TXT2
contract), message-protocol exhaustiveness (RPR003), iteration-order
determinism (RPR006), the kernel-codegen audit (RPR008), cross-scope
isolation (RPR009), plus the general hygiene rules RPR004/RPR005.  The
two flow-sensitive rules share one ancestor walk
(:func:`repro.analysis.guards.reaching`) over one parent map per module
(:attr:`SourceModule.parents`): RPR002 walks from each recording call
to its guard, RPR006 from each effectful loop to the assignment that
reaches its iterable (:mod:`repro.analysis.flows`).  Everything except
RPR008's dynamic half is stdlib-only and never executes scanned code.  See
``docs/static-analysis.md`` for the catalogue and workflow.

Programmatic use::

    from repro.analysis import analyze

    result = analyze(["src/repro"])
    for finding in result.findings:
        print(finding.rule, finding.path, finding.line, finding.message)
"""

from repro.analysis.catalog import explain, render_catalog
from repro.analysis.core import Finding, Rule, SEVERITIES, SourceModule
from repro.analysis.report import json_report, summary_line, text_report
from repro.analysis.rules import RULE_CLASSES, default_rules, rule_by_id
from repro.analysis.runner import AnalysisResult, analyze

__all__ = [
    "AnalysisResult",
    "Finding",
    "RULE_CLASSES",
    "Rule",
    "SEVERITIES",
    "SourceModule",
    "analyze",
    "default_rules",
    "explain",
    "json_report",
    "render_catalog",
    "rule_by_id",
    "summary_line",
    "text_report",
]
