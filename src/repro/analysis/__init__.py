"""Invariant-aware static analysis for the repro codebase (`repro lint`).

A self-contained, ``ast``-based rule engine built on a real control-flow
graph and forward-dataflow framework (:mod:`repro.analysis.cfg`,
:mod:`repro.analysis.dataflow`) that machine-checks the cross-cutting
contracts the paper's guarantees rest on — simulator determinism
(RPR001), zero-cost-off instrumentation (RPR002, the TXT2
contract), message-protocol exhaustiveness (RPR003), iteration-order
determinism (RPR006), reservation pairing on every CFG path (RPR007),
the kernel-codegen audit (RPR008), cross-scope isolation (RPR009), plus
the general hygiene rules RPR004/RPR005.  Everything except RPR008's
dynamic half is stdlib-only and never executes scanned code.  See
``docs/static-analysis.md`` for the catalogue and workflow.

Programmatic use::

    from repro.analysis import analyze

    result = analyze(["src/repro"])
    for finding in result.findings:
        print(finding.rule, finding.path, finding.line, finding.message)
"""

from repro.analysis.catalog import explain, render_catalog
from repro.analysis.cfg import CFG, Block, build_cfg
from repro.analysis.core import Finding, Rule, SEVERITIES, SourceModule
from repro.analysis.dataflow import ForwardDataflow, iter_scopes
from repro.analysis.report import json_report, summary_line, text_report
from repro.analysis.rules import RULE_CLASSES, default_rules, rule_by_id
from repro.analysis.runner import AnalysisResult, analyze

__all__ = [
    "AnalysisResult",
    "Block",
    "CFG",
    "Finding",
    "ForwardDataflow",
    "RULE_CLASSES",
    "Rule",
    "SEVERITIES",
    "SourceModule",
    "analyze",
    "build_cfg",
    "default_rules",
    "explain",
    "iter_scopes",
    "json_report",
    "render_catalog",
    "rule_by_id",
    "summary_line",
    "text_report",
]
