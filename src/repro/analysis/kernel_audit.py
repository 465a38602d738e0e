"""RPR008 — the kernel-codegen audit.

The bulk kernels (:mod:`repro.runtime.kernels`) are *generated source*:
``compile_plan_kernels`` specializes two functions per plan stage.  That
every counter a kernel charges equals what the micro-stepped cursor
path charges is proved dynamically, bit for bit, by the kernels-on/off
differential (``tests/test_kernels.py`` and CI's bulk-kernel parity
step) over the bench workload matrix.  This rule covers what no dynamic
test observes — properties of paths a run may never take:

1. compile every plan of that same matrix;
2. parse the attached ``__source__`` of every function the code
   generator emitted — each stage's frame entry ``kernel`` and its
   frame-free entry ``fresh``;
3. verify, function by function, that generated recording calls are
   guarded (the zero-cost-off contract inside generated code, which
   RPR002 cannot see).

Unlike every other rule, this one *imports and executes* repository
code (plan compilation pulls in numpy via the graph layer).  When those
imports are unavailable the audit degrades to a skip, so ``repro lint``
keeps working in a dependency-free environment.
"""

import ast

from repro.analysis.core import Rule, enclosing_symbols
from repro.analysis.guards import UnguardedCallScanner

#: Process-wide cache of the (expensive, deterministic) audit: raw
#: ``(message, pattern)`` problem tuples, or None before first run.
_AUDIT_CACHE = None


class KernelCodegenAuditRule(Rule):
    """RPR008: generated kernels keep their recording calls guarded."""

    id = "RPR008"
    title = "kernel-codegen audit: generated recording calls guarded"
    severity = "error"
    project_wide = True
    rationale = (
        "The bulk kernels are generated source, invisible to the rules "
        "that parse the repository. What they charge (stage visits/"
        "passes/scanned/emitted, result counts, micro-ops) is compared "
        "bit for bit against the micro-stepped cursor path by the "
        "kernels-on/off differential. This audit covers the contract "
        "that differential cannot observe because a run may never take "
        "the offending path: it compiles every plan in the bench "
        "matrix, parses every generated function (each stage's frame "
        "entry and frame-free entry), and checks that generated "
        "recording calls stay behind an `is not None` guard, so a run "
        "without a recording pays nothing for them."
    )
    example = (
        "# generated OUTPUT kernel, one emitted result:\n"
        "#   if recording is not None:\n"
        "#       recording.emit(ResultEmitted(rt.api.now, rt.machine_id))\n"
        "# the same emit without its guard fails the audit with the\n"
        "# workload/stage whose kernel lost it."
    )

    def check_project(self, modules):
        kernels_module = None
        for module in modules:
            if module.name == "repro.runtime.kernels":
                kernels_module = module
        if kernels_module is None:
            return
        symbols = enclosing_symbols(kernels_module.tree)
        anchor = kernels_module.tree.body[0] if kernels_module.tree.body \
            else kernels_module.tree
        for message, pattern in _cached_audit():
            yield self.finding(kernels_module, anchor, message, pattern,
                               symbols)


def _cached_audit():
    global _AUDIT_CACHE
    if _AUDIT_CACHE is None:
        try:
            _AUDIT_CACHE = tuple(_audit_plan_matrix())
        except ImportError:
            # Dependency-free environment (no numpy): the audit is
            # skipped; CI installs numpy so the gate still runs it.
            _AUDIT_CACHE = ()
    return _AUDIT_CACHE


def _audit_plan_matrix():
    from repro.bench import WORKLOADS, workload_setup
    from repro.runtime.kernels import compile_plan_kernels

    problems = []
    for key, spec in WORKLOADS:
        engine, queries, options = workload_setup(spec)
        for index, query in enumerate(queries):
            plan = engine.plan(query, options)
            kernels = compile_plan_kernels(plan)
            for stage, entries in zip(plan.stages, zip(
                kernels.stage_kernels, kernels.fresh_kernels,
            )):
                # Generic (cursor-backed) kernels carry no source; the
                # two entries of a generated stage usually share one.
                sources = {getattr(entry, "__source__", None)
                           for entry in entries} - {None}
                where = "%s[q%d] stage %d (%s)" % (
                    key, index, stage.index, stage.hop.kind.value,
                )
                for source in sorted(sources):
                    problems.extend(_audit_kernel_source(
                        where, key, stage.index, source,
                    ))
    return problems


def _audit_kernel_source(where, workload, stage_index, source):
    """Audit every function of one generated kernel source; yields
    (message, pattern) problems."""

    def problem(check, detail):
        return (
            "%s: %s" % (where, detail),
            "kernel-audit:%s:%d:%s" % (workload, stage_index, check),
        )

    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        yield problem("parse", "generated source does not parse: %s" % exc)
        return

    for function in tree.body:
        if not isinstance(function, ast.FunctionDef):
            continue
        scanner = UnguardedCallScanner()
        scanner.scan_module(ast.Module(body=[function], type_ignores=[]))
        for _node, chain in scanner.found:
            yield problem("recording-guard", (
                "generated call %s() in %s() is not guarded by `is not "
                "None` on its handle" % (".".join(chain), function.name)
            ))
