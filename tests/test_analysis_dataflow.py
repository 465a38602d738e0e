"""Tests for the CFG/dataflow framework and the v2 rule packs.

Split from ``test_analysis.py``: everything here exercises behavior
that depends on control flow — guards through try/finally, while/else,
early returns, loops, rebinding and nested scopes (RPR002's ancestor
walk), type facts over a real control-flow graph — plus the
RPR006/RPR009 rule packs, the
RPR008 generated-source audit, and the runner surface (``--select``,
``--all-scopes``).  The mutation tests follow the house style: copy a
real source verbatim, break one invariant, and require the analyzer to
flip non-zero.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze
from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import iter_scopes
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"


def write_package(tmp_path, files):
    """Write fixture modules (with the ``__init__.py`` chain) and
    return the scan root."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        directory = target.parent
        while directory != tmp_path:
            init = directory / "__init__.py"
            if not init.exists():
                init.write_text("")
            directory = directory.parent
        target.write_text(textwrap.dedent(source))
    return tmp_path


def rules_of(result):
    return [finding.rule for finding in result.findings]


def runtime_module(source):
    return {"repro/runtime/fixture.py": source}


# ----------------------------------------------------------------------
# CFG construction basics
# ----------------------------------------------------------------------

class TestCfg:
    def test_scopes_are_separate(self):
        import ast
        tree = ast.parse(
            "def outer():\n"
            "    def inner():\n"
            "        pass\n"
            "class C:\n"
            "    def method(self):\n"
            "        pass\n"
        )
        names = []
        for scope, _body in iter_scopes(tree):
            names.append(getattr(scope, "name", "<module>"))
        assert names == ["<module>", "outer", "C", "inner", "method"]

    def test_while_true_has_no_false_exit(self):
        import ast
        tree = ast.parse(
            "while True:\n"
            "    if done():\n"
            "        break\n"
        )
        cfg = build_cfg(tree.body)
        for block in cfg.blocks:
            for _succ, polarity, test in block.succ:
                if polarity is False:
                    assert not (isinstance(test, ast.Constant)
                                and test.value)

    def test_unreachable_code_still_built(self):
        import ast
        tree = ast.parse(
            "def f():\n"
            "    return 1\n"
            "    leftover()\n"
        )
        _scope, body = list(iter_scopes(tree))[1]
        cfg = build_cfg(body)
        lines = {
            getattr(node, "lineno", None)
            for block in cfg.blocks for _kind, node in block.elems
        }
        # The dead call after the return is still in some block, so
        # rules scan it (dead code assumes no guards hold).
        assert 3 in lines


# ----------------------------------------------------------------------
# RPR002 guards through control flow, rebinding and nested scopes
# ----------------------------------------------------------------------

class TestGuardDataflow:
    def test_guard_survives_try_finally(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Worker:
                def step(self, frame):
                    if self.recording is not None:
                        try:
                            frame.run()
                        finally:
                            self.recording.emit(frame)
            """))
        assert analyze([root]).findings == []

    def test_guard_dominates_exception_handler(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Worker:
                def step(self, frame):
                    if self.recording is None:
                        return
                    try:
                        frame.run()
                    except KeyError:
                        self.recording.emit(frame)
            """))
        assert analyze([root]).findings == []

    def test_conditional_early_return_guards(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Worker:
                def step(self, frame):
                    if self.recording is None:
                        return frame.run()
                    frame.run()
                    self.recording.inbox_wait.observe(1)
            """))
        assert analyze([root]).findings == []

    def test_guard_lost_at_join(self, tmp_path):
        # Guarded on the true branch only: the join after the `if`
        # intersects away the guard, so the trailing call is unguarded.
        root = write_package(tmp_path, runtime_module("""\
            class Worker:
                def step(self, frame, fast):
                    if self.recording is not None:
                        self.recording.emit(frame)
                    self.recording.emit(frame)
            """))
        result = analyze([root])
        assert rules_of(result) == ["RPR002"]
        assert result.findings[0].line == 5

    def test_loop_body_invalidation_reaches_exit(self, tmp_path):
        # The loop body reassigns the handle, so the back edge kills
        # the pre-loop guard: the call after the loop is unguarded on
        # the iterated path.
        root = write_package(tmp_path, runtime_module("""\
            class Worker:
                def drain(self, frames):
                    if self.recording is None:
                        return
                    for frame in frames:
                        self.recording = frame.recorder()
                    self.recording.emit(frames)
            """))
        result = analyze([root])
        assert rules_of(result) == ["RPR002"]

    def test_while_else_guarded(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Worker:
                def drain(self, queue):
                    if self.recording is None:
                        return
                    while queue:
                        queue.pop()
                    else:
                        self.recording.emit(queue)
            """))
        assert analyze([root]).findings == []

    def test_nested_def_does_not_inherit_guard(self, tmp_path):
        # The guard holds in the enclosing scope, but the nested
        # function runs later, when the handle may have changed: its
        # body must guard for itself.
        root = write_package(tmp_path, runtime_module("""\
            class Worker:
                def make_callback(self, frame):
                    if self.recording is None:
                        return None
                    def callback():
                        self.recording.emit(frame)
                    return callback
            """))
        result = analyze([root])
        assert rules_of(result) == ["RPR002"]
        assert result.findings[0].symbol == \
            "Worker.make_callback.callback"

    def test_nested_def_guards_for_itself(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Worker:
                def make_callback(self, frame):
                    def callback():
                        if self.recording is not None:
                            self.recording.emit(frame)
                    return callback
            """))
        assert analyze([root]).findings == []

    def test_assert_guard_still_works(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Worker:
                def step(self, frame):
                    assert self.recording is not None
                    self.recording.emit(frame)
            """))
        assert analyze([root]).findings == []

    def test_finally_return_path_checked(self, tmp_path):
        # The call in the finally body runs on the early-return path
        # too; no guard holds there on either path.
        root = write_package(tmp_path, runtime_module("""\
            class Worker:
                def step(self, frame):
                    try:
                        if frame.done:
                            return 0
                        return frame.run()
                    finally:
                        self.recording.emit(frame)
            """))
        result = analyze([root])
        assert rules_of(result) == ["RPR002"]


    @pytest.mark.parametrize("body", [
        # a `with ... as` target
        """\
        if recording is not None:
            with frame.open() as recording:
                recording.emit(frame)
        """,
        # an `except ... as` name
        """\
        if recording is not None:
            try:
                frame.run()
            except KeyError as recording:
                recording.emit(frame)
        """,
        # a loop target
        """\
        if recording is None:
            return
        for recording in frame.recorders:
            recording.emit(1)
        """,
        # a rebinding after the call: the back edge carries it round
        """\
        if recording is not None:
            for item in frame.items:
                recording.emit(item)
                recording = item.recorder
        """,
    ])
    def test_rebinding_voids_guard(self, tmp_path, body):
        indented = textwrap.indent(textwrap.dedent(body), " " * 4)
        root = write_package(tmp_path, runtime_module(
            "def step(recording, frame):\n" + indented))
        assert rules_of(analyze([root])) == ["RPR002"]

    def test_guard_inside_the_loop_survives_its_rebinding(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            def drain(recording, frames):
                for frame in frames:
                    if recording is not None:
                        recording.emit(frame)
                    recording = frame.recorder
            """))
        assert analyze([root]).findings == []


# ----------------------------------------------------------------------
# RPR006 — iteration-order determinism
# ----------------------------------------------------------------------

class TestIterationOrderRule:
    def test_effectful_loop_over_set_flagged(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Stage:
                def fanout(self, ctx, neighbors, vertex, payload):
                    higher = {v for v in neighbors if v > vertex}
                    for target in higher:
                        ctx.send(target, payload)
            """))
        result = analyze([root])
        assert rules_of(result) == ["RPR006"]
        finding = result.findings[0]
        assert finding.pattern == "set-iter:higher"
        assert "sorted(higher)" in finding.message

    def test_sorted_wrapper_clean(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Stage:
                def fanout(self, ctx, neighbors, vertex, payload):
                    higher = {v for v in neighbors if v > vertex}
                    for target in sorted(higher):
                        ctx.send(target, payload)
            """))
        assert analyze([root]).findings == []

    def test_pure_loop_body_clean(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Stage:
                def total(self, weights):
                    seen = set(weights)
                    acc = 0
                    for w in seen:
                        acc += w
                    return acc
            """))
        assert analyze([root]).findings == []

    def test_set_from_helper_method_flagged(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Stage:
                def _targets(self, ctx):
                    out = set()
                    for t in ctx.out_neighbors():
                        out.add(t)
                    return out

                def fanout(self, ctx, payload):
                    targets = self._targets(ctx)
                    for target in targets:
                        ctx.send(target, payload)
            """))
        result = analyze([root])
        assert rules_of(result) == ["RPR006"]
        assert result.findings[0].pattern == "set-iter:targets"

    def test_set_keyed_dict_view_flagged(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Stage:
                def fanout(self, ctx, members, payload):
                    pending = dict.fromkeys(set(members), 0)
                    for target in pending.keys():
                        ctx.send(target, payload)
            """))
        result = analyze([root])
        assert rules_of(result) == ["RPR006"]
        assert "set-keyed dict view" in result.findings[0].message

    def test_rebind_to_list_clears_set_fact(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Stage:
                def fanout(self, ctx, members, payload):
                    targets = set(members)
                    targets = list(targets)
                    for target in targets:
                        ctx.send(target, payload)
            """))
        assert analyze([root]).findings == []

    def test_branch_join_is_must_analysis(self, tmp_path):
        # Only one branch produces a set: after the join, the iterable
        # is not *provably* a set, so no finding (the rule favors
        # precision over recall).
        root = write_package(tmp_path, runtime_module("""\
            class Stage:
                def fanout(self, ctx, members, payload, pin):
                    if pin:
                        targets = sorted(members)
                    else:
                        targets = set(members)
                    for target in targets:
                        ctx.send(target, payload)
            """))
        assert analyze([root]).findings == []

    def test_metric_charge_counts_as_effect(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Stage:
                def account(self, members):
                    active = set(members)
                    for member in active:
                        self.metrics.cur_live_frames += 1
            """))
        result = analyze([root])
        assert rules_of(result) == ["RPR006"]

    def test_suppression_comment_honored(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            class Stage:
                def fanout(self, ctx, members, payload):
                    targets = set(members)
                    # order-insensitive: commutative accumulate
                    # repro: allow(RPR006)
                    for target in targets:
                        ctx.send(target, payload)
            """))
        result = analyze([root])
        assert result.findings == []
        assert result.suppressed == 1

    def test_mutation_unsorting_triangle_count_flags(self, tmp_path):
        source = (SRC_REPRO / "analytics" / "algorithms.py").read_text()
        assert "for target in sorted(higher):" in source
        mutated = source.replace("for target in sorted(higher):",
                                 "for target in higher:")
        root = write_package(tmp_path, {
            "repro/analytics/algorithms.py": mutated,
        })
        result = analyze([root])
        assert "RPR006" in rules_of(result)
        assert any(f.pattern == "set-iter:higher"
                   for f in result.findings)


# ----------------------------------------------------------------------
# RPR009 — cross-scope isolation
# ----------------------------------------------------------------------

class TestCrossScopeIsolationRule:
    def test_scope_write_through_service_flagged(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/service/scope_fixture.py": """\
                class QueryScope:
                    def finish(self, rows):
                        self.service.last_result = rows
                """,
        })
        result = analyze([root])
        assert rules_of(result) == ["RPR009"]
        assert result.findings[0].pattern == \
            "scope-write:self.service.last_result"

    def test_scope_container_mutation_flagged(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/service/scope_fixture.py": """\
                class QueryScope:
                    def register(self):
                        self._service.registry.append(self.query_id)
                """,
        })
        result = analyze([root])
        assert rules_of(result) == ["RPR009"]
        assert result.findings[0].pattern == \
            "scope-mutate:self._service.registry.append"

    def test_scheduler_call_is_sanctioned(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/service/scope_fixture.py": """\
                class QueryScope:
                    def finish(self, rows):
                        self.service.retire(self.query_id, rows)
                        self.service.submit(self.next_query)
                """,
        })
        assert analyze([root]).findings == []

    def test_module_level_mutable_flagged(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            ACTIVE_SCOPES = []

            def register(scope):
                ACTIVE_SCOPES.append(scope)
            """))
        result = analyze([root])
        assert rules_of(result) == ["RPR009"]
        assert result.findings[0].pattern == \
            "module-mutable:ACTIVE_SCOPES"

    def test_module_level_frozen_clean(self, tmp_path):
        root = write_package(tmp_path, runtime_module("""\
            STAGES = ("scan", "expand", "output")
            LIMIT = 64
            """))
        assert analyze([root]).findings == []


# ----------------------------------------------------------------------
# RPR008 — guarded recording calls in generated source
# ----------------------------------------------------------------------

class TestKernelAudit:
    @staticmethod
    def kernel_sources():
        """``{hop kind: generated source}`` of one real two-hop plan."""
        from repro import ClusterConfig, uniform_random_graph
        from repro.runtime import PgxdAsyncEngine

        graph = uniform_random_graph(40, 160, seed=1, num_types=2)
        engine = PgxdAsyncEngine(graph, ClusterConfig(num_machines=2))
        plan = engine.plan("SELECT a, b WHERE (a)-[]->(b)")
        return {
            stage.hop.kind.value: kernel.__source__
            for stage, kernel in zip(plan.stages,
                                     plan.bulk_kernels().stage_kernels)
        }

    @staticmethod
    def audit(source):
        from repro.analysis.kernel_audit import _audit_kernel_source

        return [pattern for _message, pattern in
                _audit_kernel_source("fixture", "fixture", 0, source)]

    def test_generated_sources_are_clean(self):
        for source in self.kernel_sources().values():
            assert self.audit(source) == []

    GUARD = "if recording is not None:"

    def test_unguarded_trace_emit_is_flagged(self):
        source = self.kernel_sources()["output"]
        # One guarded emit per entry: the frame entry's comes first.
        assert source.count(self.GUARD) == 2
        mutated = source.replace(self.GUARD, "if True:", 1)
        assert self.audit(mutated) == ["kernel-audit:fixture:0:recording-guard"]

    def test_unguarded_emit_in_frame_free_entry_is_flagged(self):
        from repro.analysis.kernel_audit import _audit_kernel_source

        source = self.kernel_sources()["output"]
        framed, fresh = source.split("def fresh(")
        mutated = framed + "def fresh(" + fresh.replace(self.GUARD, "if True:")
        ((message, pattern),) = _audit_kernel_source(
            "fixture", "fixture", 0, mutated)
        assert pattern == "kernel-audit:fixture:0:recording-guard"
        assert "recording.emit() in fresh()" in message

    def test_matrix_walk_audits_frame_free_entries(self, monkeypatch):
        """A fault only the frame-free entry carries is still found by
        the plan-matrix walk, not just by auditing a source by hand."""
        import repro.bench
        import repro.runtime.kernels as kernels
        from repro.analysis.kernel_audit import _audit_plan_matrix

        compile_plan_kernels = kernels.compile_plan_kernels

        def tampered(plan):
            compiled = compile_plan_kernels(plan)
            for fresh in compiled.fresh_kernels:
                if fresh is not None and self.GUARD in fresh.__source__:
                    framed, body = fresh.__source__.split("def fresh(")
                    fresh.__source__ = framed + "def fresh(" + body.replace(
                        self.GUARD, "if True:")
            return compiled

        monkeypatch.setattr(repro.bench, "WORKLOADS",
                            repro.bench.WORKLOADS[:1])
        monkeypatch.setattr(kernels, "compile_plan_kernels", tampered)
        problems = _audit_plan_matrix()
        assert problems
        for message, pattern in problems:
            assert pattern.endswith(":recording-guard")
            assert "in fresh()" in message

    def test_real_tree_audit_is_clean(self):
        # The self-host over the runtime package, including the
        # compile-audit of the whole bench plan matrix.
        root = SRC_REPRO
        result = analyze([str(root / "runtime"), str(root / "bench.py")])
        assert not any(f.rule == "RPR008" for f in result.findings)


# ----------------------------------------------------------------------
# Runner surface: --select / --all-scopes
# ----------------------------------------------------------------------

LEAKY = {
    "repro/runtime/leaky.py": """\
        import time

        def stamp():
            return time.time()
        """,
    "repro/runtime/fanout.py": """\
        class Stage:
            def fanout(self, ctx, members, payload):
                targets = set(members)
                for target in targets:
                    ctx.send(target, payload)
        """,
}


class TestRunnerSurface:
    def test_select_restricts_rules(self, tmp_path, capsys):
        root = write_package(tmp_path, LEAKY)
        assert main(["lint", str(root), "--select", "RPR006",
                     "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in report["findings"]} == {"RPR006"}

    def test_select_unknown_rule_rejected(self, tmp_path):
        root = write_package(tmp_path, LEAKY)
        with pytest.raises(SystemExit):
            main(["lint", str(root), "--select", "RPR999"])

    def test_all_scopes_applies_rules_everywhere(self, tmp_path, capsys):
        root = write_package(tmp_path, {
            "tests_fixture/test_timing.py": """\
                import time

                def test_speed():
                    return time.time()
                """,
        })
        assert main(["lint", str(root), "--select", "RPR001"]) == 0
        assert main(["lint", str(root), "--select", "RPR001",
                     "--all-scopes"]) == 1
        capsys.readouterr()
