"""Tests for the invariant-aware static analysis pass (``repro lint``).

Fixture packages are written under ``tmp_path`` with the *same* top
package name as the real tree (``repro``), so the default rule scopes
(``repro.runtime``, ``repro.cluster``, ...) apply to fixtures exactly as
they do to the codebase.  The mutation tests operate on verbatim copies
of the real runtime sources: un-guarding one recording call or deleting one
message-dispatch arm must flip the analyzer to a non-zero exit.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    analyze,
    explain,
    json_report,
    render_catalog,
    rule_by_id,
    text_report,
)
from repro.cli import EXIT_LINT, build_parser, main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"
RUNTIME = SRC_REPRO / "runtime"


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


# ----------------------------------------------------------------------
# RPR001 — determinism
# ----------------------------------------------------------------------

class TestDeterminismRule:
    def test_wall_clock_flagged(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/runtime/clock.py": """\
                import time

                def stamp():
                    return time.time()
                """,
        })
        result = analyze([root])
        assert rules_of(result) == ["RPR001"]
        finding = result.findings[0]
        assert finding.pattern == "time.time"
        assert finding.symbol == "stamp"
        assert finding.severity == "error"
        assert finding.path == "repro/runtime/clock.py"

    def test_from_import_resolved(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/cluster/clock.py": """\
                from time import perf_counter as pc

                def stamp():
                    return pc()
                """,
        })
        result = analyze([root])
        assert rules_of(result) == ["RPR001"]
        assert result.findings[0].pattern == "time.perf_counter"

    def test_module_level_random_flagged(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/chaos/jitter.py": """\
                import random

                def jitter():
                    return random.randint(0, 3)
                """,
        })
        result = analyze([root])
        assert rules_of(result) == ["RPR001"]
        assert result.findings[0].pattern == "random.randint"

    def test_unseeded_random_instance_flagged(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/graph/shuffle.py": """\
                import random

                def make_rng():
                    return random.Random()
                """,
        })
        result = analyze([root])
        assert rules_of(result) == ["RPR001"]
        assert result.findings[0].pattern == "random.Random:unseeded"

    def test_seeded_random_instance_ok(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/graph/shuffle.py": """\
                import random

                def shuffle(items, seed):
                    rng = random.Random(seed)
                    rng.shuffle(items)
                    return rng.random()
                """,
        })
        assert analyze([root]).findings == []

    def test_out_of_scope_module_ignored(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/pgql/stamp.py": """\
                import time

                def stamp():
                    return time.time()
                """,
        })
        assert analyze([root]).findings == []

    def test_inline_suppression(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/runtime/clock.py": """\
                import time

                def stamp():
                    return time.time()  # repro: allow(RPR001)
                """,
        })
        result = analyze([root])
        assert result.findings == []
        assert result.suppressed == 1

    def test_suppression_on_preceding_line(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/runtime/clock.py": """\
                import time

                def stamp():
                    # repro: allow(RPR001)
                    return time.time()
                """,
        })
        result = analyze([root])
        assert result.findings == []
        assert result.suppressed == 1

    def test_suppression_is_rule_specific(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/runtime/clock.py": """\
                import time

                def stamp():
                    return time.time()  # repro: allow(RPR002)
                """,
        })
        result = analyze([root])
        assert rules_of(result) == ["RPR001"]
        assert result.suppressed == 0


# ----------------------------------------------------------------------
# RPR002 — zero-cost-off instrumentation
# ----------------------------------------------------------------------

class TestZeroCostOffRule:
    def test_unguarded_tracer_call_flagged(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/runtime/hot.py": """\
                class Machine:
                    def emit_result(self, ctx):
                        self.recording.emit(ctx)
                """,
        })
        result = analyze([root])
        assert rules_of(result) == ["RPR002"]
        assert result.findings[0].pattern == "self.recording.emit"
        assert result.findings[0].symbol == "Machine.emit_result"

    @pytest.mark.parametrize("body", [
        # canonical guard
        """\
        if self.recording is not None:
            self.recording.emit(ctx)
        """,
        # and-conjunction guard
        """\
        if ready and self.recording is not None:
            self.recording.emit(ctx)
        """,
        # ternary
        """\
        return self.recording.emit(ctx) if self.recording is not None else None
        """,
        # short-circuit and
        """\
        self.recording is not None and self.recording.emit(ctx)
        """,
        # short-circuit or on the None test
        """\
        self.recording is None or self.recording.emit(ctx)
        """,
        # early return
        """\
        if self.recording is None:
            return
        self.recording.emit(ctx)
        """,
        # assert
        """\
        assert self.recording is not None
        self.recording.emit(ctx)
        """,
        # guard on the root handle covers sub-objects (and a leading
        # underscore is the same handle)
        """\
        if self._recording is not None:
            self._recording.series.flush(1)
        """,
        # truthiness guard
        """\
        if self.recording:
            self.recording.emit(ctx)
        """,
    ])
    def test_guarded_shapes_ok(self, tmp_path, body):
        indented = textwrap.indent(textwrap.dedent(body), " " * 8)
        root = write_package(tmp_path, {
            "repro/runtime/hot.py": (
                "class Machine:\n"
                "    def emit_result(self, ctx):\n" + indented
            ),
        })
        assert analyze([root]).findings == []

    def test_guard_does_not_leak_out_of_branch(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/runtime/hot.py": """\
                class Machine:
                    def emit_result(self, ctx):
                        if self.recording is not None:
                            pass
                        self.recording.emit(ctx)
                """,
        })
        assert rules_of(analyze([root])) == ["RPR002"]

    def test_reassignment_invalidates_guard(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/runtime/hot.py": """\
                def run(recording, other):
                    if recording is not None:
                        recording = other
                        recording.emit(1)
                """,
        })
        assert rules_of(analyze([root])) == ["RPR002"]

    def test_nested_scope_does_not_inherit_guard(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/runtime/hot.py": """\
                def run(recording):
                    if recording is not None:
                        def flush():
                            recording.emit(1)
                        return flush
                """,
        })
        assert rules_of(analyze([root])) == ["RPR002"]

    def test_sibling_guard_is_not_enough(self, tmp_path):
        # The guard must cover the handle actually called: guarding one
        # context's `recording` says nothing about another's.
        root = write_package(tmp_path, {
            "repro/runtime/hot.py": """\
                def run(scoped, context):
                    if scoped.recording is not None:
                        context.recording.emit(1)
                """,
        })
        assert rules_of(analyze([root])) == ["RPR002"]

    def test_out_of_scope_module_ignored(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/obs/hot.py": """\
                def run(recording):
                    recording.emit(1)
                """,
        })
        assert analyze([root]).findings == []

    def test_non_tracer_objects_ignored(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/runtime/hot.py": """\
                def run(queue, trace_name):
                    queue.append(1)
                    return trace_name.upper()
                """,
        })
        assert analyze([root]).findings == []


# ----------------------------------------------------------------------
# RPR003 — protocol exhaustiveness (cross-module)
# ----------------------------------------------------------------------

FIXTURE_MESSAGES = """\
    class Ping:
        def __init__(self, stage):
            self.stage = stage

    class Pong:
        def __init__(self, stage):
            self.stage = stage

    class Phantom:
        '''Synthetic unhandled message type.'''

    class _Internal:
        '''Private helper: not part of the protocol.'''
    """

FIXTURE_MACHINE = """\
    from repro.runtime.messages import Ping, Pong, Phantom

    class Machine:
        def dispatch(self, payload):
            if isinstance(payload, (Ping, Pong)):
                return payload.stage
            raise ValueError(payload)

        def send_all(self, api):
            api.send(Ping(1))
            api.send(Pong(2))
            api.send(Phantom())
    """


class TestProtocolExhaustivenessRule:
    def test_synthetic_unhandled_class_flagged(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/runtime/messages.py": FIXTURE_MESSAGES,
            "repro/runtime/machine.py": FIXTURE_MACHINE,
        })
        result = analyze([root])
        assert rules_of(result) == ["RPR003"]
        finding = result.findings[0]
        assert finding.pattern == "Phantom:unhandled"
        assert finding.severity == "error"
        assert finding.path == "repro/runtime/messages.py"
        assert "no isinstance dispatch arm" in finding.message

    def test_unconstructed_class_is_a_warning(self, tmp_path):
        machine = FIXTURE_MACHINE.replace("api.send(Phantom())\n", "") \
            .replace(
                "if isinstance(payload, (Ping, Pong)):",
                "if isinstance(payload, (Ping, Pong, Phantom)):",
            )
        root = write_package(tmp_path, {
            "repro/runtime/messages.py": FIXTURE_MESSAGES,
            "repro/runtime/machine.py": machine,
        })
        result = analyze([root])
        assert rules_of(result) == ["RPR003"]
        finding = result.findings[0]
        assert finding.pattern == "Phantom:unconstructed"
        assert finding.severity == "warning"

    def test_private_classes_ignored(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/runtime/messages.py": FIXTURE_MESSAGES,
            "repro/runtime/machine.py": FIXTURE_MACHINE.replace(
                "if isinstance(payload, (Ping, Pong)):",
                "if isinstance(payload, (Ping, Pong, Phantom)):",
            ),
        })
        # _Internal is neither handled nor constructed, yet not flagged.
        assert analyze([root]).findings == []

    def test_messages_without_dispatcher_skipped(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/runtime/messages.py": FIXTURE_MESSAGES,
        })
        assert analyze([root]).findings == []

    def test_handler_in_reliability_module_counts(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/runtime/messages.py": """\
                class Frame:
                    pass
                """,
            "repro/runtime/machine.py": """\
                def noop(payload):
                    return payload
                """,
            "repro/runtime/reliability.py": """\
                from repro.runtime.messages import Frame

                def receive(payload):
                    if isinstance(payload, Frame):
                        return payload
                    return Frame()
                """,
        })
        assert analyze([root]).findings == []


# ----------------------------------------------------------------------
# RPR004 — mutable defaults / RPR005 — exception hygiene
# ----------------------------------------------------------------------

class TestHygieneRules:
    def test_mutable_default_flagged(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/plan/opts.py": """\
                def plan(stages=[], *, hints={}):
                    return stages, hints
                """,
        })
        result = analyze([root])
        assert rules_of(result) == ["RPR004", "RPR004"]
        assert result.findings[0].pattern == "plan(stages)"
        assert result.findings[1].pattern == "plan(hints)"

    def test_mutable_call_default_flagged(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/plan/opts.py": """\
                def plan(stages=list()):
                    return stages
                """,
        })
        assert rules_of(analyze([root])) == ["RPR004"]

    def test_immutable_defaults_ok(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/plan/opts.py": """\
                def plan(stages=(), hint=None, name="x", seqs=frozenset()):
                    return stages, hint, name, seqs
                """,
        })
        assert analyze([root]).findings == []

    def test_bare_except_flagged(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/runtime/guard.py": """\
                def step(worker):
                    try:
                        worker.step()
                    except:
                        pass
                """,
        })
        result = analyze([root])
        assert rules_of(result) == ["RPR005"]
        assert result.findings[0].pattern == "bare:except"

    def test_broad_except_without_reraise_flagged(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/runtime/guard.py": """\
                def step(worker):
                    try:
                        worker.step()
                    except (ValueError, Exception) as exc:
                        print(exc)
                """,
        })
        result = analyze([root])
        assert rules_of(result) == ["RPR005"]
        assert "QueryAborted" in result.findings[0].message

    def test_broad_except_with_reraise_ok(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/runtime/guard.py": """\
                def step(worker):
                    try:
                        worker.step()
                    except Exception:
                        worker.cleanup()
                        raise
                """,
        })
        assert analyze([root]).findings == []

    def test_narrow_except_ok(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/runtime/guard.py": """\
                def step(worker):
                    try:
                        worker.step()
                    except ValueError:
                        pass
                """,
        })
        assert analyze([root]).findings == []


# ----------------------------------------------------------------------
# Mutation tests on the real sources (acceptance criteria)
# ----------------------------------------------------------------------

class TestMutations:
    def test_unmutated_runtime_copies_are_clean(self, tmp_path):
        root = write_package(tmp_path, {
            "repro/runtime/machine.py": (RUNTIME / "machine.py").read_text(),
            "repro/runtime/messages.py":
                (RUNTIME / "messages.py").read_text(),
            "repro/runtime/reliability.py":
                (RUNTIME / "reliability.py").read_text(),
        })
        assert analyze([root]).findings == []

    def test_unguarding_one_tracer_call_fails(self, tmp_path):
        source = (RUNTIME / "machine.py").read_text()
        guard = ("if self.recording is not None:\n"
                 "            self.recording.emit(ResultEmitted(")
        assert guard in source
        root = write_package(tmp_path, {
            "repro/runtime/machine.py": source.replace(
                guard, guard.replace("self.recording is not None", "True")
            ),
        })
        result = analyze([root])
        assert "RPR002" in rules_of(result)
        assert result.fails("error")

    def test_deleting_one_message_handler_fails(self, tmp_path):
        machine = (RUNTIME / "machine.py").read_text()
        arm = "isinstance(payload, Completed)"
        assert arm in machine
        root = write_package(tmp_path, {
            "repro/runtime/machine.py": machine.replace(arm, "False", 1),
            "repro/runtime/messages.py":
                (RUNTIME / "messages.py").read_text(),
            "repro/runtime/reliability.py":
                (RUNTIME / "reliability.py").read_text(),
        })
        result = analyze([root])
        assert any(
            finding.rule == "RPR003"
            and finding.pattern == "Completed:unhandled"
            for finding in result.findings
        )
        assert result.fails("error")


# ----------------------------------------------------------------------
# Self-hosting: the tree itself stays clean
# ----------------------------------------------------------------------

class TestSelfHosting:
    def test_src_repro_has_zero_unbaselined_findings(self):
        # Nothing is whitelisted out of band: the tree is clean on its
        # own, inline suppressions aside.
        assert analyze([str(SRC_REPRO)]).findings == []

    def test_cli_gate_exits_zero(self, capsys):
        code = main([
            "lint", str(SRC_REPRO), "--fail-on", "warning",
        ])
        assert code == 0
        assert "0 findings" in capsys.readouterr().out


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

class TestLintCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.command == "lint"
        assert args.paths == []
        assert args.format == "text"
        assert args.fail_on == "error"

    def test_json_format(self, tmp_path, capsys):
        root = write_package(tmp_path, {
            "repro/runtime/clock.py": """\
                import time

                def stamp():
                    return time.time()
                """,
        })
        code = main(["lint", str(root), "--format", "json"])
        assert code == EXIT_LINT
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro-lint/2"
        assert document["summary"]["errors"] == 1
        assert document["findings"][0]["rule"] == "RPR001"
        assert "snippet_hash" not in document["findings"][0]

    def test_json_out_artifact(self, tmp_path, capsys):
        root = write_package(tmp_path, {
            "repro/runtime/clock.py": "def stamp():\n    return 0\n",
        })
        out = tmp_path / "report.json"
        code = main(["lint", str(root), "--json-out", str(out)])
        assert code == 0
        document = json.loads(out.read_text())
        assert document["summary"]["errors"] == 0
        capsys.readouterr()

    def test_fail_on_warning_vs_error(self, tmp_path, capsys):
        machine = FIXTURE_MACHINE.replace("api.send(Phantom())\n", "") \
            .replace(
                "if isinstance(payload, (Ping, Pong)):",
                "if isinstance(payload, (Ping, Pong, Phantom)):",
            )
        root = write_package(tmp_path, {
            "repro/runtime/messages.py": FIXTURE_MESSAGES,
            "repro/runtime/machine.py": machine,
        })
        # Only a warning-level finding: fail-on error passes ...
        assert main(["lint", str(root)]) == 0
        # ... fail-on warning does not.
        assert main(["lint", str(root),
                     "--fail-on", "warning"]) == EXIT_LINT
        capsys.readouterr()

    def test_explain_known_rule(self, capsys):
        assert main(["lint", "--explain", "RPR003"]) == 0
        out = capsys.readouterr().out
        assert "RPR003" in out
        assert "termination" in out

    def test_explain_unknown_rule(self, capsys):
        assert main(["lint", "--explain", "RPR999"]) == 2
        capsys.readouterr()

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["lint", "definitely/not/a/path"]) == 2
        assert "definitely/not/a/path" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Docs: --explain and the catalogue share one source of truth
# ----------------------------------------------------------------------

class TestDocSync:
    def test_catalog_embedded_in_docs(self):
        doc = (REPO_ROOT / "docs" / "static-analysis.md").read_text()
        assert render_catalog() in doc

    def test_explain_reuses_rule_rationale(self):
        for rule_id in ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005",
                        "RPR006", "RPR007", "RPR008", "RPR009"):
            rule = rule_by_id(rule_id)
            text = explain(rule_id)
            assert rule.rationale in text
            for line in rule.example.splitlines():
                assert line in text  # --explain indents, substring holds
            # ... which is the same text the doc catalogue renders.
            assert rule.rationale in render_catalog()
