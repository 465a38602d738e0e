"""Tests for the command-line interface."""

import ast
import re
from pathlib import Path

import pytest

from repro import cli
from repro.cli import EXIT_ABORTED, EXIT_ERROR, build_parser, load_graph, \
    main
from repro.errors import GraphError, PgqlSyntaxError
from repro.graph.loaders import graph_from_dict
from repro.pgql import as_query


class TestParser:
    def test_query_args(self):
        args = build_parser().parse_args(
            ["query", "--random", "100x400", "--machines", "2",
             "SELECT a WHERE (a)"]
        )
        assert args.command == "query"
        assert args.machines == 2
        assert args.pgql == "SELECT a WHERE (a)"

    def test_analyze_args(self):
        args = build_parser().parse_args(
            ["analyze", "--bsbm", "100", "pagerank", "--iterations", "5"]
        )
        assert args.command == "analyze"
        assert args.algorithm == "pagerank"
        assert args.iterations == 5

    def test_graph_source_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "SELECT a WHERE (a)"])

    def test_chaos_args(self):
        args = build_parser().parse_args(
            ["chaos", "--random", "100x400", "--profile", "drop",
             "--drop", "0.1", "--stall", "1@5+10", "--verify",
             "SELECT a WHERE (a)"]
        )
        assert args.command == "chaos"
        assert args.profile == "drop"
        assert args.drop == 0.1
        assert args.stall == ["1@5+10"]
        assert args.verify

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["chaos", "--random", "100x400", "--profile", "tsunami",
                 "SELECT a WHERE (a)"]
            )

    def test_timeout_arg(self):
        args = build_parser().parse_args(
            ["query", "--random", "100x400", "--timeout", "50",
             "SELECT a WHERE (a)"]
        )
        assert args.timeout == 50


class TestLoadGraph:
    def test_random(self):
        args = build_parser().parse_args(
            ["query", "--random", "50x200", "SELECT a WHERE (a)"]
        )
        graph = load_graph(args)
        assert graph.num_vertices == 50
        assert graph.num_edges == 200

    def test_random_bad_format(self):
        args = build_parser().parse_args(
            ["query", "--random", "50:200", "SELECT a WHERE (a)"]
        )
        with pytest.raises(SystemExit):
            load_graph(args)

    def test_bsbm(self):
        args = build_parser().parse_args(
            ["query", "--bsbm", "50", "SELECT a WHERE (a)"]
        )
        graph = load_graph(args)
        assert graph.num_vertices > 50

    def test_json_file(self, tmp_path, social_graph):
        from repro.graph import save_json

        path = tmp_path / "g.json"
        save_json(social_graph, path)
        args = build_parser().parse_args(
            ["query", "--graph", str(path), "SELECT a WHERE (a)"]
        )
        graph = load_graph(args)
        assert graph.num_vertices == social_graph.num_vertices

    def test_edge_list_file(self, tmp_path, social_graph):
        from repro.graph import save_edge_list

        path = tmp_path / "g.el"
        save_edge_list(social_graph, path)
        args = build_parser().parse_args(
            ["query", "--graph", str(path), "SELECT a WHERE (a)"]
        )
        graph = load_graph(args)
        assert graph.num_edges == social_graph.num_edges


class TestEndToEnd:
    def test_query_command(self, capsys):
        code = main(
            ["query", "--random", "60x240", "--machines", "2",
             "SELECT a, b WHERE (a)-[]->(b), a.value > 9000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rows" in out
        assert "ticks=" in out

    def test_explain_command(self, capsys):
        code = main(
            ["query", "--random", "60x240", "--explain",
             "SELECT a, b WHERE (a)-[]->(b)"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Stage 0" in out
        assert "output" in out

    def test_query_with_options(self, capsys):
        code = main(
            ["query", "--random", "60x240", "--plan", "selectivity",
             "--semantics", "isomorphism",
             "SELECT a, b WHERE (a)-[]->(b WITH type = 1)"]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "algorithm", ["pagerank", "wcc", "sssp", "triangles", "degree"]
    )
    def test_analyze_command(self, capsys, algorithm):
        code = main(
            ["analyze", "--random", "60x240", "--machines", "2", algorithm,
             "--iterations", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "supersteps:" in out

    def test_trace_prints_each_figure_once(self, capsys):
        code = main(
            ["trace", "--random", "300x1200", "--machines", "3",
             "SELECT a, b WHERE (a)-[]->(b), a.value > b.value"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("time to first result") == 1
        assert out.count("completed_at=") == 2  # one per stage
        for kept in ("machine 2: utilization=", "stage 1: msgs=",
                     "scanned=", "emitted=", "per-machine skew"):
            assert kept in out


class TestChaosCommand:
    QUERY = "SELECT a, b WHERE (a)-[]->(b), a.value > b.value"

    def test_chaos_verify_ok(self, capsys):
        code = main(
            ["chaos", "--random", "100x400", "--machines", "4",
             "--seed", "7", "--profile", "soak", "--verify", self.QUERY]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos" in out
        assert "retransmits=" in out
        assert "verify   : OK" in out

    def test_chaos_crash_aborts(self, capsys):
        code = main(
            ["chaos", "--random", "100x400", "--machines", "4",
             "--crash", "2@10", self.QUERY]
        )
        assert code == EXIT_ABORTED
        out = capsys.readouterr().out
        assert "query aborted: machine 2 crashed" in out
        assert "partial" in out

    def test_bad_stall_spec(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--random", "100x400", "--stall", "nope",
                  self.QUERY])

    def test_bad_crash_spec(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--random", "100x400", "--crash", "nope",
                  self.QUERY])


class TestTimeout:
    def test_timed_out_query_exits_nonzero_with_partial_metrics(
            self, capsys):
        code = main(
            ["query", "--random", "200x800", "--machines", "4",
             "--timeout", "2",
             "SELECT a, b WHERE (a)-[]->(b), a.value > b.value"]
        )
        assert code == EXIT_ABORTED
        assert code != 0
        out = capsys.readouterr().out
        assert "query aborted: deadline of 2 ticks exceeded" in out
        assert "partial  :" in out
        assert "ticks=" in out

    def test_stalled_query_prints_its_diagnosis_without_traceback(
            self, capsys, monkeypatch):
        from repro.cluster.simulator import Simulator

        def step(self):
            raise self.stalled("nothing can move")

        monkeypatch.setattr(Simulator, "step", step)
        code = main(
            ["query", "--random", "200x800", "--machines", "4",
             "SELECT a, b WHERE (a)-[]->(b)"]
        )
        assert code == EXIT_ABORTED
        out = capsys.readouterr().out
        assert "query stalled: nothing can move" in out
        assert "at tick  : 0" in out
        assert "detail   : stages complete: 0/4" in out

    def test_generous_timeout_completes(self, capsys):
        code = main(
            ["query", "--random", "60x240", "--machines", "2",
             "--timeout", "100000",
             "SELECT a, b WHERE (a)-[]->(b), a.value > 9000"]
        )
        assert code == 0
        assert "rows" in capsys.readouterr().out


class TestMonitorCommand:
    QUERY = "SELECT a, b WHERE (a)-[]->(b), a.value > b.value"

    def test_monitor_args(self):
        args = build_parser().parse_args(
            ["monitor", "--random", "100x400", "--interval", "2",
             "--snapshots", "--series-out", "s.jsonl", self.QUERY]
        )
        assert args.command == "monitor"
        assert args.interval == 2
        assert args.snapshots
        assert args.series_out == "s.jsonl"

    def test_monitor_end_to_end(self, capsys, tmp_path):
        prom = tmp_path / "metrics.prom"
        series = tmp_path / "series.csv"
        code = main(
            ["monitor", "--random", "100x400", "--machines", "2",
             "--snapshots", "--prom-out", str(prom),
             "--series-out", str(series), self.QUERY]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "repro monitor" in out
        assert "stage wavefront" in out
        assert "recording:" in out
        assert "# TYPE repro_ops_total counter" in prom.read_text()
        header = series.read_text().splitlines()[0]
        assert header.startswith("tick,machine,")

    def test_monitor_series_jsonl(self, tmp_path, capsys):
        from repro.obs import parse_series_jsonl

        series = tmp_path / "series.jsonl"
        code = main(
            ["monitor", "--random", "60x240", "--machines", "2",
             "--snapshots", "--series-out", str(series), self.QUERY]
        )
        assert code == 0
        meta, rows = parse_series_jsonl(series.read_text())
        assert meta["num_machines"] == 2
        assert rows

    def test_monitor_abort_prints_flow_state(self, capsys):
        code = main(
            ["monitor", "--random", "200x800", "--machines", "4",
             "--snapshots", "--timeout", "3", self.QUERY]
        )
        assert code == EXIT_ABORTED
        out = capsys.readouterr().out
        assert "query aborted: deadline of 3 ticks exceeded" in out
        assert "flow     :" in out
        assert "machine 0:" in out

    def test_monitor_union_query(self, capsys):
        code = main(
            ["monitor", "--random", "60x240", "--machines", "2",
             "--snapshots", "SELECT a, b WHERE (a)-/{1,2}/->(b)"]
        )
        assert code == 0
        assert "recording:" in capsys.readouterr().out


class TestBenchArgs:
    def test_bench_args(self):
        args = build_parser().parse_args(
            ["bench", "--quick", "--tag", "ci", "--compare",
             "BENCH_seed.json", "--threshold", "25"]
        )
        assert args.command == "bench"
        assert args.quick
        assert args.tag == "ci"
        assert args.compare == "BENCH_seed.json"
        assert args.threshold == 25.0


class TestAbortFlowState:
    def test_query_timeout_reports_flow_state(self, capsys):
        code = main(
            ["query", "--random", "200x800", "--machines", "4",
             "--timeout", "2",
             "SELECT a, b WHERE (a)-[]->(b), a.value > b.value"]
        )
        assert code == EXIT_ABORTED
        out = capsys.readouterr().out
        assert "flow     :" in out
        assert "buffered=" in out


class TestServeCommand:
    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--random", "100x400", "--slots", "2",
             "--priority", "3", "--cancel", "1@40",
             "SELECT a WHERE (a)-[]->(b)", "SELECT x WHERE (x)-[]->(y)"]
        )
        assert args.command == "serve"
        assert args.slots == 2
        assert args.priority == [3]
        assert args.cancel == ["1@40"]
        assert len(args.queries) == 2

    def test_serve_end_to_end(self, capsys):
        code = main(
            ["serve", "--random", "100x400", "--machines", "2",
             "--slots", "2",
             "SELECT a, b WHERE (a)-[]->(b)",
             "SELECT a WHERE (a)-[]->(b), (b)-[]->(c)"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scope window" in out
        assert "q0" in out and "q1" in out
        assert out.count("done") >= 2

    def test_serve_cancel_one_tenant(self, capsys):
        code = main(
            ["serve", "--random", "100x400", "--machines", "2",
             "--slots", "2", "--cancel", "0@5",
             "SELECT a, b WHERE (a)-[]->(b)",
             "SELECT a WHERE (a)-[]->(b), (b)-[]->(c)"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cancelled" in out
        assert "done" in out

    def test_serve_deadline_prints_scoped_abort(self, capsys):
        code = main(
            ["serve", "--random", "200x800", "--machines", "2",
             "--slots", "2", "--timeout", "10",
             "SELECT a, b WHERE (a)-[]->(b), a.value > b.value",
             "SELECT a WHERE (a)-[]->(b), (b)-[]->(c)"]
        )
        assert code == EXIT_ABORTED
        out = capsys.readouterr().out
        assert "abort [q0]:" in out
        # Flow entries are tenant-tagged under the service.
        assert "[q0] machine" in out

    def test_bad_cancel_spec(self):
        with pytest.raises(SystemExit):
            main(["serve", "--random", "100x400", "--cancel", "zero@x",
                  "SELECT a WHERE (a)-[]->(b)"])


class TestTrafficCommand:
    def test_traffic_args(self):
        args = build_parser().parse_args(
            ["traffic", "--random", "100x400", "--arrivals", "6",
             "--gap", "32", "--slots", "4", "--sweep", "128,32",
             "--chaos", "soak", "--verify-serial"]
        )
        assert args.command == "traffic"
        assert args.arrivals == 6
        assert args.gap == 32
        assert args.sweep == "128,32"
        assert args.chaos == "soak"
        assert args.verify_serial

    def test_traffic_end_to_end(self, capsys):
        code = main(
            ["traffic", "--random", "100x400", "--machines", "2",
             "--arrivals", "5", "--gap", "24", "--slots", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "arrivals=5 completed=5" in out
        assert "latency p50=" in out
        assert "peak_active=" in out

    def test_traffic_verify_serial_gate(self, capsys):
        code = main(
            ["traffic", "--random", "100x400", "--machines", "2",
             "--arrivals", "4", "--gap", "16", "--slots", "4",
             "--verify-serial"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serial parity: OK" in out

    def test_traffic_sweep(self, capsys):
        code = main(
            ["traffic", "--random", "100x400", "--machines", "2",
             "--arrivals", "4", "--slots", "4", "--sweep", "256,16"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "saturation curve" in out
        assert "256" in out and "16" in out

    def test_traffic_chaos_parity(self, capsys):
        code = main(
            ["traffic", "--random", "100x400", "--machines", "2",
             "--arrivals", "3", "--gap", "24", "--slots", "2",
             "--chaos", "soak", "--verify-serial"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serial parity: OK" in out


class TestStatsCommand:
    def test_stats_args(self):
        args = build_parser().parse_args(
            ["stats", "--bsbm", "100", "--top", "3", "--format", "json"]
        )
        assert args.command == "stats"
        assert args.top == 3
        assert args.format == "json"

    def test_stats_table(self, capsys):
        code = main(["stats", "--random", "80x320", "--top", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "vertex label" in out
        assert "fan-out" in out

    def test_stats_json(self, capsys):
        import json as json_mod

        code = main(["stats", "--random", "80x320", "--format", "json"])
        assert code == 0
        doc = json_mod.loads(capsys.readouterr().out)
        assert doc["num_vertices"] == 80
        assert doc["num_edges"] == 320

    def test_stats_out_saves_graph_with_stats(self, tmp_path, capsys):
        path = str(tmp_path / "g.json")
        code = main(["stats", "--random", "50x200", "--out", path])
        assert code == 0
        reloaded = load_graph(
            build_parser().parse_args(
                ["query", "--graph", path, "SELECT a WHERE (a)"]
            )
        )
        assert reloaded.num_vertices == 50


class TestPlanPolicyFlag:
    def test_plan_cost_explain(self, capsys):
        code = main(
            ["query", "--bsbm", "100", "--plan", "cost", "--explain",
             "SELECT COUNT(*) WHERE (o:offer)-[:offerProduct]->"
             "(p:product)-[:producer]->(pr:producer)"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "planner: policy=cost" in out
        assert "est. cost=" in out
        assert "rejected:" in out
        assert "scores:" in out
        assert "Stage 0" in out

    def test_plan_selectivity_explain(self, capsys):
        code = main(
            ["query", "--random", "60x240", "--plan", "selectivity",
             "--explain", "SELECT a, b WHERE (a)-[]->(b WITH type = 1)"]
        )
        assert code == 0
        assert "planner: policy=selectivity" in capsys.readouterr().out

    def test_plan_cost_runs_query(self, capsys):
        code = main(
            ["query", "--bsbm", "100", "--plan", "cost",
             "SELECT COUNT(*) WHERE (o:offer)-[:offerProduct]->"
             "(p:product)"]
        )
        assert code == 0
        assert "rows" in capsys.readouterr().out

    def test_union_records_no_feedback(self, capsys, tmp_path):
        store = tmp_path / "feedback.json"
        code = main(
            ["query", "--random", "60x240", "--plan", "cost",
             "--feedback-store", str(store),
             "SELECT a, b WHERE (a)-/{1,2}/->(b)"]
        )
        assert code == 0
        assert "feedback :" not in capsys.readouterr().out
        assert not store.exists()

    def test_unknown_plan_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--random", "60x240", "--plan", "psychic",
                 "SELECT a WHERE (a)"]
            )


QUERY = "SELECT a, b WHERE (a)-[]->(b)"
DEEP_QUERY = "SELECT a WHERE (a), " + "(" * 400 + "a.x = 1" + ")" * 400


class TestTypedErrors:
    """Bad input ends in one ``repro <command>: error: ...`` line on
    stderr and exit code 2, never a traceback or a silent run."""

    @pytest.mark.parametrize("argv, names", [
        (["query", "--random", "50x200", "SELECT a WHERE (a"],
         "offset 17"),
        (["query", "--random", "50x200", "--machines", "0", QUERY],
         "num_machines"),
        (["chaos", "--random", "50x200", "--crash", "9@10", QUERY],
         "machine 9"),
        (["chaos", "--random", "50x200", "--stall", "1@-5+3", QUERY],
         "start=-5"),
        (["query", "--graph", "{tmp}/missing.json", QUERY],
         "missing.json"),
        (["query", "--graph", "{tmp}/bad.json", QUERY], "bad.json"),
        (["stats", "--graph", "{tmp}/hostname"], "myhost"),
        (["feedback", "{tmp}/passwd"], "passwd"),
        (["query", "--random", "0x5", QUERY], "V=0"),
        (["query", "--random", "10x-3", QUERY], "E=-3"),
        (["query", "--random", "50x200", DEEP_QUERY], "limit of 64 levels"),
        (["query", "--graph", "{tmp}/list.json", QUERY], "list.json"),
        (["feedback", "{tmp}/rows.json"], "rows.json"),
        (["feedback", "{tmp}/ops.json"], "'k'"),
        (["query", "--random", "50x200", "--plan", "cost",
          "--feedback-store", "{tmp}/rows.json", QUERY], "rows.json"),
        (["bench", "--quick", "--out", "{tmp}/out.json",
          "--compare", "{tmp}/missing.json"], "missing.json"),
        (["bench", "--quick", "--out", "{tmp}/out.json",
          "--compare", "{tmp}/hostname"], "hostname"),
        (["bench", "--quick", "--out", "{tmp}/out.json",
          "--compare", "{tmp}/schema.json"], "schema.json"),
        (["query", "--random", "50x200", "SELECT a.value / 0 WHERE (a)"],
         "division by zero"),
    ])
    def test_bad_input_is_one_line_and_exit_2(self, tmp_path, capsys,
                                              argv, names):
        (tmp_path / "hostname").write_text("myhost\n")
        (tmp_path / "bad.json").write_text('{"edges": [{}]}\n')
        (tmp_path / "list.json").write_text("[]\n")
        (tmp_path / "passwd").write_text("user:x:1000:1000::/home:/bin/sh\n")
        (tmp_path / "rows.json").write_text(
            '{"schema": "repro-feedback/1", "queries": []}\n')
        (tmp_path / "ops.json").write_text(
            '{"schema": "repro-feedback/1", "queries": {"k": '
            '{"pgql": "", "order": [], "use_common_neighbors": false, '
            '"operators": "x"}}}\n')
        (tmp_path / "schema.json").write_text('{"schema": "x"}\n')
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        assert main(argv) == EXIT_ERROR == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        (line,) = captured.err.splitlines()
        assert line.startswith("repro %s: error: " % argv[0])
        assert names in line

    def test_deep_expression_names_the_nesting_limit(self):
        with pytest.raises(PgqlSyntaxError, match="limit of 64 levels"):
            as_query(DEEP_QUERY)

    @pytest.mark.parametrize("document", [
        {"vertices": 3},
        {"vertices": [], "edges": [{"src": 0}]},
        [],
    ], ids=["vertices-not-a-list", "edge-without-dst", "not-an-object"])
    def test_malformed_graph_dict_is_a_graph_error(self, document):
        with pytest.raises(GraphError):
            graph_from_dict(document)


class TestSpecsValidatedFirst:
    """A bad spec stops the command before the first query runs."""

    @pytest.mark.parametrize("argv, message", [
        (["serve", "--random", "50x200", "--cancel=-1@1", QUERY],
         "--cancel index -1 out of range (1 queries)"),
        (["serve", "--random", "50x200", "--cancel=5@1000000", QUERY,
          QUERY], "--cancel index 5 out of range (2 queries)"),
        (["traffic", "--random", "50x200", "--arrivals", "2",
          "--sweep", ","], "--sweep expects G1,G2,..."),
    ])
    def test_rejected_before_running(self, capsys, argv, message):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert str(caught.value).startswith(message)
        assert capsys.readouterr().out == ""


class TestStopReport:
    TIMED_OUT = ["query", "--random", "300x1500", "--timeout", "40",
                 "SELECT a, b, c WHERE (a)-[]->(b)-[]->(c)"]

    def test_timed_out_query_prints_each_machines_windows_once(
            self, capsys):
        assert main(self.TIMED_OUT) == EXIT_ABORTED
        out = capsys.readouterr().out
        window_lists = re.findall(r"\[(s\d+->m\d+:\d+[^\]]*)\]", out)
        machines = re.findall(r"^flow +: machine (\d+):", out, re.M)
        assert machines == ["0", "1", "2", "3"]
        assert len(window_lists) == len(machines)

    def test_str_names_the_stuck_windows(self, monkeypatch):
        from repro import ClusterConfig, ExecutionContext, \
            PgxdAsyncEngine, uniform_random_graph
        from repro.cluster.simulator import Simulator
        from repro.errors import QueryAborted, QueryStalled

        engine = PgxdAsyncEngine(uniform_random_graph(300, 1500),
                                 ClusterConfig(num_machines=4))
        query = "SELECT a, b, c WHERE (a)-[]->(b)-[]->(c)"
        with pytest.raises(QueryAborted) as aborted:
            engine.query(query, context=ExecutionContext(deadline=40))

        real_step = Simulator.step

        def step(self):
            if self.now == 40:
                raise self.stalled("nothing can move")
            return real_step(self)

        monkeypatch.setattr(Simulator, "step", step)
        with pytest.raises(QueryStalled) as stalled:
            engine.query(query)
        for stopped in (aborted.value, stalled.value):
            text = str(stopped)
            assert text.startswith("%s at tick 40: " % stopped.title)
            for entry in stopped.flow_state:
                for (stage, dest), count in entry["occupancy"].items():
                    assert "s%d->m%d:%d" % (stage, dest, count) in text
            assert text.count("flow: machine") == 4


def _args_reads(functions, name, seen):
    """The ``args.<dest>`` reads of function *name* and, transitively,
    of every module function it passes ``args`` to."""
    if name in seen or name not in functions:
        return set()
    seen.add(name)
    reads = set()
    for node in ast.walk(functions[name]):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "args":
            reads.add(node.attr)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Name) \
                and any(isinstance(arg, ast.Name) and arg.id == "args"
                        for arg in node.args):
            reads |= _args_reads(functions, node.func.id, seen)
    return reads


class TestEveryFlagHasAReader:
    def test_every_declared_dest_is_read_by_its_command(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        functions = {node.name: node for node in tree.body
                     if isinstance(node, ast.FunctionDef)}
        (commands,) = (action.choices for action in build_parser()._actions
                       if getattr(action, "choices", None))
        reads, unread = {}, {}
        for command, sub in sorted(commands.items()):
            func = sub.get_default("func")
            reads[command] = _args_reads(functions, func.__name__, set())
            declared = {action.dest for action in sub._actions
                        if action.dest != "help"}
            if declared - reads[command]:
                unread[command] = sorted(declared - reads[command])
        # The walk follows args into helpers: the graph, cluster and
        # ghost flags of `query` are read two calls below cmd_query.
        assert {"graph", "machines", "ghost_threshold"} <= reads["query"]
        assert unread == {}
