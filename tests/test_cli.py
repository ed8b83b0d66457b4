"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.engine.benu import count_subgraphs
from repro.graph.graph import complete_graph
from repro.graph.io import write_edge_list
from repro.graph.patterns import get_pattern


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "k5.txt"
    write_edge_list(complete_graph(5), path)
    return str(path)


class TestCount:
    def test_count_from_edge_file(self, edge_file, capsys):
        assert main(["count", "--pattern", "triangle", "--edges", edge_file]) == 0
        assert capsys.readouterr().out.strip() == "10"

    def test_count_from_dataset(self, capsys):
        assert main(["count", "--pattern", "triangle", "--dataset", "as_sim"]) == 0
        count = int(capsys.readouterr().out.strip())
        from repro.engine.config import BenuConfig
        from repro.graph.datasets import load_dataset

        assert count == count_subgraphs(
            get_pattern("triangle"), load_dataset("as_sim"), BenuConfig(relabel=False)
        )

    def test_verbose_summary_on_stderr(self, edge_file, capsys):
        main(["count", "--pattern", "triangle", "--edges", edge_file, "-v"])
        err = capsys.readouterr().err
        assert "makespan" in err

    def test_requires_data_source(self):
        with pytest.raises(SystemExit):
            main(["count", "--pattern", "triangle"])

    def test_rejects_both_sources(self, edge_file):
        with pytest.raises(SystemExit):
            main(
                [
                    "count",
                    "--pattern",
                    "triangle",
                    "--edges",
                    edge_file,
                    "--dataset",
                    "as_sim",
                ]
            )


class TestEnumerate:
    def test_lists_matches(self, edge_file, capsys):
        main(["enumerate", "--pattern", "triangle", "--edges", edge_file])
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10
        assert all(len(line.split("\t")) == 3 for line in lines)

    def test_limit(self, edge_file, capsys):
        main(
            ["enumerate", "--pattern", "triangle", "--edges", edge_file, "--limit", "3"]
        )
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 3
        assert "stopped after 3 matches" in captured.err

    def test_limit_zero(self, edge_file, capsys):
        main(
            ["enumerate", "--pattern", "triangle", "--edges", edge_file, "--limit", "0"]
        )
        captured = capsys.readouterr()
        assert captured.out.strip() == ""

    def test_jsonl_output(self, edge_file, capsys):
        import json

        main(
            [
                "enumerate",
                "--pattern",
                "triangle",
                "--edges",
                edge_file,
                "--output",
                "jsonl",
            ]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10
        matches = {tuple(json.loads(line)) for line in lines}
        assert len(matches) == 10
        assert all(len(m) == 3 for m in matches)

    def test_streams_same_matches_as_collected_run(self, edge_file, capsys):
        from repro.engine.benu import enumerate_subgraphs
        from repro.graph.io import read_edge_list

        main(["enumerate", "--pattern", "triangle", "--edges", edge_file])
        lines = capsys.readouterr().out.strip().splitlines()
        streamed = {tuple(int(x) for x in line.split("\t")) for line in lines}
        expected = set(
            enumerate_subgraphs(
                get_pattern("triangle"), read_edge_list(edge_file)
            )
        )
        assert streamed == expected


class TestPlan:
    def test_searched_plan(self, capsys):
        assert main(["plan", "--pattern", "q4"]) == 0
        captured = capsys.readouterr()
        assert "Init(start)" in captured.out
        assert "ReportMatch" in captured.out
        assert "alpha=" in captured.err

    def test_fixed_order(self, capsys):
        main(["plan", "--pattern", "triangle", "--order", "1,2,3"])
        out = capsys.readouterr().out
        assert "f1 := Init(start)" in out

    def test_compressed_flag(self, capsys):
        main(["plan", "--pattern", "q4", "--compressed"])
        out = capsys.readouterr().out
        # The gem compresses: fewer Foreach loops than vertices - 1.
        assert out.count("Foreach") < 4


class TestListings:
    def test_patterns(self, capsys):
        main(["patterns"])
        out = capsys.readouterr().out
        for name in ("triangle", "q1", "q9", "demo"):
            assert name in out

    def test_datasets_lazy(self, capsys):
        main(["datasets"])
        out = capsys.readouterr().out
        assert "as-Skitter" in out
        assert "(lazy)" in out

    def test_datasets_loaded(self, capsys):
        main(["datasets", "--load"])
        out = capsys.readouterr().out
        assert "(lazy)" not in out


class TestServe:
    def _run_script(self, requests, argv, monkeypatch, capsys):
        import io
        import json
        import sys

        script = "\n".join(json.dumps(r) for r in requests) + "\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(script))
        assert main(["serve", *argv]) == 0
        out = capsys.readouterr().out
        return [json.loads(line) for line in out.strip().splitlines()]

    def test_stdio_roundtrip(self, edge_file, monkeypatch, capsys):
        responses = self._run_script(
            [
                {"op": "graphs"},
                {"op": "submit", "pattern": "triangle", "graph": "k5"},
                {"op": "poll", "query": "q-1", "limit": 100, "wait": 10},
                {"op": "stats"},
                {"op": "shutdown"},
            ],
            ["--edges-graph", f"k5={edge_file}"],
            monkeypatch,
            capsys,
        )
        graphs, submit, poll, stats, bye = responses
        assert graphs["ok"] and graphs["graphs"] == ["k5"]
        assert submit["ok"] and submit["query"] == "q-1"
        assert poll["ok"] and poll["done"] is True
        assert len(poll["matches"]) == 10
        assert all(len(m) == 3 for m in poll["matches"])
        assert stats["ok"] and stats["stats"]["plan_cache"]["misses"] == 1
        assert bye["ok"] and bye["bye"] is True

    def test_register_and_errors(self, monkeypatch, capsys):
        responses = self._run_script(
            [
                {
                    "op": "register",
                    "name": "path",
                    "edges": [[1, 2], [2, 3]],
                },
                {"op": "submit", "pattern": "triangle", "graph": "nope"},
                {"op": "poll", "query": "q-404"},
                {"op": "bogus"},
                "not json at all",
                {"op": "submit", "pattern": "triangle", "graph": "path"},
                {"op": "poll", "query": "q-1", "wait": 10},
                {"op": "shutdown"},
            ],
            [],
            monkeypatch,
            capsys,
        )
        register, unknown_graph, unknown_query, bogus, bad_json, submit, poll, _ = (
            responses
        )
        assert register["ok"] and register["graph"] == "path"
        assert not unknown_graph["ok"]
        assert unknown_graph["error"] == "unknown_graph"
        assert not unknown_query["ok"]
        assert unknown_query["error"] == "unknown_query"
        assert not bogus["ok"] and bogus["error"] == "invalid_query"
        assert not bad_json["ok"] and bad_json["error"] == "invalid_query"
        assert submit["ok"]
        assert poll["ok"] and poll["done"] is True and poll["matches"] == []


class TestParser:
    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_pattern_errors(self, edge_file):
        with pytest.raises(KeyError):
            main(["count", "--pattern", "q42", "--edges", edge_file])


class TestQueryLimit:
    TRIANGLES = "MATCH (a)-(b), (b)-(c), (a)-(c) RETURN *"

    def _run(self, monkeypatch, capsys, *extra):
        """Rows printed by a local ``query`` and the tasks it executed."""
        from repro.telemetry.progress import NullProgress

        executed = []
        monkeypatch.setattr(
            NullProgress,
            "task_done",
            lambda self, embeddings=0, tasks=1: executed.append(tasks),
        )
        main(["query", self.TRIANGLES, "--dataset", "as_sim", *extra])
        return capsys.readouterr().out.strip().splitlines(), sum(executed)

    def test_limit_stops_the_run_early(self, monkeypatch, capsys):
        rows, all_tasks = self._run(monkeypatch, capsys)
        assert len(rows) > 1000
        limited, tasks = self._run(monkeypatch, capsys, "--limit", "1")
        assert limited == rows[:1]
        assert 0 < tasks < all_tasks
