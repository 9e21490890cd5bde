"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.graphs import build_graph_from_spec
from repro.registry import algorithm_names


class TestBuildGraph:
    def test_er(self):
        g = build_graph_from_spec("er:50:0.2", weights="uniform", seed=1)
        assert g.n == 50

    def test_ba(self):
        g = build_graph_from_spec("ba:40:2", weights="uniform", seed=1)
        assert g.n == 40

    def test_grid(self):
        assert build_graph_from_spec("grid:4:5", weights="uniform").n == 20

    def test_geo(self):
        assert build_graph_from_spec("geo:30:0.5", weights="uniform", seed=2).n == 30

    def test_cliques(self):
        assert build_graph_from_spec("cliques:4:5", weights="uniform").n == 20

    def test_new_families_reachable(self):
        assert build_graph_from_spec("torus:4:5", weights="uniform").n == 20
        assert build_graph_from_spec("complete:10", weights="uniform").n == 10
        assert build_graph_from_spec("tree:15", weights="uniform", seed=1).n == 15

    def test_bad_family(self):
        with pytest.raises(SystemExit, match="bad graph spec"):
            main(["spanner", "--graph", "hypercube:4"])

    def test_bad_args(self):
        with pytest.raises(SystemExit, match="bad graph spec"):
            main(["apsp", "--graph", "er:notanint:0.5"])

    @pytest.mark.parametrize("command", ["mpc", "query", "serve"])
    def test_every_command_reports_a_bad_spec(self, command, tmp_path):
        store = [] if command == "mpc" else ["--store", str(tmp_path)]
        with pytest.raises(SystemExit, match="bad graph spec"):
            main([command, "--graph", "nope:1", *store])


class TestSpanner:
    def test_spanner_all_registered_algorithms(self, capsys):
        for algo in algorithm_names("spanner"):
            rc = main(
                ["spanner", "--graph", "er:80:0.2", "--algorithm", algo, "-k", "3", "--seed", "1"]
            )
            assert rc == 0
            out = capsys.readouterr().out
            assert "stretch: max" in out, algo

    def test_spanner_accepts_alias(self, capsys):
        rc = main(["spanner", "--graph", "er:60:0.2", "--algorithm", "spanner-mpc", "-k", "3"])
        assert rc == 0
        assert "simulated rounds:" in capsys.readouterr().out

    def test_spanner_unweighted(self, capsys):
        rc = main(["spanner", "--graph", "er:60:0.2", "--algorithm", "unweighted", "-k", "2"])
        assert rc == 0
        assert "spanner:" in capsys.readouterr().out

    def test_spanner_json(self, capsys):
        rc = main(
            ["spanner", "--graph", "grid:6:6", "--algorithm", "streaming", "-k", "4", "--json"]
        )
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["algorithm"] == "streaming"
        assert record["graph_n"] == 36
        assert record["max_stretch"] >= 1.0
        assert record["stream_passes"] >= 1

    def test_spanner_from_file_spec(self, capsys, tmp_path):
        from repro.graphs import erdos_renyi, write_edgelist

        path = tmp_path / "g.edges"
        write_edgelist(erdos_renyi(40, 0.3, weights="uniform", rng=0), path)
        rc = main(["spanner", "--graph", f"file:{path}", "--algorithm", "general", "-k", "3"])
        assert rc == 0
        assert "spanner:" in capsys.readouterr().out


class TestApsp:
    def test_apsp_mpc(self, capsys):
        rc = main(["apsp", "--graph", "er:60:0.2", "--model", "mpc"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rounds:" in out and "approximation" in out

    def test_apsp_cc(self, capsys):
        rc = main(["apsp", "--graph", "er:60:0.2", "--model", "cc", "--weights", "integer"])
        assert rc == 0
        assert "rounds:" in capsys.readouterr().out

    def test_apsp_json(self, capsys):
        rc = main(["apsp", "--graph", "er:60:0.2", "--model", "mpc", "--json"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["model"] == "mpc"
        assert record["rounds"] > record["collection_rounds"]
        assert record["max_approximation"] >= 1.0


class TestTradeoff:
    def test_tradeoff(self, capsys):
        rc = main(["tradeoff", "-k", "9"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "t=1" in out and "k^" in out


class TestMpc:
    def test_mpc(self, capsys):
        rc = main(["mpc", "--graph", "er:80:0.15", "-k", "4", "-t", "2", "--gamma", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "machines:" in out and "simulated rounds:" in out


class TestList:
    def test_list_shows_everything(self, capsys):
        rc = main(["list"])
        assert rc == 0
        out = capsys.readouterr().out
        from repro.graphs import graph_family_names

        for name in algorithm_names():
            assert name in out
        for fam in graph_family_names():
            assert f"{fam}:" in out or f"  {fam}" in out
        assert "aliases:" in out

    def test_list_json(self, capsys):
        rc = main(["list", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert {a["name"] for a in payload["algorithms"]} == set(algorithm_names())
        assert {f["name"] for f in payload["graph_families"]} >= {"er", "file", "torus"}
        assert payload["aliases"]["spanner-mpc"] == "mpc"


class TestSweep:
    @pytest.fixture
    def plan_file(self, tmp_path):
        plan = {
            "name": "cli-test",
            "algorithms": ["general", "streaming"],
            "graphs": ["er:48:0.2"],
            "ks": [3],
            "seeds": [0, 1],
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        return path

    def test_sweep_runs_and_resumes(self, capsys, tmp_path, plan_file):
        out_dir = tmp_path / "results"
        rc = main(["sweep", "--plan", str(plan_file), "--out", str(out_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "4 trials (4 executed" in out
        assert (out_dir / "results.csv").exists()

        rc = main(["sweep", "--plan", str(plan_file), "--out", str(out_dir), "--json"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["executed"] == 0 and summary["skipped"] == 4

    def test_sweep_dry_run(self, capsys, plan_file):
        rc = main(["sweep", "--plan", str(plan_file), "--dry-run"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "4 trials" in out and "general" in out

    def test_sweep_missing_plan(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot load plan"):
            main(["sweep", "--plan", str(tmp_path / "nope.json")])

    def test_sweep_bad_plan(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"algorithms": ["nope"], "graphs": ["er:10:0.5"]}))
        with pytest.raises(SystemExit, match="bad plan"):
            main(["sweep", "--plan", str(path)])


class TestDependencies:
    def test_cli_runs_without_networkx(self):
        code = (
            "import sys; sys.modules['networkx'] = None\n"
            "from repro.cli import main\n"
            "sys.exit(main(['spanner', '--graph', 'er:40:0.2', '-k', '3']))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert "stretch: max" in proc.stdout


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "--batch", "0"],
            ["query", "--num-pairs", "-3"],
            ["query", "--cache-rows", "0"],
            ["query", "--shards", "-1"],
            ["query", "-k", "0"],
            ["serve", "--max-batch", "0"],
            ["serve", "--max-pending", "0"],
        ],
    )
    def test_out_of_range_numbers_are_usage_errors(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--store", str(tmp_path / "store"), "--build"])
        assert exc.value.code == 2
        assert "must be >=" in capsys.readouterr().err
        assert not (tmp_path / "store").exists()  # rejected before any work

    def test_algorithm_choices_are_spanners_for_service_commands(self, capsys):
        for command in ("query", "serve"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--store", "unused", "--algorithm", "apsp-mpc"])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err


class TestVerify:
    def test_verify_single_run(self, capsys):
        rc = main(
            ["verify", "--algorithm", "baswana-sen", "--graph", "er:48:0.2", "-k", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "certified" in out
        assert "stretch" in out and "size" in out

    def test_verify_json_and_out(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        rc = main(
            [
                "verify", "--algorithm", "streaming", "--graph", "er:48:0.2",
                "-k", "4", "--json", "--out", str(path),
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert any(c["name"] == "passes" for c in payload["checks"])
        assert json.loads(path.read_text()) == payload

    def test_verify_requires_algorithm_without_matrix(self):
        with pytest.raises(SystemExit, match="--algorithm"):
            main(["verify", "--graph", "er:16:0.3"])

    def test_verify_unknown_algorithm(self):
        with pytest.raises(SystemExit, match="unknown algorithm"):
            main(["verify", "--algorithm", "nope", "--graph", "er:16:0.3", "-k", "2"])

    def test_verify_matrix(self, capsys, tmp_path):
        out = tmp_path / "conf"
        rc = main(
            [
                "verify", "--matrix",
                "--algorithms", "baswana-sen,streaming",
                "--graphs", "er:40:0.2,grid:5:5",
                "--ks", "3", "--out", str(out),
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "4/4 cells certified" in text
        assert (out / "matrix.json").exists()
        assert (out / "matrix.md").exists()

    def test_verify_matrix_json(self, capsys):
        rc = main(
            [
                "verify", "--matrix", "--json",
                "--algorithms", "baswana-sen",
                "--graphs", "er:32:0.2",
                "--ks", "2,3", "--seeds", "0,1",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["num_cells"] == 4

    def test_verify_spanner_without_k_exits_cleanly(self):
        with pytest.raises(SystemExit, match="requires k"):
            main(["verify", "--algorithm", "baswana-sen", "--graph", "er:16:0.3"])

    def test_verify_matrix_respects_singular_flags(self, capsys):
        rc = main(
            [
                "verify", "--matrix", "--json",
                "--algorithms", "baswana-sen",
                "--graph", "grid:4:4", "--seed", "3", "-k", "2",
                "--weights", "unit",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_cells"] == 1
        (cell,) = payload["cells"]
        assert cell["graph"] == "grid:4:4"
        assert cell["seed"] == 3 and cell["k"] == 2
        assert payload["plan"]["weights"] == ["unit"]

    def test_verify_matrix_bad_plan_exits_cleanly(self):
        with pytest.raises(SystemExit, match="bad matrix plan"):
            main(["verify", "--matrix", "--algorithms", "nope"])
        with pytest.raises(SystemExit, match="bad matrix plan"):
            main(["verify", "--matrix", "--graphs", "er:x:0.1"])

    def test_verify_out_accepts_directory(self, capsys, tmp_path):
        rc = main(
            [
                "verify", "--algorithm", "baswana-sen", "--graph", "er:24:0.2",
                "-k", "3", "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        saved = json.loads((tmp_path / "certificate.json").read_text())
        assert saved["ok"] is True

    def test_verify_matrix_recertifies_by_default(self, capsys, tmp_path):
        out = tmp_path / "conf"
        argv = [
            "verify", "--matrix", "--json", "--algorithms", "baswana-sen",
            "--graph", "er:24:0.2", "-k", "2", "--out", str(out),
        ]
        assert main(argv) == 0
        fresh = json.loads(capsys.readouterr().out)
        assert main(argv) == 0  # default: stale certificates are recomputed
        again = json.loads(capsys.readouterr().out)
        assert fresh["num_cells"] == again["num_cells"] == 1
        assert main(argv + ["--resume"]) == 0  # opt-in reuse for interruptions
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["ok"] is True


class TestFailedCheckOutput:
    """A failing bound check must read as a failure: the table marks the
    row ``FAIL`` (not the old ``XXX`` placeholder) and the process exits
    nonzero."""

    def test_fail_marker_and_nonzero_exit(self, capsys):
        from repro.registry import AlgorithmClaims

        from tests.test_verify import _drop_heaviest_edge, temporary_algorithm

        claims = AlgorithmClaims(
            stretch=lambda ctx: 2.0 * ctx.k - 1.0,
            size=lambda ctx: float(ctx.m),
            source="injected",
        )
        with temporary_algorithm("broken-cli-stretch", _drop_heaviest_edge, claims=claims):
            rc = main(
                [
                    "verify", "--algorithm", "broken-cli-stretch",
                    "--graph", "cycle:16", "-k", "2", "--weights", "unit",
                ]
            )
        out = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL] stretch" in out
        assert "XXX" not in out

    def test_passing_rows_still_marked_ok(self, capsys):
        rc = main(
            ["verify", "--algorithm", "baswana-sen", "--graph", "er:48:0.2", "-k", "3"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "[ok  ]" in out and "FAIL" not in out


class TestJsonSafety:
    """CLI JSON must be spec-valid: non-finite floats serialize as null,
    never as the bare ``Infinity``/``NaN`` tokens json.dumps emits."""

    def test_json_safe_helper(self):
        import math

        from repro.cli import _json_safe

        out = _json_safe(
            {
                "inf": math.inf,
                "ninf": -math.inf,
                "nan": math.nan,
                "nested": [math.inf, {"deep": (1.5, math.nan)}],
                "fine": [0, 1.5, "inf", None, True],
            }
        )
        assert out["inf"] is None and out["ninf"] is None and out["nan"] is None
        assert out["nested"] == [None, {"deep": [1.5, None]}]
        assert out["fine"] == [0, 1.5, "inf", None, True]
        assert "Infinity" not in json.dumps(out)

    def test_verify_json_with_infinite_stretch_is_parseable(self, capsys):
        # Disconnecting spanners measure infinite stretch; the --json body
        # must still parse (measured -> null), where it used to emit the
        # invalid bare Infinity token.
        from repro.registry import AlgorithmClaims

        from tests.test_verify import _drop_half_edges, temporary_algorithm

        claims = AlgorithmClaims(
            stretch=lambda ctx: 100.0,
            size=lambda ctx: float(ctx.m),
            source="injected",
        )
        with temporary_algorithm("broken-cli-disconnect", _drop_half_edges, claims=claims):
            rc = main(
                [
                    "verify", "--algorithm", "broken-cli-disconnect",
                    "--graph", "cycle:12", "-k", "3", "--json",
                ]
            )
        raw = capsys.readouterr().out
        assert rc == 1
        assert "Infinity" not in raw
        payload = json.loads(raw)  # would raise on bare Infinity
        assert payload["ok"] is False
        stretch = next(c for c in payload["checks"] if c["name"] == "stretch")
        assert stretch["measured"] is None
