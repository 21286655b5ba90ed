"""End-to-end checks of the command-line front end."""

import json

import pytest

from tbdag import MAX, MIN, generate, list_presets, parse_game, serialize_game
from tbdag.cli import main


def run_json(capsys, *argv):
    code = main([*argv, "--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestGen:
    def test_preset_written_with_manifest(self, tmp_path, capsys):
        out = tmp_path / "fig2.json"
        code, payload = run_json(capsys, "gen", "fig2", "-o", str(out))
        assert code == 0
        assert payload["nodes"] == 23
        doc = json.loads(out.read_text())
        assert doc["manifest"]["subcommand"] == "gen"
        assert doc["manifest"]["tool"] == "tbdag"
        g = parse_game(doc)
        assert g.num_nodes == 23

    def test_family_flags_match_the_preset(self, tmp_path, capsys):
        out = tmp_path / "k.json"
        code = main(
            ["gen", "kuhn", "-n", "2", "-r", "3", "--team-min", "2", "-o", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        built = parse_game(json.loads(out.read_text()))
        preset = generate(list_presets()["2K3"])
        assert serialize_game(built) == serialize_game(preset)

    def test_team_max_takes_the_complement(self, tmp_path, capsys):
        out = tmp_path / "k.json"
        code = main(
            ["gen", "kuhn", "-n", "3", "-r", "3", "--team-max", "1,3", "-o", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        built = parse_game(json.loads(out.read_text()))
        preset = generate(list_presets()["3K3[2]"])
        assert serialize_game(built) == serialize_game(preset)

    def test_unknown_target_fails(self, capsys):
        assert main(["gen", "no-such-game"]) == 1
        assert "preset" in capsys.readouterr().err

    def test_worst_case_parameters(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        code = main(
            ["gen", "worst-case", "-k", "1", "-b", "2", "-d", "5", "-o", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        assert parse_game(json.loads(out.read_text())).num_nodes == 26


class TestInfo:
    def test_recall_and_fanout_report(self, capsys):
        code, payload = run_json(capsys, "info", "fig2")
        assert code == 0
        side = payload["sides"]["max"]
        assert side["perfect_recall"] is False
        assert side["timeability_width"] == 3
        assert side["dag"]["max_fanout"] == 4
        assert len(side["dag"]["max_fanout_belief"]) == 2
        assert side["dag"]["prescription_bound"] == 27
        assert payload["sides"]["min"]["perfect_recall"] is True

    def test_budget_abort_exits_2_after_the_analysis(self, capsys):
        code = main(["info", "3K3[1]", "--budget", "100"])
        out = capsys.readouterr().out
        assert code == 2
        # The recall analysis is reported before the abort.
        assert "side max: perfect-recall=" in out
        assert "aborted" in out


class TestBuild:
    def test_both_sides_with_bound_slack(self, capsys):
        code, payload = run_json(capsys, "build", "fig2")
        assert code == 0
        for side in (MAX, MIN):
            detail = payload["sides"][side]
            assert detail["edges"] <= detail["edge_bound"]
            assert detail["bound_slack"] > 0

    def test_split_aliases_agree(self, capsys):
        _, via_alias = run_json(capsys, "build", "fig2", "--split", "obs")
        _, spelled = run_json(capsys, "build", "fig2", "--split", "observation")
        assert via_alias["sides"] == spelled["sides"]

    def test_count_mode(self, capsys):
        code, payload = run_json(
            capsys, "build", "fig9-C8", "--side", "max", "--split", "pub", "--count"
        )
        assert code == 0
        d = payload["sides"]["max"]
        assert (d["dec"], d["obs"], d["edges"]) == (509, 3985, 16598)

    def test_dump_dag_embeds_manifest(self, tmp_path, capsys):
        out = tmp_path / "dag.json"
        code = main(["build", "fig2", "--side", "max", "--dump-dag", str(out)])
        assert code == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["manifest"]["subcommand"] == "build"

    def test_budget_abort_exits_2(self, capsys):
        assert main(["build", "worst-k2b2d6", "--budget", "50"]) == 2
        assert "budget" in capsys.readouterr().err


class TestBeliefGame:
    def test_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "bg.json"
        code, payload = run_json(capsys, "belief-game", "fig2", "-o", str(out))
        assert code == 0
        assert payload["nodes"] == 165
        doc = json.loads(out.read_text())
        bg = parse_game(doc)
        assert bg.num_nodes == 165
        assert len(doc["annotations"]) == 165
        assert doc["manifest"]["subcommand"] == "belief-game"

    def test_budget_abort_exits_2(self, capsys):
        assert main(["belief-game", "worst-k2b2d6", "--budget", "1000"]) == 2


class TestSolveCommand:
    def test_log_and_averages_artifacts(self, tmp_path, capsys):
        log = tmp_path / "run.csv"
        avg = tmp_path / "avg.json"
        code, payload = run_json(
            capsys,
            "solve",
            "fig2",
            "--algo",
            "pcfr+",
            "--eps",
            "1e-3",
            "--log",
            str(log),
            "--save-avg",
            str(avg),
        )
        assert code == 0
        assert payload["converged"] is True
        assert abs(payload["value"]) <= 1e-3

        lines = log.read_text().splitlines()
        assert lines[0].startswith("# {")
        manifest = json.loads(lines[0][2:])
        assert manifest["subcommand"] == "solve"
        assert lines[1] == "iter,time_ms,gap,br_max,br_min,value,bound"
        assert len(lines) >= 3

        doc = json.loads(avg.read_text())
        sides = {s["side"] for s in doc["strategies"]}
        assert sides == {MAX, MIN}
        for entry in doc["strategies"]:
            for prob in entry["terminal_realization"].values():
                assert -1e-12 <= prob <= 1 + 1e-12

    def test_behavior_flag_adds_local_strategies(self, tmp_path, capsys):
        avg = tmp_path / "avg.json"
        code = main(
            ["solve", "fig2", "--save-avg", str(avg), "--behavior", "--max-iters", "60"]
        )
        assert code == 0
        capsys.readouterr()
        doc = json.loads(avg.read_text())
        for entry in doc["strategies"]:
            assert entry["behavior"]
            for mix in entry["behavior"]:
                assert sum(mix) == pytest.approx(1.0, abs=1e-9)


class TestOracleCheck:
    def test_certifies_solver_output(self, tmp_path, capsys):
        avg = tmp_path / "avg.json"
        assert main(["solve", "2K3", "--eps", "1e-3", "--save-avg", str(avg)]) == 0
        capsys.readouterr()
        code, payload = run_json(capsys, "oracle-check", "2K3", "--avg", str(avg))
        assert code == 0
        assert payload["ok"] is True
        for side in (MAX, MIN):
            assert payload["sides"][side]["abs_diff"] <= 1e-6

    def test_malformed_file_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"strategies": [{"side": "max"}]}))
        assert main(["oracle-check", "fig2", "--avg", str(bad)]) == 1
        assert "malformed" in capsys.readouterr().err


class TestBench:
    def test_csv_shape(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", "--games", "fig2", "--max-iters", "500", "-o", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# {")
        header = lines[1].split(",")
        assert header[:5] == ["game", "nodes", "terminals", "dec_max", "obs_max"]
        row = dict(zip(header, lines[2].split(",")))
        assert row["game"] == "fig2"
        assert int(row["nodes"]) == 23
        assert int(row["converged"]) == 1


class TestPlumbing:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "tbdag" in capsys.readouterr().out

    def test_missing_file_exits_1(self, capsys):
        assert main(["info", "/nonexistent/game.json"]) == 1

    def test_corrupt_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["info", str(bad)]) == 1

    def test_nan_utility_exits_1_without_traceback(self, tmp_path, capsys):
        doc = serialize_game(generate(list_presets()["fig2"]))
        z = next(n for n in doc["nodes"] if n["kind"] == "terminal")
        z["utility"] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))  # written and read back as NaN
        assert main(["solve", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "not finite" in err
        assert "Traceback" not in err

    def test_solver_runtime_error_exits_1(self, monkeypatch, capsys):
        def fail(*args):
            raise RuntimeError("non-finite value at iteration 1")

        monkeypatch.setattr("tbdag.cli.solve", fail)
        assert main(["solve", "fig2"]) == 1
        assert "non-finite value" in capsys.readouterr().err
