"""End-to-end checks of the command-line front end."""

import json
from importlib import import_module

import pytest

from tbdag import MAX, MIN, analyze, generate, list_presets, parse_game, serialize_game
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


class TestAnalysisReuse:
    @pytest.mark.parametrize("command", ["info", "build"])
    def test_each_side_analyzed_once(self, command, monkeypatch, capsys):
        calls = []

        def counted(g, side):
            calls.append(side)
            return analyze(g, side)

        for module in ("tbdag.cli", "tbdag.build"):
            monkeypatch.setattr(f"{module}.analyze", counted)
        assert main([command, "fig2"]) == 0
        capsys.readouterr()
        assert sorted(calls) == [MAX, MIN]


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
        for payload in (via_alias, spelled):
            for detail in payload["sides"].values():
                del detail["phase_ms"]  # timings differ run to run
        assert via_alias["sides"] == spelled["sides"]

    def test_json_reports_phase_timings(self, tmp_path, capsys):
        out = tmp_path / "dag.json"
        code, payload = run_json(
            capsys, "build", "fig2", "--side", "max", "--dump-dag", str(out)
        )
        assert code == 0
        phases = payload["sides"]["max"]["phase_ms"]
        assert set(phases) == {"expand", "prune", "splice", "pack"}
        assert all(v >= 0.0 for v in phases.values())
        # The dumped DAG stays free of timings, so dumps compare equal.
        assert "phase_ms" not in out.read_text()

    def test_count_mode(self, capsys):
        code, payload = run_json(
            capsys, "build", "fig9-C8", "--side", "max", "--split", "pub", "--count"
        )
        assert code == 0
        d = payload["sides"]["max"]
        assert (d["dec"], d["obs"], d["edges"]) == (509, 3985, 16598)
        assert set(d) == {"dec", "obs", "edges", "count_ms"}
        assert d["count_ms"] >= 0.0

    def test_count_mode_text_has_no_timing(self, capsys):
        code = main(
            ["build", "fig9-C8", "--side", "max", "--split", "pub", "--count"]
        )
        assert code == 0
        assert capsys.readouterr().out == (
            "side max (public, counted): 509 decision / 3985 observation "
            "points, 16598 edges\n"
        )

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

    def test_json_reports_build_time_and_text_stays(self, capsys):
        code, payload = run_json(capsys, "belief-game", "fig2")
        assert code == 0
        assert payload["build_ms"] > 0
        assert main(["belief-game", "fig2"]) == 0
        assert capsys.readouterr().out == (
            "belief game of fig2: 165 nodes from 23, 24 terminals, depth 14\n"
            "coordinator infosets: max 40, min 18\n"
        )

    def test_budget_abort_exits_2(self, capsys):
        assert main(["belief-game", "worst-k2b2d6", "--budget", "1000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "budget exceeded: belief game exceeds node budget 1000 "
            "(emitting a node of source depth "
        )
        assert err.endswith(" proxy infosets so far)\n")


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
        assert set(payload["phase_ms"]) == {"build", "iterate", "certify"}
        assert all(ms >= 0.0 for ms in payload["phase_ms"].values())
        assert sum(payload["phase_ms"].values()) <= payload["wall_s"] * 1e3

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
            assert payload["sides"][side]["dag_ms"] > 0
            assert payload["sides"][side]["oracle_ms"] > 0

    def test_malformed_file_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"strategies": [{"side": "max"}]}))
        assert main(["oracle-check", "fig2", "--avg", str(bad)]) == 1
        assert "malformed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda real: real.update({"abc": 0.5}), "names no terminal"),
            (lambda real: real.update({"99999": 0.5}), "names no terminal"),
            (lambda real: real.update({next(iter(real)): "x"}), "not a number"),
            (lambda real: real.update({next(iter(real)): float("nan")}), "not a number"),
            (lambda real: real.update({next(iter(real)): 1.5}), "not a number"),
            (lambda real: real.update({next(iter(real)): -0.1}), "not a number"),
        ],
        ids=["key-abc", "key-no-terminal", "value-x", "value-nan", "value-1.5", "value-negative"],
    )
    def test_bad_realization_rejected(self, mutate, message, tmp_path, capsys):
        avg = tmp_path / "avg.json"
        assert main(["solve", "fig2", "--eps", "1e-2", "--save-avg", str(avg)]) == 0
        doc = json.loads(avg.read_text())
        mutate(doc["strategies"][0]["terminal_realization"])
        avg.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["oracle-check", "fig2", "--avg", str(avg)]) == 1
        assert message in capsys.readouterr().err

    def test_non_object_strategies_entry_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"strategies": [["max", {}]]}))
        assert main(["oracle-check", "fig2", "--avg", str(bad)]) == 1
        assert "malformed" in capsys.readouterr().err

    def test_probabilities_within_tolerance_accepted(self, tmp_path, capsys):
        avg = tmp_path / "avg.json"
        assert main(["solve", "fig2", "--eps", "1e-2", "--save-avg", str(avg)]) == 0
        doc = json.loads(avg.read_text())
        real = doc["strategies"][0]["terminal_realization"]
        first, second = list(real)[:2]
        real[first], real[second] = 1.0 + 1e-10, -1e-10
        avg.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["oracle-check", "fig2", "--avg", str(avg)]) == 0


@pytest.fixture(scope="module")
def avg_2k3(tmp_path_factory):
    avg = tmp_path_factory.mktemp("avg") / "avg.json"
    assert main(["solve", "2K3", "--eps", "1e-3", "--save-avg", str(avg)]) == 0
    return str(avg)


class TestFlagChecks:
    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "2K3", "--budget", "nan"],
            ["info", "2K3", "--budget", "nan"],
            ["build", "2K3", "--budget", "-1"],
            ["build", "2K3", "--count", "--budget", "0.5"],
            ["belief-game", "2K3", "--budget", "0"],
            ["belief-game", "2K3", "--budget", "-1"],
            ["oracle-check", "2K3", "--budget", "0"],
            ["oracle-check", "2K3", "--budget", "-5"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_bad_budget_exits_1_before_any_work(self, argv, avg_2k3, capsys, monkeypatch):
        capsys.readouterr()
        # Every command starts its work by resolving the game.
        monkeypatch.setattr(import_module("tbdag.cli"), "_resolve_game", None)
        if argv[0] == "oracle-check":
            argv = [*argv, "--avg", avg_2k3]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --budget must be a number of at least 1, not ")

    def test_unlimited_budget_accepted(self, capsys):
        assert main(["build", "fig2", "--budget", "inf"]) == 0

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tolerance_exits_1(self, tol, avg_2k3, capsys):
        capsys.readouterr()
        assert main(["oracle-check", "2K3", "--avg", avg_2k3, "--tol", tol]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "tol must be finite and non-negative" in err


class TestBudgetFlag:
    # Every --budget parses the same way: 1e5 and inf are accepted by
    # every command, and an integral value stays an int.
    @pytest.mark.parametrize(
        "argv",
        [
            ["belief-game", "2K3", "--budget", "1e5"],
            ["belief-game", "2K3", "--budget", "inf"],
            ["oracle-check", "2K3", "--budget", "1e6"],
            ["oracle-check", "2K3", "--budget", "inf"],
            ["build", "2K3", "--budget", "1e5"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_exponent_and_unlimited_budgets_accepted(self, argv, avg_2k3, capsys):
        if argv[0] == "oracle-check":
            argv = [*argv, "--avg", avg_2k3]
        assert main(argv) == 0

    def test_abort_message_prints_an_integral_budget_as_int(self, capsys):
        assert main(["belief-game", "worst-k2b2d6", "--budget", "1e3"]) == 2
        err = capsys.readouterr().err
        assert "node budget 1000" in err
        assert "1000.0" not in err


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

    def test_sizes_and_init_time_come_from_the_solve(
        self, tmp_path, monkeypatch, capsys
    ):
        solve_module = import_module("tbdag.solve")
        cli_module = import_module("tbdag.cli")
        built, phase_ms = [], []
        real_build, real_solve = solve_module.build_tbdag, cli_module.solve

        def counted_build(g, side, **kwargs):
            built.append(real_build(g, side, **kwargs))
            return built[-1]

        def recorded_solve(g, config):
            rep = real_solve(g, config)
            phase_ms.append(rep.phase_ms["build"])
            return rep

        monkeypatch.setattr(solve_module, "build_tbdag", counted_build)
        monkeypatch.setattr(cli_module, "build_tbdag", counted_build)
        monkeypatch.setattr(cli_module, "solve", recorded_solve)
        out = tmp_path / "bench.csv"
        argv = ["bench", "--games", "fig2", "--max-iters", "50", "-o", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        row = dict(zip(lines[1].split(","), lines[2].split(",")))
        assert [d.side for d in built] == [MAX, MIN]
        assert int(row["dec_max"]) == built[0].stats.n_dec
        assert int(row["obs_min"]) == built[1].stats.n_obs
        assert row["init_ms"] == f"{phase_ms[0]:.3f}"


class TestPlumbing:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "tbdag" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "2K3", "--eps", "abc"], "argument --eps: invalid float value: 'abc'"),
            (["no-such-command"], "argument cmd: invalid choice: 'no-such-command'"),
        ],
    )
    def test_usage_error_exits_1(self, argv, message, capsys):
        # Exit 2 is kept for a budget abort.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: tbdag")
        assert message in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--help"])
        assert exc.value.code == 0
        assert "--budget" in capsys.readouterr().out

    def test_missing_file_exits_1(self, capsys):
        assert main(["info", "/nonexistent/game.json"]) == 1

    # Where an unreadable file goes: as the game, or as ``--avg``.  The
    # game is read first, so the unread ``--avg`` file need not exist.
    BAD_FILE_ARGVS = {
        "info": ["info", "BAD"],
        "solve": ["solve", "BAD"],
        "oracle-check": ["oracle-check", "BAD", "--avg", "unread.json"],
        "oracle-check --avg": ["oracle-check", "fig2", "--avg", "BAD"],
    }

    def _exits_1_naming(self, bad, where, capsys):
        argv = [str(bad) if a == "BAD" else a for a in self.BAD_FILE_ARGVS[where]]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("where", BAD_FILE_ARGVS)
    def test_corrupt_json_exits_1(self, where, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        self._exits_1_naming(bad, where, capsys)

    @pytest.mark.parametrize("where", BAD_FILE_ARGVS)
    def test_non_utf8_file_exits_1_without_traceback(
        self, where, tmp_path, capsys
    ):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe{\x00}\x00")
        self._exits_1_naming(bad, where, capsys)

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

    def test_malformed_shape_exits_1_without_traceback(self, tmp_path, capsys):
        doc = serialize_game(generate(list_presets()["fig2"]))
        doc["nodes"] = {"0": doc["nodes"][0]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["info", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err == 'error: "nodes" must be a list\n'

    def test_solver_runtime_error_exits_1(self, monkeypatch, capsys):
        def fail(*args):
            raise RuntimeError("non-finite value at iteration 1")

        monkeypatch.setattr("tbdag.cli.solve", fail)
        assert main(["solve", "fig2"]) == 1
        assert "non-finite value" in capsys.readouterr().err
