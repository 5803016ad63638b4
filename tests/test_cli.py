"""CLI runs: manifests, artifacts, exit codes, reproducibility."""

import json
import os

import numpy as np
import pytest

from teameq.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_VERIFY_FAIL,
    _load_candidate,
    emit_report,
    game_file_dict,
    main,
    parse_game_spec,
)
from teameq.evaluation import cross_payoff_matrix
from teameq.psro import PsroConfig, run_psro


def read(path):
    with open(path) as fh:
        return fh.read()


class TestVerifyCommand:
    def test_nash_check_passes(self, tmp_path, capsys):
        rc = main(
            [
                "verify", "--game", "example1", "--profile", "all-zeros",
                "--class", "none", "--epsilon", "1e-9", "--out", str(tmp_path / "v"),
            ]
        )
        assert rc == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_joint_check_fails_with_witness(self, tmp_path):
        out = tmp_path / "v"
        rc = main(
            ["verify", "--game", "example1", "--profile", "all-zeros", "--class", "joint", "--out", str(out)]
        )
        assert rc == EXIT_VERIFY_FAIL
        payload = json.loads(read(out / "verify.json"))
        team1 = payload["teams"][0]
        assert team1["verdict"] == "FAIL"
        assert team1["witness"]["joint_action"] == [1, 1]

    def test_empty_sequential_budget_passes(self, tmp_path):
        out = tmp_path / "v"
        rc = main(
            [
                "verify", "--game", "example1", "--profile", "all-zeros",
                "--class", "sequential", "--n-init", "0", "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        for team in json.loads(read(out / "verify.json"))["teams"]:
            assert team["budget"] == 0 and team["verdict"] == "PASS"
            assert team["max_gain"] == 0.0 and team["witness"] == {"kind": "none"}

    @pytest.mark.parametrize("horizon", [2, 3, 4, 5])
    def test_skirmish_checks_answer_for_every_class(self, tmp_path, horizon):
        gains = {}
        for klass in ("none", "pivot", "sequential", "joint"):
            out = tmp_path / klass
            argv = [
                "verify", "--game", f"skirmish:w=3,h=3,n=2,H={horizon}",
                "--profile", "all-zeros", "--class", klass, "--out", str(out),
            ]
            assert main(argv) in (EXIT_OK, EXIT_VERIFY_FAIL), klass
            gains[klass] = [t["max_gain"] for t in json.loads(read(out / "verify.json"))["teams"]]
        for team in (0, 1):
            assert gains["joint"][team] >= gains["none"][team]
            assert gains["joint"][team] >= gains["pivot"][team]

    def test_manifest_written_before_results(self, tmp_path):
        out = tmp_path / "v"
        main(["verify", "--game", "example1", "--profile", "all-zeros", "--class", "none", "--out", str(out)])
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["command"] == "verify"
        assert manifest["tool"] == "teameq"
        assert "wall_clock_seconds" in manifest


class TestPsroCommand:
    def test_joint_summary_value(self, tmp_path):
        out = tmp_path / "p"
        rc = main(["psro", "--game", "example1", "--oracle", "joint", "--tol", "1e-6", "--out", str(out)])
        assert rc == EXIT_OK
        summary = json.loads(read(out / "summary.json"))
        assert summary["meta_value"] == pytest.approx(1.25, abs=1e-6)

    def test_history_columns(self, tmp_path):
        out = tmp_path / "p"
        main(["psro", "--game", "example1", "--oracle", "joint", "--out", str(out)])
        header = read(out / "history.csv").splitlines()[0]
        assert header == "iter,meta_value,br_gain_1,br_gain_2,pop_1,pop_2"

    def test_reproducible_byte_identical_csv(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["psro", "--game", "example1", "--oracle", "sebr", "--seed", "5"]
        main(args + ["--out", str(out_a)])
        main(args + ["--out", str(out_b)])
        assert read(out_a / "history.csv") == read(out_b / "history.csv")
        assert read(out_a / "population.json") == read(out_b / "population.json")

    def test_shared_oracle_degenerate_meta_games(self, tmp_path):
        # Team-PSRO meta-games on this game are degenerate (several equilibria)
        args = ["psro", "--game", "random:n1=2,n2=2,actions=3,seed=501", "--oracle", "shared"]
        assert main(args + ["--out", str(tmp_path / "p")]) == EXIT_OK


class TestReportCommand:
    def test_idempotent_re_emission(self, tmp_path):
        out = tmp_path / "p"
        main(["psro", "--game", "example1", "--oracle", "joint", "--out", str(out)])
        first = read(out / "history.csv")
        rc = main(["report", "--run", str(out), "--format", "csv"])
        assert rc == EXIT_OK
        assert read(out / "history.csv") == first

    def test_json_lines(self, tmp_path):
        out = tmp_path / "p"
        main(["psro", "--game", "example1", "--oracle", "joint", "--out", str(out)])
        main(["report", "--run", str(out), "--format", "json-lines"])
        lines = read(out / "history.jsonl").splitlines()
        assert len(lines) >= 1
        record = json.loads(lines[0])
        assert set(record) == {"iter", "meta_value", "br_gain_1", "br_gain_2", "pop_1", "pop_2"}

    def test_empty_history_header_only(self, tmp_path):
        run = tmp_path / "r"
        run.mkdir()
        (run / "history.json").write_text("[]")
        emit_report(str(run), "csv")
        assert read(run / "history.csv") == "iter,meta_value,br_gain_1,br_gain_2,pop_1,pop_2\n"

    def test_missing_artifacts_error(self, tmp_path):
        rc = main(["report", "--run", str(tmp_path), "--format", "csv"])
        assert rc == EXIT_ERROR


class TestGameAndSolve:
    def test_game_round_trip(self, tmp_path):
        out = tmp_path / "g"
        rc = main(["game", "--game", "sad:N=2,A=3", "--out", str(out)])
        assert rc == EXIT_OK
        rc = main(["solve", "--game", str(out / "game.json"), "--out", str(tmp_path / "s")])
        assert rc == EXIT_OK

    def test_solve_value(self, tmp_path):
        out = tmp_path / "s"
        main(["solve", "--game", "example1", "--out", str(out)])
        summary = json.loads(read(out / "summary.json"))
        assert summary["value"] == pytest.approx(1.25, abs=1e-6)
        assert summary["gap"] <= 1e-6


class TestEvalCommand:
    def test_exploit_from_run(self, tmp_path):
        run = tmp_path / "p"
        main(["psro", "--game", "example1", "--oracle", "joint", "--out", str(run)])
        out = tmp_path / "e"
        rc = main(
            ["eval", "--game", "example1", "--mode", "exploit", "--run", str(run), "--team", "1", "--out", str(out)]
        )
        assert rc == EXIT_OK
        header = read(out / "report.csv").splitlines()[0]
        assert header.endswith("sequential,joint,synchronized,no_correlation,random")

    def test_population_file_rebuilds_the_meta_matrix(self, tmp_path):
        # population.json keeps every entry's tables, lazy SeBR members
        # included: reloaded, both teams give the run's meta matrix and
        # meta-strategies bit for bit
        spec, run = "sad:N=3,A=3", tmp_path / "p"
        argv = ["psro", "--game", spec, "--oracle", "sebr", "--seed", "0", "--out", str(run)]
        assert main(argv) == EXIT_OK
        team1, team2 = (_load_candidate(str(run), t, spec) for t in (1, 2))
        game = parse_game_spec(spec)
        result = run_psro(game, PsroConfig(oracle="sebr", seed=0))
        matrix = cross_payoff_matrix(game, team1.entries, team2.entries)
        assert np.array_equal(matrix, result.population.payoffs)
        assert team1.weights == tuple(result.meta_1)
        assert team2.weights == tuple(result.meta_2)

    def test_exploit_from_stochastic_run_names_missing_population(self, tmp_path, capsys):
        run = tmp_path / "p"
        game = "skirmish:w=2,h=2,n=1,H=2"
        assert main(["psro", "--game", game, "--oracle", "sebr", "--out", str(run)]) == EXIT_OK
        rc = main(["eval", "--game", game, "--mode", "exploit", "--run", str(run), "--out", str(tmp_path / "e")])
        assert rc == EXIT_ERROR
        err = capsys.readouterr().err
        assert "population.json" in err and "normal-form games only" in err

    def test_dropped_elo_mode(self, tmp_path, capsys):
        # Elo ratings from a match CSV are gone: the mode and its flags
        out = str(tmp_path / "e")
        assert main(["eval", "--mode", "elo", "--out", out]) == EXIT_ERROR
        assert "--mode must be one of" in capsys.readouterr().err
        assert main(["eval", "--mode", "rpp", "--matches", "m.csv", "--out", out]) == EXIT_ERROR

    def test_rpp_between_runs(self, tmp_path):
        run_a, run_b = tmp_path / "a", tmp_path / "b"
        main(["psro", "--game", "example1", "--oracle", "joint", "--out", str(run_a)])
        main(["psro", "--game", "example1", "--oracle", "individual", "--out", str(run_b)])
        out = tmp_path / "e"
        rc = main(
            ["eval", "--game", "example1", "--mode", "rpp", "--run-a", str(run_a), "--run-b", str(run_b), "--out", str(out)]
        )
        assert rc == EXIT_OK
        assert "value" in json.loads(read(out / "rpp.json"))

    def test_run_from_another_game_is_refused(self, tmp_path, capsys):
        run_a, run_b = tmp_path / "a", tmp_path / "b"
        main(["psro", "--game", "example1", "--oracle", "joint", "--out", str(run_a)])
        main(["psro", "--game", "anti_coordination", "--oracle", "sebr", "--out", str(run_b)])
        out = ["--out", str(tmp_path / "e")]
        exploit = ["eval", "--game", "anti_coordination", "--mode", "exploit", "--run", str(run_a)]
        assert main(exploit + out) == EXIT_ERROR
        assert "was made on game 'example1', not on --game 'anti_coordination'" in capsys.readouterr().err
        pair = ["eval", "--game", "example1", "--mode", "rpp", "--run-a", str(run_a), "--run-b", str(run_b)]
        assert main(pair + out) == EXIT_ERROR
        assert "was made on game 'anti_coordination'" in capsys.readouterr().err
        (run_a / "manifest.json").unlink()
        exploit = ["eval", "--game", "example1", "--mode", "exploit", "--run", str(run_a)]
        assert main(exploit + out) == EXIT_ERROR
        assert "manifest.json" in capsys.readouterr().err


class TestErrorContract:
    def test_unknown_subcommand(self, capsys):
        assert main(["bogus"]) == EXIT_ERROR

    def test_unknown_flag(self, capsys):
        assert main(["solve", "--frobnicate"]) == EXIT_ERROR

    def test_unreadable_game_file(self, tmp_path):
        assert main(["solve", "--game", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == EXIT_ERROR

    @pytest.mark.parametrize(
        "spec,named",
        [
            ("random:n1=2,n2=2,actions=3,seed=7,actoins=4", "random: actoins"),
            ("example1:N=3", "example1: N"),
            ("anti-coordination:seed=1", "anti_coordination: seed"),
            ("sad:N=2,players=3,A=3", "sad: players"),
            ("skirmish:w=2,h=2,n=1,H=2,discount=0.9", "skirmish: discount"),
        ],
    )
    def test_unknown_game_spec_keys_are_refused(self, tmp_path, capsys, spec, named):
        # like an unknown flag: a misspelt key must not fall back to the default
        out = tmp_path / "p"
        assert main(["psro", "--game", spec, "--oracle", "joint", "--out", str(out)]) == EXIT_ERROR
        assert f"unrecognized game spec keys for {named}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec,named",
        [
            ("sad:N=2,n=3", "'n' and its alias 'N'"),
            ("sad:N=3,N=2", "'N' twice"),
            ("skirmish:H=2,horizon=5", "'horizon' and its alias 'H'"),
            ("random:seed=1,n1=2,seed=2", "'seed' twice"),
        ],
    )
    def test_repeated_game_spec_keys_are_refused(self, tmp_path, capsys, spec, named):
        # one value per setting: a repeat or an alias pair must not let one silently win
        out = tmp_path / "p"
        assert main(["psro", "--game", spec, "--oracle", "joint", "--out", str(out)]) == EXIT_ERROR
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_game_spec_aliases_are_kept(self):
        same = [
            ("sad:N=3,A=2,B=0.5", "sad:n=3,a=2,b=0.5"),
            ("skirmish:w=2,h=2,n=1,H=2", "skirmish:w=2,h=2,n=1,horizon=2"),
            ("example1", "example1:"),
        ]
        for spec, alias in same:
            assert game_file_dict(parse_game_spec(alias), spec) == game_file_dict(parse_game_spec(spec), spec)
        g = parse_game_spec("random:n1=1,n2=2,actions=3,lo=0,hi=2,seed=4")
        assert g.action_counts == ((3,), (3, 3)) and g.matrix().min() >= 0.0

    def test_dropped_sample_factor_flags(self, tmp_path):
        # the budget of a verify run is --n-init; growth-rate flags are gone
        for flag in ("--f-team", "--f-policy"):
            args = ["verify", "--game", "example1", "--class", "sequential", flag, "1"]
            assert main(args + ["--out", str(tmp_path / "v")]) == EXIT_ERROR

    def test_bad_choice_and_type(self, capsys):
        assert main(["psro", "--oracle", "bogus"]) == EXIT_ERROR
        assert "--oracle must be one of" in capsys.readouterr().err
        assert main(["psro", "--iters", "2.5"]) == EXIT_ERROR
        assert "--iters expects int" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "psro" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["psro", "--help"])
        assert exc.value.code == 0
        assert "--oracle" in capsys.readouterr().out

    def test_no_subcommand(self):
        assert main([]) == EXIT_ERROR

    def test_verify_fail_is_not_an_error(self, tmp_path):
        rc = main(
            ["verify", "--game", "example1", "--profile", "all-zeros", "--class", "joint", "--out", str(tmp_path / "v")]
        )
        assert rc == EXIT_VERIFY_FAIL != EXIT_ERROR


class TestConfigPrecedence:
    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"oracle": "joint", "seed": 1}))
        out = tmp_path / "p"
        main(["psro", "--game", "example1", "--config", str(cfg), "--seed", "9", "--out", str(out)])
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["config"]["oracle"] == "joint"  # from config file
        assert manifest["config"]["seed"] == 9  # flag wins
        assert manifest["seed"] == 9

    def test_config_values_are_checked_like_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"oracle": "joint", "iters": "3", "tol": 1, "expand": 1}))
        out = tmp_path / "p"
        assert main(["psro", "--game", "example1", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        config = json.loads(read(out / "manifest.json"))["config"]
        assert (config["iters"], config["tol"], config["expand"]) == (3, 1.0, "1")
        cfg.write_text(json.dumps({"oracle": "bogus"}))
        assert main(["psro", "--game", "example1", "--config", str(cfg), "--out", str(out)]) == EXIT_ERROR
        assert "--oracle must be one of" in capsys.readouterr().err

    def test_unknown_config_keys_are_refused(self, tmp_path, capsys):
        # like an unknown flag: a misspelt key must not fall back to the default
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iter": 2, "oracle": "joint", "seeds": 1}))
        out = tmp_path / "p"
        assert main(["psro", "--game", "example1", "--config", str(cfg), "--out", str(out)]) == EXIT_ERROR
        assert "unrecognized config keys for psro: iter, seeds" in capsys.readouterr().err
        assert not out.exists()

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TEAMEQ_OUT", str(tmp_path / "envout"))
        rc = main(["game", "--game", "example1"])
        assert rc == EXIT_OK
        assert os.path.exists(tmp_path / "envout" / "game.json")
