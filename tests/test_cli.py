"""CLI runs: manifests, artifacts, exit codes, reproducibility."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import teameq
import teameq.cli as cli
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
from teameq.core import (
    ConstantPolicy,
    IndividualPolicy,
    ProductPolicy,
    UniformPolicy,
    policy_to_dict,
    team_value,
)
from teameq.evaluation import Candidate, cross_payoff_matrix, exploitability_profile
from teameq.games import example1
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

    @pytest.mark.parametrize("horizon", [1, 2, 3, 4, 5])
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

    def test_uniform_profile_nash_check(self, tmp_path):
        # each team's max gain is its best pure unilateral switch away from
        # the uniform profile, read off team_value
        out = tmp_path / "v"
        argv = ["verify", "--game", "example1", "--profile", "uniform", "--class", "none", "--out", str(out)]
        assert main(argv) == EXIT_VERIFY_FAIL
        game = example1()
        uniform = [
            ProductPolicy([UniformPolicy(c) for c in counts])
            for counts in game.action_counts
        ]
        for t, check in zip((1, 2), json.loads(read(out / "verify.json"))["teams"]):
            own, opp = uniform[t - 1], uniform[2 - t]
            base = team_value(game, t, own, opp)
            gains = []
            for m, c in enumerate(game.action_counts[t - 1]):
                for a in range(c):
                    members = list(own.members)
                    members[m] = ConstantPolicy(c, a)
                    gains.append(team_value(game, t, ProductPolicy(members), opp) - base)
            assert check["max_gain"] == pytest.approx(max(0.0, max(gains)), abs=1e-12)

    def test_uniform_profile_is_normal_form_only(self, tmp_path, capsys):
        argv = [
            "verify", "--game", "skirmish:w=3,h=3,n=2,H=2", "--profile", "uniform",
            "--class", "none", "--out", str(tmp_path / "v"),
        ]
        assert main(argv) == EXIT_ERROR
        assert "normal form only" in capsys.readouterr().err

    def test_unknown_profile_is_refused(self, tmp_path, capsys):
        argv = [
            "verify", "--game", "example1", "--profile", str(tmp_path / "missing.json"),
            "--out", str(tmp_path / "v"),
        ]
        assert main(argv) == EXIT_ERROR
        assert "unknown profile spec" in capsys.readouterr().err

    def test_manifest_written_before_results(self, tmp_path, monkeypatch):
        written, write = [], cli._write

        def recording_write(path, payload):
            written.append(path)
            write(path, payload)

        monkeypatch.setattr(cli, "_write", recording_write)
        out = tmp_path / "v"
        main(["verify", "--game", "example1", "--profile", "all-zeros", "--class", "none", "--out", str(out)])
        assert written == [str(out / f) for f in ("manifest.json", "verify.json", "summary.json")]
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["command"] == "verify"
        assert manifest["tool"] == "teameq"
        assert manifest["wall_clock_seconds"] is None
        summary = json.loads(read(out / "summary.json"))
        assert summary == json.loads(read(out / "verify.json"))
        assert summary["wall_clock_seconds"] >= 0.0


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

    @pytest.mark.parametrize("fmt, name", [("csv", "history.csv"), ("json-lines", "history.jsonl")])
    def test_out_directory_gets_the_file(self, tmp_path, fmt, name):
        # the file goes under --out, created, and the run is left untouched;
        # --seed is accepted and read by nothing
        run, out = tmp_path / "p", tmp_path / "d" / "e"
        main(["psro", "--game", "example1", "--oracle", "joint", "--out", str(run)])
        before = {f: read(run / f) for f in os.listdir(run)}
        rc = main(["report", "--run", str(run), "--format", fmt, "--out", str(out), "--seed", "3"])
        assert rc == EXIT_OK
        assert os.listdir(out) == [name]
        assert {f: read(run / f) for f in os.listdir(run)} == before
        main(["report", "--run", str(run), "--format", fmt])
        assert read(out / name) == read(run / name)

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

    def test_builtin_game_file_round_trip(self, tmp_path):
        # a stochastic builtin is written as its spec; verifying through the
        # file answers as verifying through the spec does
        spec = "skirmish:w=3,h=3,n=2,H=2"
        assert main(["game", "--game", spec, "--out", str(tmp_path / "g")]) == EXIT_OK
        results = []
        for game, out in ((spec, "by-spec"), (str(tmp_path / "g" / "game.json"), "by-file")):
            argv = ["verify", "--game", game, "--profile", "all-zeros", "--class", "none"]
            assert main(argv + ["--out", str(tmp_path / out)]) == EXIT_VERIFY_FAIL
            result = json.loads(read(tmp_path / out / "verify.json"))
            del result["wall_clock_seconds"]
            results.append(result)
        assert results[0] == results[1]

    def test_builtin_game_file_copy_stands_alone(self, tmp_path, monkeypatch):
        # a copy made from a builtin game file holds the spec, not the path
        # of its source, so it still runs once the source is gone
        monkeypatch.chdir(tmp_path)
        assert main(["game", "--game", "skirmish:w=3,h=3,n=2,H=2", "--out", "runs/a"]) == EXIT_OK
        assert main(["game", "--game", "runs/a/game.json", "--out", "runs/b"]) == EXIT_OK
        assert read("runs/b/game.json") == read("runs/a/game.json")
        shutil.rmtree("runs/a")
        argv = ["psro", "--game", "runs/b/game.json", "--oracle", "sebr", "--iters", "2"]
        assert main(argv + ["--out", "runs/c"]) == EXIT_OK

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

    def test_exploit_from_profile_file(self, tmp_path):
        # a profile file holds both teams' policies; team 2's is the
        # candidate, and the report is the library's profile of it
        game = example1()
        team1 = ProductPolicy([UniformPolicy(2), ConstantPolicy(2, 1)])
        team2 = ProductPolicy([IndividualPolicy(2, {0: [0.25, 0.75]}), ConstantPolicy(2, 0)])
        spec = tmp_path / "f.json"
        spec.write_text(json.dumps({"team1": policy_to_dict(team1), "team2": policy_to_dict(team2)}))
        out = tmp_path / "e"
        argv = [
            "eval", "--game", "example1", "--mode", "exploit", "--profile", str(spec),
            "--team", "2", "--out", str(out),
        ]
        assert main(argv) == EXIT_OK
        report = json.loads(read(out / "report.json"))
        assert report["candidate"] == f"{spec}:team2" and report["team"] == 2
        expected = exploitability_profile(game, Candidate.single(2, team2)).to_dict()["classes"]
        assert report["classes"] == expected

    def test_exploit_needs_a_candidate(self, tmp_path, capsys):
        argv = ["eval", "--game", "example1", "--mode", "exploit", "--out", str(tmp_path / "e")]
        assert main(argv) == EXIT_ERROR
        assert "needs --run or --profile" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--game", "example1", "--tol", "nan"],
            ["psro", "--game", "example1", "--tol", "nan"],
            ["psro", "--game", "example1", "--tol", "inf"],
            ["verify", "--game", "example1", "--epsilon", "inf"],
        ],
    )
    def test_non_finite_floats_are_refused(self, argv, tmp_path, capsys):
        out = tmp_path / "r"
        assert main([*argv, "--out", str(out)]) == EXIT_ERROR
        assert f"{argv[-2]} expects a finite number" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "argv,says",
        [
            (["psro", "--game", "example1", "--iters", "0"], "max_iterations must be positive"),
            (["solve", "--game", "example1", "--tol", "-1"], "tol must be finite and nonnegative"),
            (["eval", "--game", "example1", "--mode", "rpp", "--run-b", "b"], "--run-a is required"),
            (["eval", "--game", "example1", "--mode", "exploit"], "needs --run or --profile"),
            (["verify", "--game", "example1", "--profile", "missing.json"], "missing file: 'missing.json'"),
            (["verify", "--game", "example1", "--epsilon", "-1"], "epsilon must be finite and nonnegative"),
            (["psro", "--game", "example1", "--restarts", "-1"], "sebr_restarts must be nonnegative"),
            (["psro", "--game", "skirmish:n=0,H=2"], "team size must be positive"),
            (
                ["eval", "--mode", "exploit", "--game", "example1", "--profile", "all-zeros",
                 "--classes", ","],
                "no correlation class",
            ),
            (
                ["eval", "--mode", "exploit", "--game", "example1", "--profile", "all-zeros",
                 "--classes", "joint,joint"],
                "'joint' is given twice",
            ),
            *(
                (
                    ["eval", "--mode", "exploit", "--game", "example1", "--profile", "all-zeros",
                     "--team", team],
                    f"--team must be one of 1, 2, got '{team}'",
                )
                for team in ("0", "3", "-1")
            ),
            *(
                (["game", "--game", f"random:{bounds}"], "payoff range bounds must be finite")
                for bounds in ("lo=nan", "hi=inf", "lo=-inf,hi=0")
            ),
            (["game", "--game", "random:lo=-1e308,hi=1e308"], "range width 1e+308 - -1e+308 overflows"),
            (["game", "--game", "random:seed=-1"], "seed must be nonnegative, got -1"),
            *(
                (
                    ["verify", "--game", game, "--class", "sequential", "--seed", "-1"],
                    "sequential seed must be nonnegative, got -1",
                )
                for game in ("example1", "skirmish:w=3,h=3,n=2,H=1")
            ),
            (
                ["verify", "--game", "example1", "--class", "sequential", "--seed=-1"],
                "sequential seed must be nonnegative, got -1",
            ),
        ],
        ids=[
            "psro-iters", "solve-tol", "rpp-run-a", "exploit-candidate", "verify-profile",
            "verify-epsilon", "psro-restarts", "skirmish-empty-team", "exploit-no-class",
            "exploit-class-twice", "exploit-team-0", "exploit-team-3", "exploit-team--1",
            "random-lo-nan", "random-hi-inf", "random-lo-minus-inf", "random-wide", "random-seed",
            "verify-seed-normal-form", "verify-seed-stochastic", "verify-seed-equals",
        ],
    )
    def test_refused_runs_write_no_file(self, argv, says, tmp_path, monkeypatch, capsys):
        # inputs are checked and the work done before the first file
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out", "r"]) == EXIT_ERROR
        assert says in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "argv,says",
        [
            (["--ora", "joint"], "unrecognized argument '--ora'"),
            (["--oracle", "joint", "--iter", "2"], "unrecognized argument '--iter'"),
            (["--oracle", "joint", "--seed", "1", "--seed", "2"], "--seed is given twice"),
            (["--oracle=joint", "--oracle", "shared"], "--oracle is given twice"),
            (["--oracle", "joint", "-o", "s"], "--out is given twice, again as '-o'"),
            (["--oracle", "joint", "--seed"], "--seed expects a value"),
            (["--oracle", "--seed", "1"], "--oracle expects a value"),
        ],
        ids=["abbreviated", "abbreviated-iters", "seed-twice", "oracle-twice", "out-and-o",
             "no-value", "flag-as-value"],
    )
    def test_flags_are_spelled_in_full_and_given_once(self, argv, says, tmp_path, monkeypatch, capsys):
        # a prefix or a repeat must not let one reading silently win
        monkeypatch.chdir(tmp_path)
        assert main(["psro", "--game", "example1", "--out", "r", *argv]) == EXIT_ERROR
        assert says in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "forms",
        [
            (["--oracle", "joint", "--seed", "5", "--out", "r"], ["--oracle=joint", "--seed=5", "--out=r"]),
            (["--oracle", "joint", "--out", "r"], ["--oracle", "joint", "-o", "r"]),
        ],
        ids=["key-equals-value", "o-for-out"],
    )
    def test_flag_forms_write_the_same_manifest(self, forms, tmp_path, monkeypatch):
        manifests = []
        for i, flags in enumerate(forms):
            (tmp_path / str(i)).mkdir()
            monkeypatch.chdir(tmp_path / str(i))
            assert main(["psro", "--game", "example1", "--iters", "3", *flags]) == EXIT_OK
            manifests.append(read("r/manifest.json"))
        assert manifests[0] == manifests[1]

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    @pytest.mark.parametrize("help_flag", ["--help", "-h"])
    def test_command_help_lists_every_flag(self, command, help_flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", "r", help_flag])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.split()[:2] == ["--out,", "-o"] for line in lines)
        assert any(line.split()[:1] == ["--config"] for line in lines)
        for key, default in cli.OPTIONS[command].items():
            [line] = [line for line in lines if line.split()[:1] == [cli._flag(key)]]
            if default is not None:
                assert f"default {default}" in line
            assert all(str(choice) in line for choice in cli.CHOICES.get(key, ()))

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

    def test_non_finite_config_values_are_refused(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tol": NaN}')
        out = tmp_path / "p"
        assert main(["psro", "--game", "example1", "--config", str(cfg), "--out", str(out)]) == EXIT_ERROR
        assert "--tol expects a finite number, got 'nan'" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

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


def test_normal_form_commands_load_no_numpy_random(tmp_path):
    # a clean interpreter, since pytest's already holds numpy.random: random
    # games and sequential samples come from core._DefaultRng, so neither
    # numpy.random nor the OpenSSL its secrets import maps is ever loaded
    game = "random:n1=2,n2=2,actions=3,seed=500"
    code = (
        "import sys\n"
        "from teameq.cli import main\n"
        f"main(['solve', '--game', {game!r}, '--out', 's'])\n"
        f"main(['psro', '--game', {game!r}, '--oracle', 'sebr', '--out', 'p'])\n"
        f"main(['verify', '--game', {game!r}, '--class', 'sequential', '--out', 'v'])\n"
        "print(sorted({'numpy.random', '_hashlib'} & set(sys.modules)))\n"
    )
    src = str(Path(teameq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines()[-1] == "[]"
    assert all((tmp_path / run / "manifest.json").exists() for run in ("s", "p", "v"))
