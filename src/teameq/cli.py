"""Reproducible experiment runner.

Subcommands: ``game`` (emit a builtin game), ``solve`` (matrix maxmin /
CTME of a normal-form game), ``verify`` (equilibrium check under a
correlation class), ``psro`` (population loop with a chosen oracle),
``eval`` (exploitability profile / rpp) and ``report`` (re-emit run
artifacts as CSV or JSON-lines).

Every run writes its manifest before any result file.  All randomness
flows from the single manifest seed through named sub-streams, so two runs
with identical manifests and exact evaluation produce byte-identical
CSVs.  Exit codes: 0 success, 2 verification FAIL, 1 error.

Each command's options are declared once, in ``OPTIONS``: the key is the
manifest config key, the flag is ``--key`` with ``-`` for ``_`` (``klass``
is ``--class``), and the default gives the type (``str`` where it is
``None``); ``CHOICES`` lists the allowed values of a few keys.  Every
command also takes ``--out/-o`` and ``--config``.  Only the invoked
command's parser is built.

Config precedence: command-line flags override the optional ``--config``
JSON file, which overrides the defaults.  File values go through the same
type and choice checks as flags, and the merged configuration is what the
manifest records.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .core import (
    ConstantPolicy,
    IndividualPolicy,
    NormalFormTeamGame,
    ProductPolicy,
    game_from_dict,
    game_to_dict,
    policy_from_dict,
    policy_to_dict,
)
from .deviation import (
    Joint,
    NoCorrelation,
    PivotFollowers,
    SampleFactor,
    Sequential,
    build_deviation_spec,
    verify_equilibrium,
)
from .evaluation import (
    CLASS_ORDER,
    Candidate,
    exploitability_profile,
    rpp,
)
from .games import (
    SadConfig,
    SkirmishConfig,
    anti_coordination,
    example1,
    grid_skirmish,
    random_team_game,
    sad,
)
from .oracles import solve_matrix_maxmin
from .psro import PsroConfig, run_psro

OUT_ENV = "TEAMEQ_OUT"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERIFY_FAIL = 2


class CliError(Exception):
    """User-facing CLI error (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the exit-code contract
    # reserves 2 for verification FAIL, so usage errors become errors.
    def error(self, message):
        raise CliError(message)


def fmt9(x) -> str:
    """Floats printed with 9 significant digits."""
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


#: The keys each builtin game spec accepts, one group per setting: its
#: name, then its aliases.
_SPEC_KEYS = {
    "example1": (),
    "anti_coordination": (),
    "sad": (("N", "n"), ("A", "a"), ("B", "b")),
    "random": (("n1",), ("n2",), ("actions",), ("lo",), ("hi",), ("seed",)),
    "skirmish": (("w",), ("h",), ("n",), ("H", "horizon"), ("damage",), ("gamma",)),
}


def _kv_spec(name: str, body: str) -> dict:
    """The ``key=value`` fields of a builtin spec's body, keyed by each
    setting's name; a key the game does not take is refused, as an unknown
    flag is, and so is a setting given twice, under one name or two."""
    names = {alias: group[0] for group in _SPEC_KEYS[name] for alias in group}
    out, given, unknown = {}, {}, []
    if body:
        for part in body.split(","):
            key, _, val = part.partition("=")
            if not _:
                raise CliError(f"malformed game spec field {part!r}, expected key=value")
            key = key.strip()
            if key not in names:
                unknown.append(key)
                continue
            setting = names[key]
            if setting in given:
                earlier = given[setting]
                twice = f"{key!r} twice" if earlier == key else f"{key!r} and its alias {earlier!r}"
                raise CliError(f"game spec for {name} gives {twice}; give each setting once")
            given[setting] = key
            out[setting] = val.strip()
    if unknown:
        raise CliError(f"unrecognized game spec keys for {name}: {', '.join(unknown)}")
    return out


def parse_game_spec(spec: str):
    """Builtin game spec ('example1', 'sad:N=2,A=3', ...) or a JSON file path."""
    name, _, body = spec.partition(":")
    name = name.strip().lower().replace("-", "_")
    if name not in _SPEC_KEYS:
        if os.path.exists(spec):
            with open(spec) as fh:
                data = json.load(fh)
            if data.get("type") == "builtin":
                return parse_game_spec(data["spec"])
            return game_from_dict(data)
        raise CliError(f"unknown game spec or missing file: {spec!r}")
    kv = _kv_spec(name, body)
    if name == "example1":
        return example1()
    if name == "anti_coordination":
        return anti_coordination()
    if name == "sad":
        return sad(
            SadConfig(
                n_players=int(kv.get("N", 2)),
                seek_max=int(kv.get("A", 3)),
                attack_bonus=float(kv.get("B", 1.0)),
            )
        )
    if name == "random":
        n1 = int(kv.get("n1", 2))
        n2 = int(kv.get("n2", 2))
        acts = int(kv.get("actions", 2))
        return random_team_game(
            (n1, n2),
            ((acts,) * n1, (acts,) * n2),
            (float(kv.get("lo", -1.0)), float(kv.get("hi", 1.0))),
            seed=int(kv.get("seed", 0)),
        )
    return grid_skirmish(
        SkirmishConfig(
            width=int(kv.get("w", 3)),
            height=int(kv.get("h", 3)),
            team_size=int(kv.get("n", 2)),
            horizon=int(kv.get("H", 4)),
            damage=float(kv.get("damage", 1.0)),
            discount=float(kv.get("gamma", 0.95)),
        )
    )


def game_file_dict(game, spec: str) -> dict:
    if isinstance(game, NormalFormTeamGame):
        return game_to_dict(game)
    return {"type": "builtin", "spec": spec, "name": game.name}


def parse_profile_spec(spec: str, game):
    """Profile spec: 'all-zeros', 'uniform', or a JSON file with team1/team2."""
    label = spec.strip().lower().replace("_", "-")
    if label in ("all-zeros", "zeros"):
        return tuple(
            ProductPolicy([ConstantPolicy(c, 0) for c in game.action_counts[t]])
            for t in (0, 1)
        )
    if label == "uniform":
        if not game.is_normal_form:
            raise CliError("uniform table profiles are supported for normal form only")
        return tuple(
            ProductPolicy([IndividualPolicy.uniform(c) for c in game.action_counts[t]])
            for t in (0, 1)
        )
    if os.path.exists(spec):
        with open(spec) as fh:
            data = json.load(fh)
        return (policy_from_dict(data["team1"]), policy_from_dict(data["team2"]))
    raise CliError(f"unknown profile spec or missing file: {spec!r}")


# ---------------------------------------------------------------------------
# Options


OPTIONS = {
    "game": {"game": None, "seed": 0},
    "solve": {"game": None, "tol": 1e-6, "seed": 0},
    "verify": {
        "game": None,
        "profile": "all-zeros",
        "klass": "none",
        "epsilon": 1e-6,
        "n_init": 16,
        "seed": 0,
    },
    "psro": {
        "game": None,
        "oracle": "sebr",
        "iters": 40,
        "tol": 1e-6,
        "seed": 0,
        "expand": "both",
        "restarts": 4,
    },
    "eval": {
        "game": None,
        "mode": "exploit",
        "run": None,
        "run_a": None,
        "run_b": None,
        "profile": None,
        "team": 1,
        "classes": ",".join(CLASS_ORDER),
        "seed": 0,
        "tol": 1e-6,
    },
    "report": {"run": None, "format": "csv", "seed": 0},
}

CHOICES = {
    "klass": ("none", "pivot", "sequential", "joint"),
    "oracle": ("joint", "shared", "individual", "sebr"),
    "expand": ("both", "1", "2"),
    "mode": ("exploit", "rpp"),
    "format": ("csv", "json-lines"),
}


def _flag(key: str) -> str:
    return "--" + ("class" if key == "klass" else key.replace("_", "-"))


def _converter(key: str, default):
    """Parse one option value from its string form: the default's type,
    then the allowed choices."""
    cast = str if default is None else type(default)

    def convert(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise CliError(f"{_flag(key)} expects {cast.__name__}, got {text!r}") from None
        if key in CHOICES and value not in CHOICES[key]:
            raise CliError(f"{_flag(key)} must be one of {', '.join(CHOICES[key])}, got {text!r}")
        return value

    return convert


def build_parser(command: str) -> _Parser:
    """The parser of one command: its ``OPTIONS`` plus --out/-o and --config."""
    parser = _Parser(prog=f"teameq {command}")
    parser.add_argument("--out", "-o", help=f"output directory (default ${OUT_ENV} or ./teameq-run)")
    parser.add_argument("--config", help="JSON config file (flags override it)")
    for key, default in OPTIONS[command].items():
        parser.add_argument(
            _flag(key),
            dest=key,
            type=_converter(key, default),
            choices=CHOICES.get(key),
            help=None if default is None else f"default {default}",
        )
    return parser


def _merged_config(command: str, args: argparse.Namespace) -> dict:
    """Defaults, then the --config file's values, then the flags given."""
    options = OPTIONS[command]
    merged = dict(options)
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise CliError(f"--config {args.config} must hold a JSON object")
        unknown = [key for key in data if key not in options]
        if unknown:
            raise CliError(f"unrecognized config keys for {command}: {', '.join(unknown)}")
        for key, value in data.items():
            if value is not None:
                merged[key] = _converter(key, options[key])(str(value))
    merged.update({k: v for k, v in vars(args).items() if k in options and v is not None})
    return merged


def _require(cfg: dict, key: str):
    if not cfg.get(key):
        raise CliError(f"{_flag(key)} is required")
    return cfg[key]


# ---------------------------------------------------------------------------
# Run directory plumbing


def _out_dir(out: str | None) -> str:
    out = out or os.environ.get(OUT_ENV) or "teameq-run"
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(out: str, command: str, config: dict) -> dict:
    manifest = {
        "tool": "teameq",
        "version": __version__,
        "command": command,
        "game": config.get("game"),
        "config": config,
        "seed": config.get("seed"),
        "tolerance": config.get("tol"),
        "out_dir": out,
        "wall_clock_seconds": None,
    }
    _write_json(os.path.join(out, "manifest.json"), manifest)
    return manifest


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt9(x) for x in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


HISTORY_COLUMNS = ["iter", "meta_value", "br_gain_1", "br_gain_2", "pop_1", "pop_2"]


def history_rows(history) -> list[list]:
    return [
        [r.iteration, r.meta_value, r.br_gain_1, r.br_gain_2, r.pop_1, r.pop_2]
        for r in history
    ]


def emit_report(run_dir: str, fmt: str) -> list[str]:
    """Re-emit run artifacts from the canonical history.json; idempotent,
    stable column order, floats at 9 significant digits."""
    hist_path = os.path.join(run_dir, "history.json")
    if not os.path.exists(hist_path):
        raise CliError(f"missing artifact {hist_path}")
    with open(hist_path) as fh:
        records = json.load(fh)
    rows = [[rec[c] for c in HISTORY_COLUMNS] for rec in records]
    written = []
    if fmt == "csv":
        path = os.path.join(run_dir, "history.csv")
        _write_csv(path, HISTORY_COLUMNS, rows)
        written.append(path)
    elif fmt == "json-lines":
        path = os.path.join(run_dir, "history.jsonl")
        lines = [
            json.dumps(
                {c: (fmt9(v) if isinstance(v, float) else v) for c, v in zip(HISTORY_COLUMNS, row)},
                sort_keys=True,
            )
            for row in rows
        ]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        written.append(path)
    else:
        raise CliError(f"unknown report format {fmt!r}")
    return written


# ---------------------------------------------------------------------------
# Subcommands


def cmd_game(cfg: dict, out: str | None) -> int:
    game = parse_game_spec(_require(cfg, "game"))
    out = _out_dir(out)
    write_manifest(out, "game", cfg)
    t0 = time.perf_counter()
    _write_json(os.path.join(out, "game.json"), game_file_dict(game, cfg["game"]))
    _write_json(
        os.path.join(out, "summary.json"),
        {
            "command": "game",
            "name": game.name,
            "wall_clock_seconds": time.perf_counter() - t0,
        },
    )
    print(f"wrote {game.name} to {out}/game.json")
    return EXIT_OK


def cmd_solve(cfg: dict, out: str | None) -> int:
    game = parse_game_spec(_require(cfg, "game"))
    if not game.is_normal_form:
        raise CliError("solve works on normal-form games (joint-action matrix)")
    out = _out_dir(out)
    write_manifest(out, "solve", cfg)
    t0 = time.perf_counter()
    solution = solve_matrix_maxmin(game.matrix(), tol=cfg["tol"])
    summary = {
        "command": "solve",
        "game": game.name,
        "value": solution.value,
        "gap": solution.gap,
        "row_mix": {
            str(list(a)): float(w)
            for a, w in zip(game.joint_actions(1), solution.row_mix)
            if w > 0
        },
        "col_mix": {
            str(list(a)): float(w)
            for a, w in zip(game.joint_actions(2), solution.col_mix)
            if w > 0
        },
        "wall_clock_seconds": time.perf_counter() - t0,
    }
    _write_json(os.path.join(out, "solution.json"), solution.to_dict())
    _write_json(os.path.join(out, "summary.json"), summary)
    print(f"value {fmt9(solution.value)} gap {fmt9(solution.gap)}")
    return EXIT_OK


def _correlation_from_flags(cfg) -> object:
    label = cfg["klass"]
    if label == "pivot":
        return PivotFollowers()
    if label == "sequential":
        return Sequential(sample_factor=SampleFactor(n_init=cfg["n_init"]), seed=cfg["seed"])
    return NoCorrelation() if label == "none" else Joint()


def cmd_verify(cfg: dict, out: str | None) -> int:
    game = parse_game_spec(_require(cfg, "game"))
    profile = parse_profile_spec(cfg["profile"], game)
    out = _out_dir(out)
    write_manifest(out, "verify", cfg)
    t0 = time.perf_counter()
    correlation = _correlation_from_flags(cfg)
    specs = [
        build_deviation_spec(game, t, profile[t - 1], correlation, opponent=profile[2 - t])
        for t in (1, 2)
    ]
    report = verify_equilibrium(game, profile, specs, epsilon=cfg["epsilon"])
    payload = report.to_dict()
    payload["wall_clock_seconds"] = time.perf_counter() - t0
    _write_json(os.path.join(out, "verify.json"), payload)
    _write_json(os.path.join(out, "summary.json"), payload)
    for check in report.checks:
        print(
            f"team {check.team} [{check.class_name}] max_gain {fmt9(check.max_gain)} "
            f"witness {check.witness} {'PASS' if check.passed else 'FAIL'}"
        )
    print(f"verdict {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_psro(cfg: dict, out: str | None) -> int:
    game = parse_game_spec(_require(cfg, "game"))
    out = _out_dir(out)
    write_manifest(out, "psro", cfg)
    t0 = time.perf_counter()
    pcfg = PsroConfig(
        oracle=cfg["oracle"],
        max_iterations=cfg["iters"],
        tol=cfg["tol"],
        seed=cfg["seed"],
        expand_teams={"both": (1, 2), "1": (1,), "2": (2,)}[cfg["expand"]],
        sebr_restarts=cfg["restarts"],
    )
    result = run_psro(game, pcfg)
    records = [
        dict(zip(HISTORY_COLUMNS, row)) for row in history_rows(result.history)
    ]
    _write_json(os.path.join(out, "history.json"), records)
    emit_report(out, "csv")
    if isinstance(game, NormalFormTeamGame):
        _write_json(
            os.path.join(out, "population.json"),
            {
                "team1": [policy_to_dict(p) for p in result.population.team1],
                "team2": [policy_to_dict(p) for p in result.population.team2],
                "meta_1": [float(w) for w in result.meta_1],
                "meta_2": [float(w) for w in result.meta_2],
            },
        )
    summary = {
        "command": "psro",
        "game": game.name,
        "oracle": cfg["oracle"],
        "meta_value": result.value,
        "iterations": result.iterations,
        "converged": result.converged,
        "pop_sizes": [len(result.population.team1), len(result.population.team2)],
        "wall_clock_seconds": time.perf_counter() - t0,
    }
    _write_json(os.path.join(out, "summary.json"), summary)
    print(
        f"meta value {fmt9(result.value)} after {result.iterations} iterations "
        f"(converged={result.converged})"
    )
    return EXIT_OK


def _load_candidate(run_dir: str, team: int, game_spec: str) -> Candidate:
    """Team ``team``'s meta-strategy of a finished normal-form PSRO run,
    which its manifest must say was made on ``game_spec``."""
    path = os.path.join(run_dir, "manifest.json")
    if not os.path.exists(path):
        raise CliError(f"missing artifact {path}: the run's game is unknown")
    with open(path) as fh:
        made_on = json.load(fh).get("game")
    if made_on != game_spec:
        raise CliError(f"run {run_dir} was made on game {made_on!r}, not on --game {game_spec!r}")
    path = os.path.join(run_dir, "population.json")
    if not os.path.exists(path):
        raise CliError(
            f"missing artifact {path} (psro writes it for normal-form games only)"
        )
    with open(path) as fh:
        data = json.load(fh)
    entries = tuple(policy_from_dict(d) for d in data[f"team{team}"])
    weights = tuple(float(w) for w in data[f"meta_{team}"])
    return Candidate(team, entries, weights)


def cmd_eval(cfg: dict, out: str | None) -> int:
    out = _out_dir(out)
    write_manifest(out, "eval", cfg)
    t0 = time.perf_counter()
    mode = cfg["mode"]
    if mode == "exploit":
        game = parse_game_spec(_require(cfg, "game"))
        team = cfg["team"]
        if cfg["run"]:
            candidate = _load_candidate(cfg["run"], team, cfg["game"])
            cand_id = f"{cfg['run']}:team{team}"
        elif cfg["profile"]:
            profile = parse_profile_spec(cfg["profile"], game)
            candidate = Candidate.single(team, profile[team - 1])
            cand_id = f"{cfg['profile']}:team{team}"
        else:
            raise CliError("eval exploit needs --run or --profile")
        classes = tuple(c.strip() for c in cfg["classes"].split(",") if c.strip())
        report = exploitability_profile(
            game, candidate, classes=classes, seed=cfg["seed"], candidate_id=cand_id
        )
        payload = report.to_dict()
        payload["wall_clock_seconds"] = time.perf_counter() - t0
        _write_json(os.path.join(out, "report.json"), payload)
        header = ["candidate", "team"] + list(classes)
        row = [cand_id, team] + [
            (r.opponent_reward if r.applicable else "n/a") for r in report.results
        ]
        _write_csv(os.path.join(out, "report.csv"), header, [row])
        for r in report.results:
            shown = fmt9(r.opponent_reward) if r.applicable else "n/a"
            print(f"{r.class_name}: {shown}")
        _write_json(os.path.join(out, "summary.json"), payload)
        return EXIT_OK
    # mode "rpp"
    game = parse_game_spec(_require(cfg, "game"))
    entries_a = _load_candidate(_require(cfg, "run_a"), 1, cfg["game"]).entries
    entries_b = _load_candidate(_require(cfg, "run_b"), 2, cfg["game"]).entries
    value = rpp(game, entries_a, entries_b, tol=cfg["tol"])
    payload = {
        "command": "eval/rpp",
        "value": value,
        "run_a": cfg["run_a"],
        "run_b": cfg["run_b"],
        "wall_clock_seconds": time.perf_counter() - t0,
    }
    _write_json(os.path.join(out, "rpp.json"), payload)
    _write_json(os.path.join(out, "summary.json"), payload)
    print(f"rpp {fmt9(value)}")
    return EXIT_OK


def cmd_report(cfg: dict, out: str | None) -> int:
    written = emit_report(_require(cfg, "run"), cfg["format"])
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------


_COMMANDS = {
    "game": cmd_game,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "psro": cmd_psro,
    "eval": cmd_eval,
    "report": cmd_report,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        print(f"usage: teameq {{{','.join(_COMMANDS)}}} [options]\n\n{__doc__}")
        return EXIT_OK
    try:
        if command not in _COMMANDS:
            raise CliError(f"expected a command ({', '.join(_COMMANDS)}), got {command!r}")
        args = build_parser(command).parse_args(argv[1:])
        return _COMMANDS[command](_merged_config(command, args), args.out)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # runtime errors are distinct from verify FAIL
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
