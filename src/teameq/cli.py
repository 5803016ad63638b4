"""Reproducible experiment runner.

Subcommands: ``game`` (emit a builtin game), ``solve`` (matrix maxmin /
CTME of a normal-form game), ``verify`` (equilibrium check under a
correlation class), ``psro`` (population loop with a chosen oracle),
``eval`` (exploitability profile / rpp) and ``report`` (re-emit a run's
history as CSV or JSON-lines into ``--out`` or the run; reads no seed).

A run writes no file until its inputs are checked and its work is done;
then it writes ``manifest.json`` first, its result files, and
``summary.json`` last, so a refused or failed run leaves no file.  All
randomness flows from the single manifest seed through named sub-streams,
so two runs with identical manifests and exact evaluation produce
byte-identical CSVs.  Exit codes: 0 success, 2 verification FAIL, 1 error.

Each command's options are declared once, in ``OPTIONS``: the key is the
manifest config key, the flag is ``--key`` with ``-`` for ``_`` (``klass``
is ``--class``), and the default gives the type (``str`` where it is
``None``); ``CHOICES`` lists the allowed values of a few keys.  Every
command also takes ``--out`` (or ``-o``) and ``--config``.  A flag is
given as ``--key VALUE`` or ``--key=VALUE``, spelled in full and at most
once; the token after a bare flag is its value even when it starts with
``-`` (``--seed -1``), unless it is one of the command's own flags.
``-h``/``--help`` after a command lists its flags, defaults and choices.

Config precedence: command-line flags override the optional ``--config``
JSON file, which overrides the defaults.  File values go through the same
type and choice checks as flags, and the merged configuration is what the
manifest records.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

from . import __version__
from .core import (
    ConstantPolicy,
    NormalFormTeamGame,
    ProductPolicy,
    UniformPolicy,
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


def _spec_name(spec: str) -> str:
    """The builtin game a spec names (a key of ``_SPEC_KEYS`` if any)."""
    return spec.partition(":")[0].strip().lower().replace("-", "_")


def parse_game_spec(spec: str):
    """Builtin game spec ('example1', 'sad:N=2,A=3', ...) or a JSON file path."""
    name, body = _spec_name(spec), spec.partition(":")[2]
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
    """The ``game.json`` record of ``game``, made from ``spec``: a
    normal-form game's payoffs, else the builtin spec the game is built
    from, read out of the file when ``spec`` is a builtin game file."""
    if isinstance(game, NormalFormTeamGame):
        return game_to_dict(game)
    while _spec_name(spec) not in _SPEC_KEYS:
        with open(spec) as fh:
            spec = json.load(fh)["spec"]
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
            raise CliError("uniform profiles are supported for normal form only")
        return tuple(
            ProductPolicy([UniformPolicy(c) for c in game.action_counts[t]])
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
    "team": (1, 2),
    "format": ("csv", "json-lines"),
}


def _flag(key: str) -> str:
    return "--" + ("class" if key == "klass" else key.replace("_", "-"))


def _converter(key: str, default):
    """Parse one option value from its string form: the default's type,
    a finite number for a float, then the allowed choices."""
    cast = str if default is None else type(default)

    def convert(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise CliError(f"{_flag(key)} expects {cast.__name__}, got {text!r}") from None
        if cast is float and not math.isfinite(value):
            raise CliError(f"{_flag(key)} expects a finite number, got {text!r}")
        if key in CHOICES and value not in CHOICES[key]:
            allowed = ", ".join(map(str, CHOICES[key]))
            raise CliError(f"{_flag(key)} must be one of {allowed}, got {text!r}")
        return value

    return convert


def _help(command: str) -> str:
    """The usage of one command: every flag with its default and choices."""
    lines = [
        f"usage: teameq {command} [--key VALUE | --key=VALUE ...]",
        "",
        f"  --out, -o DIR  output directory (default ${OUT_ENV} or ./teameq-run)",
        "  --config FILE  JSON config file (flags override it)",
    ]
    for key, default in OPTIONS[command].items():
        line = f"  {_flag(key):<13}  " + ("no default" if default is None else f"default {default}")
        if key in CHOICES:
            line += "; one of " + ", ".join(map(str, CHOICES[key]))
        lines.append(line)
    return "\n".join(lines)


def _read_flags(command: str, args: list[str]) -> dict:
    """The flags ``args`` give one command, keyed by config key (``out``
    and ``config`` too), each option's value converted by its
    ``_converter``.  An unknown or abbreviated flag, a flag given twice
    (``-o`` is ``--out``) and a flag without its value are refused."""
    options = OPTIONS[command]
    keys = {"-h": "help", "--help": "help", "-o": "out", "--out": "out", "--config": "config"}
    keys.update((_flag(key), key) for key in options)
    flags, tokens = {}, iter(args)
    for token in tokens:
        flag, eq, value = token.partition("=") if token.startswith("--") else (token, "", "")
        key = keys.get(flag)
        if key is None:
            raise CliError(f"unrecognized argument {token!r} for {command}")
        if key == "help":
            print(_help(command))
            raise SystemExit(0)
        if key in flags:
            raise CliError(f"{_flag(key)} is given twice, again as {token!r}; give each flag once")
        if not eq:
            value = next(tokens, None)
            if value is None or value.partition("=")[0] in keys:
                raise CliError(f"{flag} expects a value")
        flags[key] = _converter(key, options[key])(value) if key in options else value
    return flags


def _merged_config(command: str, flags: dict) -> dict:
    """Defaults, then the --config file's values, then the flags given."""
    options = OPTIONS[command]
    merged = dict(options)
    path = flags.get("config")
    if path:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise CliError(f"--config {path} must hold a JSON object")
        unknown = [key for key in data if key not in options]
        if unknown:
            raise CliError(f"unrecognized config keys for {command}: {', '.join(unknown)}")
        for key, value in data.items():
            if value is not None:
                merged[key] = _converter(key, options[key])(str(value))
    merged.update((key, value) for key, value in flags.items() if key in options)
    return merged


def _require(cfg: dict, key: str):
    if not cfg.get(key):
        raise CliError(f"{_flag(key)} is required")
    return cfg[key]


# ---------------------------------------------------------------------------
# Run files


def _write(path: str, payload) -> None:
    """Write ``payload``: a str as it is, anything else as indented JSON
    with sorted keys."""
    if not isinstance(payload, str):
        payload = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(payload)


class _Run:
    """One command's run.  Its wall clock starts when it is made; `write`
    is called once the inputs are checked and the work is done, so a
    refused or failed run leaves no file."""

    def __init__(self, command: str, cfg: dict, out: str | None):
        self.command, self.cfg = command, cfg
        self.out = out or os.environ.get(OUT_ENV) or "teameq-run"
        self.t0 = time.perf_counter()

    def write(self, files: dict, summary: dict, text: str, code: int = EXIT_OK) -> int:
        """Stamp ``summary`` with the wall clock, write ``manifest.json``,
        ``files`` (name to payload) in order and ``summary.json``, print
        ``text`` and return ``code``.  A result file may be the summary
        itself, and then carries the wall clock too."""
        summary["wall_clock_seconds"] = time.perf_counter() - self.t0
        os.makedirs(self.out, exist_ok=True)
        manifest = {
            "tool": "teameq",
            "version": __version__,
            "command": self.command,
            "game": self.cfg.get("game"),
            "config": self.cfg,
            "seed": self.cfg.get("seed"),
            "tolerance": self.cfg.get("tol"),
            "out_dir": self.out,
            "wall_clock_seconds": None,
        }
        for name, payload in {"manifest.json": manifest, **files, "summary.json": summary}.items():
            _write(os.path.join(self.out, name), payload)
        print(text)
        return code


def _csv(header: list[str], rows: list[list]) -> str:
    """CSV text: the header, then one line per row, floats at 9
    significant digits."""
    return "".join(",".join(fmt9(x) for x in row) + "\n" for row in [header, *rows])


HISTORY_COLUMNS = ["iter", "meta_value", "br_gain_1", "br_gain_2", "pop_1", "pop_2"]


def emit_report(run_dir: str, fmt: str, out_dir: str | None = None) -> str:
    """Re-emit a run's canonical history.json into ``out_dir`` (created;
    the run's own directory by default) and return the path written;
    idempotent, stable column order, floats at 9 significant digits."""
    hist_path = os.path.join(run_dir, "history.json")
    if not os.path.exists(hist_path):
        raise CliError(f"missing artifact {hist_path}")
    with open(hist_path) as fh:
        records = json.load(fh)
    rows = [[rec[c] for c in HISTORY_COLUMNS] for rec in records]
    out_dir = out_dir or run_dir
    if fmt == "csv":
        path, text = os.path.join(out_dir, "history.csv"), _csv(HISTORY_COLUMNS, rows)
    elif fmt == "json-lines":
        path = os.path.join(out_dir, "history.jsonl")
        text = "".join(
            json.dumps(
                {c: (fmt9(v) if isinstance(v, float) else v) for c, v in zip(HISTORY_COLUMNS, row)},
                sort_keys=True,
            )
            + "\n"
            for row in rows
        )
    else:
        raise CliError(f"unknown report format {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    _write(path, text)
    return path


# ---------------------------------------------------------------------------
# Subcommands


def cmd_game(cfg: dict, out: str | None) -> int:
    game = parse_game_spec(_require(cfg, "game"))
    run = _Run("game", cfg, out)
    return run.write(
        {"game.json": game_file_dict(game, cfg["game"])},
        {"command": "game", "name": game.name},
        f"wrote {game.name} to {run.out}/game.json",
    )


def cmd_solve(cfg: dict, out: str | None) -> int:
    game = parse_game_spec(_require(cfg, "game"))
    if not game.is_normal_form:
        raise CliError("solve works on normal-form games (joint-action matrix)")
    run = _Run("solve", cfg, out)
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
    }
    return run.write(
        {"solution.json": solution.to_dict()},
        summary,
        f"value {fmt9(solution.value)} gap {fmt9(solution.gap)}",
    )


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
    run = _Run("verify", cfg, out)
    correlation = _correlation_from_flags(cfg)
    specs = [
        build_deviation_spec(game, t, profile[t - 1], correlation, opponent=profile[2 - t])
        for t in (1, 2)
    ]
    report = verify_equilibrium(game, profile, specs, epsilon=cfg["epsilon"])
    lines = [
        f"team {check.team} [{check.class_name}] max_gain {fmt9(check.max_gain)} "
        f"witness {check.witness} {'PASS' if check.passed else 'FAIL'}"
        for check in report.checks
    ]
    lines.append(f"verdict {'PASS' if report.passed else 'FAIL'}")
    payload = report.to_dict()
    return run.write(
        {"verify.json": payload},
        payload,
        "\n".join(lines),
        EXIT_OK if report.passed else EXIT_VERIFY_FAIL,
    )


def cmd_psro(cfg: dict, out: str | None) -> int:
    game = parse_game_spec(_require(cfg, "game"))
    run = _Run("psro", cfg, out)
    pcfg = PsroConfig(
        oracle=cfg["oracle"],
        max_iterations=cfg["iters"],
        tol=cfg["tol"],
        seed=cfg["seed"],
        expand_teams={"both": (1, 2), "1": (1,), "2": (2,)}[cfg["expand"]],
        sebr_restarts=cfg["restarts"],
    )
    result = run_psro(game, pcfg)
    rows = [
        [r.iteration, r.meta_value, r.br_gain_1, r.br_gain_2, r.pop_1, r.pop_2]
        for r in result.history
    ]
    files = {
        "history.json": [dict(zip(HISTORY_COLUMNS, row)) for row in rows],
        "history.csv": _csv(HISTORY_COLUMNS, rows),
    }
    if isinstance(game, NormalFormTeamGame):
        files["population.json"] = {
            "team1": [policy_to_dict(p) for p in result.population.team1],
            "team2": [policy_to_dict(p) for p in result.population.team2],
            "meta_1": [float(w) for w in result.meta_1],
            "meta_2": [float(w) for w in result.meta_2],
        }
    summary = {
        "command": "psro",
        "game": game.name,
        "oracle": cfg["oracle"],
        "meta_value": result.value,
        "iterations": result.iterations,
        "converged": result.converged,
        "certified": result.certified,
        "pop_sizes": [len(result.population.team1), len(result.population.team2)],
    }
    return run.write(
        files,
        summary,
        f"meta value {fmt9(result.value)} after {result.iterations} iterations "
        f"(converged={result.converged})",
    )


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
    run = _Run("eval", cfg, out)
    game = parse_game_spec(_require(cfg, "game"))
    if cfg["mode"] == "rpp":
        entries_a = _load_candidate(_require(cfg, "run_a"), 1, cfg["game"]).entries
        entries_b = _load_candidate(_require(cfg, "run_b"), 2, cfg["game"]).entries
        value = rpp(game, entries_a, entries_b, tol=cfg["tol"])
        payload = {
            "command": "eval/rpp",
            "value": value,
            "run_a": cfg["run_a"],
            "run_b": cfg["run_b"],
        }
        return run.write({"rpp.json": payload}, payload, f"rpp {fmt9(value)}")
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
    rewards = [r.opponent_reward if r.applicable else "n/a" for r in report.results]
    payload = report.to_dict()
    return run.write(
        {
            "report.json": payload,
            "report.csv": _csv(["candidate", "team", *classes], [[cand_id, team, *rewards]]),
        },
        payload,
        "\n".join(f"{r.class_name}: {fmt9(v)}" for r, v in zip(report.results, rewards)),
    )


def cmd_report(cfg: dict, out: str | None) -> int:
    print(f"wrote {emit_report(_require(cfg, 'run'), cfg['format'], out)}")
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
        flags = _read_flags(command, argv[1:])
        return _COMMANDS[command](_merged_config(command, flags), flags.get("out"))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # runtime errors are distinct from verify FAIL
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
