"""The benchmark's three workloads, their operations and correctness checks.

A workload is a fixed sequence of operations.  Each operation builds its
inputs in ``prepare`` (outside the timed region, again before every
repeat, so a future per-game cache starts cold as it does for a user)
and does the measured work in ``call``.  Checks run after all passes,
outside the timed region.

The benchmark seed ``S`` becomes the program run seed ``S - 500`` (mod
2**31), so seed 500 reproduces acceptance criterion 8 exactly.  The seed
varies each workload's inputs without changing how much work they take:
drawing new random games or new S-PSRO trajectories moves the work by
far more than the benchmark's bounds (README.md gives the numbers).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import teameq.cli as cli
import teameq.core as core
import teameq.evaluation as evaluation
import teameq.games as games
import teameq.psro as psro

DEFAULT_SEED = 500
CLASS_TOL = 1e-6  # PsroConfig's default gain tolerance; the criterion-9 slack is 2x this


def program_seed(seed: int) -> int:
    return (seed - DEFAULT_SEED) % 2**31


@dataclass
class Op:
    name: str
    kind: str  # "psro", "exploit", "solve" or "other": which end-to-end sum it joins
    prepare: Callable[[], object]
    call: Callable[[object], object]
    repeats: int  # timed as the fastest of this many runs


@dataclass
class PassContext:
    """What one pass of a workload shares between its operations."""

    seed: int
    out_dir: str  # per-pass scratch directory for CLI output
    results: dict = field(default_factory=dict)  # op name -> (result, error)


@dataclass
class Workload:
    name: str
    setup_code: str  # run in a fresh interpreter to measure setup_s
    ops: Callable[[PassContext], list[Op]]
    check: Callable[[Op, object, object, PassContext, "Oracle"], str | None]


class Oracle:
    """Independent LP values (scipy, imported only after timing ends)."""

    def __init__(self):
        from scipy.optimize import linprog

        self._linprog = linprog
        self._cache: dict = {}

    def value(self, key, matrix_fn) -> float:
        if key not in self._cache:
            self._cache[key] = self._lp_value(matrix_fn())
        return self._cache[key]

    def _lp_value(self, matrix) -> float:
        import numpy as np

        mat = np.asarray(matrix, dtype=float)
        n_rows, n_cols = mat.shape
        # maximise v subject to x^T M >= v per column, x on the simplex
        c = np.zeros(n_rows + 1)
        c[-1] = -1.0
        a_ub = np.hstack([-mat.T, np.ones((n_cols, 1))])
        a_eq = np.hstack([np.ones((1, n_rows)), np.zeros((1, 1))])
        res = self._linprog(
            c, A_ub=a_ub, b_ub=np.zeros(n_cols), A_eq=a_eq, b_eq=np.ones(1),
            bounds=[(0, None)] * n_rows + [(None, None)], method="highs",
        )
        if not res.success:
            raise RuntimeError(f"reference LP failed: {res.message}")
        return float(-res.fun)


def known_failure(op: Op, error, note: str | None) -> str | None:
    """Name of the documented defect a failure belongs to, or None.

    These failures are counted in ``failed`` and ``error_rate`` like any
    other; only a failure outside these classes marks the run incorrect.
    """
    text = f"{type(error).__name__}: {error}" if error is not None else (note or "")
    if "MaxminConvergenceError" in text:
        return "maxmin-iteration-cap"
    if op.name.endswith("/synchronized") and isinstance(error, core.EvaluationError):
        return "shared-oracle-enumeration-bound"
    if note is not None and note.startswith("joint-class ordering"):
        return "joint-class-ordering"
    return None


# ---------------------------------------------------------------------------
# nf-psro: joint PSRO on the criterion-8 games


NF_PSRO_GAMES = 20
# Games whose run takes a second or more at this commit are timed once.
NF_PSRO_LONG_GAMES = (505, 518)


def payoff_offset(seed: int) -> float:
    """Constant added to every payoff, in [-1, 1]; 0 at the default seed.

    Joint PSRO and the maxmin solver are invariant to a payoff shift (the
    solver's gap certificate and tolerances are shift-free), so the seed
    changes every number the program sees but not the work it does.
    """
    return ((seed + 100) % 201 - 100) / 100.0


def _nf_game(i: int, seed: int):
    base = games.random_team_game((2, 2), ((3, 3), (3, 3)), seed=DEFAULT_SEED + i)
    return core.NormalFormTeamGame(
        base.team_sizes, base.action_counts, base.payoff + payoff_offset(seed), name=base.name
    )


def _nf_psro_ops(ctx: PassContext) -> list[Op]:
    ops = []
    for i in range(NF_PSRO_GAMES):
        cfg = psro.PsroConfig(oracle="joint", max_iterations=18, seed=ctx.seed + i)
        ops.append(
            Op(
                f"game-{DEFAULT_SEED + i}",
                "psro",
                prepare=lambda i=i: _nf_game(i, ctx.seed),
                call=lambda game, cfg=cfg: psro.run_psro(game, cfg),
                repeats=1 if DEFAULT_SEED + i in NF_PSRO_LONG_GAMES else 3,
            )
        )
    return ops


def _nf_psro_check(op, result, error, ctx, oracle):
    if error is not None:
        return f"{type(error).__name__}: {error}"
    if not result.converged:
        return f"did not converge in {result.iterations} iterations"
    i = int(op.name.split("-")[1]) - DEFAULT_SEED
    lp = oracle.value(op.name, lambda: _nf_game(i, ctx.seed).matrix())
    if abs(result.value - lp) > 1e-3:
        return f"value {result.value!r} differs from the LP value {lp!r} by more than 1e-3"
    return None


# ---------------------------------------------------------------------------
# skirmish-sebr: S-PSRO on the grid skirmish, then a five-class profile


SKIRMISH_HORIZONS = (4, 5)
# S-PSRO's trajectory, and with it the work, varies by seed: 2.5 to 4.1 s
# and 132k to 197k successors calls over run seeds 0-9.  The candidate is
# therefore always the seed-0 run quoted in ROADMAP.md; the benchmark seed
# reaches the profile's oracles (SeBR restarts, shared ascent).
SKIRMISH_PSRO_SEED = 0


def _skirmish(horizon: int):
    return games.grid_skirmish(games.SkirmishConfig(3, 3, 2, horizon))


def _profile_call(cls_name: str, seed: int):
    def call(args):
        game, candidate = args
        if candidate is None:
            raise RuntimeError("no candidate: the S-PSRO run failed")
        report = evaluation.exploitability_profile(
            game, candidate, classes=(cls_name,), seed=seed
        )
        return report.results[0]

    return call


def _skirmish_ops(ctx: PassContext) -> list[Op]:
    ops = []
    for horizon in SKIRMISH_HORIZONS:
        psro_name = f"H{horizon}/psro"
        cfg = psro.PsroConfig(oracle="sebr", max_iterations=6, seed=SKIRMISH_PSRO_SEED)
        ops.append(
            Op(
                psro_name,
                "psro",
                prepare=lambda h=horizon: _skirmish(h),
                call=lambda game, cfg=cfg: psro.run_psro(game, cfg),
                # 1.3-2 s each, but bursts the reference does not share
                # slow single runs by up to 20%
                repeats=5,
            )
        )

        def prepare(h=horizon, src=psro_name):
            result, _ = ctx.results[src]
            candidate = None if result is None else evaluation.Candidate.from_psro(result, 1)
            return _skirmish(h), candidate

        for cls_name in evaluation.CLASS_ORDER:
            ops.append(
                Op(
                    f"H{horizon}/exploit/{cls_name}",
                    "exploit",
                    prepare=prepare,
                    call=_profile_call(cls_name, ctx.seed),
                    repeats=2 if cls_name == "synchronized" else 3,
                )
            )
    return ops


def _skirmish_check(op, result, error, ctx, oracle):
    if error is not None:
        return f"{type(error).__name__}: {error}"
    if not op.name.endswith("/exploit/joint"):
        return None
    prefix = op.name.rsplit("/", 1)[0]
    joint = result.opponent_reward
    beaten = []
    for cls_name in evaluation.CLASS_ORDER:
        other, other_error = ctx.results[f"{prefix}/{cls_name}"]
        if cls_name == "joint" or other_error is not None or not other.applicable:
            continue
        if joint < other.opponent_reward - 2 * CLASS_TOL:
            beaten.append(f"{cls_name} {other.opponent_reward:.6g}")
    if beaten:
        return f"joint-class ordering: joint {joint:.6g} < " + ", ".join(beaten)
    return None


# ---------------------------------------------------------------------------
# nf-cli: the teameq command line, in process


CLI_GAMES = (
    "example1",
    "anti_coordination",
    "sad:N=2,A=5",
    "sad:N=3,A=3",
    "random:n1=2,n2=2,actions=3,seed=500",
    "random:n1=2,n2=2,actions=3,seed=501",
)
CLI_ORACLES = ("joint", "shared", "individual", "sebr")
CLI_CLASSES = ("none", "pivot", "sequential", "joint")
CLI_SOLVE_TOL = 1e-6  # cmd_solve's default tolerance
# Operations that take a second or more at this commit are timed once.
CLI_LONG_OPS = (
    "sad:N=3,A=3/solve",
    "random:n1=2,n2=2,actions=3,seed=500/solve",
    "random:n1=2,n2=2,actions=3,seed=501/psro-shared",
)


def _slug(spec: str) -> str:
    return spec.replace(":", "_").replace(",", "_").replace("=", "")


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().strip()


def _cli_ops(ctx: PassContext) -> list[Op]:
    seed = ["--seed", str(ctx.seed)]
    ops = []

    def add(name, kind, argv):
        ops.append(
            Op(name, kind, prepare=lambda: None,
               call=lambda _, argv=argv: _run_cli(argv),
               repeats=1 if name in CLI_LONG_OPS else 3)
        )

    for spec in CLI_GAMES:
        run = os.path.join(ctx.out_dir, _slug(spec))
        game = ["--game", spec]
        add(f"{spec}/solve", "solve", ["solve", *game, "--out", f"{run}/solve", *seed])
        for oracle in CLI_ORACLES:
            add(f"{spec}/psro-{oracle}", "psro",
                ["psro", *game, "--oracle", oracle, "--out", f"{run}/psro-{oracle}", *seed])
        add(f"{spec}/exploit", "exploit",
            ["eval", "--mode", "exploit", *game, "--run", f"{run}/psro-sebr",
             "--out", f"{run}/exploit", *seed])
        for klass in CLI_CLASSES:
            add(f"{spec}/verify-{klass}", "other",
                ["verify", *game, "--profile", "uniform", "--class", klass,
                 "--out", f"{run}/verify-{klass}", *seed])
        add(f"{spec}/rpp", "other",
            ["eval", "--mode", "rpp", *game, "--run-a", f"{run}/psro-sebr",
             "--run-b", f"{run}/psro-individual", "--out", f"{run}/rpp", *seed])
        add(f"{spec}/report", "other", ["report", "--run", f"{run}/psro-sebr", *seed])
    return ops


def _cli_check(op, result, error, ctx, oracle):
    if error is not None:
        return f"{type(error).__name__}: {error}"
    code, stderr = result
    command = op.name.rsplit("/", 1)[1]
    if command.startswith("verify"):
        # exit 2 is a FAIL verdict, a successful answer
        return None if code in (cli.EXIT_OK, cli.EXIT_VERIFY_FAIL) else f"exit {code}: {stderr}"
    if code != cli.EXIT_OK:
        return f"exit {code}: {stderr}"
    if command != "solve":
        return None
    spec = op.name.rsplit("/", 1)[0]
    with open(os.path.join(ctx.out_dir, _slug(spec), "solve", "solution.json")) as fh:
        solution = json.load(fh)
    lp = oracle.value(spec, lambda: cli.parse_game_spec(spec).matrix())
    if abs(solution["value"] - lp) > 1e-6:
        return f"value {solution['value']!r} differs from the LP value {lp!r} by more than 1e-6"
    if solution["gap"] > CLI_SOLVE_TOL:
        return f"gap {solution['gap']!r} exceeds the tolerance {CLI_SOLVE_TOL}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "nf-psro",
            "import teameq\nfrom teameq.games import random_team_game\n"
            f"[random_team_game((2, 2), ((3, 3), (3, 3)), seed={DEFAULT_SEED} + i) "
            f"for i in range({NF_PSRO_GAMES})]",
            _nf_psro_ops,
            _nf_psro_check,
        ),
        Workload(
            "skirmish-sebr",
            "import teameq\nfrom teameq.games import SkirmishConfig, grid_skirmish\n"
            f"[grid_skirmish(SkirmishConfig(3, 3, 2, h)) for h in {SKIRMISH_HORIZONS}]",
            _skirmish_ops,
            _skirmish_check,
        ),
        Workload(
            "nf-cli",
            f"import teameq.cli\n[teameq.cli.parse_game_spec(s) for s in {CLI_GAMES}]",
            _cli_ops,
            _cli_check,
        ),
    )
}
