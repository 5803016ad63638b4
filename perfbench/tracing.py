"""Per-module tracing from outside the program.

The traced run rebinds the public functions of each ``teameq`` module to
recording wrappers, including the names other modules imported (for
example ``teameq.psro.solve_matrix_maxmin`` and
``teameq.evaluation.best_response_shared``) and the CLI's dispatch table.
``StochasticTeamGame.successors`` and ``step_reward`` are wrapped on the
class, with counts only: they run about 10^5 times per S-PSRO run.

Spans (name, start, end, parent span, operation id) are kept in memory
and written out at the end.  A function's self time is its span's
duration minus the time its child spans cover.  Private functions are out
of reach, so the run cannot split the maxmin solver's support
enumeration from its self-play; that waits for tracing inside the
program.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time

import numpy as np

import teameq
import teameq.cli as cli
import teameq.core as core
import teameq.deviation as deviation
import teameq.evaluation as evaluation
import teameq.games as games
import teameq.oracles as oracles
import teameq.psro as psro

_MODULES = (teameq, core, games, deviation, oracles, psro, evaluation, cli)

#: (module, function, span name).  Game builders share one span name.
TRACED = (
    (oracles, "solve_matrix_maxmin", "oracles.solve_matrix_maxmin"),
    (oracles, "best_response_joint", "oracles.best_response_joint"),
    (oracles, "best_response_shared", "oracles.best_response_shared"),
    (oracles, "best_response_individual", "oracles.best_response_individual"),
    (oracles, "sebr", "oracles.sebr"),
    (core, "evaluate", "core.evaluate"),
    (psro, "run_psro", "psro.run_psro"),
    (psro, "meta_solve", "psro.meta_solve"),
    (psro, "extend_population", "psro.extend_population"),
    (evaluation, "exploitability_profile", "evaluation.exploitability_profile"),
    (evaluation, "rpp", "evaluation.rpp"),
    (deviation, "build_deviation_spec", "deviation.build_deviation_spec"),
    (deviation, "verify_equilibrium", "deviation.verify_equilibrium"),
    (games, "example1", "games.build"),
    (games, "anti_coordination", "games.build"),
    (games, "sad", "games.build"),
    (games, "random_team_game", "games.build"),
    (games, "grid_skirmish", "games.build"),
    (cli, "cmd_solve", "cli.solve"),
    (cli, "cmd_psro", "cli.psro"),
    (cli, "cmd_eval", "cli.eval"),
    (cli, "cmd_verify", "cli.verify"),
    (cli, "cmd_report", "cli.report"),
)

CLI_COMMANDS = ("solve", "psro", "eval", "verify", "report")

#: Per-layer metrics of a traced run: (name, unit, better).
PER_LAYER = (
    [
        (f"oracles.solve_matrix_maxmin.{s}", u, "lower")
        for s, u in (("calls", "count"), ("busy_s", "s"), ("failed", "count"),
                     ("max_side", "count"), ("gap_max", "payoff"))
    ]
    + [
        (f"oracles.best_response_{kind}.{s}", u, "lower")
        for kind in ("joint", "shared", "individual")
        for s, u in (("calls", "count"), ("busy_s", "s"), ("failed", "count"))
    ]
    + [("oracles.sebr.calls", "count", "lower"), ("oracles.sebr.busy_s", "s", "lower")]
    + [
        ("core.evaluate.calls_nf", "count", "lower"),
        ("core.evaluate.calls_exact", "count", "lower"),
        ("core.evaluate.calls_mc", "count", "lower"),
        ("core.evaluate.busy_s", "s", "lower"),
        ("core.successors.calls", "count", "lower"),
        ("core.step_reward.calls", "count", "lower"),
        ("core.transition.unique_keys", "count", "lower"),
        ("core.transition.unique_ratio", "ratio", "higher"),
        ("psro.run_psro.calls", "count", "lower"),
        ("psro.run_psro.busy_s", "s", "lower"),
        ("psro.run_psro.self_s", "s", "lower"),
        ("psro.run_psro.iterations", "count", "lower"),
        ("psro.run_psro.converged", "count", "higher"),
        ("psro.meta_solve.calls", "count", "lower"),
        ("psro.meta_solve.busy_s", "s", "lower"),
        ("psro.extend_population.calls", "count", "lower"),
        ("psro.extend_population.busy_s", "s", "lower"),
    ]
    + [
        (f"evaluation.exploitability_profile.{c}.{s}", u, "lower")
        for c in evaluation.CLASS_ORDER
        for s, u in (("busy_s", "s"), ("failed", "count"))
    ]
    + [
        ("evaluation.rpp.busy_s", "s", "lower"),
        ("deviation.build_deviation_spec.calls", "count", "lower"),
        ("deviation.build_deviation_spec.busy_s", "s", "lower"),
        ("deviation.build_deviation_spec.deviations", "count", "lower"),
        ("deviation.verify_equilibrium.calls", "count", "lower"),
        ("deviation.verify_equilibrium.busy_s", "s", "lower"),
        ("games.build.busy_s", "s", "lower"),
    ]
    + [
        (f"cli.{cmd}.{s}", u, "lower")
        for cmd in CLI_COMMANDS
        for s, u in (("calls", "count"), ("busy_s", "s"), ("failed", "count"))
    ]
    + [
        ("cli.files_written", "count", "lower"),
        ("cli.bytes_written", "bytes", "lower"),
        ("bench.raw_wall_s", "s", "lower"),
        ("bench.ref_s", "s", "lower"),
        ("bench.trace_overhead_s", "s", "lower"),
        ("bench.ops", "count", "higher"),
        ("bench.error_rate", "ratio", "lower"),
    ]
)

#: Counts that must repeat exactly between two traced passes.
DETERMINISTIC = tuple(
    name for name, unit, _ in PER_LAYER
    if unit == "count" and not name.startswith("bench.")
)


def _snapshot(root: str) -> dict:
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            path = os.path.join(dirpath, f)
            st = os.stat(path)
            out[path] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return out


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op_of: list[str] = []
        self.outermost: list[bool] = []  # False when nested in a span of the same name
        self.failed: list[bool] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self.op = ""
        self.counts: dict[str, float] = {}
        self.gap_max = 0.0
        self.max_side = 0
        self.per_op: dict[str, dict] = {}
        self._keys: set = set()
        self._watch: tuple[str, dict] | None = None
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op)
        self.outermost.append(self._active.get(name, 0) == 0)
        self.failed.append(False)
        self.end.append(0.0)
        self._active[name] = self._active.get(name, 0) + 1
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, failed: bool) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._active[self.names[idx]] -= 1
        self.failed[idx] = failed

    def _count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name: str, fn):
        note = getattr(self, "_note_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(idx, failed=True)
                if note is not None:
                    note(args, kwargs, None, exc)
                raise
            self._close(idx, failed=False)
            if note is not None:
                note(args, kwargs, result, None)
            return result

        return wrapper

    def _note_oracles_solve_matrix_maxmin(self, args, kwargs, result, exc):
        matrix = args[0] if args else kwargs["matrix"]
        self.max_side = max(self.max_side, max(np.shape(matrix), default=0))
        best = result if result is not None else getattr(exc, "best", None)
        if best is not None:
            self.gap_max = max(self.gap_max, float(best.gap))

    def _note_psro_run_psro(self, args, kwargs, result, exc):
        if result is not None:
            self._count("psro.run_psro.iterations", result.iterations)
            self._count("psro.run_psro.converged", int(result.converged))

    def _note_deviation_build_deviation_spec(self, args, kwargs, result, exc):
        if result is not None:
            self._count(
                "deviation.build_deviation_spec.deviations",
                len(result.individual) + len(result.correlated),
            )

    def _note_core_evaluate(self, args, kwargs, result, exc):
        game = args[0]
        cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
        if game.is_normal_form:
            self._count("core.evaluate.calls_nf")
        elif cfg is None or cfg.mode == "exact":
            self._count("core.evaluate.calls_exact")
        else:
            self._count("core.evaluate.calls_mc")

    def _wrap_profile(self, fn):
        """One span per correlation class: a multi-class call runs as one
        call per class (the classes are computed independently, so the
        merged report is the same) so each class's time is its own."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            results, report = [], None
            for cls_name in tuple(bound.arguments["classes"]):
                call_args = dict(bound.arguments, classes=(cls_name,))
                idx = self._open(f"evaluation.exploitability_profile.{cls_name}")
                try:
                    report = fn(**call_args)
                except Exception:
                    self._close(idx, failed=True)
                    raise
                self._close(idx, failed=False)
                results.extend(report.results)
            if report is None:
                return fn(*args, **kwargs)
            return evaluation.ExploitReport(report.candidate_id, report.team, tuple(results))

        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))
                elif isinstance(value, dict):  # dispatch tables such as cli._COMMANDS
                    for key, entry in value.items():
                        if entry is original:
                            value[key] = replacement
                            self._undo.append((value, key, original))

    def install(self) -> "Tracer":
        for module, attr, name in TRACED:
            fn = getattr(module, attr)
            if name == "evaluation.exploitability_profile":
                self._rebind(fn, self._wrap_profile(fn))
            else:
                self._rebind(fn, self._wrap(name, fn))
        cls = core.StochasticTeamGame
        successors, step_reward = cls.successors, cls.step_reward

        # Keys are kept as their hashes (deterministic for tuples of ints);
        # the synchronized class alone touches 10^6 keys per operation.
        def counted_successors(game, obs, joint_action):
            self.counts["core.successors.calls"] += 1
            self._keys.add(hash((obs, joint_action)))
            return successors(game, obs, joint_action)

        def counted_step_reward(game, obs, joint_action):
            self.counts["core.step_reward.calls"] += 1
            self._keys.add(hash((obs, joint_action)))
            return step_reward(game, obs, joint_action)

        self.counts["core.successors.calls"] = 0
        self.counts["core.step_reward.calls"] = 0
        cls.successors = counted_successors
        cls.step_reward = counted_step_reward
        self._undo.append((cls, "successors", successors))
        self._undo.append((cls, "step_reward", step_reward))
        return self

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    # -- operations --------------------------------------------------------

    def begin_op(self, op_id: str, watch_dir: str) -> None:
        """Start counting for one operation; files written under
        ``watch_dir`` are counted when it ends."""
        self.op = op_id
        self._keys = set()
        self._op_start = (self.counts["core.successors.calls"], self.counts["core.step_reward.calls"])
        self._watch = (watch_dir, _snapshot(watch_dir))

    def end_op(self) -> None:
        succ0, rew0 = self._op_start
        entry = {
            "successors": self.counts["core.successors.calls"] - succ0,
            "step_reward": self.counts["core.step_reward.calls"] - rew0,
            "unique_keys": len(self._keys),
        }
        self._count("core.transition.unique_keys", len(self._keys))
        root, before = self._watch
        after = _snapshot(root)
        written = [p for p, st in after.items() if before.get(p) != st]
        entry["files_written"] = len(written)
        self._count("cli.files_written", len(written))
        self._count("cli.bytes_written", sum(after[p][2] for p in written))
        self.per_op[self.op] = entry
        self.op = ""

    # -- results -----------------------------------------------------------

    def durations(self, name: str, scale: float) -> list[float]:
        return [
            (self.end[i] - self.start[i]) * scale
            for i, n in enumerate(self.names) if n == name
        ]

    def metrics(self, scale: float) -> dict:
        """Per-layer values; durations are multiplied by ``scale`` (the
        speed normalisation of the pass)."""
        n = len(self.names)
        child_time = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child_time[self.parent[i]] += self.end[i] - self.start[i]
        stats: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            s = stats.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0, "failed": 0})
            dur = self.end[i] - self.start[i]
            s["calls"] += 1
            s["failed"] += int(self.failed[i])
            s["self"] += dur - child_time[i]
            if self.outermost[i]:
                s["busy"] += dur
        out = dict(self.counts)
        out["oracles.solve_matrix_maxmin.max_side"] = self.max_side
        out["oracles.solve_matrix_maxmin.gap_max"] = self.gap_max
        for name, _, _ in PER_LAYER:
            if name in out or name.startswith("bench."):
                continue
            span, _, stat = name.rpartition(".")
            s = stats.get(span)
            if stat in ("calls", "failed"):
                out[name] = s[stat] if s else 0
            elif stat == "busy_s":
                out[name] = s["busy"] * scale if s else 0.0
            elif stat == "self_s":
                out[name] = s["self"] * scale if s else 0.0
            elif name.startswith("core.evaluate.calls"):
                out[name] = 0
            else:
                out.setdefault(name, 0)
        calls = out["core.successors.calls"]
        out["core.transition.unique_ratio"] = (
            out["core.transition.unique_keys"] / calls if calls else 0.0
        )
        return out

    def write_spans(self, path: str, t0: float) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "name": name,
                    "start": self.start[i] - t0,
                    "end": self.end[i] - t0,
                    "parent": self.parent[i],
                    "op": self.op_of[i],
                    "failed": self.failed[i],
                }) + "\n")
