"""Population-based equilibrium approximation (the PSRO family).

One loop, four oracles: joint (double oracle on pure team joint actions),
shared (parameter-tied policies), individual (iterated unilateral best
responses) and sebr (sequential best response).  The loop alternates a
restricted zero-sum meta-game solve with best-response expansion and stops
when neither team's oracle gains more than the tolerance over the meta
value, or when no new entry gets appended.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    ConstantPolicy,
    EvalConfig,
    Game,
    ProductPolicy,
    _nf_team_value,
    check_team_policy,
    team_action_dist,
    team_value,
)
from .oracles import (
    MaxminSolution,
    best_response_individual,
    best_response_joint,
    best_response_shared,
    sebr,
    solve_matrix_maxmin,
    subseed,
)

ORACLES = ("joint", "shared", "individual", "sebr")

#: Largest meta-line difference at which a response counts as a duplicate.
_DUPLICATE_TOL = 1e-9


@dataclass(frozen=True)
class Population:
    """Per-team policy pools and the empirical meta-payoff matrix.

    ``payoffs[a, b]`` is the expected team-1 reward of team-1 entry ``a``
    against team-2 entry ``b``; every cell is present (no holes).
    """

    team1: tuple
    team2: tuple
    payoffs: np.ndarray

    def __post_init__(self):
        payoffs = np.asarray(self.payoffs, dtype=float)
        if payoffs.shape != (len(self.team1), len(self.team2)):
            raise ValueError(
                f"meta matrix shape {payoffs.shape} does not match population sizes "
                f"({len(self.team1)}, {len(self.team2)})"
            )
        payoffs = payoffs.copy()
        payoffs.setflags(write=False)
        object.__setattr__(self, "payoffs", payoffs)

    def entries(self, team: int) -> tuple:
        return self.team1 if team == 1 else self.team2

    def mixture(self, team: int, weights) -> list[tuple]:
        entries = self.entries(team)
        return [(e, float(w)) for e, w in zip(entries, weights, strict=True) if w > 0.0]


def initial_population(game: Game, cfg: EvalConfig | None = None) -> Population:
    """Both teams seeded with the all-zeros deterministic product policy."""
    cfg = cfg or EvalConfig()
    seeds = []
    for team in (1, 2):
        counts = game.action_counts[team - 1]
        seeds.append(ProductPolicy([ConstantPolicy(c, 0) for c in counts]))
    value = team_value(game, 1, seeds[0], seeds[1], cfg)
    return Population((seeds[0],), (seeds[1],), np.array([[value]]))


def _new_line(game, team, entry, pop, cfg, dists=None):
    """The meta row (team 1) or column (team 2) the entry would add, and on
    a normal-form game the entry's joint-action distribution (else None).

    On a normal-form game each cell is `team_value`'s arithmetic on the two
    distributions, so the entry is checked once.  ``dists`` maps each team
    to its entries' distributions when the caller keeps them, as `run_psro`
    does; otherwise the opponents' are built here."""
    opponents = pop.team2 if team == 1 else pop.team1
    if not game.is_normal_form:
        if team == 1:
            return np.array([team_value(game, 1, entry, o, cfg) for o in opponents]), None
        return np.array([team_value(game, 1, o, entry, cfg) for o in opponents]), None
    mat = game.matrix()
    dist = team_action_dist(game, team, entry)
    if dists is None:
        opp_dists = [team_action_dist(game, 3 - team, o) for o in opponents]
    else:
        opp_dists = dists[3 - team]
    if team == 1:
        return np.array([_nf_team_value(mat, 1, dist, d) for d in opp_dists]), dist
    return np.array([_nf_team_value(mat, 1, d, dist) for d in opp_dists]), dist


def extend_population(
    game: Game, pop: Population, entry, team: int, cfg: EvalConfig | None = None,
    line: np.ndarray | None = None,
) -> Population:
    """Append one entry; existing cells are untouched.  ``line`` is the
    entry's new meta row (team 1) or column (team 2) when the caller has
    already evaluated it, as ``run_psro`` has for its duplicate check;
    otherwise it is evaluated here."""
    cfg = cfg or EvalConfig()
    check_team_policy(game, team, entry)
    if line is None:
        line, _ = _new_line(game, team, entry, pop, cfg)
    if team == 1:
        payoffs = np.vstack([pop.payoffs, line[None, :]])
        return replace(pop, team1=pop.team1 + (entry,), payoffs=payoffs)
    payoffs = np.hstack([pop.payoffs, line[:, None]])
    return replace(pop, team2=pop.team2 + (entry,), payoffs=payoffs)


def meta_solve(payoffs, tol: float = 1e-6) -> tuple[np.ndarray, np.ndarray, float]:
    """Restricted zero-sum equilibrium of the meta game."""
    sol: MaxminSolution = solve_matrix_maxmin(payoffs, tol=tol)
    return sol.row_mix, sol.col_mix, sol.value


@dataclass(frozen=True)
class PsroConfig:
    """Loop configuration; the oracle kind selects the PSRO variant:
    sebr -> S-PSRO, shared -> Team-PSRO, individual -> Indep-PSRO,
    joint -> Joint-PSRO.  ``max_iterations`` caps the loop, ``meta_tol`` is
    the meta-solve tolerance and ``gain_tol`` the best-response gain at
    which a team stops expanding.  ``expand_teams`` restricts which
    populations grow (a frozen opponent is treated as gain 0).  ``seed``
    roots the oracles' random streams and ``sebr_restarts`` is the number
    of seeded starts the S-PSRO oracle tries besides the incumbent (see
    `sebr_starts`)."""

    oracle: str = "sebr"
    max_iterations: int = 40
    meta_tol: float = 1e-6
    gain_tol: float = 1e-6
    eval: EvalConfig = field(default_factory=EvalConfig)
    seed: int = 0
    expand_teams: tuple[int, ...] = (1, 2)
    sebr_restarts: int = 4

    def __post_init__(self):
        if self.oracle not in ORACLES:
            raise ValueError(f"oracle must be one of {ORACLES}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.meta_tol <= 0 or self.gain_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not self.expand_teams or any(t not in (1, 2) for t in self.expand_teams):
            raise ValueError("expand_teams must be a nonempty subset of (1, 2)")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    meta_value: float
    br_gain_1: float
    br_gain_2: float
    pop_1: int
    pop_2: int


@dataclass(frozen=True)
class PsroResult:
    population: Population
    meta_1: np.ndarray
    meta_2: np.ndarray
    value: float
    history: tuple[IterationRecord, ...]
    converged: bool
    iterations: int


def _best_entry_vs(pop: Population, team: int, opp_weights) -> ProductPolicy | None:
    """Population entry with the highest value against the opponent
    meta-strategy (used as the incumbent start for local oracles).  The
    values are read off the meta matrix, summed in ``mixture_value``'s
    order, so they equal ``team_value`` against the opponent mixture."""
    lines = pop.payoffs if team == 1 else pop.payoffs.T
    best, best_val = None, -math.inf
    for entry, line in zip(pop.entries(team), lines):
        total = 0.0
        for w, cell in zip(opp_weights, line):
            if w > 0.0:
                total += float(w) * cell
        val = total if team == 1 else -total
        if val > best_val:
            best, best_val = entry, val
    return best


def _oracle_response(game, team, pop, opp_weights, cfg: PsroConfig, iteration: int, dists=None):
    """One oracle call against the opponent's meta-strategy ``opp_weights``;
    returns (policy, value vs the opponent mixture).  ``dists`` is
    `run_psro`'s record of each entry's joint-action distribution on a
    normal-form game (else None); the joint oracle reads the opponent's
    first ``len(opp_weights)``, since entries appended in this iteration
    follow them."""
    eval_cfg = cfg.eval
    opponent_mix = pop.mixture(3 - team, opp_weights)
    if cfg.oracle == "joint":
        opp_dists = None
        if dists is not None:
            kept = dists[3 - team][: len(opp_weights)]
            opp_dists = [d for d, w in zip(kept, opp_weights, strict=True) if w > 0.0]
        return best_response_joint(game, opponent_mix, team, cfg=eval_cfg, dists=opp_dists)
    if cfg.oracle == "shared":
        return best_response_shared(
            game, opponent_mix, team, cfg=eval_cfg,
            seed=subseed(cfg.seed, f"shared/t{team}/i{iteration}"),
        )
    incumbent = _best_entry_vs(pop, team, opp_weights)
    if cfg.oracle == "individual":
        return best_response_individual(game, opponent_mix, team, incumbent, cfg=eval_cfg)
    return sebr(
        game,
        opponent_mix,
        team,
        start=incumbent,
        restarts=cfg.sebr_restarts,
        seed=subseed(cfg.seed, f"sebr/t{team}/i{iteration}"),
        cfg=eval_cfg,
    )


def _is_duplicate(line: np.ndarray, existing: np.ndarray) -> bool:
    if existing.size == 0:
        return False
    return bool(np.any(np.max(np.abs(existing - line[None, :]), axis=1) <= _DUPLICATE_TOL))


def run_psro(game: Game, cfg: PsroConfig) -> PsroResult:
    """Algorithm loop: meta-solve, oracle best responses against the
    opponent meta-strategies, append non-duplicate responses, stop when
    both teams' best-response gains fall within the tolerance (restricted
    equilibrium) or the iteration cap is hit (reported, not fatal).

    On a normal-form game the run keeps each entry's joint-action
    distribution from the moment it joins, so a new meta line costs one
    distribution and one contraction per cell.  A run that stops because
    nothing was appended returns the meta solution of its last iteration,
    whose matrix is the final one; a run that hits the cap solves the final
    matrix once more."""
    pop = initial_population(game, cfg.eval)
    dists = None
    if game.is_normal_form:
        dists = {t: [team_action_dist(game, t, e) for e in pop.entries(t)] for t in (1, 2)}
    history: list[IterationRecord] = []
    converged = False
    iteration = 0
    for iteration in range(1, cfg.max_iterations + 1):
        meta_1, meta_2, value = meta_solve(pop.payoffs, cfg.meta_tol)
        gains = {1: 0.0, 2: 0.0}
        appended = False
        new_pop = pop
        for team in (1, 2):
            if team not in cfg.expand_teams:
                continue
            policy, br_value = _oracle_response(
                game, team, pop, meta_2 if team == 1 else meta_1, cfg, iteration, dists
            )
            team_meta_value = value if team == 1 else -value
            gains[team] = br_value - team_meta_value
            if gains[team] <= cfg.gain_tol:
                continue
            line, dist = _new_line(game, team, policy, new_pop, cfg.eval, dists)
            existing = new_pop.payoffs if team == 1 else new_pop.payoffs.T
            if _is_duplicate(line, existing):
                continue
            new_pop = extend_population(game, new_pop, policy, team, cfg.eval, line=line)
            if dists is not None:
                dists[team].append(dist)
            appended = True
        history.append(
            IterationRecord(
                iteration=iteration,
                meta_value=float(value),
                br_gain_1=float(gains[1]),
                br_gain_2=float(gains[2]),
                pop_1=len(new_pop.team1),
                pop_2=len(new_pop.team2),
            )
        )
        pop = new_pop
        if not appended:
            converged = all(gains[t] <= cfg.gain_tol for t in cfg.expand_teams)
            break
    else:
        meta_1, meta_2, value = meta_solve(pop.payoffs, cfg.meta_tol)
    return PsroResult(
        population=pop,
        meta_1=meta_1,
        meta_2=meta_2,
        value=float(value),
        history=tuple(history),
        converged=converged,
        iterations=iteration,
    )
