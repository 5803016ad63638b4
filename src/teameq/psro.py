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
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ConstantPolicy,
    Game,
    ProductPolicy,
    _integer,
    _key_table,
    _PricedMixture,
    _pricing_key,
    check_team_policy,
    cross_payoff_matrix,
)
from .oracles import (
    MaxminSolution,
    _beats,
    _slack,
    best_response_individual,
    best_response_joint,
    best_response_shared,
    sebr,
    solve_matrix_maxmin,
    subseed,
)

ORACLES = ("joint", "shared", "individual", "sebr")


@dataclass(frozen=True)
class Population:
    """Per-team policy pools and the empirical meta-payoff matrix.

    ``payoffs[a, b]`` is the expected team-1 reward of team-1 entry ``a``
    against team-2 entry ``b``; every cell is present (no holes).

    On a normal-form game `initial_population` and `extend_population`
    check and key each entry once, when it joins, and keep its
    `_pricing_key` (``keys``, one tuple per team) with the game's action
    counts that keyed it (``key_counts``).  The constructor takes neither,
    so a population built by hand keeps no keys.
    """

    team1: tuple
    team2: tuple
    payoffs: np.ndarray
    keys: tuple | None = field(default=None, init=False, repr=False, compare=False)
    key_counts: tuple | None = field(default=None, init=False, repr=False, compare=False)

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

    def mixture(self, team: int, weights) -> _PricedMixture:
        """The positive-weight entries of ``team`` with their weights, and
        their kept keys when the population keeps them."""
        entries = self.entries(team)
        pairs = [(e, float(w)) for e, w in zip(entries, weights, strict=True) if w > 0.0]
        if self.keys is None:
            return _PricedMixture(pairs)
        keys = tuple(k for k, w in zip(self.keys[team - 1], weights) if w > 0.0)
        return _PricedMixture(pairs, keys, self.key_counts[team - 1])


def initial_population(game: Game) -> Population:
    """Both teams seeded with the all-zeros deterministic product policy:
    the team-2 seed appended by `extend_population` to the team-1 seed."""
    seeds = [ProductPolicy([ConstantPolicy(c, 0) for c in counts]) for counts in game.action_counts]
    return extend_population(game, Population((seeds[0],), (), np.zeros((1, 0))), seeds[1], 2)


def extend_population(game: Game, pop: Population, entry, team: int) -> Population:
    """Append one entry, checked here; existing cells are untouched.

    On a normal-form game the entry is keyed here, once, and its meta row
    (team 1) or column (team 2) is `core._key_table`'s from the kept keys
    of the other team's entries, the arithmetic of `cross_payoff_matrix`.
    A population without keys for the game's action counts (one built by
    hand) has its entries checked and keyed here first."""
    check_team_policy(game, team, entry)
    keys = None
    if not game.is_normal_form:
        pair = ((entry,), pop.team2) if team == 1 else (pop.team1, (entry,))
        line = cross_payoff_matrix(game, *pair)
    else:
        keys = pop.keys
        if pop.key_counts != game.action_counts:
            keys = tuple(tuple(_pricing_key(game, t, e) for e in pop.entries(t)) for t in (1, 2))
        key = (_pricing_key(game, team, entry, check=False),)
        pair = (key, keys[1]) if team == 1 else (keys[0], key)
        line = _key_table(game.matrix(), *pair)
        keys = (keys[0] + key, keys[1]) if team == 1 else (keys[0], keys[1] + key)
    if team == 1:
        grown = Population(pop.team1 + (entry,), pop.team2, np.concatenate((pop.payoffs, line)))
    else:
        grown = Population(pop.team1, pop.team2 + (entry,), np.concatenate((pop.payoffs, line), 1))
    object.__setattr__(grown, "keys", keys)
    object.__setattr__(grown, "key_counts", None if keys is None else game.action_counts)
    return grown


def meta_solve(payoffs, tol: float = 1e-6) -> tuple[np.ndarray, np.ndarray, float]:
    """Restricted zero-sum equilibrium of the meta game."""
    sol: MaxminSolution = solve_matrix_maxmin(payoffs, tol=tol)
    return sol.row_mix, sol.col_mix, sol.value


@dataclass(frozen=True)
class PsroConfig:
    """Loop configuration; the oracle kind selects the PSRO variant:
    sebr -> S-PSRO, shared -> Team-PSRO, individual -> Indep-PSRO,
    joint -> Joint-PSRO.  ``max_iterations`` caps the loop; ``tol`` is both
    the meta-solve tolerance and the best-response gain at which a team
    stops expanding, and must be positive and finite (with a NaN no gain
    would ever count as converged).  ``expand_teams`` restricts which
    populations grow (a frozen opponent is treated as gain 0).  ``seed``
    roots SeBR's random streams, the only oracle that reads one, and
    ``sebr_restarts`` is the number of seeded starts the S-PSRO oracle
    tries besides the incumbent (see `sebr_starts`), at least 0.  Both counts
    and the seed must be integers; ValueError otherwise."""

    oracle: str = "sebr"
    max_iterations: int = 40
    tol: float = 1e-6
    seed: int = 0
    expand_teams: tuple[int, ...] = (1, 2)
    sebr_restarts: int = 4

    def __post_init__(self):
        if self.oracle not in ORACLES:
            raise ValueError(f"oracle must be one of {ORACLES}")
        for name in ("max_iterations", "sebr_restarts", "seed"):
            _integer(name, getattr(self, name))
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.sebr_restarts < 0:
            raise ValueError("sebr_restarts must be nonnegative")
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
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
    gap_1: float | None = None  # the answer's gap; None: local or not expanded
    gap_2: float | None = None


@dataclass(frozen=True)
class PsroResult:
    population: Population
    meta_1: np.ndarray
    meta_2: np.ndarray
    value: float
    history: tuple[IterationRecord, ...]
    converged: bool
    iterations: int
    certified: bool = False  # every expanded team's last answer has a gap


def _best_entry_vs(pop: Population, team: int, opp_weights, slack: float) -> ProductPolicy | None:
    """Population entry with the highest value against the opponent
    meta-strategy by `_beats` with ``slack``, so of the entries a meta
    equilibrium makes indifferent the earliest wins (the incumbent start
    for local oracles).  The values are read off the meta matrix, summed in
    ``mixture_value``'s order, so they equal ``team_value`` against the
    opponent mixture."""
    lines = pop.payoffs if team == 1 else pop.payoffs.T
    best, best_val = None, -math.inf
    for entry, line in zip(pop.entries(team), lines):
        total = 0.0
        for w, cell in zip(opp_weights, line):
            if w > 0.0:
                total += float(w) * cell
        val = total if team == 1 else -total
        if _beats(val, best_val, slack):
            best, best_val = entry, val
    return best


def _oracle_response(game, team, pop, opp_weights, cfg, iteration, slack):
    """One oracle call against the opponent's meta-strategy ``opp_weights``;
    returns its `BestResponse` against the opponent mixture, which carries
    the population's kept keys.  ``slack`` is the game's `_slack`."""
    opponent_mix = pop.mixture(3 - team, opp_weights)
    if cfg.oracle == "joint":
        return best_response_joint(game, opponent_mix, team)
    if cfg.oracle == "shared":
        return best_response_shared(game, opponent_mix, team)
    incumbent = _best_entry_vs(pop, team, opp_weights, slack)
    if cfg.oracle == "individual":
        return best_response_individual(game, opponent_mix, team, incumbent)
    seed = subseed(cfg.seed, f"sebr/t{team}/i{iteration}")
    return sebr(
        game, opponent_mix, team, start=incumbent, restarts=cfg.sebr_restarts, seed=seed
    )


def run_psro(game: Game, cfg: PsroConfig) -> PsroResult:
    """Algorithm loop: meta-solve, oracle best responses against the
    opponent meta-strategies, append non-duplicate responses, stop when
    both teams' best-response gains fall within the tolerance (restricted
    equilibrium) or the iteration cap is hit (reported, not fatal).

    On a normal-form game the population keeps each entry's key from the
    moment it joins: a pure entry's joint index, as every Joint-PSRO
    entry's is, else its distribution.  So no one-hot distribution is
    built, the oracles read the kept keys, and a new meta line costs one
    key and one contraction per cell.  A response is appended first and
    dropped when its line duplicates an existing one.  A run that stops
    because nothing was appended returns the meta solution of its last
    iteration, whose matrix is the final one; a run that hits the cap
    solves the final matrix once more."""
    pop = initial_population(game)
    slack = _slack(game)
    history: list[IterationRecord] = []
    converged = False
    iteration = 0
    for iteration in range(1, cfg.max_iterations + 1):
        meta_1, meta_2, value = meta_solve(pop.payoffs, cfg.tol)
        gains, gaps = {1: 0.0, 2: 0.0}, {1: None, 2: None}
        appended = False
        new_pop = pop
        for team in (1, 2):
            if team not in cfg.expand_teams:
                continue
            br = _oracle_response(
                game, team, pop, meta_2 if team == 1 else meta_1, cfg, iteration, slack
            )
            team_meta_value = value if team == 1 else -value
            gains[team], gaps[team] = br.value - team_meta_value, br.gap
            if gains[team] <= cfg.tol:
                continue
            grown = extend_population(game, new_pop, br.policy, team)
            lines = grown.payoffs if team == 1 else grown.payoffs.T
            # a duplicate: an existing line no cell differs from by more than the slack
            if _beats(np.maximum.reduce(np.abs(lines[:-1] - lines[-1]), axis=1), 0.0, slack).all():
                new_pop, appended = grown, True
        history.append(
            IterationRecord(
                iteration=iteration,
                meta_value=float(value),
                br_gain_1=float(gains[1]),
                br_gain_2=float(gains[2]),
                pop_1=len(new_pop.team1),
                pop_2=len(new_pop.team2),
                gap_1=gaps[1],
                gap_2=gaps[2],
            )
        )
        pop = new_pop
        if not appended:
            converged = all(gains[t] <= cfg.tol for t in cfg.expand_teams)
            break
    else:
        meta_1, meta_2, value = meta_solve(pop.payoffs, cfg.tol)
    return PsroResult(
        population=pop,
        meta_1=meta_1,
        meta_2=meta_2,
        value=float(value),
        history=tuple(history),
        converged=converged,
        iterations=iteration,
        certified=all(gaps[t] is not None for t in cfg.expand_teams),
    )
