"""Exploitability profiles, relative population performance, Elo ratings.

The exploitability profile freezes one team's meta-strategy and reports,
per opponent correlation class, the opponent team's achievable expected
reward against it (negative means the opponent still loses).  Classes are
reported in the order Sequential, Joint, Synchronized, NoCorrelation,
Random; opponents best-respond to the frozen final meta-strategy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConstantPolicy,
    EvalConfig,
    Game,
    IndividualPolicy,
    ProductPolicy,
    UniformPolicy,
    _nf_team_value,
    team_action_dist,
    team_value,
)
from .oracles import (
    best_response_individual,
    best_response_joint,
    best_response_shared,
    sebr,
    solve_matrix_maxmin,
    subseed,
)
from .psro import Population, PsroResult

CLASS_ORDER = ("sequential", "joint", "synchronized", "no_correlation", "random")


@dataclass(frozen=True)
class Candidate:
    """A frozen meta-strategy over one team's population entries."""

    team: int
    entries: tuple
    weights: tuple[float, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if len(self.entries) != len(w):
            raise ValueError("one weight per entry required")
        if w.min(initial=0.0) < -1e-12 or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must form a probability vector")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))

    @classmethod
    def from_psro(cls, result: PsroResult, team: int) -> "Candidate":
        weights = result.meta_1 if team == 1 else result.meta_2
        return cls(team, result.population.entries(team), tuple(float(w) for w in weights))

    @classmethod
    def single(cls, team: int, policy) -> "Candidate":
        return cls(team, (policy,), (1.0,))

    def mixture(self) -> list[tuple]:
        return [(e, w) for e, w in zip(self.entries, self.weights) if w > 0.0]


@dataclass(frozen=True)
class ClassResult:
    class_name: str
    opponent_reward: float | None
    applicable: bool = True
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "class": self.class_name,
            "opponent_reward": None if self.opponent_reward is None else float(self.opponent_reward),
            "applicable": self.applicable,
            "note": self.note,
        }


@dataclass(frozen=True)
class ExploitReport:
    candidate_id: str
    team: int
    results: tuple[ClassResult, ...]
    header_note: str = "opponents best-respond to the frozen final meta-strategy"

    def result(self, class_name: str) -> ClassResult:
        for r in self.results:
            if r.class_name == class_name:
                return r
        raise KeyError(class_name)

    def to_dict(self) -> dict:
        return {
            "candidate": self.candidate_id,
            "team": self.team,
            "note": self.header_note,
            "classes": [r.to_dict() for r in self.results],
        }


def _uniform_product(game: Game, team: int) -> ProductPolicy:
    counts = game.action_counts[team - 1]
    if game.is_normal_form:
        return ProductPolicy([IndividualPolicy.uniform(c) for c in counts])
    return ProductPolicy([UniformPolicy(c) for c in counts])


def exploitability_profile(
    game: Game,
    candidate: Candidate,
    classes=CLASS_ORDER,
    cfg: EvalConfig | None = None,
    seed: int = 0,
    candidate_id: str = "",
) -> ExploitReport:
    """Opponent reward per correlation class against a frozen candidate.

    Joint uses the fully correlated best response, Synchronized the shared
    oracle (reported not-applicable on heterogeneous teams), NoCorrelation
    iterated unilateral best responses from the all-zeros start, Sequential
    the sebr oracle (its default 4 restarts), and Random the uniform product
    policy.
    """
    cfg = cfg or EvalConfig()
    opp = 3 - candidate.team
    mix = candidate.mixture()
    counts = game.action_counts[opp - 1]
    results = []
    for name in classes:
        if name not in CLASS_ORDER:
            raise ValueError(f"unknown correlation class {name!r}")
        if name == "joint":
            _, reward = best_response_joint(game, mix, opp, cfg=cfg)
        elif name == "synchronized":
            if len(set(counts)) != 1:
                results.append(
                    ClassResult(name, None, applicable=False, note="heterogeneous team")
                )
                continue
            _, reward = best_response_shared(
                game, mix, opp, cfg=cfg, seed=subseed(seed, "exploit/shared")
            )
        elif name == "no_correlation":
            start = ProductPolicy([ConstantPolicy(c, 0) for c in counts])
            _, reward = best_response_individual(game, mix, opp, start, cfg=cfg)
        elif name == "sequential":
            _, reward = sebr(game, mix, opp, seed=subseed(seed, "exploit/sebr"), cfg=cfg)
        else:  # random
            reward = team_value(game, opp, _uniform_product(game, opp), mix, cfg)
        results.append(ClassResult(name, float(reward)))
    return ExploitReport(candidate_id or "candidate", candidate.team, tuple(results))


def cross_payoff_matrix(game: Game, entries_a, entries_b, cfg: EvalConfig | None = None):
    """Team-1 reward of every pairing: A's entries field team 1, B's team 2.
    On a normal-form game each entry's joint-action distribution is built
    once and every cell is `team_value`'s arithmetic on two of them."""
    cfg = cfg or EvalConfig()
    out = np.zeros((len(entries_a), len(entries_b)))
    if game.is_normal_form:
        mat = game.matrix()
        dists_b = [team_action_dist(game, 2, b) for b in entries_b]
        for i, a in enumerate(entries_a):
            dist_a = team_action_dist(game, 1, a)
            for j, dist_b in enumerate(dists_b):
                out[i, j] = _nf_team_value(mat, 1, dist_a, dist_b)
        return out
    for i, a in enumerate(entries_a):
        for j, b in enumerate(entries_b):
            out[i, j] = team_value(game, 1, a, b, cfg)
    return out


def rpp(
    game: Game,
    pop_a,
    pop_b,
    tol: float = 1e-6,
    cfg: EvalConfig | None = None,
) -> float:
    """Relative population performance: the value of the zero-sum meta game
    between two populations (A's team-1 entries vs B's team-2 entries).

    For team-swap antisymmetric games rpp(A, B) = -rpp(B, A).
    """
    entries_a = pop_a.team1 if isinstance(pop_a, Population) else tuple(pop_a)
    entries_b = pop_b.team2 if isinstance(pop_b, Population) else tuple(pop_b)
    if not entries_a or not entries_b:
        raise ValueError("both populations must be nonempty")
    matrix = cross_payoff_matrix(game, entries_a, entries_b, cfg)
    return float(solve_matrix_maxmin(matrix, tol=tol).value)


# Elo ----------------------------------------------------------------------


@dataclass(frozen=True)
class MatchLedger:
    """Ordered match results: (player_a, player_b, score for a in {0, 1/2, 1})."""

    matches: tuple[tuple[str, str, float], ...]

    def __post_init__(self):
        clean = []
        for a, b, score in self.matches:
            if not a or not b:
                raise ValueError("player ids must be non-empty")
            if float(score) not in (0.0, 0.5, 1.0):
                raise ValueError(f"score must be 0, 0.5 or 1, got {score}")
            clean.append((str(a), str(b), float(score)))
        object.__setattr__(self, "matches", tuple(clean))


def elo_expected(rating_a: float, rating_b: float) -> float:
    return 1.0 / (1.0 + 10.0 ** ((rating_b - rating_a) / 400.0))


def elo_ratings(ledger, k: float = 32.0, base: float = 1200.0) -> dict[str, float]:
    """Sequential Elo updates over a match ledger, deterministic in ledger
    order.  Total rating is conserved by every update."""
    if not isinstance(ledger, MatchLedger):
        ledger = MatchLedger(tuple(ledger))
    if not ledger.matches:
        raise ValueError("the match ledger is empty")
    if k <= 0:
        raise ValueError("k must be positive")
    ratings: dict[str, float] = {}
    for a, b, score in ledger.matches:
        ra = ratings.setdefault(a, float(base))
        rb = ratings.setdefault(b, float(base))
        ea = elo_expected(ra, rb)
        ratings[a] = ra + k * (score - ea)
        ratings[b] = rb + k * ((1.0 - score) - (1.0 - ea))
    return ratings
