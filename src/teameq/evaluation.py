"""Exploitability profiles and relative population performance.

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
    Game,
    ProductPolicy,
    UniformPolicy,
    _integer,
    check_team,
    cross_payoff_matrix,
    team_value,
)
from .oracles import (
    BestResponse,
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
        check_team(self.team)
        w = np.asarray(self.weights, dtype=float)
        if len(self.entries) != len(w):
            raise ValueError("one weight per entry required")
        if not (w.min(initial=0.0) >= -1e-12 and abs(w.sum() - 1.0) <= 1e-9):
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
    """One class's opponent reward, with the certificate gap and method of
    the `BestResponse` that made it (None for both when not applicable)."""

    class_name: str
    opponent_reward: float | None
    applicable: bool = True
    note: str = ""
    gap: float | None = None
    method: str | None = None

    def to_dict(self) -> dict:
        return {
            "class": self.class_name,
            "opponent_reward": None if self.opponent_reward is None else float(self.opponent_reward),
            "applicable": self.applicable,
            "note": self.note,
            "gap": None if self.gap is None else float(self.gap),
            "method": self.method,
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


def exploitability_profile(
    game: Game,
    candidate: Candidate,
    classes=CLASS_ORDER,
    seed: int = 0,
    candidate_id: str = "",
) -> ExploitReport:
    """Opponent reward per correlation class against a frozen candidate.

    Joint uses the fully correlated best response, Synchronized the shared
    oracle (reported not-applicable on heterogeneous teams), NoCorrelation
    iterated unilateral best responses from the all-zeros start, Sequential
    the sebr oracle (its default 4 restarts, seeded from ``seed``), and
    Random the uniform product policy (method evaluation, gap 0).  Against
    a mixture on a stochastic game, Joint's response is the guarded
    greedy (method greedy, gap None): a lower bound on the class's reward,
    which can read below the other classes.  Raises
    ValueError, before any response is computed, when ``classes`` is empty
    or names a class twice or one outside `CLASS_ORDER`, or ``seed`` is not
    an integer.
    """
    _integer("seed", seed)
    classes = tuple(classes)
    if not classes:
        raise ValueError("no correlation class to profile")
    for i, name in enumerate(classes):
        if name not in CLASS_ORDER:
            raise ValueError(f"unknown correlation class {name!r}")
        if name in classes[:i]:
            raise ValueError(f"correlation class {name!r} is given twice")
    opp = 3 - candidate.team
    mix = candidate.mixture()
    counts = game.action_counts[opp - 1]
    results = []
    for name in classes:
        if name == "joint":
            br = best_response_joint(game, mix, opp)
        elif name == "synchronized":
            if len(set(counts)) != 1:
                results.append(ClassResult(name, None, applicable=False, note="heterogeneous team"))
                continue
            br = best_response_shared(game, mix, opp)
        elif name == "no_correlation":
            start = ProductPolicy([ConstantPolicy(c, 0) for c in counts])
            br = best_response_individual(game, mix, opp, start)
        elif name == "sequential":
            br = sebr(game, mix, opp, seed=subseed(seed, "exploit/sebr"))
        else:  # random
            uniform = ProductPolicy([UniformPolicy(c) for c in counts])
            br = BestResponse(uniform, team_value(game, opp, uniform, mix), 0.0, "evaluation")
        results.append(ClassResult(name, float(br.value), gap=br.gap, method=br.method))
    return ExploitReport(candidate_id or "candidate", candidate.team, tuple(results))


def rpp(game: Game, pop_a, pop_b, tol: float = 1e-6) -> float:
    """Relative population performance: the value of the zero-sum meta game
    between two populations (A's team-1 entries vs B's team-2 entries).

    For team-swap antisymmetric games rpp(A, B) = -rpp(B, A).
    """
    entries_a = pop_a.team1 if isinstance(pop_a, Population) else tuple(pop_a)
    entries_b = pop_b.team2 if isinstance(pop_b, Population) else tuple(pop_b)
    if not entries_a or not entries_b:
        raise ValueError("both populations must be nonempty")
    matrix = cross_payoff_matrix(game, entries_a, entries_b)
    return float(solve_matrix_maxmin(matrix, tol=tol).value)
