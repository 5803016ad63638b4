"""Deviation policy spaces per correlation class and equilibrium checks.

A deviation spec collects, for one team and one equilibrium candidate, the
individual deviation set I (one member changes, teammates stay at the
candidate) and the correlated deviation set C (coordinated team changes).
Both hold the oracles' best responses to the profile's other side, so a
spec is specific to that profile; sequential specs instead carry a seeded
sample within a sample-factor budget on |I| + |C|.
With joint-correlation specs the verification is the full correlated-team
maxmin check; with no-correlation specs it is the Nash check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    NF_OBS,
    ConstantPolicy,
    DimensionError,
    Game,
    IndividualPolicy,
    ProductPolicy,
    SharedPolicy,
    _members_view,
    _StepTable,
    as_mixture,
    check_team,
    check_team_policy,
    team_value,
)
from .oracles import (
    _member_values,
    _slack,
    _table_search,
    best_response_joint,
    best_response_shared,
    sebr_starts,
    team_reward_tensor,
)

JOINT_POLICY_BOUND = 10**6  # pure team joint actions a sequential spec may sample from


@dataclass(frozen=True)
class SampleFactor:
    """Linear growth budget for evaluated deviation policies: f_team per
    added teammate, f_policy per added individual policy, on top of an
    initial count."""

    f_team: float = 0.0
    f_policy: float = 0.0
    n_init: int = 0

    def __post_init__(self):
        if self.f_team < 0 or self.f_policy < 0:
            raise ValueError("growth rates must be nonnegative")
        if self.n_init < 0:
            raise ValueError("n_init must be nonnegative")


def sample_budget(sf: SampleFactor, delta_team: int, delta_policy: int) -> int:
    """N = n_init + delta_team * f_team + delta_policy * f_policy, floored."""
    if delta_team < 0 or delta_policy < 0:
        raise ValueError("deltas must be nonnegative")
    return int(math.floor(sf.n_init + delta_team * sf.f_team + delta_policy * sf.f_policy))


# Correlation classes ------------------------------------------------------


@dataclass(frozen=True)
class NoCorrelation:
    name = "no_correlation"


@dataclass(frozen=True)
class PivotFollowers:
    name = "pivot_followers"


@dataclass(frozen=True)
class Sequential:
    sample_factor: SampleFactor = field(default_factory=lambda: SampleFactor(n_init=16))
    seed: int = 0
    name = "sequential"

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"sequential seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class Joint:
    name = "joint"


CorrelationClass = NoCorrelation | PivotFollowers | Sequential | Joint


@dataclass(frozen=True)
class DeviationSpec:
    """Deviation policy space of one team against a fixed candidate.

    ``individual`` holds (member, replacement policy) pairs with teammates
    fixed at the candidate; ``correlated`` holds whole team policies.  Both
    hold best responses to the profile's other side, except a sequential
    spec's seeded sample.
    """

    team: int
    correlation: CorrelationClass
    candidate: object
    individual: tuple[tuple[int, object], ...]
    correlated: tuple[object, ...]
    budget: int | None = None

    def __post_init__(self):
        check_team(self.team)
        if isinstance(self.correlation, NoCorrelation) and self.correlated:
            raise ValueError("no-correlation specs have an empty correlated set")
        if isinstance(self.correlation, PivotFollowers):
            if self.individual:
                raise ValueError("pivot-followers specs have an empty individual set")
            if not all(isinstance(p, SharedPolicy) for p in self.correlated):
                raise ValueError("pivot-followers deviations must be shared policies")
        if isinstance(self.correlation, Sequential) and self.budget is not None:
            if len(self.individual) + len(self.correlated) > self.budget:
                raise ValueError("sequential spec exceeds its sample budget")

    @property
    def class_name(self) -> str:
        return self.correlation.name


def build_deviation_spec(
    game: Game,
    team: int,
    candidate,
    correlation: CorrelationClass,
    *,
    opponent=None,
) -> DeviationSpec:
    """Construct the deviation space of ``team`` for one correlation class:
    the oracles' best responses to ``opponent``, the profile's other side
    (required), so the sets are specific to the profile.
    - NoCorrelation: I = each member's best response with its teammates at
      the candidate (normal form: its first best pure action, SeBR's
      closed-form update; stochastic: its `oracles._table_search` table).
    - PivotFollowers: C = the best pure shared policy (normal form: the
      first best diagonal joint action; stochastic: `best_response_shared`).
    - Joint: C = `best_response_joint`'s policy.
    - Sequential: a seeded sample of at most the sample factor's ``n_init``
      policies: every pure unilateral deviation (normal form) or the
      NoCorrelation tables (stochastic) first, then pure joint actions drawn
      without replacement or `sebr_starts`' deterministic products.
    """
    check_team_policy(game, team, candidate)
    if opponent is None:
        raise ValueError("a deviation spec needs the profile's other side as opponent=")
    check_team_policy(game, 3 - team, opponent)
    n_members = game.team_sizes[team - 1]
    counts = game.action_counts[team - 1]

    def best_member_deviations():
        members = _members_view(candidate)
        if game.is_normal_form:
            tensor = team_reward_tensor(game, team, opponent)
            dists = [m.dist(NF_OBS) for m in members]
            return [
                (m, ConstantPolicy(c, int(np.argmax(_member_values(tensor, dists, m)))))
                for m, c in enumerate(counts)
            ]
        atoms = as_mixture(opponent)
        steps, slack = _StepTable(game, atoms), _slack(game)
        return [
            (m, _table_search(game, team, (m,), members, atoms, steps, slack).policy)
            for m in range(n_members)
        ]

    if isinstance(correlation, NoCorrelation):
        return DeviationSpec(team, correlation, candidate, tuple(best_member_deviations()), ())

    if isinstance(correlation, PivotFollowers):
        if len(set(counts)) != 1:
            raise DimensionError("pivot-followers requires homogeneous action spaces")
        if game.is_normal_form:
            tensor = team_reward_tensor(game, team, opponent)
            best = int(np.argmax(tensor[(np.arange(counts[0]),) * n_members]))
            shared = SharedPolicy(ConstantPolicy(counts[0], best), n_members)
        else:
            shared = best_response_shared(game, opponent, team).policy
        return DeviationSpec(team, correlation, candidate, (), (shared,))

    if isinstance(correlation, Joint):
        joint = best_response_joint(game, opponent, team).policy
        return DeviationSpec(team, correlation, candidate, (), (joint,))

    if isinstance(correlation, Sequential):
        budget = sample_budget(correlation.sample_factor, 0, 0)
        if game.is_normal_form:
            indiv = [(m, ConstantPolicy(c, a)) for m, c in enumerate(counts) for a in range(c)]
        else:
            indiv = best_member_deviations()
        indiv = indiv[:budget]
        remaining = budget - len(indiv)
        correlated: list = []
        if remaining > 0 and not game.is_normal_form:
            correlated = sebr_starts(game, team, None, remaining, correlation.seed)
        elif remaining > 0:
            total = game.joint_count(team)
            if total > JOINT_POLICY_BOUND:
                raise ValueError(f"{total} joint actions exceed the bound {JOINT_POLICY_BOUND}")
            exclude = set()
            if isinstance(candidate, ProductPolicy):
                cand_joint = candidate.pure_joint_action((NF_OBS,) * n_members)
                if cand_joint is not None:
                    exclude.add(cand_joint)
                    for member, pol in indiv:
                        dev = list(cand_joint)
                        dev[member] = pol.pure_action(NF_OBS)
                        exclude.add(tuple(dev))
            pool = [ja for ja in game.joint_actions(team) if ja not in exclude]
            rng = np.random.default_rng(correlation.seed)
            idx = rng.choice(len(pool), size=min(remaining, len(pool)), replace=False)
            correlated = [ProductPolicy.pure(pool[i], counts) for i in idx]
        return DeviationSpec(
            team, correlation, candidate, tuple(indiv), tuple(correlated), budget=budget
        )

    raise TypeError(f"unknown correlation class {correlation!r}")


# Verification -------------------------------------------------------------


@dataclass(frozen=True)
class TeamCheck:
    team: int
    class_name: str
    budget: int | None
    max_gain: float
    witness: dict
    passed: bool

    def to_dict(self) -> dict:
        return {
            "team": self.team,
            "class": self.class_name,
            "budget": self.budget,
            "max_gain": float(self.max_gain),
            "witness": self.witness,
            "verdict": "PASS" if self.passed else "FAIL",
        }


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[TeamCheck, ...]
    epsilon: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "epsilon": float(self.epsilon),
            "verdict": "PASS" if self.passed else "FAIL",
            "teams": [c.to_dict() for c in self.checks],
        }


def _member_tables(member) -> tuple:
    """A member policy as plain data: its table's supports by observation
    (sorted by ``repr``), then its fallback's; a policy without a table
    (constant, uniform, hashed) by its ``repr``."""
    if not isinstance(member, IndividualPolicy):
        return (repr(member),)
    entries = tuple(sorted((repr(obs), member.support(obs)) for obs in member.observations()))
    rest = () if member.fallback is None else _member_tables(member.fallback)
    return (entries,) + rest


def _tables_digest(members) -> str:
    """Short SHA-256 digest of the member policies' tables."""
    # imported here: hashlib maps OpenSSL, and only a stochastic witness digests
    import hashlib

    data = repr(tuple(_member_tables(m) for m in members))
    return hashlib.sha256(data.encode()).hexdigest()[:12]


def _witness_for(game, spec, kind, payload, value) -> dict:
    """The deviation reaching the largest gain: on normal form its pure
    action or joint action; on a stochastic game, where a deviation is a
    table per member, its value against the opponent and a digest of the
    deviating members' tables."""
    if kind == "individual":
        member, pol = payload
        if game.is_normal_form:
            return {"kind": "individual", "member": member, "action": pol.pure_action(NF_OBS)}
        return {
            "kind": "individual", "member": member,
            "value": float(value), "tables": _tables_digest([pol]),
        }
    if game.is_normal_form:
        joint = payload.pure_joint_action((NF_OBS,) * payload.n_members)
        return {"kind": "correlated", "joint_action": None if joint is None else list(joint)}
    return {
        "kind": "correlated",
        "value": float(value), "tables": _tables_digest(_members_view(payload)),
    }


def verify_equilibrium(
    game: Game,
    profile: tuple,
    specs,
    epsilon: float = 1e-6,
) -> VerificationReport:
    """Check a candidate profile against per-team deviation spaces.

    For each team the report carries the maximum deviation gain over
    I union C and the witness reaching it (deviations enumerated in a fixed
    order, individual first, so witness ties break deterministically).
    The verdict is PASS iff neither team gains more than epsilon.  With
    joint specs this is the correlated-team maxmin check; with
    no-correlation specs it is the Nash check.  A negative, infinite or
    NaN epsilon raises ValueError: it would decide every verdict itself.
    So do, before any evaluation, no spec, two specs for one team, and a
    spec whose ``candidate`` is not the profile's policy for its team (the
    same object): each would leave a team's verdict unchecked.
    """
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon!r}")
    p1, p2 = profile
    check_team_policy(game, 1, p1)
    check_team_policy(game, 2, p2)
    spec_map = {}
    for spec in specs if isinstance(specs, (list, tuple)) else specs.values():
        if spec.team in spec_map:
            raise ValueError(f"team {spec.team} has two deviation specs")
        if spec.candidate is not (p1, p2)[spec.team - 1]:
            raise ValueError(f"team {spec.team}'s spec was built for another candidate")
        spec_map[spec.team] = spec
    if not spec_map:
        raise ValueError("no deviation spec to verify")
    checks = []
    for team in sorted(spec_map):
        spec = spec_map[team]
        own, opponent = (p1, p2) if team == 1 else (p2, p1)
        base = team_value(game, team, own, opponent)
        best_gain, best_witness = -math.inf, {}
        deviations = []
        if spec.individual:
            members = _members_view(own)
            for member, pol in spec.individual:
                dev_members = list(members)
                dev_members[member] = pol
                deviations.append(("individual", (member, pol), ProductPolicy(dev_members)))
        for pol in spec.correlated:
            deviations.append(("correlated", pol, pol))
        if not deviations:
            best_gain, best_witness = 0.0, {"kind": "none"}
        for kind, payload, dev_policy in deviations:
            value = team_value(game, team, dev_policy, opponent)
            gain = value - base
            if gain > best_gain:
                best_gain = gain
                best_witness = _witness_for(game, spec, kind, payload, value)
        checks.append(
            TeamCheck(
                team=team,
                class_name=spec.class_name,
                budget=spec.budget,
                max_gain=float(best_gain),
                witness=best_witness,
                passed=best_gain <= epsilon,
            )
        )
    return VerificationReport(
        checks=tuple(checks), epsilon=float(epsilon), passed=all(c.passed for c in checks)
    )
