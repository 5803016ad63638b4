"""Deviation policy spaces per correlation class and equilibrium checks.

A deviation spec collects, for one team and one equilibrium candidate, the
individual deviation set I (one member changes, teammates stay at the
candidate) and the correlated deviation set C (coordinated team changes).
On a normal-form game the sets enumerate pure deviations.  On a stochastic
game they are the oracles' exact best responses to the profile's other
side, so they are specific to that profile.
With joint-correlation specs the verification is the full correlated-team
maxmin check; with no-correlation specs it is the Nash check; sequential
specs carry a sample-factor budget on |I| + |C|.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DimensionError,
    EvalConfig,
    Game,
    IndividualPolicy,
    JointMixPolicy,
    ProductPolicy,
    SharedPolicy,
    _members_view,
    _nf_team_value,
    _StepTable,
    as_mixture,
    check_team_policy,
    team_action_dist,
    team_value,
)
from .oracles import _table_search, best_response_joint, best_response_shared, sebr_starts

JOINT_POLICY_BOUND = 10**6  # pure team joint policies a spec may enumerate


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
    pivot: int = 0
    name = "pivot_followers"


@dataclass(frozen=True)
class Sequential:
    sample_factor: SampleFactor = field(default_factory=lambda: SampleFactor(n_init=16))
    seed: int = 0
    name = "sequential"


@dataclass(frozen=True)
class Joint:
    name = "joint"


CorrelationClass = NoCorrelation | PivotFollowers | Sequential | Joint


@dataclass(frozen=True)
class DeviationSpec:
    """Deviation policy space of one team against a fixed candidate.

    ``individual`` holds (member, replacement policy) pairs with teammates
    fixed at the candidate; ``correlated`` holds whole team policies.  On a
    stochastic game both hold best responses to the profile's other side.
    """

    team: int
    correlation: CorrelationClass
    candidate: object
    individual: tuple[tuple[int, object], ...]
    correlated: tuple[object, ...]
    budget: int | None = None

    def __post_init__(self):
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


def _pure_joint_policies(game: Game, team: int):
    """Each pure joint action of a normal-form team with its pure product."""
    counts = game.action_counts[team - 1]
    total = int(np.prod(counts))
    if total > JOINT_POLICY_BOUND:
        raise ValueError(f"{total} pure joint policies exceed the bound {JOINT_POLICY_BOUND}")
    return [
        (joint, ProductPolicy.pure(joint, counts))
        for joint in itertools.product(*(range(c) for c in counts))
    ]


def build_deviation_spec(
    game: Game,
    team: int,
    candidate,
    correlation: CorrelationClass,
    delta_team: int = 0,
    delta_policy: int = 0,
    cfg: EvalConfig | None = None,
    *,
    opponent=None,
) -> DeviationSpec:
    """Construct the deviation space of ``team`` for one correlation class.

    Normal form, by enumeration of pure deviations:
    - NoCorrelation: I = every pure unilateral deviation, C empty.
    - PivotFollowers: C = one shared policy per pure pivot action, I empty.
    - Joint: C = every pure team joint action.
    - Sequential: a seeded budgeted subset of the union, individual
      deviations first, then joint actions sampled without replacement.

    Stochastic, by exact best responses to ``opponent``, the profile's
    other side (required there, not read on normal form), so the sets are
    specific to the profile: I holds one `oracles._table_search` table per
    member with its teammates at the candidate, pivot C
    `best_response_shared`, joint C `best_response_joint`; Sequential takes
    the member tables, then `sebr_starts`' seeded deterministic products.
    """
    cfg = cfg or EvalConfig()
    check_team_policy(game, team, candidate)
    n_members = game.team_sizes[team - 1]
    counts = game.action_counts[team - 1]
    if not game.is_normal_form:
        if opponent is None:
            raise ValueError("stochastic deviation sets need the profile's opponent=")
        check_team_policy(game, 3 - team, opponent)

    pure = IndividualPolicy.deterministic

    def individual_deviations():
        if game.is_normal_form:
            return [(m, pure(c, a)) for m, c in enumerate(counts) for a in range(c)]
        members, atoms = _members_view(candidate), as_mixture(opponent)
        steps = _StepTable(game, atoms)
        return [
            (m, _table_search(game, team, (m,), members, atoms, cfg, steps)[0])
            for m in range(n_members)
        ]

    if isinstance(correlation, NoCorrelation):
        _members_view(candidate)  # must be distributed
        return DeviationSpec(team, correlation, candidate, tuple(individual_deviations()), ())

    if isinstance(correlation, PivotFollowers):
        if not 0 <= correlation.pivot < n_members:
            raise ValueError(f"pivot {correlation.pivot} is not a team member")
        if len(set(counts)) != 1:
            raise DimensionError("pivot-followers requires homogeneous action spaces")
        if game.is_normal_form:
            shared = [SharedPolicy(pure(counts[0], a), n_members) for a in range(counts[0])]
        else:
            shared = [best_response_shared(game, opponent, team, cfg)[0]]
        return DeviationSpec(team, correlation, candidate, (), tuple(shared))

    if isinstance(correlation, Joint):
        if game.is_normal_form:
            joints = [pol for _, pol in _pure_joint_policies(game, team)]
        else:
            joints = [best_response_joint(game, opponent, team, cfg)[0]]
        return DeviationSpec(team, correlation, candidate, (), tuple(joints))

    if isinstance(correlation, Sequential):
        budget = sample_budget(correlation.sample_factor, delta_team, delta_policy)
        indiv = individual_deviations()[:budget]
        remaining = budget - len(indiv)
        correlated: list = []
        if remaining > 0 and not game.is_normal_form:
            correlated = sebr_starts(game, team, None, remaining, correlation.seed)
        elif remaining > 0:
            exclude = set()
            if isinstance(candidate, (ProductPolicy, SharedPolicy)):
                cand_joint = tuple(m.pure_action(0) for m in _members_view(candidate))
                if None not in cand_joint:
                    exclude.add(cand_joint)
                    for member, pol in indiv:
                        dev = list(cand_joint)
                        dev[member] = pol.pure_action(0)
                        exclude.add(tuple(dev))
            pool = [pol for ja, pol in _pure_joint_policies(game, team) if ja not in exclude]
            rng = np.random.default_rng(correlation.seed)
            idx = rng.choice(len(pool), size=min(remaining, len(pool)), replace=False)
            correlated = [pool[i] for i in idx]
        return DeviationSpec(
            team, correlation, candidate, tuple(indiv), tuple(correlated), budget=budget
        )

    raise TypeError(f"unknown correlation class {correlation!r}")


def _pure_joint_action(policy) -> tuple | None:
    """The joint action a normal-form team policy plays for sure, or None
    if it mixes."""
    if isinstance(policy, JointMixPolicy):
        return policy.atoms[0] if len(policy.atoms) == 1 else None
    acts = tuple(m.pure_action(0) for m in _members_view(policy))
    return None if None in acts else acts


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
            return {"kind": "individual", "member": member, "action": pol.pure_action(0)}
        return {
            "kind": "individual", "member": member,
            "value": float(value), "tables": _tables_digest([pol]),
        }
    if game.is_normal_form:
        joint = _pure_joint_action(payload)
        return {"kind": "correlated", "joint_action": None if joint is None else list(joint)}
    return {
        "kind": "correlated",
        "value": float(value), "tables": _tables_digest(_members_view(payload)),
    }


def _values_against(game: Game, team: int, opponent, cfg: EvalConfig):
    """``team``'s `team_value` of a policy against the fixed ``opponent``,
    as a function of the policy.  On a normal-form game it builds the
    opponent's joint-action distribution once and each policy's once."""
    if not game.is_normal_form:
        return lambda policy: team_value(game, team, policy, opponent, cfg)
    mat = game.matrix()
    opp = team_action_dist(game, 3 - team, opponent)
    return lambda policy: _nf_team_value(mat, team, team_action_dist(game, team, policy), opp)


def verify_equilibrium(
    game: Game,
    profile: tuple,
    specs,
    epsilon: float = 1e-6,
    cfg: EvalConfig | None = None,
) -> VerificationReport:
    """Check a candidate profile against per-team deviation spaces.

    For each team the report carries the maximum deviation gain over
    I union C and the witness reaching it (deviations enumerated in a fixed
    order, individual first, so witness ties break deterministically).
    The verdict is PASS iff neither team gains more than epsilon.  With
    joint specs this is the correlated-team maxmin check; with
    no-correlation specs it is the Nash check.
    """
    cfg = cfg or EvalConfig()
    p1, p2 = profile
    check_team_policy(game, 1, p1)
    check_team_policy(game, 2, p2)
    spec_map = {s.team: s for s in (specs if isinstance(specs, (list, tuple)) else specs.values())}
    checks = []
    for team in sorted(spec_map):
        spec = spec_map[team]
        own = p1 if team == 1 else p2
        value_of = _values_against(game, team, p2 if team == 1 else p1, cfg)
        base = value_of(own)
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
            value = value_of(dev_policy)
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
