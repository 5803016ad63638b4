"""Matrix maxmin solving and the team best-response oracles.

Four oracles with different cooperative ability:

- joint: argmax over pure team joint actions/policies (full coordination),
- shared: best shared (parameter-tied) policy, members sampling independently,
- individual: round-robin iterated unilateral best responses, which is sebr
  from one start with no restarts,
- sebr: sequential coordinate ascent where each member best-responds exactly
  given its predecessors' updated policies, optionally traced update by
  update.

All oracles are pure functions, deterministic given (inputs, seed), and
break ties lexicographically on action indices.  They compute exact values
only, within the stochastic game's ``exact_bound``.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DIST_TOL,
    NF_OBS,
    ConstantPolicy,
    DimensionError,
    EvaluationError,
    Game,
    HashPolicy,
    IndividualPolicy,
    JointMixPolicy,
    NormalFormTeamGame,
    ProductPolicy,
    SharedPolicy,
    StochasticTeamGame,
    _StepTable,
    _backward,
    _budget_error,
    _forward,
    _joint_support,
    _members_view,
    _nf_team_value,
    _profile_value,
    as_mixture,
    check_team_policy,
    team_action_dist,
)

#: Pivot and reduced-cost threshold of the maxmin simplex.
_SIMPLEX_EPS = 1e-12

#: Most pure tables `_table_search` enumerates for one unit of members.
TABLE_ENUMERATION_BOUND = 4096

#: Most rounds of `_unit_improve_weighted`'s guarded greedy improvement.
GREEDY_ROUNDS = 20

#: Most sub-simplex splits of `_bernstein_simplex_max`.
_BERNSTEIN_NODE_CAP = 20_000


def subseed(seed: int, name: str) -> int:
    """Stable named sub-stream of a root seed."""
    digest = hashlib.blake2b(
        name.encode(), digest_size=8, key=int(seed).to_bytes(8, "little", signed=True)
    ).digest()
    return int.from_bytes(digest, "little") >> 1


class MaxminConvergenceError(RuntimeError):
    """The maxmin simplex hit its pivot cap or could not certify ``tol``;
    carries the certified strategies of its last tableau."""

    def __init__(self, best: "MaxminSolution", tol: float, pivots: int):
        super().__init__(f"maxmin gap {best.gap:.3g} > tol {tol:g} after {pivots} pivots")
        self.best = best


class ExactBRUnsupported(RuntimeError):
    """Exact tabular best response is not expressible for this game/policy."""


@dataclass(frozen=True)
class MaxminSolution:
    """Equilibrium of a zero-sum matrix game with a best-response gap
    certificate: gap is the larger of the two sides' best-response slacks."""

    row_mix: np.ndarray
    col_mix: np.ndarray
    value: float
    gap: float

    def __post_init__(self):
        for name in ("row_mix", "col_mix"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.min(initial=0.0) < -DIST_TOL or abs(arr.sum() - 1.0) > 1e-9:
                raise ValueError(f"{name} is not a probability vector")
            arr = np.clip(arr, 0.0, None)
            arr = arr / arr.sum()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "gap", max(float(self.gap), 0.0))

    def to_dict(self) -> dict:
        return {
            "value": float(self.value),
            "gap": float(self.gap),
            "row_mix": [float(x) for x in self.row_mix],
            "col_mix": [float(x) for x in self.col_mix],
        }


def _certify(matrix: np.ndarray, x: np.ndarray, y: np.ndarray) -> MaxminSolution:
    x = np.clip(x, 0.0, None)
    x = x / x.sum()
    y = np.clip(y, 0.0, None)
    y = y / y.sum()
    value = float(x @ matrix @ y)
    row_slack = float((matrix @ y).max() - value)
    col_slack = float(value - (x @ matrix).min())
    return MaxminSolution(x, y, value, max(row_slack, col_slack, 0.0))


def _tableau_solution(matrix: np.ndarray, tableau: np.ndarray, basis: np.ndarray) -> MaxminSolution:
    """Certify a simplex tableau's duals (row mix) and primal (column mix) on
    the original matrix; a side that clips to all zeros becomes uniform."""
    rows, cols = matrix.shape
    x = np.clip(tableau[rows, cols:-1], 0.0, None)
    y = np.zeros(cols)
    in_q = basis < cols
    y[basis[in_q]] = np.clip(tableau[:rows, -1][in_q], 0.0, None)
    return _certify(matrix, x if x.any() else np.ones(rows), y if y.any() else np.ones(cols))


def solve_matrix_maxmin(
    matrix, tol: float = 1e-9, max_iterations: int = 500_000
) -> MaxminSolution:
    """Maxmin (equilibrium) of a zero-sum matrix game.

    The row player maximizes ``row_mix @ matrix @ col_mix``.  The matrix is
    shifted to be strictly positive, ``A = matrix - min(matrix) + 1``, and
    the column player's linear program ``max 1·q s.t. A q <= 1, q >= 0`` is
    solved by a dense-tableau simplex started from the slack basis.  Pivots
    follow Bland's rule (smallest entering index, ratio ties to the smallest
    basis index), so the simplex cannot cycle.  ``col_mix`` is the
    normalised optimal ``q`` and ``row_mix`` the normalised duals from the
    objective row; both carry a gap certificate on the original matrix.
    Deterministic for fixed inputs.

    ``tol`` is relative to the payoff scale: the certified gap must not
    exceed ``tol * max(1, max|matrix|)``, so it is absolute for payoffs
    within ±1.  ``max_iterations`` caps the pivots.  Raises
    MaxminConvergenceError, with the current tableau's certified strategies,
    when the cap is hit or the certified gap exceeds the scaled tolerance.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
        raise ValueError("matrix must be 2-d with at least one row and column")
    if not np.isfinite(mat).all():
        raise ValueError("matrix entries must be finite")
    rows, cols = mat.shape
    tol = tol * max(1.0, float(np.abs(mat).max()))
    tableau = np.zeros((rows + 1, cols + rows + 1))
    tableau[:rows, :cols] = mat - mat.min() + 1.0
    tableau[:rows, cols:-1] = np.eye(rows)
    tableau[:rows, -1] = 1.0
    tableau[rows, :cols] = -1.0
    basis = np.arange(cols, cols + rows)
    pivots = 0
    while (entering := (tableau[rows, :-1] < -_SIMPLEX_EPS).nonzero()[0]).size:
        if pivots == max_iterations:
            raise MaxminConvergenceError(_tableau_solution(mat, tableau, basis), tol, pivots)
        j = entering[0]
        candidates = (tableau[:rows, j] > _SIMPLEX_EPS).nonzero()[0]
        if not candidates.size:
            break  # only round-off can get here: the LP is bounded
        ratios = tableau[candidates, -1] / tableau[candidates, j]
        # absolute tie test: round-off can leave the right-hand side slightly negative
        ties = candidates[ratios <= ratios.min() + _SIMPLEX_EPS]
        r = ties[basis[ties].argmin()]
        tableau[r] /= tableau[r, j]
        factors = tableau[:, j].copy()
        factors[r] = 0.0
        tableau -= factors[:, None] * tableau[r]
        basis[r] = j
        pivots += 1
    sol = _tableau_solution(mat, tableau, basis)
    if sol.gap > tol:
        raise MaxminConvergenceError(sol, tol, pivots)
    return sol


# ---------------------------------------------------------------------------
# Reward tensors for normal-form oracles


def _mixed_dist(size: int, weighted) -> np.ndarray:
    """The mixture of joint-action distributions ``[(dist, weight), ...]``."""
    out = np.zeros(size)
    for dist, w in weighted:
        out += w * dist
    return out


def _reward_tensor(game: NormalFormTeamGame, team: int, opponent_dist: np.ndarray) -> np.ndarray:
    """`team_reward_tensor` against the opponent's joint-action distribution."""
    mat = game.matrix()
    if team == 1:
        return (mat @ opponent_dist).reshape(game.action_counts[0])
    return (-(opponent_dist @ mat)).reshape(game.action_counts[1])


def team_reward_tensor(
    game: NormalFormTeamGame, team: int, opponent, dists=None
) -> np.ndarray:
    """Expected reward of ``team`` for each of its pure joint actions
    against a fixed opponent policy or mixture; one axis per member.

    ``dists`` holds the joint-action distribution of each positive-weight
    entry of the opponent mixture, in order, when the caller keeps them;
    otherwise they are built (and the entries checked) here.  Raises
    ValueError when ``dists`` does not have one distribution per entry."""
    opp = 3 - team
    atoms = as_mixture(opponent)
    if dists is None:
        dists = [team_action_dist(game, opp, p) for p, _ in atoms]
    elif len(dists) != len(atoms):
        raise ValueError(
            f"{len(dists)} distributions for {len(atoms)} positive-weight opponent entries"
        )
    weighted = [(d, w) for d, (_, w) in zip(dists, atoms)]
    return _reward_tensor(game, team, _mixed_dist(game.joint_count(opp), weighted))


class _NormalFormTable:
    """What one normal-form SeBR call reads in every update, built once at
    entry: the game's matrix, each opponent atom's joint-action
    distribution and the team's reward tensor against the opponent.  It
    takes the place of the stochastic oracles' `_StepTable` and is dropped
    when the call returns."""

    __slots__ = ("matrix", "atom_dists", "tensor")

    def __init__(self, game: NormalFormTeamGame, team: int, atoms):
        opp = 3 - team
        self.matrix = game.matrix()
        self.atom_dists = [team_action_dist(game, opp, atom) for atom, _ in atoms]
        weighted = [(d, w) for d, (_, w) in zip(self.atom_dists, atoms)]
        self.tensor = _reward_tensor(game, team, _mixed_dist(game.joint_count(opp), weighted))


def _contract(tensor: np.ndarray, dists: list, fixed: dict) -> float:
    """Contract member axes: fixed axes are indexed, the rest averaged."""
    out = tensor
    for axis in reversed(range(tensor.ndim)):
        if axis in fixed:
            out = np.take(out, fixed[axis], axis=axis)
        else:
            out = np.tensordot(out, dists[axis], axes=([axis], [0]))
    return float(out)


def _member_values(tensor: np.ndarray, dists: list, member: int) -> np.ndarray:
    """Team-reward vector over one member's actions, others at their dists."""
    out = np.moveaxis(tensor, member, 0)
    rest = [d for i, d in enumerate(dists) if i != member]
    for d in reversed(rest):
        out = out @ d
    return out


# ---------------------------------------------------------------------------
# Stochastic-game machinery: exact and greedy unit best responses


def _unit_action_space(game, team, unit) -> list[tuple[int, ...]]:
    counts = game.action_counts[team - 1]
    return list(itertools.product(*(range(counts[m]) for m in unit)))


def _ties_members(unit_actions) -> bool:
    """Whether every unit action gives all unit members one common action
    (with more than one to choose from): such members act as one table, so
    they must observe alike."""
    return len(unit_actions) > 1 and all(len(set(ua)) == 1 for ua in unit_actions)


def _check_tied_observations(tied: bool, key: tuple) -> None:
    if tied and len(set(key)) > 1:
        raise ExactBRUnsupported(
            "members tied to one action observe differently at a reached state; "
            "one shared table cannot express the tied best response"
        )


def _unit_best_response_exact(
    game: StochasticTeamGame,
    team: int,
    unit: tuple[int, ...],
    own_members: tuple,
    opp_policy,
    unit_actions: list[tuple[int, ...]] | None = None,
    steps=None,
):
    """Exact finite-horizon best response of a unit of members (all others,
    including the single opponent team policy, held fixed).

    Backward induction over the layered reachable graph.  Requires the unit
    members' observations to determine the dynamic-programming stage (the
    built-in skirmish encodes the step counter in the state); raises
    ExactBRUnsupported otherwise.  ``unit_actions`` restricts the unit's
    joint actions (default: all of them, lexicographic); when it ties the
    members to one common action they must observe alike at every reached
    state, else ExactBRUnsupported.  ``steps`` is the calling oracle's
    step table (default: the game).  Returns (member tables, value).
    """
    if unit_actions is None:
        unit_actions = _unit_action_space(game, team, unit)
    tied = _ties_members(unit_actions)
    completions = {} if steps is None else steps.completions(team, unit, unit_actions)

    def support(t, state):
        return _joint_support(
            game, team, own_members, opp_policy, state, completions, unit, unit_actions, steps
        )

    q = _backward(game, list(_forward(game, game.initial, support, steps)), team, steps)
    look = game if steps is None else steps
    assign: list[dict] = [dict() for _ in unit]
    for layer in reversed(q):
        # _backward fills each layer in reverse first-reached order
        for state in reversed(layer):
            acts = layer[state]
            best_val = max(acts.values())
            # unit_actions is lexicographically ordered: first max wins
            best_ua = next(ua for ua in unit_actions if acts[ua] == best_val)
            obs = look.member_observations(team, state)
            key = tuple(obs[member] for member in unit)
            _check_tied_observations(tied, key)
            for pos, obs in enumerate(key):
                prev = assign[pos].get(obs)
                if prev is None:
                    assign[pos][obs] = best_ua[pos]
                elif prev != best_ua[pos]:
                    raise ExactBRUnsupported(
                        "member observations do not determine the decision stage; "
                        "exact tabular best response is not expressible"
                    )
    value = sum(p * max(q[0][s].values()) for s, p in game.initial if p > 0.0)
    counts = game.action_counts[team - 1]
    tables = [
        IndividualPolicy.from_actions(counts[member], assign[pos], own_members[member])
        for pos, member in enumerate(unit)
    ]
    return tables, float(value)


def _unit_improve_weighted(
    game, team, unit, own_members, opp_atoms, unit_actions=None, value=None, steps=None,
):
    """Occupancy-weighted greedy improvement of the unit's policy against a
    mixture of opponent atoms, iterated to a local fixed point.

    Against a non-degenerate mixture the member faces a hidden opponent
    identity, so exact best response is a POMDP; this greedy scheme is the
    tabular analogue of on-policy improvement.  Each round scores the
    unit's actions by a one-step lookahead over the current policy's walks
    against every atom, then keeps the greedy candidate only if its value
    beats the current value by more than 1e-15 (keep-if-better guard).
    The candidate's walks give that value and, once it is kept, the next
    round's walks.  A candidate whose unit members play the current action
    at every key it scored plays the current policy, so its walks would
    repeat the current ones: when their value cannot pass the guard it is
    rejected without a walk.  ``value`` is the starting policy's value
    against the mixture when the caller already holds it.  ``unit_actions``
    is as in _unit_best_response_exact.  ``steps`` is the calling oracle's
    step table, with ``opp_atoms`` registered; without one the greedy builds
    its own.  The first round starts from the walks ``steps`` kept for the
    same members and atoms (see `_StepTable.keep_walks`), else it walks
    them, and the greedy keeps the walks of the policy it returns there.
    Returns (unit members' policies, value, fixed point), where fixed point
    says the last round rejected its candidate rather than ending at the
    GREEDY_ROUNDS cap: the greedy run again from its result, before any
    other member changes, keeps that result.
    """
    counts = game.action_counts[team - 1]
    if unit_actions is None:
        unit_actions = _unit_action_space(game, team, unit)
    tied = _ties_members(unit_actions)
    sign = 1.0 if team == 1 else -1.0
    if steps is None:
        steps = _StepTable(game, opp_atoms)
    completions = steps.completions(team, unit, unit_actions)
    # per atom, each state's unit-observation key and, per combination of
    # the fixed players' actions, each unit action's successors row and
    # signed step reward: the unit is free in them, so they hold for the
    # whole call.  The last step's rows carry the empty successor row, as
    # in `_forward`; a state can be reached both at the last step and
    # before it, so each atom keeps the two kinds in two dicts.
    kept: list[tuple] = [({}, {}) for _ in opp_atoms]
    last = game.horizon - 1

    def lookahead_rows(atom, rows_by_state, state, at_last):
        found = rows_by_state.get(state)
        if found is not None:
            return found
        obs = steps.member_observations(team, state)
        key = tuple(obs[m] for m in unit)
        _check_tied_observations(tied, key)
        rows = [
            (p, [
                (
                    ua,
                    () if at_last else steps.successors(state, joint),
                    sign * steps.step_reward(state, joint),
                )
                for ua, joint in pairs
            ])
            for p, pairs in _joint_support(
                game, team, own_members, atom, state, completions, unit, unit_actions, steps
            )
        ]
        found = rows_by_state[state] = (key, rows)
        return found

    members = list(own_members)
    start = steps.kept_walks(team, members, opp_atoms)
    if start is None:
        walks, on_policy = [[] for _ in opp_atoms], None
        walked = _atoms_value(game, team, members, opp_atoms, steps, walks)
    else:
        walks, walked, on_policy = start
    if value is None:
        value = walked
    fixed = False
    for _ in range(GREEDY_ROUNDS):
        if on_policy is None:
            # on-policy values by step; a state reached only off-policy counts 0
            on_policy = [
                [{s: acts[()] for s, acts in layer.items()} for layer in layers] + [{}]
                for layers in (_backward(game, walk, team, steps) for walk in walks)
            ]
        qbar: dict = {}
        for (atom, w), walk, after, (rows_before, rows_last) in zip(
            opp_atoms, walks, on_policy, kept
        ):
            for t, state, p_state, _rows in walk:
                d = (game.discount**t) * p_state
                if d <= 0.0:
                    continue
                at_last = t == last
                key, rows = lookahead_rows(
                    atom, rows_last if at_last else rows_before, state, at_last
                )
                row = qbar.setdefault(key, {ua: 0.0 for ua in unit_actions})
                values = after[t + 1]
                for p, pairs in rows:
                    for ua, succ, reward in pairs:
                        if not succ:
                            # the last step: what `0 + pt * 0.0` reads for every row
                            tail = 0.0
                        elif len(succ) == 1:
                            # sum's arithmetic on one term: 0 + pt * v
                            ((s2, pt),) = succ
                            tail = 0 + pt * values.get(s2, 0.0)
                        else:
                            tail = sum(pt * values.get(s2, 0.0) for s2, pt in succ)
                        row[ua] += w * d * p * (reward + game.discount * tail)
        tables = [dict() for _ in unit]
        for key in sorted(qbar, key=repr):
            row = qbar[key]
            best_val = max(row.values())
            best_ua = next(ua for ua in unit_actions if row[ua] == best_val)
            for pos, _m in enumerate(unit):
                tables[pos][key[pos]] = best_ua[pos]
        # a candidate that plays the current policy would walk to ``walked``
        if walked <= value + 1e-15 and all(
            members[member].support(obs) == ((a, 1.0),)
            for pos, member in enumerate(unit)
            for obs, a in tables[pos].items()
        ):
            fixed = True
            break
        candidate = list(members)
        for pos, member in enumerate(unit):
            candidate[member] = IndividualPolicy.from_actions(
                counts[member], tables[pos], members[member]
            )
        cand_walks = [[] for _ in opp_atoms]
        cand_value = _atoms_value(game, team, candidate, opp_atoms, steps, cand_walks)
        if cand_value <= value + 1e-15:
            fixed = True
            break
        members, walks, walked, value = candidate, cand_walks, cand_value, cand_value
        on_policy = None
    steps.keep_walks(team, members, opp_atoms, walks, walked, on_policy)
    return [members[m] for m in unit], value, fixed


def _unit_best_response(game, team, unit, own_members, atoms, unit_actions=None, steps=None):
    """Exact backward induction against one opponent atom, the guarded greedy
    improvement against a mixture.  Returns (unit members' tables, value)."""
    if len(atoms) == 1:
        return _unit_best_response_exact(
            game, team, unit, own_members, atoms[0][0], unit_actions, steps
        )
    return _unit_improve_weighted(
        game, team, unit, own_members, atoms, unit_actions=unit_actions, steps=steps
    )[:2]


def _table_search(game, team, unit, own_members, atoms, steps):
    """Best pure stationary table that every member of ``unit`` plays, the
    other members held at ``own_members``, against opponent atoms that the
    step table ``steps`` registers.  Returns (table, value).

    Up to TABLE_ENUMERATION_BOUND tables over the reachable member
    observations, every table is evaluated and the first best wins.
    Beyond, the unit's members play one common action wherever they
    observe alike, so `_unit_best_response` searches the diagonal joint
    actions ``(a, ..., a)``; EvaluationError when that does not apply.
    """
    n_actions = game.action_counts[team - 1][unit[0]]
    obs_set = _reachable_member_obs(game, team, n_actions, steps)
    if n_actions ** len(obs_set) > TABLE_ENUMERATION_BOUND:
        diagonal = [(a,) * len(unit) for a in range(n_actions)]
        try:
            tables, value = _unit_best_response(
                game, team, unit, own_members, atoms, diagonal, steps
            )
        except ExactBRUnsupported as err:
            raise EvaluationError(
                "too many pure tables to enumerate, and the diagonal "
                f"dynamic program does not apply: {err}"
            ) from err
        return tables[0], value
    best_val, best_table = -math.inf, None
    for assignment in itertools.product(range(n_actions), repeat=len(obs_set)):
        table = IndividualPolicy.from_actions(n_actions, dict(zip(obs_set, assignment)))
        trial = [table if m in unit else p for m, p in enumerate(own_members)]
        val = _value_vs_atoms(game, team, trial, atoms, steps)
        if val > best_val + 1e-15:
            best_val, best_table = val, table
    return best_table, float(best_val)


# ---------------------------------------------------------------------------
# Best-response oracles


def best_response_joint(game: Game, opponent, team: int, dists=None):
    """Fully correlated best response: the best pure team joint action
    (normal form, returned as a degenerate joint mix) or the centralized
    deterministic joint policy (stochastic, returned as a product of
    deterministic member policies).  Returns ``(policy, value)``.  Ties
    break to the lexicographically smallest joint action.

    On a normal-form game ``dists`` holds the joint-action distribution of
    each positive-weight entry of the opponent mixture, in order, when the
    caller keeps them, as `run_psro` does (see `team_reward_tensor`); the
    result is the same either way.  The joint action is read off the
    argmax's row-major index, not from the list of joint actions."""
    if game.is_normal_form:
        values = team_reward_tensor(game, team, opponent, dists).ravel()
        idx = int(values.argmax())
        value = float(values[idx])
        joint = []
        for count in reversed(game.action_counts[team - 1]):
            idx, action = divmod(idx, count)
            joint.append(action)
        return JointMixPolicy.pure(joint[::-1]), value
    unit = tuple(range(game.team_sizes[team - 1]))
    base = tuple(ConstantPolicy(c, 0) for c in game.action_counts[team - 1])
    tables, value = _unit_best_response(game, team, unit, base, as_mixture(opponent))
    return ProductPolicy(tables), value


def best_response_individual(
    game: Game,
    opponent,
    team: int,
    start,
    sweeps: int = 50,
):
    """Round-robin iterated pure unilateral best responses until a fixed
    point or the sweep cap: `sebr` from ``start`` alone, with no restarts.
    ``start`` is any team policy `sebr` takes as a start (product, shared or
    joint mix).  Returns ``(policy, value)`` as `sebr` does.
    """
    check_team_policy(game, team, start)
    return sebr(game, opponent, team, start=start, restarts=0, max_sweeps=sweeps)


def _value_vs_atoms(game, team, members, atoms, steps, walks=None) -> float:
    """Exact value of the product of ``members`` against opponent atoms
    ``[(policy, weight), ...]``, by one evaluation per atom, summed in
    `team_value`'s arithmetic.  ``steps`` is the calling oracle's table: on
    a normal-form game a `_NormalFormTable`, whose atom distributions meet
    the product's, checked once; otherwise a step table that the walks read
    after `evaluate`'s checks.  ``walks`` is as in `_atoms_value`
    (stochastic games only)."""
    own = ProductPolicy(members)
    if game.is_normal_form:
        dist = team_action_dist(game, team, own)
        return sum(
            w * _nf_team_value(steps.matrix, team, dist, d)
            for (_, w), d in zip(atoms, steps.atom_dists)
        )
    check_team_policy(game, team, own)
    for atom, _ in atoms:
        check_team_policy(game, 3 - team, atom)
    return _atoms_value(game, team, members, atoms, steps, walks)


def _atoms_value(game, team, members, atoms, steps, walks=None) -> float:
    """Value of the product of ``members`` against opponent atoms
    ``[(policy, weight), ...]``: one `_profile_value` pass per atom, in
    order, summed in `team_value`'s arithmetic, so it equals the evaluation
    up to the sign of a zero.  ``walks``, when given, holds one list per
    atom that receives that atom's walk."""
    own = ProductPolicy(members)
    sign = 1.0 if team == 1 else -1.0
    values = [
        _profile_value(game, *((own, atom) if team == 1 else (atom, own)), steps, walk)
        for (atom, _), walk in zip(atoms, walks or [None] * len(atoms))
    ]
    return sum(w * (sign * v) for (_, w), v in zip(atoms, values))


def _member_update(game, team, member, members, opponent, current, steps):
    """One member's exact pure best response, switch on strict improvement.

    ``current`` is the team's value before the update.  Returns (policy,
    changed, value after the update, settled).  Normal-form updates are
    closed-form; the stochastic path uses exact backward induction for a
    single opponent atom and the guarded greedy improvement for mixtures,
    whose value is the kept policy's evaluation.  The other paths evaluate
    the switched policy once, since the closed-form and DP values can
    differ from evaluation in the last bits.  ``steps`` is the calling
    oracle's table: the `_NormalFormTable` of ``opponent`` on a normal-form
    game, else a step table with the opponent's atoms registered.

    Settled means the same update, run again before any teammate switches,
    provably changes nothing, so `sebr` skips it until a teammate switches.
    It holds when the update made no change; after a closed-form switch
    (the member's values do not depend on its own row); after a DP switch
    whose value is at most the evaluated value plus `_dp_slack` of it (the
    DP value does not depend on the member's own table, so the guard would
    reject it); and after a greedy switch that ended on a rejected
    candidate.  The single-atom DP guard uses the same relative slack: a DP
    value and an evaluation of the same policy can differ in the last bits
    at any payoff scale.
    """
    atoms = as_mixture(opponent)
    if game.is_normal_form:
        dists = [m.dist(NF_OBS) for m in members]
        values = _member_values(steps.tensor, dists, member)
        best = int(np.argmax(values))
        if values[best] <= float(values @ dists[member]):
            return members[member], False, current, True
        tables = [IndividualPolicy.deterministic(len(values), best)]
    elif len(atoms) == 1:
        tables, value = _unit_best_response_exact(
            game, team, (member,), tuple(members), atoms[0][0], steps=steps
        )
        if value <= current + _dp_slack(current):
            return members[member], False, current, True
    else:
        tables, value, fixed = _unit_improve_weighted(
            game, team, (member,), tuple(members), atoms, value=current, steps=steps
        )
        if value <= current + 1e-15:
            return members[member], False, current, True
        return tables[0], True, value, fixed
    updated = list(members)
    updated[member] = tables[0]
    after = _value_vs_atoms(game, team, updated, atoms, steps)
    return tables[0], True, after, game.is_normal_form or value <= after + _dp_slack(after)


def _dp_slack(value: float) -> float:
    """Round-off allowance between a DP value and an evaluation near ``value``."""
    return 1e-12 * max(1.0, abs(value))


def _shared_value(tensor: np.ndarray, dist: np.ndarray) -> float:
    out = tensor
    for _ in range(tensor.ndim):
        out = out @ dist
    return float(out)


def _quadratic_simplex_max(q: np.ndarray):
    """Exact maximum of p^T Q p over the simplex via KKT support
    enumeration (team of two members); returns (p, value, gap 0)."""
    n = q.shape[0]
    sym = q + q.T
    best_val, best_p = -math.inf, None
    for a in range(n):
        val = float(q[a, a])
        if val > best_val:
            best_val, best_p = val, np.eye(n)[a]
    for size in range(2, n + 1):
        for support in itertools.combinations(range(n), size):
            idx = list(support)
            lhs = np.zeros((size + 1, size + 1))
            lhs[:size, :size] = sym[np.ix_(idx, idx)]
            lhs[:size, size] = -1.0
            lhs[size, :size] = 1.0
            rhs = np.zeros(size + 1)
            rhs[size] = 1.0
            try:
                sol = np.linalg.solve(lhs, rhs)
            except np.linalg.LinAlgError:
                continue
            ps = sol[:size]
            if ps.min() < -1e-12:
                continue
            p = np.zeros(n)
            p[idx] = np.clip(ps, 0.0, None)
            p = p / p.sum()
            val = float(p @ q @ p)
            if val > best_val + 1e-15:
                best_val, best_p = val, p
    return best_p, best_val, 0.0


def _bernstein_simplex_max(tensor: np.ndarray):
    """Certified maximum of the shared value ``T(p, ..., p)`` over the
    simplex, by branch-and-bound in the simplicial Bernstein basis (Garloff,
    LNCS 212, 1985; Leroy, Reliable Computing 2012); returns (p, value, gap).

    On a sub-simplex with vertex rows ``V``, contracting the axis-symmetrised
    tensor with ``V`` on every member axis gives the value's Bernstein
    coefficients there: their maximum bounds the value on the sub-simplex
    from above, and each vertex's value bounds the maximum from below.  The
    search starts from the pure corners (the lowest index wins a tie), splits
    the longest edge of the sub-simplex with the highest bound at its
    midpoint, and keeps a new corner only when it is better by more than
    1e-15.  It stops once no bound exceeds the best corner by more than
    ``1e-9 * max(1, max|T|)``, or after `_BERNSTEIN_NODE_CAP` splits; ``gap``
    is the highest bound left less the value, so the true maximum lies in
    ``[value, value + gap]`` either way.
    """
    n, size = tensor.ndim, tensor.shape[0]
    tol = 1e-9 * max(1.0, float(np.abs(tensor).max()))
    # contracting every axis with one V commutes with permuting the axes
    sym = sum(tensor.transpose(perm) for perm in itertools.permutations(range(n)))
    sym = sym / math.factorial(n)

    def bound(vertices):
        out = sym
        for _ in range(n):
            out = np.tensordot(out, vertices, axes=([0], [1]))
        return float(out.max())

    corners = np.eye(size)
    values = [float(tensor[(a,) * n]) for a in range(size)]
    best = int(np.argmax(values))
    best_p, best_val = corners[best], values[best]
    cut = best_val  # highest bound of a discarded sub-simplex
    heap = [(-bound(corners), 0, corners)]
    for split in range(_BERNSTEIN_NODE_CAP):
        if not heap or -heap[0][0] <= best_val + tol:
            break
        _, _, vertices = heapq.heappop(heap)
        diffs = vertices[:, None, :] - vertices[None, :, :]
        i, j = np.unravel_index(int(np.argmax((diffs**2).sum(axis=2))), (size, size))
        mid = 0.5 * (vertices[i] + vertices[j])
        val = _shared_value(tensor, mid)
        if val > best_val + 1e-15:
            best_p, best_val = mid, val
        for k, corner in enumerate((i, j)):
            child = vertices.copy()
            child[corner] = mid
            upper = bound(child)
            if upper > best_val + tol:
                heapq.heappush(heap, (-upper, 2 * split + k + 1, child))
            else:
                cut = max(cut, upper)
    top = -heap[0][0] if heap else -math.inf
    return best_p, best_val, max(0.0, max(cut, top) - best_val)


def best_response_shared(game: Game, opponent, team: int):
    """Best shared policy and its value.

    Normal form: the best mixed shared action, over the simplex.  Two-member
    teams use exact KKT support enumeration (`_quadratic_simplex_max`);
    other teams a certified Bernstein branch-and-bound
    (`_bernstein_simplex_max`), whose value is within ``1e-9 * max(1,
    max|T|)`` of the maximum unless its node cap is hit.  Both start from the
    pure shared actions and keep the lowest-index best one on a tie.  No seed
    is read: the result is a function of the game and the opponent.

    Stochastic: the best pure stationary shared table, by `_table_search`
    over the unit of all members.  Raises EvaluationError when the members
    observe differently at a reached state or their observations do not fix
    the decision stage.
    """
    counts = game.action_counts[team - 1]
    if len(set(counts)) != 1:
        raise DimensionError("shared best response requires homogeneous action spaces")
    n_actions, n_members = counts[0], len(counts)
    if game.is_normal_form:
        tensor = team_reward_tensor(game, team, opponent)
        search = _quadratic_simplex_max if n_members == 2 else _bernstein_simplex_max
        dist, value, _ = search(tensor)
        policy = SharedPolicy(IndividualPolicy(n_actions, {NF_OBS: dist}), n_members)
        return policy, value
    atoms = as_mixture(opponent)
    base = tuple(ConstantPolicy(n_actions, 0) for _ in range(n_members))
    table, value = _table_search(
        game, team, tuple(range(n_members)), base, atoms, _StepTable(game, atoms)
    )
    return SharedPolicy(table, n_members), value


def _reachable_member_obs(game: StochasticTeamGame, team: int, n_actions: int, steps=None) -> list:
    """Member observations of the states reachable under any play at steps
    0 to H-1 (the steps a policy acts at), sorted.

    Breadth-first over every joint action, asking ``steps`` (default: the
    game) for successors; a state reached again is not expanded again.  A
    state's observations count as soon as it is reached, and the scan stops,
    returning the observations found so far, once ``n_actions **
    len(observations)`` exceeds TABLE_ENUMERATION_BOUND.  Raises
    EvaluationError when one step would expand more than
    ``game.exact_bound`` (state, joint action) pairs.
    """
    look = game if steps is None else steps
    every_joint = list(
        itertools.product(
            itertools.product(*(range(c) for c in game.action_counts[0])),
            itertools.product(*(range(c) for c in game.action_counts[1])),
        )
    )
    obs_set: set = set()

    def reach(state) -> bool:
        """Count ``state``'s observations; True once there are too many."""
        obs_set.update(look.member_observations(team, state))
        return n_actions ** len(obs_set) > TABLE_ENUMERATION_BOUND

    layer: dict = {}
    for state, p in game.initial:
        if p > 0.0 and state not in layer:
            layer[state] = None
            if reach(state):
                return sorted(obs_set, key=repr)
    expanded: set = set()
    for _ in range(game.horizon - 1):
        nxt: dict = {}
        step_pairs = 0
        for state in layer:
            if state in expanded:
                continue
            expanded.add(state)
            step_pairs += len(every_joint)
            if step_pairs > game.exact_bound:
                raise _budget_error(game, step_pairs)
            for joint in every_joint:
                for s2, pt in look.successors(state, joint):
                    if pt > 0.0 and s2 not in nxt:
                        nxt[s2] = None
                        if reach(s2):
                            return sorted(obs_set, key=repr)
        layer = nxt
    return sorted(obs_set, key=repr)


# ---------------------------------------------------------------------------
# Advantage decomposition and SeBR


def advantage_decompose(
    game: Game,
    p1,
    p2,
    team: int,
    team_action: tuple[int, ...],
    obs=None,
    order: tuple[int, ...] | None = None,
) -> np.ndarray:
    """Per-member advantage terms along ``order``.

    Term m conditions the members earlier in the order on their given
    actions, marginalizes later members under the team's own policy, and
    always marginalizes the opponent under its policy.  The terms sum to
    the joint advantage of ``team_action`` exactly.
    """
    own = p1 if team == 1 else p2
    opponent = p2 if team == 1 else p1
    members = _members_view(own)
    n = len(members)
    order = tuple(order) if order is not None else tuple(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the team's members")
    if game.is_normal_form:
        tensor = team_reward_tensor(game, team, opponent)
        dists = [m.dist(NF_OBS) for m in members]
    else:
        if obs is None:
            raise ValueError("a joint observation is required for stochastic games")
        tensor = _stochastic_q_tensor(game, team, members, opponent, obs)
        obs_list = game.member_observations(team, obs)
        dists = [m.dist(o) for m, o in zip(members, obs_list)]
    fixed: dict[int, int] = {}
    partials = [_contract(tensor, dists, fixed)]
    for member in order:
        fixed[member] = int(team_action[member])
        partials.append(_contract(tensor, dists, fixed))
    return np.diff(np.array(partials))


def _stochastic_q_tensor(game, team, members, opponent, obs):
    """Q(obs, .) over the team's joint actions with the opponent
    marginalized, at the full remaining horizon: the team is free at the
    root and plays ``members`` afterwards."""
    unit = tuple(range(len(members)))
    team_joints = _unit_action_space(game, team, unit)
    completions: dict = {}

    def support(t, state):
        if t == 0:
            return _joint_support(game, team, members, opponent, state, {}, unit, team_joints)
        return _joint_support(game, team, members, opponent, state, completions)

    root = _backward(game, list(_forward(game, [(obs, 1.0)], support)), team)[0][obs]
    tensor = np.zeros(game.action_counts[team - 1])
    for ua, value in root.items():
        tensor[ua] = value
    return tensor


def sebr_starts(game: Game, team: int, incumbent, restarts: int, seed: int):
    """Start set for SeBR: the incumbent plus either every pure product
    policy (when at most ``restarts`` exist, normal form) or ``restarts``
    seeded random deterministic products."""
    counts = game.action_counts[team - 1]
    starts: list[ProductPolicy] = []
    if incumbent is not None:
        starts.append(_as_product(incumbent, counts))
    if restarts > 0:
        if game.is_normal_form and int(np.prod(counts)) <= restarts:
            for joint in itertools.product(*(range(c) for c in counts)):
                starts.append(ProductPolicy.pure(joint, counts))
        else:
            for i in range(restarts):
                starts.append(
                    ProductPolicy(
                        [
                            HashPolicy(c, subseed(seed, f"sebr-start/{i}/{m}"))
                            for m, c in enumerate(counts)
                        ]
                    )
                )
    if not starts:
        starts.append(ProductPolicy([ConstantPolicy(c, 0) for c in counts]))
    return starts


def _as_product(policy, counts) -> ProductPolicy:
    if isinstance(policy, ProductPolicy):
        return policy
    if isinstance(policy, SharedPolicy):
        return ProductPolicy(policy.members)
    if isinstance(policy, JointMixPolicy):
        top = int(np.argmax(policy.weights))
        return ProductPolicy.pure(policy.atoms[top], counts)
    raise DimensionError(f"cannot convert {policy!r} to a product policy")


def sebr(
    game: Game,
    opponent,
    team: int,
    start=None,
    restarts: int = 4,
    max_sweeps: int = 50,
    seed: int = 0,
    trace: list | None = None,
):
    """Sequential best response: members update in index order, each
    best-responding exactly given predecessors' updated policies and
    successors' current policies, against a fixed opponent policy or
    mixture.  Each member update weakly improves the team value; a sweep
    with no change terminates the ascent.  Returns ``(policy, value)`` for
    the highest-value result over the restart set (ties keep the earliest
    start); the value is the one the updates carried, equal to
    ``team_value`` of the policy up to the sign of a zero.

    A settled member's update (see `_member_update`) is skipped: it would
    change nothing, and it is traced as an unchanged update.
    Against a stochastic mixture each start's evaluation keeps its walks
    on the call's step table, where the first greedy update starts from
    them.
    ``trace``, when given, collects one (restart, sweep, member,
    value_before, value_after) tuple per member update, over all restarts:
    the record of the call's member updates.
    """
    n = game.team_sizes[team - 1]
    atoms = as_mixture(opponent)
    if game.is_normal_form:
        steps = _NormalFormTable(game, team, atoms)
    else:
        steps = _StepTable(game, atoms)
    best_policy, best_value = None, -math.inf
    for restart_idx, start_policy in enumerate(
        sebr_starts(game, team, start, restarts, seed)
    ):
        members = list(start_policy.members)
        walks = None if game.is_normal_form or len(atoms) == 1 else [[] for _ in atoms]
        value = _value_vs_atoms(game, team, members, atoms, steps, walks)
        if walks is not None:
            steps.keep_walks(team, members, atoms, walks, value)
        settled: set = set()
        for sweep in range(max_sweeps):
            changed = False
            for member in range(n):
                before = value
                if member not in settled:
                    new_member, improved, value, fixed = _member_update(
                        game, team, member, members, opponent, value, steps
                    )
                    if improved:
                        members[member] = new_member
                        changed = True
                        settled.clear()
                    if fixed:
                        settled.add(member)
                if trace is not None:
                    trace.append((restart_idx, sweep, member, before, value))
            if not changed:
                break
        if value > best_value + 1e-15:
            best_value = value
            best_policy = ProductPolicy(members)
    return best_policy, best_value
