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
only, within the stochastic game's ``exact_bound``, as a `BestResponse`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from _blake2 import blake2b  # hashlib's blake2b, without hashlib's OpenSSL
from dataclasses import dataclass, replace

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
    _integer,
    _PricedMixture,
    _StepTable,
    _backward,
    _forward,
    _joint_support,
    _key_rows,
    _members_view,
    _nf_values,
    _pricing_key,
    _profile_value,
    _pure_action,
    as_mixture,
    check_team,
    check_team_policy,
)

#: Pivot and reduced-cost threshold of the maxmin simplex.
_SIMPLEX_EPS = 1e-12

#: Most pure tables `_table_search` enumerates for one unit of members.
TABLE_ENUMERATION_BOUND = 4096

#: Most rounds of `_unit_improve_weighted`'s guarded greedy improvement.
GREEDY_ROUNDS = 20

#: Most sub-simplex splits of `_bernstein_simplex_max`.
_BERNSTEIN_NODE_CAP = 20_000

#: Most KKT systems `_quadratic_simplex_max` solves in one stack, which
#: bounds its memory for large action counts.
_KKT_STACK = 4096


def subseed(seed: int, name: str) -> int:
    """Stable named sub-stream of a root seed.  ValueError unless ``seed`` is
    an integer."""
    key = _integer("seed", seed).to_bytes(8, "little", signed=True)
    digest = blake2b(name.encode(), digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little") >> 1


def _slack(payoffs) -> float:
    """`_beats`' margin for a game or payoff array, computed once per oracle
    call or run: 1e-9 times the payoff scale, ``max - min`` of the payoffs
    (0 when constant) or a stochastic game's ``reward_bound``."""
    if isinstance(payoffs, StochasticTeamGame):
        return 1e-9 * payoffs.reward_bound
    return 1e-9 * float(np.ptp(getattr(payoffs, "payoff", payoffs)))


def _beats(value, incumbent, slack):
    """The one rule of every keep, switch, restart and incumbent choice: a
    candidate wins by more than ``slack`` (elementwise on arrays), and as
    candidates are scanned in order, ties go to the earliest."""
    return value > incumbent + slack


def _first_best(values, slack) -> int:
    """Index of the entry an in-order `_beats` scan of ``values`` keeps."""
    best = 0
    for i in range(1, len(values)):
        if _beats(values[i], values[best], slack):
            best = i
    return best


class MaxminConvergenceError(RuntimeError):
    """The maxmin simplex hit its pivot cap or could not certify ``tol``;
    carries the certified strategies of its last tableau."""

    def __init__(self, best: "MaxminSolution", tol: float, pivots: int):
        super().__init__(f"maxmin gap {best.gap:.3g} > tol {tol:g} after {pivots} pivots")
        self.best = best


class ExactBRUnsupported(RuntimeError):
    """Exact tabular best response is not expressible for this game/policy."""


@dataclass(frozen=True)
class BestResponse:
    """One oracle answer: ``policy`` and its ``value`` against the opponent,
    made by the search ``method`` (exact_dp, enumeration, kkt, bernstein,
    greedy or coordinate_ascent).  The best value over the oracle's policy
    class lies in ``[value, value + gap]``; ``gap`` is None for a local
    search, which bounds that value from below only."""

    policy: object
    value: float
    gap: float | None
    method: str


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
            low, total = np.minimum.reduce(arr, initial=0.0), np.add.reduce(arr)
            # written so that a NaN entry fails the test
            if not (low >= -DIST_TOL and abs(total - 1.0) <= 1e-9):
                raise ValueError(f"{name} is not a probability vector")
            arr = np.maximum(arr, 0.0)  # -0.0 becomes 0.0 too
            if low < 0.0:  # else the clip kept the sum
                total = np.add.reduce(arr)
            arr = arr / total
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (math.isfinite(self.value) and math.isfinite(self.gap)):
            raise ValueError("value and gap must be finite")
        object.__setattr__(self, "gap", max(float(self.gap), 0.0))

    def to_dict(self) -> dict:
        return {
            "value": float(self.value),
            "gap": float(self.gap),
            "row_mix": [float(x) for x in self.row_mix],
            "col_mix": [float(x) for x in self.col_mix],
        }


def _tableau_solution(matrix: np.ndarray, tableau: np.ndarray, basis: list[int]) -> MaxminSolution:
    """Certify a simplex tableau's duals (row mix) and primal (column mix) on
    the original matrix; a side that clips to all zeros becomes uniform."""
    rows, cols = matrix.shape
    q = [0.0] * cols
    for k, b in zip(basis, tableau[:rows, -1].tolist()):
        if k < cols:
            q[k] = b
    mixes = []
    for mix in (np.maximum(tableau[rows, cols:-1], 0.0), np.maximum(q, 0.0)):
        total = np.add.reduce(mix)
        mixes.append(mix / total if total else np.full(mix.size, 1.0 / mix.size))
    x, y = mixes
    col_payoffs = x @ matrix  # the value is (x @ matrix) @ y, in that order
    value = float(col_payoffs @ y)
    row_slack = float(np.maximum.reduce(matrix @ y) - value)
    col_slack = float(value - np.minimum.reduce(col_payoffs))
    return MaxminSolution(x, y, value, max(row_slack, col_slack, 0.0))


def solve_matrix_maxmin(
    matrix, tol: float = 1e-9, max_iterations: int = 500_000
) -> MaxminSolution:
    """Maxmin (equilibrium) of a zero-sum matrix game.

    The row player maximizes ``row_mix @ matrix @ col_mix``.  The matrix is
    made positive and unit-free, ``A = (matrix - min(matrix)) / 2**e + 1``
    with ``2**e`` the power of two above its range (1 if constant), and the
    column player's linear program ``max 1·q s.t. A q <= 1, q >= 0`` is
    solved by a dense-tableau simplex started from the slack basis.  Pivots
    follow Bland's rule (smallest entering index, ratio ties to the smallest
    basis index), decided on Python floats, so the simplex cannot cycle.
    ``col_mix`` is the normalised optimal ``q`` and ``row_mix`` the
    normalised duals from the objective row; both carry a gap certificate
    on the original matrix.

    The certified gap must not exceed ``tol`` times the payoff range, 0 for
    a constant matrix; ``max_iterations`` caps the pivots.  Raises
    MaxminConvergenceError, with the current tableau's certified strategies,
    when the cap is hit or the gap exceeds that.  Raises ValueError for a
    ``tol`` that is negative, infinite or NaN (each would switch the
    certificate off or make it unmeetable), a ``max_iterations`` that is
    negative or not integral (NaN and infinity included) and a payoff range
    that overflows.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be nonnegative, got {max_iterations!r}")
    if max_iterations % 1 != 0:  # NaN and infinity too
        raise ValueError(f"max_iterations must be an integer, got {max_iterations!r}")
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
        raise ValueError("matrix must be 2-d with at least one row and column")
    rows, cols = mat.shape
    low = float(np.minimum.reduce(mat, axis=None))
    high = float(np.maximum.reduce(mat, axis=None))
    if not -math.inf < low <= high < math.inf:  # a NaN fails the test too
        raise ValueError("matrix entries must be finite")
    span = high - low
    if span == math.inf:
        raise ValueError("matrix payoff range must be finite")
    tol = tol * span
    unit = math.ldexp(1.0, math.frexp(span)[1]) if span > 0.0 else 1.0
    basis = list(range(cols, cols + rows))
    tableau = np.zeros((rows + 1, cols + rows + 1))
    tableau[:rows, :cols] = (mat - low) / unit + 1.0
    np.fill_diagonal(tableau[:rows, cols:-1], 1.0)
    tableau[:rows, -1] = 1.0
    tableau[rows, :cols] = -1.0
    objective, rhs = tableau[rows, :-1], tableau[:rows, -1]
    pivots = 0
    while True:  # Bland's rule, decided on Python floats
        j = next((k for k, v in enumerate(objective.tolist()) if v < -_SIMPLEX_EPS), None)
        if j is None:
            break
        if pivots == max_iterations:
            raise MaxminConvergenceError(_tableau_solution(mat, tableau, basis), tol, pivots)
        ratios = [
            (b / c, i)
            for i, (c, b) in enumerate(zip(tableau[:rows, j].tolist(), rhs.tolist()))
            if c > _SIMPLEX_EPS
        ]
        if not ratios:
            break  # only round-off can get here: the LP is bounded
        # absolute tie test: round-off can leave the right-hand side slightly negative
        bound = min(ratios)[0] + _SIMPLEX_EPS
        r = min((basis[i], i) for ratio, i in ratios if ratio <= bound)[1]
        pivot_row = tableau[r]
        pivot_row /= pivot_row[j]
        factors = tableau[:, j].copy()
        factors[r] = 0.0
        tableau -= factors[:, None] * pivot_row
        basis[r] = j
        pivots += 1
    sol = _tableau_solution(mat, tableau, basis)
    if sol.gap > tol:
        raise MaxminConvergenceError(sol, tol, pivots)
    return sol


# ---------------------------------------------------------------------------
# Reward tensors for normal-form oracles


def team_reward_tensor(game: NormalFormTeamGame, team: int, opponent) -> np.ndarray:
    """Expected reward of ``team`` for each of its pure joint actions
    against a fixed opponent policy or mixture; one axis per member."""
    return _NormalFormTable(game, team, as_mixture(opponent)).tensor


class _NormalFormTable:
    """What one normal-form oracle call reads about its opponent atoms
    ``[(policy, weight), ...]``, built once at entry: the game's matrix,
    each atom's `_pricing_key` and the team's reward tensor against the
    mixture, to whose distribution a pure atom adds its weight at its index
    (the floats its weight times a one-hot vector gives).  The atoms are
    checked and keyed here, unless they come as a `_PricedMixture` keyed
    for the opponent's action counts, which checked them for those counts.
    SeBR reads the table in place of the stochastic oracles' `_StepTable`;
    it is dropped when the call returns.  For team 2 it also keeps the
    atoms' `_key_rows`, built on the first `value` call."""

    __slots__ = ("_game", "_team", "_atoms", "_rows", "matrix", "atom_keys", "tensor")

    def __init__(self, game: NormalFormTeamGame, team: int, atoms):
        opp = 3 - team
        if isinstance(atoms, _PricedMixture) and atoms.counts == game.action_counts[opp - 1]:
            keys = atoms.keys
        else:
            keys = [_pricing_key(game, opp, atom) for atom, _ in atoms]
        mixed = np.zeros(game.joint_count(opp))
        for key, (_, w) in zip(keys, atoms):
            if isinstance(key, np.ndarray):
                mixed += w * key
            else:
                mixed[key] += w
        matrix = game.matrix()
        if team == 1:
            tensor = (matrix @ mixed).reshape(game.action_counts[0])
        else:
            tensor = (0.0 - mixed @ matrix).reshape(game.action_counts[1])
        self._game, self._team, self._atoms, self._rows = game, team, atoms, None
        self.matrix, self.atom_keys, self.tensor = matrix, keys, tensor

    def value(self, members) -> float:
        """Value of the product of ``members``, which the caller has
        checked, against the atoms, summed in `team_value`'s arithmetic.
        Pure members are read by their joint index (`_nf_values`): team 1
        reads one matrix row, team 2 one entry of each atom's row, which the
        table takes once, on its first call, for both paths."""
        own = _pricing_key(self._game, self._team, ProductPolicy(members), check=False)
        if self._team == 2 and self._rows is None:
            self._rows = _key_rows(self.matrix, self.atom_keys)
        values = _nf_values(self.matrix, self._team, own, self.atom_keys, self._rows)
        return sum(w * v for (_, w), v in zip(self._atoms, values))


def _contract(tensor: np.ndarray, dists: list, fixed: dict) -> float:
    """Contract member axes: fixed axes are indexed, the rest averaged."""
    out = tensor
    for axis in reversed(range(tensor.ndim)):
        if axis in fixed:
            out = np.take(out, fixed[axis], axis=axis)
        else:
            out = np.tensordot(out, dists[axis], axes=([axis], [0]))
    return float(out)


def _member_values(tensor: np.ndarray, members, member: int) -> np.ndarray:
    """Team-reward vector over one member's actions, the other ``members``
    playing their normal-form rows.  When every teammate is pure
    (`_pure_action`), it is the tensor indexed at their actions, copied to
    a fresh row as the products' result is: each product with a one-hot
    row has one nonzero term, 1.0 times the entry, so indexing gives the
    products' values up to the sign of a zero."""
    picks = [slice(None) if i == member else _pure_action(m) for i, m in enumerate(members)]
    if None not in picks:
        return tensor[tuple(picks)].copy()
    out = np.moveaxis(tensor, member, 0)
    rest = [m.dist(NF_OBS) for i, m in enumerate(members) if i != member]
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


def _belief_response(game, team, unit, own_members, atom, unit_actions=None, steps=None):
    """Exact finite-horizon best response of a unit of members, the others
    held at ``own_members``, against one opponent policy ``atom``, by
    `_backward` over the states `_forward` walks: (member tables, value), the
    first best unit action at each state.  ``unit_actions`` restricts the
    unit's joint actions (default: all, lexicographic); ``steps`` is the
    calling oracle's step table (default: the game).  The members'
    observations must determine the decision stage (the skirmish encodes the
    step in the state), and members that ``unit_actions`` ties to one action
    must observe alike at every reached state; else ExactBRUnsupported."""
    if unit_actions is None:
        unit_actions = _unit_action_space(game, team, unit)
    look = game if steps is None else steps
    completions = {} if steps is None else steps.completions(team, unit, unit_actions)

    def support(t, state):
        return _joint_support(
            game, team, own_members, atom, state, completions, unit, unit_actions, steps
        )

    q, values = _backward(game, list(_forward(game, game.initial, support, steps)), team, steps)
    value = float(sum(p * values[0][state] for state, p in game.initial if p > 0.0))
    tied, assign = _ties_members(unit_actions), [{} for _ in unit]
    for layer in reversed(q):
        # _backward fills each layer in reverse first-reached order
        for state, acts in reversed(layer.items()):
            best_val = max(acts.values())
            # unit_actions is lexicographically ordered: first max wins
            best_ua = next(ua for ua in unit_actions if acts[ua] == best_val)
            obs = look.member_observations(team, state)
            key = tuple(obs[member] for member in unit)
            _check_tied_observations(tied, key)
            for pos, obs in enumerate(key):
                if assign[pos].setdefault(obs, best_ua[pos]) != best_ua[pos]:
                    raise ExactBRUnsupported(
                        "member observations do not determine the decision stage; "
                        "exact tabular best response is not expressible"
                    )
    counts = game.action_counts[team - 1]
    return [
        IndividualPolicy.from_actions(counts[member], assign[pos], own_members[member])
        for pos, member in enumerate(unit)
    ], value


def _unit_improve_weighted(
    game, team, unit, own_members, opp_atoms, slack, unit_actions=None, start=None, steps=None,
):
    """Occupancy-weighted greedy improvement of the unit's policy against a
    mixture of opponent atoms, iterated to a local fixed point.

    Against a non-degenerate mixture the member faces a hidden opponent
    identity, so exact best response is a POMDP; this greedy scheme is the
    tabular analogue of on-policy improvement.  Each round scores the
    unit's actions by a one-step lookahead over the current policy's walks
    against every atom, then keeps the greedy candidate only if its value
    `_beats` the current one by ``slack`` (keep-if-better guard); its walks
    give that value and, once it is kept, the next round's walks.  A
    candidate that plays the current action at every key it scored plays
    the current policy, so it is rejected without a walk.  ``start`` is
    ``(walks, value, on-policy values or None)`` of ``own_members`` when
    the caller holds them: one walk per atom as `_atoms_value` records
    them, their value against the mixture and each walk's on-policy state
    values by step; without it the greedy walks them.  ``unit_actions`` is
    as in `_belief_response`.  ``steps`` is the calling oracle's
    step table, with ``opp_atoms`` registered; without one the greedy
    builds its own.  Returns (unit members' policies, value, fixed point,
    kept), where fixed point says the last round rejected its candidate
    rather than ending at the GREEDY_ROUNDS cap: the greedy run again from
    its result, before any other member changes, keeps that result; kept
    is the ``start`` triple of the returned policy.
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
    if start is None:
        walks = [[] for _ in opp_atoms]
        start = walks, _atoms_value(game, team, members, opp_atoms, steps, walks), None
    walks, value, on_policy = start
    fixed = False
    for _ in range(GREEDY_ROUNDS):
        if on_policy is None:
            # on-policy values by step; a state reached only off-policy counts 0
            on_policy = [_backward(game, walk, team, steps)[1] for walk in walks]
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
        # a candidate that plays the current policy would walk to ``value``
        if all(
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
        if not _beats(cand_value, value, slack):
            fixed = True
            break
        members, walks, value, on_policy = candidate, cand_walks, cand_value, None
    return [members[m] for m in unit], value, fixed, (walks, value, on_policy)


def _unit_best_response(game, team, unit, own_members, atoms, slack, unit_actions=None, steps=None):
    """`_belief_response` against one opponent atom, the guarded greedy
    improvement (with ``slack``) against a mixture: a `BestResponse` whose
    policy is the unit members' tables."""
    if len(atoms) == 1:
        tables, value = _belief_response(
            game, team, unit, own_members, atoms[0][0], unit_actions, steps
        )
        return BestResponse(tables, value, 0.0, "exact_dp")
    tables, value, _, _ = _unit_improve_weighted(
        game, team, unit, own_members, atoms, slack, unit_actions=unit_actions, steps=steps
    )
    return BestResponse(tables, value, None, "greedy")


def _table_search(game, team, unit, own_members, atoms, steps, slack):
    """Best pure stationary table that every member of ``unit`` plays, the
    other members held at ``own_members``, against opponent atoms that the
    step table ``steps`` registers: a `BestResponse` whose policy is the table.

    The domain is read off one `_forward` walk per atom in which the unit
    plays every diagonal joint action ``(a, ..., a)``: the unit members'
    observations at each state walked and at each successor with positive
    probability.  Where members observe differently, one table can split
    them, so the walks run again with the unit free over all its joint
    actions.  Either way these are the observations a unit table can
    reach, so up to TABLE_ENUMERATION_BOUND tables over the sorted domain
    every table is evaluated and the first best by `_beats` with ``slack``
    wins; each plays action 0 elsewhere.  The walks stop as soon as the
    domain passes the bound, and `_unit_best_response` then searches the
    diagonal, reusing the diagonal walks' completion lists; EvaluationError
    when that does not apply.
    """
    n_actions = game.action_counts[team - 1][unit[0]]
    diagonal = [(a,) * len(unit) for a in range(n_actions)]
    domain: set = set()

    def unit_obs(state) -> tuple:
        obs = steps.member_observations(team, state)
        return tuple(obs[m] for m in unit)

    def walk_domain(unit_actions):
        """Fill ``domain`` with the unit free over ``unit_actions``: True
        when it fits the bound, False once it passes, None when members
        tied to one action observe differently at a walked state."""
        tied = _ties_members(unit_actions)
        completions = steps.completions(team, unit, unit_actions)
        for atom, _ in atoms:
            def support(t, state, atom=atom):
                return _joint_support(
                    game, team, own_members, atom, state, completions, unit, unit_actions, steps
                )

            for _t, state, _p, rows in _forward(game, game.initial, support, steps):
                key = unit_obs(state)
                if tied and len(set(key)) > 1:
                    return None
                domain.update(key)
                for _, row in rows:
                    for _ua, _joint, succ in row:
                        domain.update(o for s2, pt in succ if pt > 0.0 for o in unit_obs(s2))
                if n_actions ** len(domain) > TABLE_ENUMERATION_BOUND:
                    return False
        return True

    fits = walk_domain(diagonal)
    if fits is None:
        domain.clear()
        fits = walk_domain(_unit_action_space(game, team, unit))
    if not fits:
        try:
            br = _unit_best_response(game, team, unit, own_members, atoms, slack, diagonal, steps)
        except ExactBRUnsupported as err:
            raise EvaluationError(
                "too many pure tables to enumerate, and the diagonal "
                f"dynamic program does not apply: {err}"
            ) from err
        return replace(br, policy=br.policy[0])
    obs_list = sorted(domain, key=repr)
    fallback = ConstantPolicy(n_actions, 0)
    best_val, best_table = -math.inf, None
    for assignment in itertools.product(range(n_actions), repeat=len(obs_list)):
        table = IndividualPolicy.from_actions(n_actions, dict(zip(obs_list, assignment)), fallback)
        trial = [table if m in unit else p for m, p in enumerate(own_members)]
        val = _atoms_value(game, team, trial, atoms, steps)
        if _beats(val, best_val, slack):
            best_val, best_table = val, table
    return BestResponse(best_table, float(best_val), 0.0, "enumeration")


# ---------------------------------------------------------------------------
# Best-response oracles


def best_response_joint(game: Game, opponent, team: int):
    """Fully correlated best response: the best pure team joint action
    (normal form, returned as a degenerate joint mix) or the centralized
    deterministic joint policy (stochastic, returned as a product of
    deterministic member policies, by `_unit_best_response`).  Ties break
    to the lexicographically smallest joint action.

    On a normal-form game the joint action is read off the argmax's
    row-major index, not from the list of joint actions.  Raises
    DimensionError when an opponent atom cannot play for the other team,
    and ValueError when ``team`` is not 1 or 2."""
    check_team(team)
    if game.is_normal_form:
        values = team_reward_tensor(game, team, opponent).ravel()
        idx = int(values.argmax())
        value = float(values[idx])
        joint = []
        for count in reversed(game.action_counts[team - 1]):
            idx, action = divmod(idx, count)
            joint.append(action)
        return BestResponse(JointMixPolicy.pure(joint[::-1]), value, 0.0, "enumeration")
    atoms = _opponent_atoms(game, team, opponent)
    unit = tuple(range(game.team_sizes[team - 1]))
    base = tuple(ConstantPolicy(c, 0) for c in game.action_counts[team - 1])
    br = _unit_best_response(game, team, unit, base, atoms, _slack(game))
    return replace(br, policy=ProductPolicy(br.policy))


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
    joint mix).  Returns `sebr`'s `BestResponse`.
    """
    return sebr(game, opponent, team, start, restarts=0, max_sweeps=_integer("sweeps", sweeps))


def _opponent_atoms(game: StochasticTeamGame, team: int, opponent) -> list[tuple]:
    """The positive-weight atoms ``[(policy, weight), ...]`` of a stochastic
    oracle call's opponent, each checked to play for the other team: the
    call's walks read them unchecked."""
    atoms = as_mixture(opponent)
    for atom, _ in atoms:
        check_team_policy(game, 3 - team, atom)
    return atoms


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


def _member_update(game, team, member, members, atoms, current, steps, start, slack):
    """One member's exact pure best response, switch when it `_beats` the
    current value by ``slack``.

    ``current`` is the team's value before the update and ``start`` the
    greedy's start triple for ``members`` (see `_unit_improve_weighted`)
    or None.  Returns (policy, value after the update, settled, kept),
    where the policy is ``members[member]`` itself unless the member
    switched, and kept is the greedy's start triple after the update (None
    off the greedy path).  Normal-form updates are closed-form; stochastic
    ones `_belief_response` against one opponent atom and the guarded
    greedy against a mixture.  A closed-form or DP switch is
    evaluated once, since those values can differ from evaluation in the
    last bits.  ``atoms`` are the opponent's checked atoms and ``steps``
    the calling oracle's `_NormalFormTable` or step table.

    Settled means the same update, run again before any teammate switches,
    provably changes nothing, so `sebr` skips it until a teammate switches.
    It holds when the update made no change; after a closed-form switch
    (the member's values do not depend on its own row); after a DP switch
    whose value does not beat the evaluated value (the DP value does not
    depend on the member's own table, so the guard would reject it); and
    after a greedy switch that ended on a rejected candidate.
    """
    if game.is_normal_form:
        values = _member_values(steps.tensor, members, member)
        best = _first_best(values, slack)
        if not _beats(values[best], float(values @ members[member].dist(NF_OBS)), slack):
            return members[member], current, True, None
        tables = [ConstantPolicy(len(values), best)]
    elif len(atoms) == 1:
        tables, value = _belief_response(game, team, (member,), members, atoms[0][0], steps=steps)
        if not _beats(value, current, slack):
            return members[member], current, True, None
    else:
        tables, value, fixed, kept = _unit_improve_weighted(
            game, team, (member,), tuple(members), atoms, slack, start=start, steps=steps
        )
        return tables[0], value, fixed, kept
    updated = list(members)
    updated[member] = tables[0]
    if game.is_normal_form:
        return tables[0], steps.value(updated), True, None
    after = _atoms_value(game, team, updated, atoms, steps)
    return tables[0], after, not _beats(value, after, slack), None


def _shared_value(tensor: np.ndarray, dist: np.ndarray) -> float:
    out = tensor
    for _ in range(tensor.ndim):
        out = out @ dist
    return float(out)


def _quadratic_simplex_max(q: np.ndarray, slack: float):
    """Exact maximum of p^T Q p over the simplex via KKT support
    enumeration (team of two members); returns (p, value, gap 0).  The pure
    corners, then the supports by size, are scanned with `_beats`.

    The KKT systems of one support size are solved as stacks of at most
    `_KKT_STACK`, in `itertools.combinations` order.  A system whose LU
    factorization meets an exact zero pivot (sign 0 from `slogdet`, where
    `solve` would raise) is skipped; the others are solved together, which
    runs the same LAPACK ``gesv`` on each and so gives the same bits as one
    solve per support.
    """
    n = q.shape[0]
    sym = q + q.T
    corner = _first_best([float(q[a, a]) for a in range(n)], slack)
    best_val, best_p = float(q[corner, corner]), np.eye(n)[corner]
    for size in range(2, n + 1):
        supports = itertools.combinations(range(n), size)
        for _ in range(0, math.comb(n, size), _KKT_STACK):
            idx = np.array(list(itertools.islice(supports, _KKT_STACK)))
            lhs = np.zeros((len(idx), size + 1, size + 1))
            lhs[:, :size, :size] = sym[idx[:, :, None], idx[:, None, :]]
            lhs[:, :size, size] = -1.0
            lhs[:, size, :size] = 1.0
            regular = np.linalg.slogdet(lhs)[0] != 0
            # a 3-D right-hand side: numpy 2 reads a 2-D one as matrices
            rhs = np.zeros((int(regular.sum()), size + 1, 1))
            rhs[:, size] = 1.0
            sols = np.linalg.solve(lhs[regular], rhs)[:, :size, 0]
            # a NaN solution passes the negated test and never wins below
            feasible = ~(np.minimum.reduce(sols, axis=1) < -1e-12)
            for support, ps in zip(idx[regular][feasible], sols[feasible]):
                p = np.zeros(n)
                p[support] = np.clip(ps, 0.0, None)
                p = p / p.sum()
                val = float(p @ q @ p)
                if _beats(val, best_val, slack):
                    best_val, best_p = val, p
    return best_p, best_val, 0.0


def _bernstein_simplex_max(tensor: np.ndarray, slack: float):
    """Certified maximum of the shared value ``T(p, ..., p)`` over the
    simplex, by branch-and-bound in the simplicial Bernstein basis (Garloff,
    LNCS 212, 1985; Leroy, Reliable Computing 2012); returns (p, value, gap).

    On a sub-simplex with vertex rows ``V``, contracting the axis-symmetrised
    tensor with ``V`` on every member axis gives the value's Bernstein
    coefficients there: their maximum bounds the value on the sub-simplex
    from above, and each vertex's value bounds the maximum from below.  The
    search starts from the pure corners, splits the longest edge of the
    sub-simplex with the highest bound at its midpoint, and keeps a corner,
    pure or new, or a sub-simplex's bound only when it `_beats` the best
    corner by ``slack``.  It stops once no bound left does, or after
    `_BERNSTEIN_NODE_CAP` splits; ``gap`` is the highest bound left less
    the value, so the true maximum lies in ``[value, value + gap]`` either
    way, and ``gap <= slack`` unless the cap is hit.
    """
    n, size = tensor.ndim, tensor.shape[0]
    # contracting every axis with one V commutes with permuting the axes
    sym = sum(tensor.transpose(perm) for perm in itertools.permutations(range(n)))
    sym = sym / math.factorial(n)

    def bound(vertices):
        out = sym
        for _ in range(n):
            out = np.tensordot(out, vertices, axes=([0], [1]))
        return float(out.max())

    corners = np.eye(size)
    best = _first_best([float(tensor[(a,) * n]) for a in range(size)], slack)
    best_p, best_val = corners[best], float(tensor[(best,) * n])
    cut = best_val  # highest bound of a discarded sub-simplex
    heap = [(-bound(corners), 0, corners)]
    for split in range(_BERNSTEIN_NODE_CAP):
        if not heap or not _beats(-heap[0][0], best_val, slack):
            break
        _, _, vertices = heapq.heappop(heap)
        diffs = vertices[:, None, :] - vertices[None, :, :]
        i, j = np.unravel_index(int(np.argmax((diffs**2).sum(axis=2))), (size, size))
        mid = 0.5 * (vertices[i] + vertices[j])
        val = _shared_value(tensor, mid)
        if _beats(val, best_val, slack):
            best_p, best_val = mid, val
        for k, corner in enumerate((i, j)):
            child = vertices.copy()
            child[corner] = mid
            upper = bound(child)
            if _beats(upper, best_val, slack):
                heapq.heappush(heap, (-upper, 2 * split + k + 1, child))
            else:
                cut = max(cut, upper)
    top = -heap[0][0] if heap else -math.inf
    return best_p, best_val, max(0.0, max(cut, top) - best_val)


def best_response_shared(game: Game, opponent, team: int):
    """Best shared policy and its value, as a `BestResponse`.

    Normal form: the best mixed shared action, over the simplex, on the
    reward tensor against the opponent.  Two-member teams use exact KKT
    support enumeration (`_quadratic_simplex_max`); other teams a certified
    Bernstein branch-and-bound (`_bernstein_simplex_max`), whose value is
    within the game's `_slack` of the maximum unless its node cap is hit.
    Both start from the pure shared actions and decide by `_beats`.  No
    seed is read: the result is a function of the game and the opponent.

    Stochastic: the best pure stationary shared table, by `_table_search`
    over the unit of all members.  Raises DimensionError when an opponent
    atom cannot play for the other team; beyond the enumeration bound,
    EvaluationError when the members observe differently at a reached
    state or their observations do not fix the decision stage.  Raises
    ValueError when ``team`` is not 1 or 2.
    """
    check_team(team)
    counts = game.action_counts[team - 1]
    if len(set(counts)) != 1:
        raise DimensionError("shared best response requires homogeneous action spaces")
    n_actions, n_members = counts[0], len(counts)
    if game.is_normal_form:
        tensor = team_reward_tensor(game, team, opponent)
        search = _quadratic_simplex_max if n_members == 2 else _bernstein_simplex_max
        dist, value, gap = search(tensor, _slack(game))
        policy = SharedPolicy(IndividualPolicy(n_actions, {NF_OBS: dist}), n_members)
        return BestResponse(policy, value, gap, "kkt" if n_members == 2 else "bernstein")
    atoms = _opponent_atoms(game, team, opponent)
    base = tuple(ConstantPolicy(n_actions, 0) for _ in range(n_members))
    br = _table_search(
        game, team, tuple(range(n_members)), base, atoms, _StepTable(game, atoms), _slack(game)
    )
    return replace(br, policy=SharedPolicy(br.policy, n_members))


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
    the joint advantage of ``team_action`` exactly.  Raises DimensionError
    when ``p1`` or ``p2`` cannot play for its team, and ValueError when
    ``team`` is not 1 or 2 or ``team_action`` is not one of its joint
    actions (one integer action in ``[0, count)`` per member).
    """
    check_team(team)
    counts = game.action_counts[team - 1]
    if len(team_action) != len(counts) or not all(
        a in range(c) for a, c in zip(team_action, counts)
    ):
        raise ValueError(f"{tuple(team_action)} is not a joint action of team {team}")
    check_team_policy(game, 1, p1)
    check_team_policy(game, 2, p2)
    own = p1 if team == 1 else p2
    opponent = p2 if team == 1 else p1
    members = _members_view(own)
    n = len(members)
    order = tuple(order) if order is not None else tuple(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the team's members")
    if game.is_normal_form:
        opp_key = (_pricing_key(game, 3 - team, opponent, check=False),)
        atoms = _PricedMixture([(opponent, 1.0)], opp_key, game.action_counts[2 - team])
        tensor = _NormalFormTable(game, team, atoms).tensor
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

    q, _ = _backward(game, list(_forward(game, [(obs, 1.0)], support)), team)
    tensor = np.zeros(game.action_counts[team - 1])
    for ua, value in q[0][obs].items():
        tensor[ua] = value
    return tensor


def sebr_starts(game: Game, team: int, incumbent, restarts: int, seed: int):
    """Start set for SeBR: the incumbent plus either every pure product
    policy (when at most ``restarts`` exist, on either game kind) or
    ``restarts`` seeded random deterministic products."""
    counts = game.action_counts[team - 1]
    starts: list[ProductPolicy] = []
    if incumbent is not None:
        starts.append(_as_product(incumbent, counts))
    if math.prod(counts) <= restarts:
        for joint in itertools.product(*(range(c) for c in counts)):
            starts.append(ProductPolicy.pure(joint, counts))
    else:
        for i in range(restarts):
            seeds = [subseed(seed, f"sebr-start/{i}/{m}") for m in range(len(counts))]
            starts.append(ProductPolicy([HashPolicy(c, s) for c, s in zip(counts, seeds)]))
    if not starts:
        starts.append(ProductPolicy([ConstantPolicy(c, 0) for c in counts]))
    return starts


def _as_product(policy, counts) -> ProductPolicy:
    if isinstance(policy, ProductPolicy):
        return policy
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
    with no change terminates the ascent.  Returns the `BestResponse` of
    the best result over the restart set by `_beats` with the game's
    `_slack`, as every update decides; its value is the one the updates
    carried, equal to ``team_value`` of the policy up to the sign of a zero.

    A settled member's update (see `_member_update`) is skipped and traced
    as an unchanged one.  Against a stochastic mixture the loop holds the
    walks of its current members, and each greedy update starts from them
    and hands back those of its result.  The opponent's atoms and ``start``
    are checked once, here: raises DimensionError when either cannot play
    for its team, and ValueError on a ``team`` other than 1 or 2, a
    ``restarts`` or ``max_sweeps`` that is negative or not an integer (NaN
    and infinity included) or a ``seed`` that is not an integer.
    ``trace``, when given, collects one (restart, sweep, member,
    value_before, value_after) tuple per member update, over all restarts.
    """
    check_team(team)
    if _integer("restarts", restarts) < 0 or _integer("max_sweeps", max_sweeps) < 0:
        raise ValueError(
            f"restart and sweep counts must be nonnegative, got {restarts} and {max_sweeps}"
        )
    _integer("seed", seed)
    n = game.team_sizes[team - 1]
    if start is not None:
        check_team_policy(game, team, start)
    if game.is_normal_form:
        atoms = as_mixture(opponent)
        steps = _NormalFormTable(game, team, atoms)
    else:
        atoms = _opponent_atoms(game, team, opponent)
        steps = _StepTable(game, atoms)
    slack = _slack(game)
    best_policy, best_value = None, -math.inf
    for restart_idx, start_policy in enumerate(
        sebr_starts(game, team, start, restarts, seed)
    ):
        members = list(start_policy.members)
        kept = None
        if game.is_normal_form:
            value = steps.value(members)
        else:
            walks = [[] for _ in atoms] if len(atoms) > 1 else None
            value = _atoms_value(game, team, members, atoms, steps, walks)
            if walks:
                kept = walks, value, None
        settled: set = set()
        for sweep in range(max_sweeps):
            changed = False
            for member in range(n):
                before = value
                if member not in settled:
                    new_member, value, fixed, kept = _member_update(
                        game, team, member, members, atoms, value, steps, kept, slack
                    )
                    if new_member is not members[member]:
                        members[member] = new_member
                        changed = True
                        settled.clear()
                    if fixed:
                        settled.add(member)
                if trace is not None:
                    trace.append((restart_idx, sweep, member, before, value))
            if not changed:
                break
        if _beats(value, best_value, slack):
            best_value = value
            best_policy = ProductPolicy(members)
    return BestResponse(best_policy, best_value, None, "coordinate_ascent")
