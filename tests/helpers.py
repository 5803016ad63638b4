"""Independent oracles shared by the test modules.

The LP solver here is the dual route for the simplex maxmin
implementation and must stay independent of it; the recursive value is
the reference for the layered exact evaluation, and the per-support KKT
loop the reference for the stacked shared-oracle kernel.  The belief
recursion is the reference for the exact best response against a
mixture of opponent policies.  `one_step`
writes a normal-form game as the stochastic game it is, and
`population_mixtures` gives one opponent mixture with and without the
keys a population keeps.
"""

import functools
import itertools
import math

import numpy as np
from scipy.optimize import linprog

from teameq.core import NF_OBS, DimensionError, NormalFormTeamGame, StochasticTeamGame
from teameq.psro import Population, extend_population, initial_population


def lp_maxmin(matrix):
    """Value and an optimal row mix of a zero-sum matrix game via LP."""
    mat = np.asarray(matrix, dtype=float)
    n_rows, n_cols = mat.shape
    # maximize v subject to x^T M >= v per column, x on the simplex
    c = np.zeros(n_rows + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-mat.T, np.ones((n_cols, 1))])
    b_ub = np.zeros(n_cols)
    a_eq = np.hstack([np.ones((1, n_rows)), np.zeros((1, 1))])
    b_eq = np.ones(1)
    bounds = [(0, None)] * n_rows + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    assert res.success, res.message
    return -res.fun, res.x[:-1]


def brute_force_best_joint(game, team, opponent_dist_fn):
    """Max opponent-side reward over a team's pure joint actions by direct
    enumeration (used against best_response_joint and exploit profiles)."""
    best = -np.inf
    best_joint = None
    for joint in game.joint_actions(team):
        val = opponent_dist_fn(joint)
        if val > best:
            best, best_joint = val, joint
    return best_joint, best


def shared_maxmin_grid(game: NormalFormTeamGame, team: int, points: int = 10001):
    """Worst-case value of independent shared policies for a 2-action team:
    max over the shared mixing weight q of the minimum team reward across
    all opponent pure joint actions, on a q-grid of ``points`` samples."""
    counts = game.action_counts[team - 1]
    if len(set(counts)) != 1 or counts[0] != 2:
        raise DimensionError("grid shared maxmin supports 2-action homogeneous teams")
    n = len(counts)
    qs = np.linspace(0.0, 1.0, points)
    dists = np.stack([1.0 - qs, qs], axis=1)
    joint_dists = np.ones((points, 1))
    for _ in range(n):
        joint_dists = np.einsum("pi,pj->pij", joint_dists, dists).reshape(points, -1)
    mat = game.matrix()
    if team == 1:
        vals = joint_dists @ mat
    else:
        vals = joint_dists @ (-mat.T)
    worst = vals.min(axis=1)
    idx = int(np.argmax(worst))
    return float(qs[idx]), float(worst[idx])


def brute_force_value(game, p1, p2):
    """Expected discounted team-1 reward of two product or shared team
    policies on a stochastic game, by plain recursion: over the initial
    states, every joint action weighted by the product of each member's
    ``dist``, and each successor."""
    n1 = len(p1.members)

    def value(state, t):
        if t == game.horizon:
            return 0.0
        dists = [m.dist(o) for m, o in zip(p1.members, game.member_observations(1, state))]
        dists += [m.dist(o) for m, o in zip(p2.members, game.member_observations(2, state))]
        total = 0.0
        for acts in itertools.product(*([a for a in range(len(d)) if d[a] > 0.0] for d in dists)):
            prob = math.prod(d[a] for d, a in zip(dists, acts))
            joint = (acts[:n1], acts[n1:])
            tail = sum(pt * value(s2, t + 1) for s2, pt in game.successors(state, joint))
            total += prob * (game.step_reward(state, joint) + game.discount * tail)
        return total

    return sum(p * value(s, 0) for s, p in game.initial)


def belief_value(game, team, atoms):
    """Best expected discounted reward of ``team``, every member free,
    against an opponent team policy drawn once from ``atoms`` ``[(policy,
    weight), ...]``, when the team sees the state and the opponent's joint
    actions: plain recursion over (steps left, state, posterior), the
    posterior updated by Bayes' rule on each opponent joint action."""
    sign = 1.0 if team == 1 else -1.0
    own_joints = list(itertools.product(*(range(c) for c in game.action_counts[team - 1])))

    @functools.cache
    def value(state, posterior, left):
        if left == 0:
            return 0.0
        obs = game.member_observations(3 - team, state)
        probs = []
        for atom, _ in atoms:
            dists = [m.dist(o) for m, o in zip(atom.members, obs)]
            probs.append({
                acts: math.prod(d[a] for d, a in zip(dists, acts))
                for acts in itertools.product(*(range(len(d)) for d in dists))
            })
        best = -math.inf
        for own in own_joints:
            total = 0.0
            for opp in probs[0]:
                weights = [w * p[opp] for w, p in zip(posterior, probs)]
                mass = sum(weights)
                if mass == 0.0:
                    continue
                joint = (own, opp) if team == 1 else (opp, own)
                after = tuple(w / mass for w in weights)
                tail = sum(
                    pt * value(s2, after, left - 1) for s2, pt in game.successors(state, joint)
                )
                total += mass * (sign * game.step_reward(state, joint) + game.discount * tail)
            best = max(best, total)
        return best

    prior = tuple(w for _, w in atoms)
    return sum(p * value(s, prior, game.horizon) for s, p in game.initial)


def kkt_system(sym, support):
    """KKT matrix of p^T Q p's stationary points on ``support``, with
    ``sym = Q + Q^T``: the rows ``sym[S, S] p - lambda = 0`` and ``sum p = 1``."""
    idx = list(support)
    size = len(idx)
    lhs = np.zeros((size + 1, size + 1))
    lhs[:size, :size] = sym[np.ix_(idx, idx)]
    lhs[:size, size] = -1.0
    lhs[size, :size] = 1.0
    return lhs


def quadratic_simplex_max_loop(q, slack):
    """Maximum of p^T Q p over the simplex by KKT support enumeration, one
    ``np.linalg.solve`` per support; returns (p, value, gap 0) with the
    tie rule of ``_quadratic_simplex_max``: a candidate replaces the best
    one only when it is higher by more than ``slack``."""
    n = q.shape[0]
    sym = q + q.T
    best_val, best_p = -math.inf, None
    for a in range(n):
        val = float(q[a, a])
        if val > best_val + slack:
            best_val, best_p = val, np.eye(n)[a]
    for size in range(2, n + 1):
        for support in itertools.combinations(range(n), size):
            rhs = np.zeros(size + 1)
            rhs[size] = 1.0
            try:
                sol = np.linalg.solve(kkt_system(sym, support), rhs)
            except np.linalg.LinAlgError:
                continue
            ps = sol[:size]
            if ps.min() < -1e-12:
                continue
            p = np.zeros(n)
            p[list(support)] = np.clip(ps, 0.0, None)
            p = p / p.sum()
            val = float(p @ q @ p)
            if val > best_val + slack:
                best_val, best_p = val, p
    return best_p, best_val, 0.0


def one_step(game: NormalFormTeamGame) -> StochasticTeamGame:
    """``game`` as a one-state, one-step stochastic game: every member
    observes the state `NF_OBS`, so policies play alike on both kinds."""
    payoff = game.payoff
    return StochasticTeamGame(
        game.team_sizes, game.action_counts, ((NF_OBS, 1.0),),
        lambda s, joint: ((s, 1.0),), lambda s, joint: float(payoff[joint[0] + joint[1]]),
        discount=0.0, horizon=1, reward_bound=float(np.abs(payoff).max()), name=game.name,
    )


def population_mixtures(game, team, opponent):
    """The opponent mixture ``opponent``, ``[(policy, weight), ...]`` for
    team ``3 - team``, three ways: as given; as the `Population.mixture` of
    a population grown by `extend_population`, which keeps its entries'
    keys; and as that of the same population built by hand, which keeps
    none.  The populations' first entry is the seed, at weight 0."""
    opp = 3 - team
    pop = initial_population(game)
    for policy, _ in opponent:
        pop = extend_population(game, pop, policy, opp)
    hand = Population(pop.team1, pop.team2, pop.payoffs)
    weights = [0.0] + [w for _, w in opponent]
    keyed, plain = pop.mixture(opp, weights), hand.mixture(opp, weights)
    assert keyed.keys is not None and plain.keys is None
    return opponent, keyed, plain
