"""Independent oracles shared by the test modules.

The LP solver here is the dual route for the simplex maxmin
implementation and must stay independent of it; the recursive value is
the reference for the layered exact evaluation.
"""

import itertools
import math

import numpy as np
from scipy.optimize import linprog

from teameq.core import DimensionError, NormalFormTeamGame


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
