"""Independent oracles shared by the test modules.

The LP solver here is the dual route for the simplex maxmin
implementation and must stay independent of it.
"""

import numpy as np
from scipy.optimize import linprog


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
