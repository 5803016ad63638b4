"""Built-in game instances.

Includes the 2v2 coordination-bonus game used throughout the test suite,
a seek-attack-defend matrix game family, an anti-coordination separator
for synchronized vs sequential cooperation, a deterministic grid-skirmish
stochastic game, and seeded random games for property tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import NormalFormTeamGame, StochasticTeamGame, _DefaultRng, _integer

#: Guard against accidentally enumerating astronomically many joint actions.
ENUMERATION_BOUND = 10**7


def example1() -> NormalFormTeamGame:
    """2v2 game with a cooperation bonus that separates NE from CTME.

    Each player has actions {0, 1}.  With nu(j) = 2*a_{j,1} + a_{j,2}, the
    team-1 reward is 1 + nu(2) - nu(1) on every pure profile except
    ((1,1),(0,0)), which pays the bonus 2.  Mixed profiles take the
    multilinear extension, so the bonus applies only at the pure corner.
    The all-zeros profile is a Nash equilibrium (reward 1) but team 1 can
    jointly deviate to (1,1) for reward 2.
    """
    payoff = np.zeros((2, 2, 2, 2))
    for a11, a12, a21, a22 in itertools.product(range(2), repeat=4):
        nu1 = 2 * a11 + a12
        nu2 = 2 * a21 + a22
        if (a11, a12) == (1, 1) and (a21, a22) == (0, 0):
            payoff[a11, a12, a21, a22] = 2.0
        else:
            payoff[a11, a12, a21, a22] = 1.0 + nu2 - nu1
    return NormalFormTeamGame((2, 2), ((2, 2), (2, 2)), payoff, name="example1")


@dataclass(frozen=True)
class SadConfig:
    """Seek-attack-defend parameters: N players per team, seek actions
    {0..A}, and the attack bonus B.  Each player has A + 3 actions:
    A + 1 seeks, then attack, then defend."""

    n_players: int
    seek_max: int
    attack_bonus: float = 1.0

    def __post_init__(self):
        if self.n_players < 1:
            raise ValueError("n_players must be >= 1")
        if self.seek_max < 0:
            raise ValueError("seek_max must be >= 0")
        if self.attack_bonus <= 0:
            raise ValueError("attack_bonus must be positive")

    @property
    def n_actions(self) -> int:
        return self.seek_max + 3


def sad(cfg: SadConfig, enumeration_bound: int = ENUMERATION_BOUND) -> NormalFormTeamGame:
    """Seek-attack-defend matrix game.

    Scoring rule (an artifact convention, antisymmetric by construction so
    the game is zero-sum): with seek(T) = sum of chosen seek indices over
    seeking members / (N*A), atk(T) = fraction of members attacking and
    def(T) = 1 if any member defends,

        R1 = (seek(T1) - seek(T2)) + B * (atk(T1)*(1-def(T2)) - atk(T2)*(1-def(T1)))
    """
    n, amax, bonus = cfg.n_players, cfg.seek_max, cfg.attack_bonus
    n_actions = cfg.n_actions
    attack, defend = amax + 1, amax + 2
    n_joints = n_actions**n
    if n_joints**2 > enumeration_bound:
        raise ValueError(
            f"SAD joint-action table has {n_joints ** 2} cells, "
            f"over the bound {enumeration_bound}"
        )
    # one row per joint action, in itertools.product order
    joints = np.indices((n_actions,) * n).reshape(n, -1).T
    norm = n * amax if amax > 0 else 1
    seek = np.where(joints <= amax, joints, 0).sum(axis=1) / norm
    atk = (joints == attack).sum(axis=1) / n
    has_def = (joints == defend).any(axis=1).astype(float)
    matrix = (
        seek[:, None]
        - seek[None, :]
        + bonus * (atk[:, None] * (1.0 - has_def[None, :]) - atk[None, :] * (1.0 - has_def[:, None]))
    )
    shape = (n_actions,) * (2 * n)
    return NormalFormTeamGame(
        (n, n),
        ((n_actions,) * n, (n_actions,) * n),
        matrix.reshape(shape),
        name=f"sad(N={n},A={amax},B={bonus:g})",
    )


def anti_coordination() -> NormalFormTeamGame:
    """2v2 separator: a team scores 1 iff its members pick different actions.

    R1 = [team-1 members differ] - [team-2 members differ].  Heterogeneous
    play is reachable by joint or sequential coordination but not by a
    shared policy, whose independent sampling caps the statistic at 0.5.
    """
    payoff = np.zeros((2, 2, 2, 2))
    for a11, a12, a21, a22 in itertools.product(range(2), repeat=4):
        payoff[a11, a12, a21, a22] = float(a11 != a12) - float(a21 != a22)
    return NormalFormTeamGame((2, 2), ((2, 2), (2, 2)), payoff, name="anti_coordination")


@dataclass(frozen=True)
class SkirmishConfig:
    """Grid skirmish parameters: board size, team size per side, horizon,
    damage per landed hit and discount."""

    width: int
    height: int
    team_size: int
    horizon: int
    damage: float = 1.0
    discount: float = 0.95

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("grid dimensions must be positive")
        if self.team_size < 1:
            raise ValueError("team size must be positive")
        if self.width * self.height < 2 * self.team_size:
            raise ValueError("grid too small for both teams")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must lie in [0, 1)")


# Action layout for the skirmish: 4 moves, stay, attack-adjacent.
SKIRMISH_ACTIONS = 6
_MOVES = {0: (0, -1), 1: (0, 1), 2: (-1, 0), 3: (1, 0)}
_STAY = 4
_ATTACK = 5


def grid_skirmish(cfg: SkirmishConfig) -> StochasticTeamGame:
    """Deterministic simultaneous-move skirmish on a grid.

    State is (t, positions) with one cell index per agent (team-1 agents
    first); the step counter is part of the observation so exact
    finite-horizon best responses are expressible as tabular policies.
    Agents move, stay, or attack; an attack lands on the lexicographically
    first 4-adjacent opponent, if any, on pre-move positions.  Move
    conflicts resolve by agent priority (lower global index wins); swaps
    are blocked.  Per-step reward is damage dealt by team 1 minus damage
    dealt by team 2.  Each cell's 4-adjacent cells and move targets are
    tabulated when the game is built, so a step is table lookups.
    """
    w, h, n = cfg.width, cfg.height, cfg.team_size
    start_cells = tuple(range(n)) + tuple(w * h - 1 - i for i in range(n))
    start = (0, start_cells)

    # targets[cell][action] is the cell the action moves to, None for stay,
    # attack and moves off the board; neighbours[cell] holds the 4-adjacent
    # cells
    targets = []
    for cell in range(w * h):
        x, y = cell % w, cell // w
        row = [None] * SKIRMISH_ACTIONS
        for a, (dx, dy) in _MOVES.items():
            if 0 <= x + dx < w and 0 <= y + dy < h:
                row[a] = (y + dy) * w + x + dx
        targets.append(tuple(row))
    neighbours = [frozenset(c for c in row if c is not None) for row in targets]
    damage, horizon = cfg.damage, cfg.horizon

    def reward(state, joint) -> float:
        _, pos = state
        acts1, acts2 = joint
        hits1 = hits2 = 0
        if _ATTACK in acts1:
            foes = pos[n:]
            for k, a in enumerate(acts1):
                if a == _ATTACK and not neighbours[pos[k]].isdisjoint(foes):
                    hits1 += 1
        if _ATTACK in acts2:
            foes = pos[:n]
            for k, a in enumerate(acts2, n):
                if a == _ATTACK and not neighbours[pos[k]].isdisjoint(foes):
                    hits2 += 1
        return damage * (hits1 - hits2)

    def transition(state, joint):
        t, pos = state
        if t >= horizon:
            return ((state, 1.0),)
        # agents move in index order; the positions stay distinct, so the
        # occupied cells are exactly new_pos
        new_pos = list(pos)
        k = 0
        for acts in joint:
            for a in acts:
                tgt = targets[pos[k]][a]
                if tgt is not None and tgt not in new_pos:
                    new_pos[k] = tgt
                k += 1
        return (((t + 1, tuple(new_pos)), 1.0),)

    return StochasticTeamGame(
        team_sizes=(n, n),
        action_counts=((SKIRMISH_ACTIONS,) * n, (SKIRMISH_ACTIONS,) * n),
        initial=((start, 1.0),),
        transition=transition,
        reward=reward,
        discount=cfg.discount,
        horizon=cfg.horizon,
        reward_bound=cfg.damage * n,
        name=f"grid_skirmish({w}x{h},{n}v{n},H={cfg.horizon})",
    )


def random_team_game(
    team_sizes: tuple[int, int],
    action_counts: tuple[tuple[int, ...], tuple[int, ...]],
    payoff_range: tuple[float, float] = (-1.0, 1.0),
    seed: int = 0,
    enumeration_bound: int = ENUMERATION_BOUND,
) -> NormalFormTeamGame:
    """Seeded game with i.i.d. uniform payoffs; reproducible by seed.

    The payoffs are numpy's ``default_rng(seed).uniform(lo, hi, shape)``,
    drawn by ``core._DefaultRng`` without importing numpy.random.  Raises
    ValueError on a NaN, infinite or empty payoff range, on one whose width
    ``hi - lo`` overflows, and on a seed that is not a nonnegative integer."""
    rng = _DefaultRng(seed)
    shape = tuple(action_counts[0]) + tuple(action_counts[1])
    cells = math.prod(shape)  # np.prod would wrap past 2**63 and pass the bound
    if cells > enumeration_bound:
        raise ValueError(f"payoff table of {cells} cells exceeds the bound")
    lo, hi = payoff_range
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"payoff range bounds must be finite, got {payoff_range!r}")
    if hi < lo:
        raise ValueError("empty payoff range")
    payoff = rng.uniform(lo, hi, shape)
    return NormalFormTeamGame(
        team_sizes, action_counts, payoff, name=f"random(seed={seed})"
    )


def random_stochastic_game(
    n_states: int = 3,
    team_sizes: tuple[int, int] = (2, 2),
    n_actions: int = 2,
    horizon: int = 3,
    discount: float = 0.9,
    seed: int = 0,
) -> StochasticTeamGame:
    """Small dense random stochastic game for property tests.

    Drawn by numpy's own Generator, not ``core._DefaultRng``: its Dirichlet
    rows come from numpy's ziggurat exponential tables, and no command line
    path builds this game.  ValueError unless ``seed`` is a nonnegative
    integer (numpy would draw a fresh OS-entropy game for None)."""
    if _integer("seed", seed) < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    n1, n2 = team_sizes
    joints = list(
        itertools.product(
            itertools.product(range(n_actions), repeat=n1),
            itertools.product(range(n_actions), repeat=n2),
        )
    )
    rewards = {
        (s, j): float(rng.uniform(-1, 1)) for s in range(n_states) for j in joints
    }
    transitions = {}
    for s in range(n_states):
        for j in joints:
            row = rng.dirichlet(np.ones(n_states))
            transitions[(s, j)] = tuple((s2, float(p)) for s2, p in enumerate(row))
    init = rng.dirichlet(np.ones(n_states))
    return StochasticTeamGame(
        team_sizes=team_sizes,
        action_counts=((n_actions,) * n1, (n_actions,) * n2),
        initial=tuple((s, float(p)) for s, p in enumerate(init)),
        transition=lambda s, j: transitions[(s, j)],
        reward=lambda s, j: rewards[(s, j)],
        discount=discount,
        horizon=horizon,
        reward_bound=1.0,
        name=f"random_stochastic(seed={seed})",
    )
