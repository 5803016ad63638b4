"""Built-in game generators."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teameq.core import ConstantPolicy, ProductPolicy, evaluate
from teameq.games import (
    SadConfig,
    SkirmishConfig,
    anti_coordination,
    example1,
    grid_skirmish,
    random_team_game,
    sad,
)
from teameq.oracles import best_response_joint, best_response_shared, solve_matrix_maxmin


class TestExample1:
    def test_payoff_cells(self):
        g = example1()
        assert g.payoff[0, 0, 0, 0] == 1.0
        assert g.payoff[1, 1, 0, 0] == 2.0
        assert g.payoff[1, 1, 1, 1] == 1.0  # 1 + 3 - 3

    def test_maxmin_values(self):
        g = example1()
        sol = solve_matrix_maxmin(g.matrix(), tol=1e-9)
        assert sol.value == pytest.approx(1.25, abs=1e-9)
        # pure maxmin (no mixing) is only 1
        assert g.matrix().min(axis=1).max() == 1.0


class TestSad:
    def test_symmetric_seeks_zero(self):
        g = sad(SadConfig(2, 3))
        zeros = ProductPolicy.pure((0, 0), (6, 6))
        assert evaluate(g, zeros, zeros) == 0.0

    def test_attack_vs_seek(self):
        # N=1, A=2, B=1: T1 attacks, T2 seeks 2 -> R1 = 1 - 2/2 = 0
        g = sad(SadConfig(1, 2, 1.0))
        attack = ProductPolicy.pure((3,), (5,))
        seek2 = ProductPolicy.pure((2,), (5,))
        assert evaluate(g, attack, seek2) == 0.0

    def test_identical_joint_actions_zero(self):
        g = sad(SadConfig(2, 2))
        for joint in [(0, 1), (3, 3), (4, 2)]:
            p = ProductPolicy.pure(joint, (5, 5))
            assert evaluate(g, p, p) == 0.0

    @given(
        n=st.integers(1, 2),
        amax=st.integers(0, 3),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_antisymmetry(self, n, amax, data):
        g = sad(SadConfig(n, amax))
        n_actions = amax + 3
        a = tuple(data.draw(st.integers(0, n_actions - 1)) for _ in range(n))
        b = tuple(data.draw(st.integers(0, n_actions - 1)) for _ in range(n))
        pa, pb = ProductPolicy.pure(a, (n_actions,) * n), ProductPolicy.pure(b, (n_actions,) * n)
        lhs = evaluate(g, pa, pb)
        rhs = evaluate(g, pb, pa)
        assert lhs == pytest.approx(-rhs, abs=1e-12)

    def test_enumeration_bound(self):
        with pytest.raises(ValueError):
            sad(SadConfig(2, 3), enumeration_bound=10)


class TestAntiCoordination:
    def test_cells(self):
        g = anti_coordination()
        assert evaluate(g, ProductPolicy.pure((0, 1), (2, 2)), ProductPolicy.pure((0, 0), (2, 2))) == 1.0
        assert evaluate(g, ProductPolicy.pure((0, 0), (2, 2)), ProductPolicy.pure((0, 0), (2, 2))) == 0.0
        assert evaluate(g, ProductPolicy.pure((1, 0), (2, 2)), ProductPolicy.pure((0, 1), (2, 2))) == 0.0

    def test_class_separation_vs_homogeneous_opponent(self):
        # joint coordination reaches 1; independent shared play caps at 0.5
        g = anti_coordination()
        zeros = ProductPolicy.pure((0, 0), (2, 2))
        _, joint_value = best_response_joint(g, zeros, 1)
        assert joint_value == pytest.approx(1.0, abs=1e-12)
        _, shared_value = best_response_shared(g, zeros, 1)
        assert shared_value == pytest.approx(0.5, abs=1e-9)


class TestGridSkirmish:
    def test_stand_apart_and_stay(self):
        g = grid_skirmish(SkirmishConfig(3, 3, 2, horizon=5))
        stay = ProductPolicy([ConstantPolicy(6, 4)] * 2)
        assert evaluate(g, stay, stay) == 0.0

    def test_adjacent_attack(self):
        g = grid_skirmish(SkirmishConfig(2, 1, 1, horizon=1, damage=1.0))
        attack = ProductPolicy([ConstantPolicy(6, 5)])
        stay = ProductPolicy([ConstantPolicy(6, 4)])
        assert evaluate(g, attack, stay) == 1.0

    def test_mirrored_policies_cancel(self):
        g = grid_skirmish(SkirmishConfig(3, 3, 2, horizon=4))
        for action in (4, 5):
            p = ProductPolicy([ConstantPolicy(6, action)] * 2)
            assert evaluate(g, p, p) == 0.0

    def test_deterministic_transitions(self):
        # every step on the path has one successor, reached with certainty
        g = grid_skirmish(SkirmishConfig(3, 3, 2, horizon=4))
        joint = ((3, 1), (0, 2))
        ((state, _),) = g.initial
        for _ in range(g.horizon):
            ((state, prob),) = g.successors(state, joint)
            assert prob == 1.0

    def test_collisions_block_swaps(self):
        # two agents moving through each other stay in place
        g = grid_skirmish(SkirmishConfig(2, 1, 1, horizon=1))
        state = (0, (0, 1))
        ((nxt, prob),) = g.transition(state, ((3,), (2,)))  # right vs left
        assert nxt == (1, (0, 1)) and prob == 1.0

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            SkirmishConfig(1, 1, 2, horizon=1)


def _geometric_skirmish(cfg):
    """The skirmish callables as written before the board was tabulated:
    adjacency and move targets recomputed from coordinates at every step."""
    w, h, n = cfg.width, cfg.height, cfg.team_size
    n_agents = 2 * n
    moves = {0: (0, -1), 1: (0, 1), 2: (-1, 0), 3: (1, 0)}

    def xy(cell):
        return cell % w, cell // w

    def adjacent(c1, c2):
        (x1, y1), (x2, y2) = xy(c1), xy(c2)
        return abs(x1 - x2) + abs(y1 - y2) == 1

    def reward(state, joint):
        _, pos = state
        acts = tuple(joint[0]) + tuple(joint[1])
        hits = [0, 0]
        for team, (lo, hi) in enumerate(((0, n), (n, n_agents))):
            foes = range(n, n_agents) if team == 0 else range(0, n)
            for k in range(lo, hi):
                if acts[k] == 5 and any(adjacent(pos[k], pos[f]) for f in foes):
                    hits[team] += 1
        return cfg.damage * (hits[0] - hits[1])

    def transition(state, joint):
        t, pos = state
        if t >= cfg.horizon:
            return ((state, 1.0),)
        acts = tuple(joint[0]) + tuple(joint[1])
        new_pos = list(pos)
        occupied = set(pos)
        for k in range(n_agents):
            if acts[k] not in moves:
                continue
            dx, dy = moves[acts[k]]
            x, y = xy(pos[k])
            nx, ny = x + dx, y + dy
            if not (0 <= nx < w and 0 <= ny < h):
                continue
            tgt = ny * w + nx
            if tgt in occupied:
                continue
            occupied.remove(new_pos[k])
            occupied.add(tgt)
            new_pos[k] = tgt
        return (((t + 1, tuple(new_pos)), 1.0),)

    return transition, reward


class TestSkirmishTables:
    """The tabulated skirmish callables return what the geometric ones do."""

    @staticmethod
    def _joints(n):
        return list(itertools.product(itertools.product(range(6), repeat=n), repeat=2))

    @staticmethod
    def _assert_same(game, reference, states, joints):
        ref_transition, ref_reward = reference
        for state in states:
            for joint in joints:
                assert game.transition(state, joint) == ref_transition(state, joint)
                assert game.reward(state, joint) == ref_reward(state, joint)

    @pytest.mark.parametrize("width, height", [(2, 1), (3, 2)])
    def test_small_boards_exhaustive(self, width, height):
        cfg = SkirmishConfig(width, height, 1, horizon=2, damage=0.5)
        g = grid_skirmish(cfg)
        cells = range(width * height)
        states = [
            (t, pos) for t in range(cfg.horizon + 1) for pos in itertools.permutations(cells, 2)
        ]
        self._assert_same(g, _geometric_skirmish(cfg), states, self._joints(1))

    def _assert_first_two_steps(self, damage):
        # every state the first two steps are played from, with every joint action
        cfg = SkirmishConfig(3, 3, 2, horizon=3, damage=damage)
        g = grid_skirmish(cfg)
        reference = _geometric_skirmish(cfg)
        joints = self._joints(2)
        start = g.initial[0][0]
        states = {start} | {s2 for j in joints for s2, _ in reference[0](start, j)}
        assert len(states) == 46
        self._assert_same(g, reference, sorted(states), joints)

    def test_first_two_steps(self):
        self._assert_first_two_steps(1.0)

    def test_first_two_steps_scaled_damage(self):
        self._assert_first_two_steps(2.5)

    def test_three_a_side(self):
        # six agents on nine cells, every joint action: from the start state,
        # and once team 1 has stepped down next to team 2, where attacks land
        cfg = SkirmishConfig(3, 3, 3, horizon=2)
        g = grid_skirmish(cfg)
        joints = self._joints(3)
        assert len(joints) == 46656
        start = g.initial[0][0]
        ((engaged, _),) = g.transition(start, ((1, 1, 1), (4, 4, 4)))
        assert engaged == (1, (3, 4, 5, 8, 7, 6))
        self._assert_same(g, _geometric_skirmish(cfg), [start, engaged], joints)


class TestRandomTeamGame:
    def test_seed_reproducibility(self):
        g1 = random_team_game((2, 2), ((2, 2), (2, 2)), seed=5)
        g2 = random_team_game((2, 2), ((2, 2), (2, 2)), seed=5)
        assert np.array_equal(g1.payoff, g2.payoff)

    def test_degenerate_range(self):
        g = random_team_game((2, 2), ((2, 2), (2, 2)), payoff_range=(0.0, 0.0), seed=1)
        assert np.all(g.payoff == 0.0)

    def test_shape(self):
        g = random_team_game((2, 2), ((2, 2), (2, 2)), seed=2)
        assert g.payoff.size == 16
