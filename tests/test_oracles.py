"""Maxmin solver and best-response oracle tests."""

import dataclasses
import functools
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import lp_maxmin, shared_maxmin_grid
from teameq.core import (
    NF_OBS,
    ConstantPolicy,
    EvalConfig,
    EvaluationError,
    HashPolicy,
    IndividualPolicy,
    JointMixPolicy,
    ProductPolicy,
    SharedPolicy,
    UniformPolicy,
    _StepTable,
    evaluate,
    team_action_dist,
    team_value,
)
from teameq.games import (
    SadConfig,
    SkirmishConfig,
    anti_coordination,
    example1,
    grid_skirmish,
    random_stochastic_game,
    random_team_game,
    sad,
)
from teameq import oracles
from teameq.oracles import (
    MaxminConvergenceError,
    advantage_decompose,
    best_response_individual,
    best_response_joint,
    best_response_shared,
    sebr,
    solve_matrix_maxmin,
)


@st.composite
def degenerate_matrices(draw):
    """Small integer-valued matrices, 1xn and nx1 included, with a row and a
    column possibly duplicated."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    mat = draw(arrays(np.float64, (rows, cols), elements=st.integers(-2, 2).map(float)))
    if draw(st.booleans()):
        mat = np.vstack([mat, mat[draw(st.integers(0, rows - 1))]])
    if draw(st.booleans()):
        mat = np.hstack([mat, mat[:, [draw(st.integers(0, cols - 1))]]])
    return mat


def pure(actions, counts=(2, 2)):
    return ProductPolicy.pure(actions, counts)


def _checked_value(game, team, result, opponent):
    """An oracle's (policy, value) result reduced to its value, after
    checking it against an evaluation of the policy."""
    policy, value = result
    assert value == team_value(game, team, policy, opponent)
    return value


class TestSolveMatrixMaxmin:
    def test_example1_matrix(self):
        g = example1()
        sol = solve_matrix_maxmin(g.matrix(), tol=1e-9)
        lp_val, _ = lp_maxmin(g.matrix())
        assert sol.value == pytest.approx(lp_val, abs=1e-9)
        assert np.allclose(sol.row_mix, [0.75, 0.0, 0.0, 0.25], atol=1e-9)
        assert sol.gap <= 1e-9

    def test_single_cell(self):
        sol = solve_matrix_maxmin([[3.5]], tol=1e-12)
        assert sol.value == 3.5 and sol.gap == 0.0

    def test_matching_pennies(self):
        sol = solve_matrix_maxmin([[1.0, -1.0], [-1.0, 1.0]], tol=1e-9)
        assert sol.value == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(sol.row_mix, [0.5, 0.5], atol=1e-9)
        assert np.allclose(sol.col_mix, [0.5, 0.5], atol=1e-9)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            solve_matrix_maxmin([[np.nan, 0.0]])

    def test_duality_certificate_small(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            mat = rng.uniform(-2, 2, size=(rng.integers(1, 6), rng.integers(1, 6)))
            sol = solve_matrix_maxmin(mat, tol=1e-8)
            value = sol.row_mix @ mat @ sol.col_mix
            assert (mat @ sol.col_mix).max() - value <= 1e-8
            assert value - (sol.row_mix @ mat).min() <= 1e-8

    def test_duality_certificate_selfplay_path(self):
        # 9x9 matrices, each solved over several pivots
        for seed in range(5):
            mat = np.random.default_rng(seed).uniform(-1, 1, size=(9, 9))
            sol = solve_matrix_maxmin(mat, tol=1e-7)
            lp_val, _ = lp_maxmin(mat)
            assert sol.gap <= 1e-7
            assert sol.value == pytest.approx(lp_val, abs=1e-6)

    def test_iteration_cap_reports_best(self):
        mat = np.random.default_rng(2).uniform(-1, 1, size=(10, 10))
        with pytest.raises(MaxminConvergenceError) as exc:
            solve_matrix_maxmin(mat, tol=1e-13, max_iterations=5)
        assert exc.value.best is not None
        assert exc.value.best.gap >= 0.0

    def test_deterministic(self):
        mat = np.random.default_rng(3).uniform(-1, 1, size=(8, 8))
        a = solve_matrix_maxmin(mat, tol=1e-7)
        b = solve_matrix_maxmin(mat, tol=1e-7)
        assert np.array_equal(a.row_mix, b.row_mix) and a.value == b.value

    @settings(max_examples=300, deadline=None)
    @given(degenerate_matrices())
    @example(np.full((3, 4), 2.0))
    @example(np.array([[1.0, -2.0, 0.0, 3.0, -1.0]]))
    @example(np.array([[1.0], [-2.0], [0.0], [3.0], [-1.0]]))
    def test_degenerate_integer_matrices_match_lp(self, mat):
        # small integer entries make ratio ties and degenerate pivots common
        sol = solve_matrix_maxmin(mat)
        lp_val, _ = lp_maxmin(mat)
        assert abs(sol.value - lp_val) <= 1e-9
        assert sol.gap <= 1e-9
        assert np.array_equal(sol.row_mix, solve_matrix_maxmin(mat).row_mix)

    def test_tolerance_scales_with_payoffs(self):
        # at payoffs of 1e6 an absolute 1e-9 sits at floating-point round-off
        rng = np.random.default_rng(0)
        for _ in range(40):
            mat = 1e6 * rng.uniform(-1, 1, size=(rng.integers(2, 30), rng.integers(2, 30)))
            scale = np.abs(mat).max()
            sol = solve_matrix_maxmin(mat)
            lp_val, _ = lp_maxmin(mat)
            assert sol.gap <= 1e-9 * scale
            assert abs(sol.value - lp_val) <= 1e-9 * scale


class TestBestResponseJoint:
    def test_example1_vs_zeros(self):
        g = example1()
        br, value = best_response_joint(g, pure((0, 0)), 1)
        assert br.atoms == ((1, 1),) and value == 2.0

    def test_example1_vs_01(self):
        g = example1()
        br, value = best_response_joint(g, pure((0, 1)), 1)
        assert br.atoms == ((0, 0),) and value == 2.0

    def test_lexicographic_tie_break(self):
        g = anti_coordination()
        br, value = best_response_joint(g, pure((0, 0)), 1)
        assert br.atoms == ((0, 1),) and value == 1.0  # ties with (1, 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_first_max_over_joint_actions(self, seed):
        # unequal member action counts; payoffs in {-1, 0, 1} and dyadic
        # probabilities keep every value exact, so ties are real ties
        g = random_team_game((2, 3), ((2, 4), (3, 1, 2)), seed=seed)
        g = dataclasses.replace(g, payoff=np.round(g.payoff))
        rng = np.random.default_rng(seed)

        def dyadic(n):
            return np.bincount(rng.integers(0, n, size=4), minlength=n) / 4.0

        for team in (1, 2):
            counts = g.action_counts[2 - team]
            product = ProductPolicy([IndividualPolicy(c, {NF_OBS: dyadic(c)}) for c in counts])
            joints = g.joint_actions(3 - team)
            mix = JointMixPolicy([joints[0], joints[-1]], [0.75, 0.25])
            opponent = [(product, 0.5), (ProductPolicy([ConstantPolicy(c, 0) for c in counts]), 0.0), (mix, 0.5)]
            values = [team_value(g, team, JointMixPolicy.pure(ja), opponent) for ja in g.joint_actions(team)]
            first = int(np.argmax(values))
            dists = [team_action_dist(g, 3 - team, p) for p, w in opponent if w > 0.0]
            for kept in (None, dists):
                br, value = best_response_joint(g, opponent, team, dists=kept)
                assert br.atoms == (g.joint_actions(team)[first],)
                assert value == values[first]
            with pytest.raises(ValueError, match="distributions"):
                best_response_joint(g, opponent, team, dists=dists[:1])


class TestBestResponseIndividual:
    def test_stuck_at_zeros(self):
        # unilateral moves from (0,0) lose: -1 and 0 against value 1
        g = example1()
        result, value = best_response_individual(g, pure((0, 0)), 1, pure((0, 0)))
        assert result.pure_joint_action([0, 0]) == (0, 0)
        assert evaluate(g, result, pure((0, 0))) == 1.0
        assert value == team_value(g, 1, result, pure((0, 0)))

    def test_stays_at_bonus(self):
        g = example1()
        result, value = best_response_individual(g, pure((0, 0)), 1, pure((1, 1)))
        assert result.pure_joint_action([0, 0]) == (1, 1)
        assert value == team_value(g, 1, result, pure((0, 0)))

    def test_joint_mix_start_is_its_top_atom(self):
        g = example1()
        start = JointMixPolicy(((0, 0), (1, 1)), (0.25, 0.75))
        result, value = best_response_individual(g, pure((0, 0)), 1, start)
        assert result.pure_joint_action([0, 0]) == (1, 1)
        assert value == team_value(g, 1, result, pure((0, 0)))

    def test_zero_sweeps_noop(self):
        g = example1()
        start = pure((0, 1))
        result, value = best_response_individual(g, pure((0, 0)), 1, start, sweeps=0)
        assert result.pure_joint_action([0, 0]) == (0, 1)
        assert value == team_value(g, 1, result, pure((0, 0)))

    def test_value_never_decreases(self):
        for seed in range(20):
            g = random_team_game((2, 2), ((3, 3), (3, 3)), seed=seed)
            opp = pure((seed % 3, (seed + 1) % 3), (3, 3))
            start = pure((0, 0), (3, 3))
            v0 = evaluate(g, start, opp)
            result, value = best_response_individual(g, opp, 1, start)
            assert evaluate(g, result, opp) >= v0 - 1e-12
            assert value == team_value(g, 1, result, opp)


class TestBestResponseShared:
    def test_example1_vs_01(self):
        # E[reward] = 2 - 3q, maximized at q = 0
        g = example1()
        policy, value = best_response_shared(g, pure((0, 1)), 1)
        assert value == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(policy.policy.dist(0), [1.0, 0.0])

    def test_example1_vs_zeros(self):
        # E[reward] = 1 - 3q + 4q^2, maximized at q = 1
        g = example1()
        policy, value = best_response_shared(g, pure((0, 0)), 1)
        assert value == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(policy.policy.dist(0), [0.0, 1.0])

    def test_anti_coordination_interior(self):
        # 2q(1-q) maximized at q = 0.5 with value 0.5
        g = anti_coordination()
        policy, value = best_response_shared(g, pure((0, 0)), 1)
        assert value == pytest.approx(0.5, abs=1e-9)
        assert np.allclose(policy.policy.dist(0), [0.5, 0.5], atol=1e-9)

    def test_mixed_only_improves(self):
        rng = np.random.default_rng(4)
        for seed in range(20):
            g = random_team_game((2, 2), ((3, 3), (3, 3)), seed=seed)
            opp = pure((rng.integers(3), rng.integers(3)), (3, 3))
            _, value = best_response_shared(g, opp, 1)
            pure_best = max(
                evaluate(g, pure((a, a), (3, 3)), opp) for a in range(3)
            )
            assert value >= pure_best - 1e-12

    @staticmethod
    def _counted(monkeypatch, name):
        calls = []
        real = getattr(oracles, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(oracles, name, counted)
        return calls

    def test_two_action_team_of_three_beats_the_q_grid(self, monkeypatch):
        # three members with two actions: the exact polynomial search in q
        calls = self._counted(monkeypatch, "_two_action_poly_max")
        g = random_team_game((3, 3), ((2, 2, 2), (2, 2, 2)), seed=3)
        opp = pure((0, 0, 0), (2, 2, 2))
        joints = list(itertools.product(range(2), repeat=3))
        rewards = np.array([evaluate(g, pure(j, (2, 2, 2)), opp) for j in joints])

        def shared_value(q):
            q = np.asarray(q, dtype=float)[..., None]
            ones = np.array(joints).sum(axis=1)
            return (rewards * q**ones * (1 - q) ** (3 - ones)).sum(axis=-1)

        policy, value = best_response_shared(g, opp, 1)
        assert calls == ["_two_action_poly_max"]
        dist = policy.policy.dist(0)
        assert 0 < dist[1] < 1  # the optimum is interior on this game
        assert value >= shared_value(np.linspace(0.0, 1.0, 10_001)).max()
        assert value == pytest.approx(float(shared_value(dist[1])), abs=1e-12)

    def test_sad_team_of_three_ascent(self, monkeypatch):
        # three members with six actions: the seeded multi-start ascent
        calls = self._counted(monkeypatch, "_ascent_simplex_max")
        g = sad(SadConfig(n_players=3, seek_max=3))
        half = IndividualPolicy(6, {0: np.array([0.5, 0, 0, 0, 0, 0.5])})
        opp = ProductPolicy([half] * 3)
        policy, value = best_response_shared(g, opp, 1, seed=3)
        assert calls == ["_ascent_simplex_max"]
        pure_best = max(
            team_value(g, 1, SharedPolicy(IndividualPolicy.deterministic(6, a), 3), opp)
            for a in range(6)
        )
        assert value >= pure_best
        assert best_response_shared(g, opp, 1, seed=3)[1] == value
        assert value == pytest.approx(team_value(g, 1, policy, opp), abs=1e-12)

    def test_heterogeneous_rejected(self):
        from teameq.core import DimensionError, NormalFormTeamGame

        g = NormalFormTeamGame((2, 1), ((2, 3), (2,)), np.zeros((2, 3, 2)))
        with pytest.raises(DimensionError):
            best_response_shared(g, ProductPolicy.pure((0,), (2,)), 1)


def _expectimax(game, team, opponent, state, steps, team_actions):
    """Best discounted team reward over per-state team actions drawn from
    ``team_actions`` against a deterministic opponent, by recursion on the
    raw callables."""
    if steps == 0:
        return 0.0
    opp_team = 3 - team
    opp = tuple(
        m.pure_action(game.member_obs(opp_team, i, state))
        for i, m in enumerate(opponent.members)
    )
    sign = 1.0 if team == 1 else -1.0
    best = -np.inf
    for acts in team_actions:
        joint = (acts, opp) if team == 1 else (opp, acts)
        tail = sum(
            p * _expectimax(game, team, opponent, s2, steps - 1, team_actions)
            for s2, p in game.transition(state, joint)
        )
        best = max(best, sign * game.reward(state, joint) + game.discount * tail)
    return best


class TestBestResponseSharedStochastic:
    # the shared oracle searches the common actions (a, ..., a), the joint
    # oracle every team joint action
    @pytest.mark.parametrize(
        "horizon, oracle",
        [
            pytest.param(h, o, id=str(h) if o == "shared" else f"{h}-joint")
            for o in ("shared", "joint")
            for h in (2, 3)
        ],
    )
    @pytest.mark.parametrize("team", [1, 2])
    def test_single_atom_is_diagonal_expectimax(self, horizon, oracle, team):
        g = grid_skirmish(SkirmishConfig(3, 3, 2, horizon))
        opp = ProductPolicy([HashPolicy(6, 17), HashPolicy(6, 29)])
        if oracle == "shared":
            policy, value = best_response_shared(g, opp, team)
            team_actions = [(a, a) for a in range(6)]
            assert isinstance(policy, SharedPolicy)
            assert value <= best_response_joint(g, opp, team)[1] + 1e-9
        else:
            policy, value = best_response_joint(g, opp, team)
            team_actions = list(itertools.product(range(6), repeat=2))
        expected = sum(
            p * _expectimax(g, team, opp, s, g.horizon, team_actions) for s, p in g.initial
        )
        assert value == pytest.approx(expected, abs=1e-12)
        assert team_value(g, team, policy, opp) == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("team", [1, 2])
    def test_enumeration_is_best_stationary_table(self, seed, team):
        g = random_stochastic_game(seed=seed)
        opp_a = ProductPolicy([HashPolicy(2, seed), HashPolicy(2, seed + 7)])
        opp_b = SharedPolicy(HashPolicy(2, seed + 3), 2)
        tables = [
            SharedPolicy(IndividualPolicy(2, {s: np.eye(2)[a] for s, a in enumerate(acts)}), 2)
            for acts in itertools.product(range(2), repeat=3)
        ]
        for opponent in (opp_a, [(opp_a, 0.4), (opp_b, 0.6)]):
            policy, value = best_response_shared(g, opponent, team)
            best = max(team_value(g, team, t, opponent) for t in tables)
            assert value == pytest.approx(best, abs=1e-12)
            assert team_value(g, team, policy, opponent) == pytest.approx(value, abs=1e-12)

    def test_enumeration_asks_each_step_once(self):
        # the observation scan expands 3 states x 16 joint actions through
        # the call's step table; every table is then valued through the same
        # table, whose 48 keys hold the 24 the evaluations walk
        g = random_stochastic_game(seed=0)
        calls = []

        def transition(state, joint):
            calls.append((state, joint))
            return g.transition(state, joint)

        counted = dataclasses.replace(g, transition=transition)
        uniform = ProductPolicy([UniformPolicy(2)] * 2)
        hashed = ProductPolicy([HashPolicy(2, 0), HashPolicy(2, 7)])
        for opponent in (uniform, [(uniform, 0.5), (hashed, 0.5)]):
            calls.clear()
            _, value = best_response_shared(counted, opponent, 1)
            assert len(calls) == 48
            assert value == best_response_shared(g, opponent, 1)[1]

    def test_scan_stops_at_the_enumeration_bound(self):
        # with 6 actions the fifth observation makes 6^5 > 4096 tables; the
        # start state and its first four successors show five, so the scan
        # stops after 4 transitions, and the diagonal search asks every step
        # before the last once through the step table the scan filled
        g = grid_skirmish(SkirmishConfig(3, 3, 2, 3))
        calls = []

        def transition(state, joint):
            calls.append((state, joint))
            return g.transition(state, joint)

        counted = dataclasses.replace(g, transition=transition)
        assert len(oracles._reachable_member_obs(counted, 1, EvalConfig(), 6)) == 5
        assert len(calls) == 4
        opp = ProductPolicy([HashPolicy(6, 17), HashPolicy(6, 29)])
        mix = [(opp, 0.5), (ProductPolicy([ConstantPolicy(6, 4)] * 2), 0.5)]
        for opponent, expected in ((opp, 28), (mix, 28)):
            calls.clear()
            _, value = best_response_shared(counted, opponent, 2)
            assert len(calls) == len(set(calls)) == expected
            assert value == best_response_shared(g, opponent, 2)[1]

    @pytest.mark.parametrize("mixture", [False, True])
    def test_partial_observation_refused(self, mixture):
        g = dataclasses.replace(
            grid_skirmish(SkirmishConfig(3, 3, 2, 2)), member_obs=lambda team, m, s: (s, m)
        )
        opp = ProductPolicy([HashPolicy(6, 1), HashPolicy(6, 2)])
        if mixture:
            opp = [(opp, 0.5), (ProductPolicy([ConstantPolicy(6, 4)] * 2), 0.5)]
        with pytest.raises(EvaluationError, match="observe differently"):
            best_response_shared(g, opp, 2)

    def test_stage_free_observations_refused(self):
        # 2^13 tables are too many to enumerate, and the observations carry
        # no step counter, so the best response needs two actions at one state
        g = random_stochastic_game(n_states=13, seed=1)
        opp = ProductPolicy([HashPolicy(2, 1), HashPolicy(2, 2)])
        with pytest.raises(EvaluationError, match="decision stage"):
            best_response_shared(g, opp, 1)


class TestStochasticPasses:
    """Every exact stochastic pass walks the layered graph forward once and
    runs backward induction over what the walk recorded."""

    @pytest.mark.parametrize("run", ["joint", "joint-mixture", "shared", "sebr", "advantage"])
    def test_zero_probability_successors_count_zero(self, run):
        g = grid_skirmish(SkirmishConfig(3, 3, 2, 3))
        padded = dataclasses.replace(
            g, transition=lambda s, j: (*g.transition(s, j), ("never", 0.0))
        )
        opp = ProductPolicy([HashPolicy(6, 17), HashPolicy(6, 29)])
        mix = [(opp, 0.5), (ProductPolicy([ConstantPolicy(6, 4)] * 2), 0.5)]
        start = g.initial[0][0]
        value = {
            "joint": lambda game: best_response_joint(game, opp, 1)[1],
            "joint-mixture": lambda game: best_response_joint(game, mix, 2)[1],
            "shared": lambda game: best_response_shared(game, opp, 2)[1],
            "sebr": lambda game: _checked_value(game, 1, sebr(game, opp, 1, restarts=1), opp),
            "advantage": lambda game: tuple(
                advantage_decompose(game, opp, opp, 1, (4, 4), obs=start)
            ),
        }[run]
        assert value(padded) == value(g)

    def test_advantage_decompose_respects_exact_bound(self):
        # the root alone touches 36 (state, joint action) pairs
        g = grid_skirmish(SkirmishConfig(3, 3, 2, 3))
        opp = ProductPolicy([HashPolicy(6, 1), HashPolicy(6, 2)])
        with pytest.raises(EvaluationError, match="exact budget exceeded"):
            advantage_decompose(
                g, opp, opp, 1, (4, 4), obs=g.initial[0][0], cfg=EvalConfig(exact_bound=10)
            )

    def test_one_callable_call_per_state_and_joint_action(self):
        g = grid_skirmish(SkirmishConfig(3, 3, 2, 3))
        transitions, rewards = [], []

        def transition(state, joint):
            transitions.append((state, joint))
            return g.transition(state, joint)

        def reward(state, joint):
            rewards.append((state, joint))
            return g.reward(state, joint)

        counted = dataclasses.replace(g, transition=transition, reward=reward)
        opp = ProductPolicy([HashPolicy(6, 1), HashPolicy(6, 2)])
        mix = [(opp, 0.5), (ProductPolicy([ConstantPolicy(6, 4)] * 2), 0.5)]
        zeros = ProductPolicy([ConstantPolicy(6, 0)] * 2)
        # single passes ask the game; an iterated oracle asks its step table,
        # which asks the game once per key over all sweeps and rounds; a
        # transition is asked only out of a state before the last step (the
        # skirmish state's first entry is its step)
        passes = [
            (lambda: evaluate(counted, opp, ProductPolicy([UniformPolicy(6)] * 2)), 1764, 288),
            (lambda: best_response_joint(counted, opp, 1), 2232, 288),
            (
                lambda: advantage_decompose(counted, opp, opp, 1, (4, 4), obs=g.initial[0][0]),
                50,
                43,
            ),
            (lambda: best_response_joint(counted, mix, 2), 180, 108),
            (lambda: best_response_individual(counted, mix, 1, zeros), 71, 44),
            (lambda: sebr(counted, opp, 1, restarts=2), 245, 67),
            (lambda: sebr(counted, mix, 2, restarts=2), 143, 83),
        ]
        for run, n_rewards, n_transitions in passes:
            transitions.clear()
            rewards.clear()
            run()
            assert len(rewards) == len(set(rewards)) == n_rewards
            assert len(transitions) == len(set(transitions)) == n_transitions
            assert set(transitions) == {key for key in rewards if key[0][0] < g.horizon - 1}

    @pytest.mark.parametrize("horizon", [1, 2])
    @pytest.mark.parametrize(
        "run", ["evaluate", "joint", "joint-mixture", "sebr", "sebr-mixture", "advantage"]
    )
    def test_no_transition_out_of_the_last_step(self, run, horizon):
        # nothing follows the last step, so no pass asks for its successors
        # rows, down to none at all at H=1; its step rewards are still asked
        # (the skirmish state's first entry is its step; H=3 is counted key
        # by key in test_one_callable_call_per_state_and_joint_action)
        g = grid_skirmish(SkirmishConfig(3, 3, 2, horizon))
        transitions, rewards = [], []

        def transition(state, joint):
            transitions.append(state[0])
            return g.transition(state, joint)

        def reward(state, joint):
            rewards.append(state[0])
            return g.reward(state, joint)

        counted = dataclasses.replace(g, transition=transition, reward=reward)
        opp = ProductPolicy([HashPolicy(6, 3), HashPolicy(6, 4)])
        mix = [(opp, 0.5), (ProductPolicy([UniformPolicy(6), ConstantPolicy(6, 2)]), 0.5)]
        {
            "evaluate": lambda: evaluate(counted, opp, ProductPolicy([UniformPolicy(6)] * 2)),
            "joint": lambda: best_response_joint(counted, opp, 1),
            "joint-mixture": lambda: best_response_joint(counted, mix, 2),
            "sebr": lambda: sebr(counted, opp, 1, restarts=1),
            "sebr-mixture": lambda: sebr(counted, mix, 2, restarts=1),
            "advantage": lambda: advantage_decompose(
                counted, opp, opp, 1, (4, 4), obs=g.initial[0][0]
            ),
        }[run]()
        assert set(transitions) == set(range(g.horizon - 1))
        assert set(rewards) == set(range(g.horizon))

    def test_greedy_rows_before_and_at_the_last_step(self):
        # random_stochastic_game's state does not carry the step, so the
        # greedy's lookahead meets one state at several steps; the pinned
        # values are the ones computed when every row carried its successors
        pinned = {
            (0, 1): 1.0678445281222317,
            (0, 2): 1.4274529281596604,
            (1, 1): 2.2225029541423797,
            (1, 2): 1.2661515157671814,
        }
        for (seed, team), expected in pinned.items():
            g = random_stochastic_game(horizon=3, seed=seed)
            atom = ProductPolicy([HashPolicy(2, seed), HashPolicy(2, seed + 9)])
            mix = [(atom, 0.5), (ProductPolicy([ConstantPolicy(2, 1)] * 2), 0.5)]
            assert best_response_joint(g, mix, team)[1] == expected
        # one start state and each row cut to its likeliest successor: a
        # state the start policy first reaches at the last step is reached
        # before it by a later candidate, whose lookahead must not read the
        # last step's rows there (team 2 reads 1.0687731862546412 if it does)
        g = random_stochastic_game(n_states=4, horizon=3, seed=18)
        calls = []

        def transition(state, joint):
            calls.append((state, joint))
            row = g.transition(state, joint)
            return ((max(row, key=lambda entry: entry[1])[0], 1.0),)

        revisiting = dataclasses.replace(g, initial=((0, 1.0),), transition=transition)
        atom = ProductPolicy([HashPolicy(2, 18), HashPolicy(2, 27)])
        mix = [(atom, 0.5), (ProductPolicy([ConstantPolicy(2, 1)] * 2), 0.5)]
        for team, expected, asked in ((1, 0.798964594786429, 12), (2, 0.8873997775330039, 20)):
            calls.clear()
            assert best_response_joint(revisiting, mix, team)[1] == expected
            assert len(calls) == asked

    def test_exact_response_refuses_conflicting_observations(self):
        # the exact response walks each layer in first-reached order; a game
        # whose observations cannot carry its tables still raises, with
        # either message
        g = random_stochastic_game(horizon=3, seed=0)
        atom = ProductPolicy([HashPolicy(2, 0), HashPolicy(2, 9)])
        with pytest.raises(oracles.ExactBRUnsupported, match="decision stage"):
            best_response_joint(g, atom, 1)
        partial = dataclasses.replace(
            grid_skirmish(SkirmishConfig(3, 3, 2, 2)), member_obs=lambda team, m, s: (s, m)
        )
        opp = ProductPolicy([HashPolicy(6, 1), HashPolicy(6, 2)])
        diagonal = [(a, a) for a in range(6)]
        with pytest.raises(oracles.ExactBRUnsupported, match="observe differently"):
            oracles._unit_best_response_exact(
                partial, 2, (0, 1), (ConstantPolicy(6, 0),) * 2, opp, EvalConfig(), diagonal
            )

    def test_greedy_keeps_its_lookahead_rows_for_the_call(self, monkeypatch):
        # the unit is free in the lookahead's rows, so each (atom, state)'s
        # joint actions are listed once however many rounds the greedy runs
        game, states = _acting_states(4)
        mix = [
            (ProductPolicy([HashPolicy(6, 120 + i), HashPolicy(6, 121 + i)]), 0.5) for i in (0, 1)
        ]
        zeros = (ConstantPolicy(6, 0), ConstantPolicy(6, 0))
        asked, rounds = [], [0]
        joint_support, backward = oracles._joint_support, oracles._backward

        def counted_support(game, team, members, opponent, state, *args, **kwargs):
            asked.append((id(opponent), state))
            return joint_support(game, team, members, opponent, state, *args, **kwargs)

        def counted_backward(*args, **kwargs):
            rounds[0] += 1
            return backward(*args, **kwargs)

        monkeypatch.setattr(oracles, "_joint_support", counted_support)
        monkeypatch.setattr(oracles, "_backward", counted_backward)
        tables, value, fixed = oracles._unit_improve_weighted(
            game, 1, (0, 1), zeros, mix, EvalConfig()
        )
        assert rounds[0] == 6 * len(mix)
        assert len(asked) == len(set(asked)) > 0
        assert (value, fixed) == (2.709875, True)
        assert _actions_digest(game, 1, ProductPolicy(tables), states) == "112890a05693cc3b"

    @pytest.fixture
    def walks(self, monkeypatch):
        """The number of `_profile_value` passes the oracles make."""
        count = [0]
        real = oracles._profile_value

        def counted(*args, **kwargs):
            count[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(oracles, "_profile_value", counted)
        return count

    def test_greedy_does_not_walk_a_play_identical_candidate(self, walks):
        # from its own result the greedy's first candidate plays the current
        # tables at every key it scores: only the start walks are made
        game, _ = _acting_states(4)
        mix = [
            (ProductPolicy([HashPolicy(6, 120 + i), HashPolicy(6, 121 + i)]), 0.5) for i in (0, 1)
        ]
        zeros = (ConstantPolicy(6, 0), ConstantPolicy(6, 0))
        tables, value, fixed = oracles._unit_improve_weighted(
            game, 1, (0, 1), zeros, mix, EvalConfig()
        )
        assert (value, fixed) == (2.709875, True)
        walks[0] = 0
        again, again_value, again_fixed = oracles._unit_improve_weighted(
            game, 1, (0, 1), tuple(tables), mix, EvalConfig(), value=value
        )
        assert walks[0] == len(mix)
        assert all(a is b for a, b in zip(again, tables))
        assert (again_value, again_fixed) == (value, True)

    def test_greedy_starts_from_the_walks_of_the_previous_update(self, walks):
        # member 1's update starts from the walks member 0's update kept on
        # the shared step table: one walk per atom fewer than a fresh table,
        # with the same result
        game, states = _acting_states(4)
        mix = [
            (ProductPolicy([HashPolicy(6, 130 + i), HashPolicy(6, 131 + i)]), 0.5) for i in (0, 1)
        ]
        start = (HashPolicy(6, 7), HashPolicy(6, 8))
        steps = _StepTable(game, mix)
        first, value, _ = oracles._unit_improve_weighted(
            game, 2, (0,), start, mix, EvalConfig(), steps=steps
        )
        members = (first[0], start[1])
        results = []
        for table in (steps, _StepTable(game, mix)):
            walks[0] = 0
            tables, got, fixed = oracles._unit_improve_weighted(
                game, 2, (1,), members, mix, EvalConfig(), value=value, steps=table
            )
            digest = _actions_digest(game, 2, ProductPolicy(tables), states)
            results.append((walks[0], got, fixed, digest))
        (kept, *same), (fresh, *fresh_same) = results
        assert kept == fresh - len(mix) and same == fresh_same

    def test_greedy_lookahead_asks_a_successors_row_before_its_reward(self):
        # a pair the lookahead alone reaches, malformed twice: the row's
        # error is the one raised
        g = grid_skirmish(SkirmishConfig(3, 3, 2, 3))
        bad = (5, 5)
        malformed = dataclasses.replace(
            g,
            transition=lambda s, j: ((s, 2.0),) if j[0] == bad else g.transition(s, j),
            reward=lambda s, j: 1e9 if j[0] == bad else g.reward(s, j),
        )
        mix = [
            (ProductPolicy([HashPolicy(6, 120 + i), HashPolicy(6, 121 + i)]), 0.5) for i in (0, 1)
        ]
        with pytest.raises(ValueError, match="transition row"):
            best_response_joint(malformed, mix, 1)

    def test_step_table_lives_for_one_call(self):
        g = grid_skirmish(SkirmishConfig(3, 3, 2, 3))
        calls = [0]

        def transition(state, joint):
            calls[0] += 1
            return g.transition(state, joint)

        counted = dataclasses.replace(g, transition=transition)
        opp = ProductPolicy([HashPolicy(6, 1), HashPolicy(6, 2)])
        mix = [(opp, 0.5), (ProductPolicy([ConstantPolicy(6, 4)] * 2), 0.5)]
        for run in (lambda: sebr(counted, opp, 1, restarts=2), lambda: sebr(counted, mix, 2)):
            calls[0] = 0
            value = run()[1]
            once = calls[0]
            assert run()[1] == value
            assert calls[0] == 2 * once > 0


class TestSharedMaxminGrid:
    def test_example1_shared_worst_case(self):
        # max_q min over opponent pure joints of min(1-3q+4q^2, 2-3q, 3-3q, 4-3q)
        g = example1()
        q, value = shared_maxmin_grid(g, 1, points=10001)
        assert q == pytest.approx(0.0, abs=1e-4)
        assert value == pytest.approx(1.0, abs=1e-4)


class TestAdvantageDecompose:
    def test_greedy_action_zero_terms(self):
        g = example1()
        p1, p2 = pure((1, 0)), pure((0, 1))
        terms = advantage_decompose(g, p1, p2, 1, (1, 0))
        assert np.allclose(terms, 0.0, atol=1e-15)

    def test_example1_uniform_profile(self):
        # joint advantage of (1,1): E[R1 | (1,1)] - E[R1] with the mean
        # enumerated over the four outcomes against team-2 (0,0)
        g = example1()
        uniform = ProductPolicy([IndividualPolicy.uniform(2)] * 2)
        zeros = pure((0, 0))
        outcomes = [evaluate(g, pure(a), zeros) for a in [(0, 0), (0, 1), (1, 0), (1, 1)]]
        expected = outcomes[3] - np.mean(outcomes)
        terms = advantage_decompose(g, uniform, zeros, 1, (1, 1))
        assert terms.sum() == pytest.approx(expected, abs=1e-12)

    def test_sum_identity_random_normal_form(self):
        rng = np.random.default_rng(5)
        for seed in range(50):
            g = random_team_game((2, 2), ((2, 2), (2, 2)), seed=seed)
            p1 = ProductPolicy([IndividualPolicy(2, {0: rng.dirichlet((1, 1))}) for _ in range(2)])
            p2 = ProductPolicy([IndividualPolicy(2, {0: rng.dirichlet((1, 1))}) for _ in range(2)])
            action = (int(rng.integers(2)), int(rng.integers(2)))
            order = (0, 1) if rng.uniform() < 0.5 else (1, 0)
            terms = advantage_decompose(g, p1, p2, 1, action, order=order)
            # independent joint advantage: Q(a) - V by direct enumeration
            q_a = evaluate(g, pure(action), p2)
            v = evaluate(g, p1, p2)
            assert abs(terms.sum() - (q_a - v)) <= 1e-12

    def test_sum_identity_stochastic(self):
        for seed in range(5):
            g = random_stochastic_game(n_states=3, horizon=3, seed=seed)
            rng = np.random.default_rng(seed)
            p1 = ProductPolicy(
                [IndividualPolicy(2, {s: rng.dirichlet((1, 1)) for s in range(3)}) for _ in range(2)]
            )
            p2 = ProductPolicy(
                [IndividualPolicy(2, {s: rng.dirichlet((1, 1)) for s in range(3)}) for _ in range(2)]
            )
            terms = advantage_decompose(g, p1, p2, 1, (1, 0), obs=0)
            from teameq.oracles import _stochastic_q_tensor

            tensor = _stochastic_q_tensor(g, 1, p1.members, p2, 0, EvalConfig())
            dists = [m.dist(0) for m in p1.members]
            joint_adv = tensor[1, 0] - float(dists[0] @ tensor @ dists[1])
            assert abs(terms.sum() - joint_adv) <= 1e-12

    def test_team2_direction(self):
        g = example1()
        terms = advantage_decompose(g, pure((0, 0)), pure((0, 0)), 2, (1, 0))
        # for team 2, reward is negated: col (1,0) pays R1=3 -> R2=-3, adv -2
        assert terms.sum() == pytest.approx(-2.0, abs=1e-12)


class TestSebr:
    def test_anti_coordination_reaches_heterogeneous(self):
        g = anti_coordination()
        policy, value = sebr(g, pure((0, 0)), 1, start=pure((0, 0)), restarts=0)
        joint = policy.pure_joint_action([0, 0])
        assert joint in ((0, 1), (1, 0))
        assert evaluate(g, policy, pure((0, 0))) == 1.0
        assert value == team_value(g, 1, policy, pure((0, 0)))

    def test_example1_local_optimum(self):
        g = example1()
        policy, value = sebr(g, pure((0, 0)), 1, start=pure((0, 0)), restarts=0)
        assert policy.pure_joint_action([0, 0]) == (0, 0)
        assert value == team_value(g, 1, policy, pure((0, 0)))

    def test_example1_restarts_escape(self):
        g = example1()
        policy, value = sebr(g, pure((0, 0)), 1, start=pure((0, 0)), restarts=4)
        assert policy.pure_joint_action([0, 0]) == (1, 1)
        assert value == team_value(g, 1, policy, pure((0, 0)))

    def test_per_update_monotonicity_normal_form(self):
        for seed in range(30):
            g = random_team_game((2, 2), ((2, 2), (2, 2)), seed=seed)
            opp = ProductPolicy([HashPolicy(2, seed), HashPolicy(2, seed + 1)])
            trace = []
            sebr(g, opp, 1, restarts=2, seed=seed, trace=trace)
            for _, _, _, before, after in trace:
                assert after >= before - 1e-9

    def test_per_update_monotonicity_skirmish(self):
        g = grid_skirmish(SkirmishConfig(3, 3, 2, horizon=3))
        opp = ProductPolicy([HashPolicy(6, 11), HashPolicy(6, 12)])
        trace = []
        sebr(g, opp, 1, restarts=1, seed=0, trace=trace, cfg=EvalConfig(exact_bound=10**7), max_sweeps=5)
        assert trace, "no updates traced"
        for _, _, _, before, after in trace:
            assert after >= before - 1e-9

    def test_deterministic(self):
        g = random_team_game((2, 2), ((3, 3), (3, 3)), seed=9)
        opp = pure((1, 2), (3, 3))
        a, value_a = sebr(g, opp, 1, restarts=4, seed=3)
        b, value_b = sebr(g, opp, 1, restarts=4, seed=3)
        assert a.pure_joint_action([0, 0]) == b.pure_joint_action([0, 0])
        assert value_a == value_b == team_value(g, 1, a, opp)

    def test_mixture_opponent(self):
        g = example1()
        mix = [(pure((0, 0)), 0.5), (pure((0, 1)), 0.5)]
        policy, returned = sebr(g, mix, 1, restarts=4, seed=0)
        value = team_value(g, 1, policy, mix)
        assert returned == value
        # exhaustive check over pure products
        best = max(
            team_value(g, 1, pure(j), mix) for j in g.joint_actions(1)
        )
        assert value == pytest.approx(best, abs=1e-12)


class TestDominanceOrdering:
    def test_joint_dominates_restricted_oracles(self):
        for seed in range(15):
            g = random_team_game((2, 2), ((2, 2), (2, 2)), seed=100 + seed)
            opp = ProductPolicy([HashPolicy(2, seed + 5), HashPolicy(2, seed + 6)])
            _, v_joint = best_response_joint(g, opp, 1)
            _, v_shared = best_response_shared(g, opp, 1)
            indiv, returned_indiv = best_response_individual(g, opp, 1, pure((0, 0)))
            v_indiv = evaluate(g, indiv, opp)
            assert returned_indiv == team_value(g, 1, indiv, opp)
            seq, returned_seq = sebr(g, opp, 1, restarts=2, seed=seed)
            v_seq = evaluate(g, seq, opp)
            assert returned_seq == team_value(g, 1, seq, opp)
            assert v_joint >= v_seq - 1e-9
            assert v_joint >= v_shared - 1e-9
            assert v_joint >= v_indiv - 1e-9


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


@functools.cache
def _acting_states(horizon):
    """Skirmish 3x3 2v2 states reachable under any play at steps 0 to H-1."""
    game = grid_skirmish(SkirmishConfig(3, 3, 2, horizon))
    joints = list(itertools.product(itertools.product(range(6), repeat=2), repeat=2))
    layer = [s for s, _ in game.initial]
    seen = list(layer)
    for _ in range(game.horizon - 1):
        reached = {s2: None for s in layer for j in joints for s2, _ in game.transition(s, j)}
        layer = [s for s in reached if s not in set(seen)]
        seen += layer
    return game, seen


def _actions_digest(game, team, policy, states) -> str:
    """Digest of the actions ``policy`` plays at every one of ``states``."""
    return _digest([
        tuple(m.pure_action(o) for m, o in zip(policy.members, game.member_observations(team, s)))
        for s in states
    ])


_SETTLE_ATOM = ProductPolicy([HashPolicy(6, 1), HashPolicy(6, 2)])
_SETTLE_OPPONENTS = {
    "atom": _SETTLE_ATOM,
    "mix": [
        (_SETTLE_ATOM, 0.5),
        (ProductPolicy([ConstantPolicy(6, 4), UniformPolicy(6)]), 0.5),
    ],
}


class TestSettledMembers:
    """A member whose update is provably a fixed point is settled, and its
    update is skipped until a teammate switches.  The results and traces
    equal those of running every update: the pinned values, digests and
    update counts were recorded with every update run."""

    @pytest.fixture
    def updates(self, monkeypatch):
        """The (changed, settled) flags of every `_member_update` call."""
        flags = []
        real = oracles._member_update

        def counted(*args, **kwargs):
            out = real(*args, **kwargs)
            flags.append(out[1::2])
            return out

        monkeypatch.setattr(oracles, "_member_update", counted)
        return flags

    @pytest.mark.parametrize(
        "opponent, team, value, entries, actions, trace_digest",
        [
            ("atom", 1, 1.8525, 8, "c158a0cf1cd83d2d", "6617cbfad2ce60ae"),
            ("atom", 2, 2.755, 10, "e905c1bd3666c28e", "545c17595084ff5e"),
            ("mix", 1, 0.6112326388888889, 10, "a352e7a5c11aeba4", "4d2e134c6ac8a75d"),
            ("mix", 2, 1.6718460648148143, 10, "482070d0ebbd4881", "e725b86f16e1786a"),
        ],
    )
    def test_sebr_skirmish(self, updates, opponent, team, value, entries, actions, trace_digest):
        game, states = _acting_states(3)
        trace = []
        policy, got = sebr(game, _SETTLE_OPPONENTS[opponent], team, restarts=2, seed=3, trace=trace)
        assert got == value
        assert len(trace) == entries and _digest(trace) == trace_digest
        assert _actions_digest(game, team, policy, states) == actions
        # every update runs but the skipped ones, each traced as unchanged
        assert len(updates) < len(trace)

    @pytest.mark.parametrize(
        "opponent, team, value, every_update, actions",
        [
            ("atom", 1, 1.805, 4, "3e65d15dfa6ae87c"),
            ("atom", 2, 2.755, 4, "720177757b15ac1c"),
            ("mix", 1, 0.48896412037037035, 6, "c1ef424f826e9941"),
            ("mix", 2, 2.5711574074074073, 6, "003c625f2f3d5f99"),
        ],
    )
    def test_individual_skirmish(self, updates, opponent, team, value, every_update, actions):
        game, states = _acting_states(3)
        zeros = ProductPolicy([ConstantPolicy(6, 0)] * 2)
        policy, got = best_response_individual(game, _SETTLE_OPPONENTS[opponent], team, zeros)
        assert got == value
        assert _actions_digest(game, team, policy, states) == actions
        assert len(updates) < every_update

    def test_greedy_at_its_rounds_cap_is_not_settled(self, updates, monkeypatch):
        # a greedy cut by its rounds cap may improve further when run again
        monkeypatch.setattr(oracles, "GREEDY_ROUNDS", 1)
        game, states = _acting_states(3)
        for team, value, entries, actions, trace_digest in (
            (1, 0.6112326388888889, 14, "a352e7a5c11aeba4", "cc516859822a8b24"),
            (2, 1.7136284722222217, 12, "c1c429615fc06e8e", "2d8a6bbcef39777b"),
        ):
            updates.clear()
            trace = []
            policy, got = sebr(game, _SETTLE_OPPONENTS["mix"], team, restarts=2, seed=3, trace=trace)
            assert got == value
            assert len(trace) == entries and _digest(trace) == trace_digest
            assert _actions_digest(game, team, policy, states) == actions
            assert (True, False) in updates

    def test_dp_switch_above_its_evaluation_is_not_settled(self, updates):
        # at this reward scale member 1's DP value, 63.78300000000001, reads
        # one ulp above the evaluated 63.783; that is round-off within the
        # relative slack, so the switch settles and the ascent stops after
        # sweep 1 instead of switching to an equivalent table every sweep
        g = grid_skirmish(SkirmishConfig(3, 3, 2, 3, damage=37.3, discount=0.9))
        opp = ProductPolicy([HashPolicy(6, 0), HashPolicy(6, 100)])
        trace = []
        _, value = sebr(g, opp, 1, restarts=0, max_sweeps=4, trace=trace)
        assert value == 63.783
        assert trace == [
            (0, 0, 0, 0.0, 30.213), (0, 0, 1, 30.213, 63.783),
            (0, 1, 0, 63.783, 63.783), (0, 1, 1, 63.783, 63.783),
        ]
        # member 1 is skipped in sweep 1: its DP switch settled it
        assert updates == [(True, True), (True, True), (False, True)]

    @pytest.mark.parametrize("opponent, value", [((0, 0), 1.0), ((0, 1), 0.0)])
    def test_sebr_anti_coordination(self, updates, opponent, value):
        # every pure start; closed-form switches settle at once
        g = anti_coordination()
        trace = []
        policy, got = sebr(g, pure(opponent), 1, restarts=4, seed=0, trace=trace)
        assert got == value
        assert policy.pure_joint_action([0, 0]) == (1, 0)
        low = value - 1.0
        assert trace == [
            (0, 0, 0, low, value), (0, 0, 1, value, value),
            (0, 1, 0, value, value), (0, 1, 1, value, value),
            (1, 0, 0, value, value), (1, 0, 1, value, value),
            (2, 0, 0, value, value), (2, 0, 1, value, value),
            (3, 0, 0, low, value), (3, 0, 1, value, value),
            (3, 1, 0, value, value), (3, 1, 1, value, value),
        ]
        assert len(updates) == 8 < len(trace)
