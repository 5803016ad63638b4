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

from helpers import kkt_system, lp_maxmin, quadratic_simplex_max_loop, shared_maxmin_grid
from teameq.core import (
    NF_OBS,
    ConstantPolicy,
    DimensionError,
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
from teameq.evaluation import Candidate, exploitability_profile
from teameq.oracles import (
    MaxminConvergenceError,
    MaxminSolution,
    advantage_decompose,
    best_response_individual,
    best_response_joint,
    best_response_shared,
    sebr,
    solve_matrix_maxmin,
    subseed,
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
    """An oracle's `BestResponse` reduced to its value, after checking it
    against an evaluation of the policy."""
    assert result.value == team_value(game, team, result.policy, opponent)
    return result.value


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

    @pytest.mark.parametrize("matrix", [[[1e308, -1e308]], [[1.7e308], [-1.7e308]]])
    def test_an_overflowing_payoff_range_is_refused(self, matrix):
        # its tolerance would be infinite, switching the certificate off
        with pytest.raises(ValueError, match="payoff range"):
            solve_matrix_maxmin(matrix)

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

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, np.nan, np.inf])
    def test_tolerance_that_switches_off_the_certificate_is_refused(self, tol):
        with pytest.raises(ValueError, match="tol"):
            solve_matrix_maxmin([[1.0, -1.0], [-1.0, 1.0]], tol=tol)

    def test_zero_tolerance_is_accepted(self):
        # a pure saddle point certifies with no round-off
        sol = solve_matrix_maxmin([[2.0, 1.0], [0.0, -1.0]], tol=0.0)
        assert sol.value == 1.0 and sol.gap == 0.0

    def test_negative_pivot_cap_is_refused(self):
        with pytest.raises(ValueError, match="max_iterations"):
            solve_matrix_maxmin([[1.0]], max_iterations=-1)

    @pytest.mark.parametrize(
        "row_mix,value,gap",
        [
            ([np.nan, 1.0], 0.0, 0.0),
            ([np.nan], 0.0, 0.0),
            ([1.0], np.nan, 0.0),
            ([1.0], 0.0, np.nan),
            ([1.0], np.inf, 0.0),
            ([1.0], 0.0, np.inf),
        ],
    )
    def test_solution_refuses_nan_and_non_finite_numbers(self, row_mix, value, gap):
        with pytest.raises(ValueError):
            MaxminSolution(np.array(row_mix), np.array([1.0]), value, gap)

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
        answer = best_response_joint(g, pure((0, 0)), 1)
        br, value = answer.policy, answer.value
        assert br.atoms == ((1, 1),) and value == 2.0

    def test_example1_vs_01(self):
        g = example1()
        answer = best_response_joint(g, pure((0, 1)), 1)
        br, value = answer.policy, answer.value
        assert br.atoms == ((0, 0),) and value == 2.0

    def test_lexicographic_tie_break(self):
        g = anti_coordination()
        answer = best_response_joint(g, pure((0, 0)), 1)
        br, value = answer.policy, answer.value
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
                answer = best_response_joint(g, opponent, team, dists=kept)
                br, value = answer.policy, answer.value
                assert br.atoms == (g.joint_actions(team)[first],)
                assert value == values[first]
            with pytest.raises(ValueError, match="distributions"):
                best_response_joint(g, opponent, team, dists=dists[:1])


class TestBestResponseIndividual:
    def test_stuck_at_zeros(self):
        # unilateral moves from (0,0) lose: -1 and 0 against value 1
        g = example1()
        answer = best_response_individual(g, pure((0, 0)), 1, pure((0, 0)))
        result, value = answer.policy, answer.value
        assert result.pure_joint_action([0, 0]) == (0, 0)
        assert evaluate(g, result, pure((0, 0))) == 1.0
        assert value == team_value(g, 1, result, pure((0, 0)))

    def test_stays_at_bonus(self):
        g = example1()
        answer = best_response_individual(g, pure((0, 0)), 1, pure((1, 1)))
        result, value = answer.policy, answer.value
        assert result.pure_joint_action([0, 0]) == (1, 1)
        assert value == team_value(g, 1, result, pure((0, 0)))

    def test_joint_mix_start_is_its_top_atom(self):
        g = example1()
        start = JointMixPolicy(((0, 0), (1, 1)), (0.25, 0.75))
        answer = best_response_individual(g, pure((0, 0)), 1, start)
        result, value = answer.policy, answer.value
        assert result.pure_joint_action([0, 0]) == (1, 1)
        assert value == team_value(g, 1, result, pure((0, 0)))

    def test_zero_sweeps_noop(self):
        g = example1()
        start = pure((0, 1))
        answer = best_response_individual(g, pure((0, 0)), 1, start, sweeps=0)
        result, value = answer.policy, answer.value
        assert result.pure_joint_action([0, 0]) == (0, 1)
        assert value == team_value(g, 1, result, pure((0, 0)))

    def test_negative_sweeps_are_refused(self):
        # an error, not a run of no sweeps (0.0 here, against 2.0)
        g = example1()
        with pytest.raises(ValueError, match="nonnegative"):
            best_response_individual(g, pure((0, 0)), 1, pure((0, 1)), sweeps=-1)

    def test_value_never_decreases(self):
        for seed in range(20):
            g = random_team_game((2, 2), ((3, 3), (3, 3)), seed=seed)
            opp = pure((seed % 3, (seed + 1) % 3), (3, 3))
            start = pure((0, 0), (3, 3))
            v0 = evaluate(g, start, opp)
            answer = best_response_individual(g, opp, 1, start)
            result, value = answer.policy, answer.value
            assert evaluate(g, result, opp) >= v0 - 1e-12
            assert value == team_value(g, 1, result, opp)


class TestBestResponseShared:
    def test_example1_vs_01(self):
        # E[reward] = 2 - 3q, maximized at q = 0
        g = example1()
        answer = best_response_shared(g, pure((0, 1)), 1)
        policy, value = answer.policy, answer.value
        assert value == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(policy.policy.dist(0), [1.0, 0.0])

    def test_example1_vs_zeros(self):
        # E[reward] = 1 - 3q + 4q^2, maximized at q = 1
        g = example1()
        answer = best_response_shared(g, pure((0, 0)), 1)
        policy, value = answer.policy, answer.value
        assert value == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(policy.policy.dist(0), [0.0, 1.0])

    def test_anti_coordination_interior(self):
        # 2q(1-q) maximized at q = 0.5 with value 0.5
        g = anti_coordination()
        answer = best_response_shared(g, pure((0, 0)), 1)
        policy, value = answer.policy, answer.value
        assert value == pytest.approx(0.5, abs=1e-9)
        assert np.allclose(policy.policy.dist(0), [0.5, 0.5], atol=1e-9)

    def test_mixed_only_improves(self):
        rng = np.random.default_rng(4)
        for seed in range(20):
            g = random_team_game((2, 2), ((3, 3), (3, 3)), seed=seed)
            opp = pure((rng.integers(3), rng.integers(3)), (3, 3))
            value = best_response_shared(g, opp, 1).value
            pure_best = max(
                evaluate(g, pure((a, a), (3, 3)), opp) for a in range(3)
            )
            assert value >= pure_best - 1e-12

    def test_two_action_team_of_three_beats_the_q_grid(self):
        g = random_team_game((3, 3), ((2, 2, 2), (2, 2, 2)), seed=3)
        opp = pure((0, 0, 0), (2, 2, 2))
        joints = list(itertools.product(range(2), repeat=3))
        rewards = np.array([evaluate(g, pure(j, (2, 2, 2)), opp) for j in joints])

        def shared_value(q):
            q = np.asarray(q, dtype=float)[..., None]
            ones = np.array(joints).sum(axis=1)
            return (rewards * q**ones * (1 - q) ** (3 - ones)).sum(axis=-1)

        answer = best_response_shared(g, opp, 1)
        policy, value = answer.policy, answer.value
        _, _, gap = oracles._bernstein_simplex_max(
            oracles.team_reward_tensor(g, 1, opp), oracles._slack(g)
        )
        dist = policy.policy.dist(0)
        assert 0 < dist[1] < 1  # the optimum is interior on this game
        assert value >= shared_value(np.linspace(0.0, 1.0, 10_001)).max() - gap
        assert value == pytest.approx(float(shared_value(dist[1])), abs=1e-12)

    def test_sad_team_of_three_is_certified(self):
        # three members with six actions: certified to the search's tolerance
        g = sad(SadConfig(n_players=3, seek_max=3))
        half = IndividualPolicy(6, {0: np.array([0.5, 0, 0, 0, 0, 0.5])})
        opp = ProductPolicy([half] * 3)
        answer = best_response_shared(g, opp, 1)
        policy, value = answer.policy, answer.value
        tensor = oracles.team_reward_tensor(g, 1, opp)
        _, _, gap = oracles._bernstein_simplex_max(tensor, oracles._slack(g))
        assert gap <= oracles._slack(g)
        pure_best = max(
            team_value(g, 1, SharedPolicy(ConstantPolicy(6, a), 3), opp)
            for a in range(6)
        )
        assert value >= pure_best
        assert best_response_shared(g, opp, 1).value == value
        assert value == pytest.approx(team_value(g, 1, policy, opp), abs=1e-12)

    def test_no_sampled_shared_mix_beats_the_certified_value(self):
        # member axes that are not symmetric: T(p, ..., p)'s gradient is not
        # a multiple of T's derivative in one member's slot
        rng = np.random.default_rng(21)
        for n_members, n_actions in itertools.product((3, 4), (3, 4)):
            axes = [[n_members, m] for m in range(n_members)]
            for _ in range(8):
                tensor = rng.uniform(-1.0, 1.0, (n_actions,) * n_members)
                slack = oracles._slack(tensor)
                p, value, gap = oracles._bernstein_simplex_max(tensor, slack)
                assert gap <= slack
                mixes = rng.dirichlet(np.ones(n_actions), 2000)
                operands = [x for axis in axes for x in (mixes, axis)]
                sampled = np.einsum(tensor, list(range(n_members)), *operands, [n_members])
                assert sampled.max() <= value + gap + 1e-12
                assert value == oracles._shared_value(tensor, p)

    def test_node_cap_returns_the_best_corner_and_its_gap(self, monkeypatch):
        tensor = np.random.default_rng(2).uniform(-1.0, 1.0, (3, 3, 3))
        slack = oracles._slack(tensor)
        _, certified, _ = oracles._bernstein_simplex_max(tensor, slack)
        monkeypatch.setattr(oracles, "_BERNSTEIN_NODE_CAP", 3)
        p, value, gap = oracles._bernstein_simplex_max(tensor, slack)
        assert gap > 1e-9  # three splits do not certify this tensor
        assert value == oracles._shared_value(tensor, p)
        assert value <= certified <= value + gap

    @pytest.mark.parametrize("stack", [oracles._KKT_STACK, 7])
    @settings(derandomize=True, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), integer=st.booleans())
    def test_kkt_stacks_match_the_per_support_loop(self, stack, n, seed, integer):
        # small-integer matrices make many singular KKT systems; a stack of
        # 7 splits every support size with more than 7 supports
        rng = np.random.default_rng(seed)
        if integer:
            q = rng.integers(-2, 3, (n, n)).astype(float)
        else:
            q = rng.uniform(-1.0, 1.0, (n, n))
        slack = oracles._slack(q)
        p_loop, value_loop, _ = quadratic_simplex_max_loop(q, slack)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracles, "_KKT_STACK", stack)
            p, value, gap = oracles._quadratic_simplex_max(q, slack)
        assert p.tobytes() == p_loop.tobytes()
        assert np.float64(value).tobytes() == np.float64(value_loop).tobytes()
        assert gap == 0.0

    @pytest.mark.parametrize("stack", [oracles._KKT_STACK, 1])
    def test_kkt_tie_keeps_the_first_support(self, stack, monkeypatch):
        # supports {0, 1} and {2, 3} both reach 0.5; combinations order
        # meets {0, 1} first
        q = np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]])
        monkeypatch.setattr(oracles, "_KKT_STACK", stack)
        p, value, _ = oracles._quadratic_simplex_max(q, oracles._slack(q))
        assert p.tolist() == [0.5, 0.5, 0.0, 0.0]
        assert value == 0.5

    def test_the_slogdet_screen_is_where_solve_raises(self):
        rng = np.random.default_rng(5)
        raised_seen = set()
        for n in (2, 3, 4, 5, 6) * 6:
            q = rng.integers(-1, 2, (n, n)).astype(float)
            sym = q + q.T
            for size in range(2, n + 1):
                lhs = np.stack([kkt_system(sym, s) for s in itertools.combinations(range(n), size)])
                for system, sign in zip(lhs, np.linalg.slogdet(lhs)[0]):
                    try:
                        np.linalg.solve(system, np.eye(size + 1)[size])
                        raised = False
                    except np.linalg.LinAlgError:
                        raised = True
                    assert (sign == 0) == raised
                    raised_seen.add(raised)
        assert raised_seen == {False, True}

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
            answer = best_response_shared(g, opp, team)
            policy, value = answer.policy, answer.value
            team_actions = [(a, a) for a in range(6)]
            assert isinstance(policy, SharedPolicy)
            assert value <= best_response_joint(g, opp, team).value + 1e-9
        else:
            answer = best_response_joint(g, opp, team)
            policy, value = answer.policy, answer.value
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
            answer = best_response_shared(g, opponent, team)
            policy, value = answer.policy, answer.value
            best = max(team_value(g, team, t, opponent) for t in tables)
            assert value == pytest.approx(best, abs=1e-12)
            assert team_value(g, team, policy, opponent) == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("team", [1, 2])
    def test_members_observing_differently_enumerate(self, team):
        # one table can split members who observe differently, so the
        # search enumerates over what any unit play reaches: every table
        # over the 6 (state, member) observations
        g = dataclasses.replace(
            random_stochastic_game(horizon=2, seed=0), member_obs=lambda team, m, s: (s, m)
        )
        obs = [(s, m) for s in range(3) for m in range(2)]
        opp = ProductPolicy([HashPolicy(2, 0), HashPolicy(2, 7)])
        for opponent in (opp, [(opp, 0.4), (SharedPolicy(HashPolicy(2, 3), 2), 0.6)]):
            value = best_response_shared(g, opponent, team).value
            tables = [
                SharedPolicy(IndividualPolicy.from_actions(2, dict(zip(obs, acts))), 2)
                for acts in itertools.product(range(2), repeat=len(obs))
            ]
            best = max(team_value(g, team, t, opponent) for t in tables)
            assert value == best

    def test_enumeration_asks_each_step_once(self):
        # the domain walk, with the team free over its diagonal, asks 3
        # states x 2 shared actions x 4 opponent joint actions through the
        # call's step table; every table is then valued through the same
        # table, whose 24 keys hold those the evaluations walk
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
            value = best_response_shared(counted, opponent, 1).value
            assert len(calls) == 24
            assert value == best_response_shared(g, opponent, 1).value

    def test_scan_stops_at_the_enumeration_bound(self):
        # with 6 actions the fifth observation makes 6^5 > 4096 tables; the
        # start state and its three diagonal successors show four, the first
        # successor's own successors a fifth, so the domain walk stops after
        # 2 states x 6 shared actions, and the diagonal search asks every
        # step before the last once through the step table the walk filled
        g = grid_skirmish(SkirmishConfig(3, 3, 2, 3))
        calls = []

        def transition(state, joint):
            calls.append((state, joint))
            return g.transition(state, joint)

        counted = dataclasses.replace(g, transition=transition)
        opp = ProductPolicy([HashPolicy(6, 17), HashPolicy(6, 29)])
        mix = [(opp, 0.5), (ProductPolicy([ConstantPolicy(6, 4)] * 2), 0.5)]
        for opponent, expected in ((opp, 24), (mix, 24)):
            calls.clear()
            value = best_response_shared(counted, opponent, 2).value
            assert len(calls) == len(set(calls)) == expected
            assert value == best_response_shared(g, opponent, 2).value

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


@pytest.mark.parametrize("oracle", [best_response_joint, best_response_shared, sebr])
@pytest.mark.parametrize(
    "opponent",
    [
        ProductPolicy([ConstantPolicy(9, 8)] * 2),
        ProductPolicy([ConstantPolicy(6, 0)] * 3),
    ],
    ids=["nine-actions", "three-members"],
)
def test_stochastic_oracles_check_the_opponent(oracle, opponent):
    # the oracles' walks read the opponent unchecked, so it is checked at entry
    g = grid_skirmish(SkirmishConfig(3, 3, 2, 2))
    for given in (opponent, [(opponent, 0.5), (ProductPolicy([ConstantPolicy(6, 0)] * 2), 0.5)]):
        with pytest.raises(DimensionError):
            oracle(g, given, 1)


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
            "joint": lambda game: best_response_joint(game, opp, 1).value,
            "joint-mixture": lambda game: best_response_joint(game, mix, 2).value,
            "shared": lambda game: best_response_shared(game, opp, 2).value,
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
            small = dataclasses.replace(g, exact_bound=10)
            advantage_decompose(small, opp, opp, 1, (4, 4), obs=g.initial[0][0])

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
            assert best_response_joint(g, mix, team).value == expected
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
            assert best_response_joint(revisiting, mix, team).value == expected
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
                partial, 2, (0, 1), (ConstantPolicy(6, 0),) * 2, opp, diagonal
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
        tables, value, fixed, kept = oracles._unit_improve_weighted(
            game, 1, (0, 1), zeros, mix, oracles._slack(game)
        )
        assert rounds[0] == 6 * len(mix)
        assert len(asked) == len(set(asked)) > 0
        assert (value, fixed) == (2.709875, True)
        # the result's walks, with the on-policy values of the rejecting round
        walks, kept_value, on_policy = kept
        assert len(walks) == len(on_policy) == len(mix) and kept_value == value
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
        # tables at every key it scores: only the start walks are made, and
        # none when the result's walks are handed back as the start
        game, _ = _acting_states(4)
        mix = [
            (ProductPolicy([HashPolicy(6, 120 + i), HashPolicy(6, 121 + i)]), 0.5) for i in (0, 1)
        ]
        zeros = (ConstantPolicy(6, 0), ConstantPolicy(6, 0))
        tables, value, fixed, kept = oracles._unit_improve_weighted(
            game, 1, (0, 1), zeros, mix, oracles._slack(game)
        )
        assert (value, fixed) == (2.709875, True)
        for start, walked in ((None, len(mix)), (kept, 0)):
            walks[0] = 0
            again, again_value, again_fixed, again_kept = oracles._unit_improve_weighted(
                game, 1, (0, 1), tuple(tables), mix, oracles._slack(game), start=start
            )
            assert walks[0] == walked
            assert all(a is b for a, b in zip(again, tables))
            assert (again_value, again_fixed) == (value, True)
        assert again_kept == kept

    def test_greedy_starts_from_the_walks_of_the_previous_update(self, walks):
        # member 1's update starts from the walks member 0's update handed
        # back: one walk per atom fewer than a fresh start, with the same
        # result
        game, states = _acting_states(4)
        mix = [
            (ProductPolicy([HashPolicy(6, 130 + i), HashPolicy(6, 131 + i)]), 0.5) for i in (0, 1)
        ]
        start = (HashPolicy(6, 7), HashPolicy(6, 8))
        steps = _StepTable(game, mix)
        first, value, _, handed = oracles._unit_improve_weighted(
            game, 2, (0,), start, mix, oracles._slack(game), steps=steps
        )
        assert handed[1] == value
        members = (first[0], start[1])
        results = []
        for begin, table in ((handed, steps), (None, _StepTable(game, mix))):
            walks[0] = 0
            tables, got, fixed, _ = oracles._unit_improve_weighted(
                game, 2, (1,), members, mix, oracles._slack(game), start=begin, steps=table
            )
            digest = _actions_digest(game, 2, ProductPolicy(tables), states)
            results.append((walks[0], got, fixed, digest))
        (kept, *same), (fresh, *fresh_same) = results
        assert kept == fresh - len(mix) and same == fresh_same

    def test_sebr_hands_each_greedy_update_its_start_walks(self, walks):
        # the hand-off changes no value, so only the pass count shows it:
        # 20 passes when every greedy update walks its start again
        game = grid_skirmish(SkirmishConfig(3, 3, 2, 3))
        mix = [
            (ProductPolicy([HashPolicy(6, 11), HashPolicy(6, 12)]), 0.4),
            (ProductPolicy([HashPolicy(6, 5), HashPolicy(6, 6)]), 0.6),
        ]
        sebr(game, mix, 1, restarts=2, seed=3)
        assert walks[0] == 12

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
            value = run().value
            once = calls[0]
            assert run().value == value
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
        uniform = ProductPolicy([UniformPolicy(2)] * 2)
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

            tensor = _stochastic_q_tensor(g, 1, p1.members, p2, 0)
            dists = [m.dist(0) for m in p1.members]
            joint_adv = tensor[1, 0] - float(dists[0] @ tensor @ dists[1])
            assert abs(terms.sum() - joint_adv) <= 1e-12

    def test_team2_direction(self):
        g = example1()
        terms = advantage_decompose(g, pure((0, 0)), pure((0, 0)), 2, (1, 0))
        # for team 2, reward is negated: col (1,0) pays R1=3 -> R2=-3, adv -2
        assert terms.sum() == pytest.approx(-2.0, abs=1e-12)

    @pytest.mark.parametrize(
        "case", ["seven-action-opponent", "three-member-opponent", "three-action-own"]
    )
    def test_policies_checked_at_entry(self, case):
        # each used to fail deep in the computation, with IndexError, zip's
        # ValueError and numpy's shape mismatch in turn
        if case == "three-action-own":
            own = ProductPolicy([UniformPolicy(3), UniformPolicy(2)])
            with pytest.raises(DimensionError):
                advantage_decompose(example1(), own, pure((0, 0)), 1, (0, 0))
            return
        g = grid_skirmish(SkirmishConfig(3, 3, 2, 2))
        own = ProductPolicy([HashPolicy(6, 1), HashPolicy(6, 2)])
        if case == "seven-action-opponent":
            opp = ProductPolicy([HashPolicy(7, 3), HashPolicy(6, 4)])
        else:
            opp = ProductPolicy([HashPolicy(6, 3)] * 3)
        with pytest.raises(DimensionError):
            advantage_decompose(g, own, opp, 1, (4, 4), obs=g.initial[0][0])

    @pytest.mark.parametrize("kind", ["normal-form", "stochastic"])
    @pytest.mark.parametrize("case", ["negative", "count", "fraction", "short", "long"])
    def test_team_action_checked_at_entry(self, kind, case):
        # numpy read -1 as the last action, 0.5 was cut to 0 and the extra
        # entry went unread; an action at the count and a short tuple raised
        # IndexError
        if kind == "normal-form":
            g, obs, p = example1(), None, pure((0, 0))
        else:
            g = grid_skirmish(SkirmishConfig(3, 3, 2, 2))
            obs, p = g.initial[0][0], ProductPolicy([ConstantPolicy(6, 0)] * 2)
        count = g.action_counts[0][0]
        action = {
            "negative": (-1, 0), "count": (count, 0), "fraction": (0.5, 0),
            "short": (0,), "long": (0, 0, 1),
        }
        with pytest.raises(ValueError, match="is not a joint action of team 1"):
            advantage_decompose(g, p, p, 1, action[case], obs=obs)


class TestSebr:
    def test_anti_coordination_reaches_heterogeneous(self):
        g = anti_coordination()
        answer = sebr(g, pure((0, 0)), 1, start=pure((0, 0)), restarts=0)
        policy, value = answer.policy, answer.value
        joint = policy.pure_joint_action([0, 0])
        assert joint in ((0, 1), (1, 0))
        assert evaluate(g, policy, pure((0, 0))) == 1.0
        assert value == team_value(g, 1, policy, pure((0, 0)))

    def test_example1_local_optimum(self):
        g = example1()
        answer = sebr(g, pure((0, 0)), 1, start=pure((0, 0)), restarts=0)
        policy, value = answer.policy, answer.value
        assert policy.pure_joint_action([0, 0]) == (0, 0)
        assert value == team_value(g, 1, policy, pure((0, 0)))

    def test_example1_restarts_escape(self):
        g = example1()
        answer = sebr(g, pure((0, 0)), 1, start=pure((0, 0)), restarts=4)
        policy, value = answer.policy, answer.value
        assert policy.pure_joint_action([0, 0]) == (1, 1)
        assert value == team_value(g, 1, policy, pure((0, 0)))

    def test_switched_members_are_constant_policies(self):
        # the normal-form update used to switch to a one-entry table
        start = ProductPolicy([ConstantPolicy(2, 0)] * 2)
        policy = sebr(anti_coordination(), pure((0, 0)), 1, start=start, restarts=0).policy
        assert policy.pure_joint_action([0, 0]) in ((0, 1), (1, 0))
        assert all(type(m) is ConstantPolicy for m in policy.members)

    def test_pure_start_on_a_stochastic_game(self):
        # a pure product used to be a table keyed by the normal-form
        # observation alone, so the start's evaluation raised KeyError
        g = grid_skirmish(SkirmishConfig(3, 3, 2, 2))
        stay = ProductPolicy([ConstantPolicy(6, 4)] * 2)
        value = sebr(g, stay, 1, start=ProductPolicy.pure((4, 4), (6, 6)), restarts=0).value
        assert value == 0.95

    @pytest.mark.parametrize(
        "counts", [{"restarts": -3}, {"max_sweeps": -1}], ids=["restarts", "sweeps"]
    )
    def test_negative_counts_are_refused(self, counts):
        # an error, not a run with the count clipped to 0
        g = example1()
        with pytest.raises(ValueError, match="nonnegative"):
            sebr(g, pure((0, 0)), 1, start=pure((0, 1)), **counts)

    @pytest.mark.parametrize("normal_form", [True, False], ids=["example1", "skirmish"])
    @pytest.mark.parametrize("oracle", ["sebr", "individual"])
    def test_start_checked_at_entry(self, oracle, normal_form):
        # the start's members are evaluated unchecked, so a start with a
        # third member is refused before any pass
        if normal_form:
            g, opp = example1(), pure((0, 0))
            start = pure((0, 0, 0), (2, 2, 2))
        else:
            g = grid_skirmish(SkirmishConfig(3, 3, 2, 2))
            opp = ProductPolicy([HashPolicy(6, 1), HashPolicy(6, 2)])
            start = ProductPolicy([ConstantPolicy(6, 0)] * 3)
        with pytest.raises(DimensionError, match="has 2 members, policy has 3"):
            if oracle == "sebr":
                sebr(g, opp, 1, start=start, restarts=1)
            else:
                best_response_individual(g, opp, 1, start)

    def test_per_update_monotonicity_normal_form(self):
        for seed in range(30):
            g = random_team_game((2, 2), ((2, 2), (2, 2)), seed=seed)
            opp = ProductPolicy([HashPolicy(2, seed), HashPolicy(2, seed + 1)])
            trace = []
            sebr(g, opp, 1, restarts=2, seed=seed, trace=trace)
            for _, _, _, before, after in trace:
                assert after >= before - 1e-9

    def test_per_update_monotonicity_skirmish(self):
        g = dataclasses.replace(grid_skirmish(SkirmishConfig(3, 3, 2, horizon=3)), exact_bound=10**7)
        opp = ProductPolicy([HashPolicy(6, 11), HashPolicy(6, 12)])
        trace = []
        sebr(g, opp, 1, restarts=1, seed=0, trace=trace, max_sweeps=5)
        assert trace, "no updates traced"
        for _, _, _, before, after in trace:
            assert after >= before - 1e-9

    def test_deterministic(self):
        g = random_team_game((2, 2), ((3, 3), (3, 3)), seed=9)
        opp = pure((1, 2), (3, 3))
        answer = sebr(g, opp, 1, restarts=4, seed=3)
        a, value_a = answer.policy, answer.value
        answer = sebr(g, opp, 1, restarts=4, seed=3)
        b, value_b = answer.policy, answer.value
        assert a.pure_joint_action([0, 0]) == b.pure_joint_action([0, 0])
        assert value_a == value_b == team_value(g, 1, a, opp)

    def test_mixture_opponent(self):
        g = example1()
        mix = [(pure((0, 0)), 0.5), (pure((0, 1)), 0.5)]
        answer = sebr(g, mix, 1, restarts=4, seed=0)
        policy, returned = answer.policy, answer.value
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
            v_joint = best_response_joint(g, opp, 1).value
            v_shared = best_response_shared(g, opp, 1).value
            answer = best_response_individual(g, opp, 1, pure((0, 0)))
            indiv, returned_indiv = answer.policy, answer.value
            v_indiv = evaluate(g, indiv, opp)
            assert returned_indiv == team_value(g, 1, indiv, opp)
            answer = sebr(g, opp, 1, restarts=2, seed=seed)
            seq, returned_seq = answer.policy, answer.value
            v_seq = evaluate(g, seq, opp)
            assert returned_seq == team_value(g, 1, seq, opp)
            assert v_joint >= v_seq - 1e-9
            assert v_joint >= v_shared - 1e-9
            assert v_joint >= v_indiv - 1e-9


@settings(derandomize=True, deadline=None)
@given(
    st.one_of(st.integers(-(2**63), -1), st.integers(0, 2**62), st.integers(2**62, 2**63 - 1)),
    st.text(max_size=12),
)
def test_subseed_is_the_keyed_blake2b(seed, name):
    key = seed.to_bytes(8, "little", signed=True)
    digest = hashlib.blake2b(name.encode(), digest_size=8, key=key).digest()
    assert subseed(seed, name) == int.from_bytes(digest, "little") >> 1


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
        """The (changed, settled) flags of every `_member_update` call: a
        switch returns a new policy object."""
        flags = []
        real = oracles._member_update

        def counted(game, team, member, members, *args):
            out = real(game, team, member, members, *args)
            flags.append((out[0] is not members[member], out[2]))
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
        answer = sebr(game, _SETTLE_OPPONENTS[opponent], team, restarts=2, seed=3, trace=trace)
        policy, got = answer.policy, answer.value
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
        answer = best_response_individual(game, _SETTLE_OPPONENTS[opponent], team, zeros)
        policy, got = answer.policy, answer.value
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
            answer = sebr(game, _SETTLE_OPPONENTS["mix"], team, restarts=2, seed=3, trace=trace)
            policy, got = answer.policy, answer.value
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
        value = sebr(g, opp, 1, restarts=0, max_sweeps=4, trace=trace).value
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
        answer = sebr(g, pure(opponent), 1, restarts=4, seed=0, trace=trace)
        policy, got = answer.policy, answer.value
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


_PATH_ATOM = ProductPolicy([HashPolicy(6, 17), HashPolicy(6, 29)])
_PATH_MIX = [(_PATH_ATOM, 0.5), (ProductPolicy([ConstantPolicy(6, 4)] * 2), 0.5)]


def _skirmish(horizon):
    return grid_skirmish(SkirmishConfig(3, 3, 2, horizon))


def _three_member_game():
    return random_team_game((3, 3), ((3, 3, 3), (3, 3, 3)), seed=3)


def _profile_class(game, name):
    zeros = ProductPolicy([ConstantPolicy(c, 0) for c in game.action_counts[0]])
    return exploitability_profile(game, Candidate.single(1, zeros), classes=(name,)).results[0]


#: id: (answer, its method, the largest gap it may report or None for no gap)
_PATHS = {
    "nf-joint": (lambda: best_response_joint(example1(), pure((0, 1)), 1), "enumeration", 0.0),
    "nf-shared-two": (lambda: best_response_shared(example1(), pure((0, 1)), 1), "kkt", 0.0),
    "nf-shared-three": (
        lambda: best_response_shared(
            _three_member_game(), ProductPolicy([UniformPolicy(3)] * 3), 1
        ),
        "bernstein",
        oracles._slack(_three_member_game()),
    ),
    "joint-one-atom": (lambda: best_response_joint(_skirmish(2), _PATH_ATOM, 1), "exact_dp", 0.0),
    "shared-diagonal-dp": (
        lambda: best_response_shared(_skirmish(3), _PATH_ATOM, 1), "exact_dp", 0.0
    ),
    "joint-mixture": (lambda: best_response_joint(_skirmish(2), _PATH_MIX, 1), "greedy", None),
    "shared-mixture-past-bound": (
        lambda: best_response_shared(_skirmish(2), _PATH_MIX, 1), "greedy", None
    ),
    "shared-enumeration": (
        lambda: best_response_shared(_skirmish(2), _PATH_ATOM, 1), "enumeration", 0.0
    ),
    "nf-sebr": (lambda: sebr(example1(), pure((0, 1)), 1), "coordinate_ascent", None),
    "sebr": (lambda: sebr(_skirmish(2), _PATH_MIX, 1, restarts=1), "coordinate_ascent", None),
    "individual": (
        lambda: best_response_individual(_skirmish(2), _PATH_ATOM, 1, _PATH_ATOM),
        "coordinate_ascent",
        None,
    ),
    "profile-random": (lambda: _profile_class(example1(), "random"), "evaluation", 0.0),
    "profile-synchronized-not-applicable": (
        lambda: _profile_class(random_team_game((2, 2), ((2, 2), (2, 3)), seed=0), "synchronized"),
        None,
        None,
    ),
}


@pytest.mark.parametrize("path", list(_PATHS))
def test_every_path_names_itself(path):
    answer, method, largest_gap = _PATHS[path]
    got = answer()
    assert got.method == method
    if largest_gap is None:
        assert got.gap is None
    else:
        assert 0.0 <= got.gap <= largest_gap


def test_an_answer_is_read_by_its_fields():
    answer = best_response_joint(example1(), pure((0, 1)), 1)
    with pytest.raises(TypeError):
        policy, value = answer
    assert (answer.value, answer.gap, answer.method) == (2.0, 0.0, "enumeration")


def test_bernstein_node_cap_reports_its_gap(monkeypatch):
    # a capped branch-and-bound still certifies [value, value + gap]
    g, opp = _three_member_game(), ProductPolicy([UniformPolicy(3)] * 3)
    full = best_response_shared(g, opp, 1)
    monkeypatch.setattr(oracles, "_BERNSTEIN_NODE_CAP", 1)
    capped = best_response_shared(g, opp, 1)
    assert capped.method == "bernstein" and capped.gap > 0.0
    assert capped.value <= full.value <= capped.value + capped.gap
