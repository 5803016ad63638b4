"""Game representation and evaluation tests."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import brute_force_value
from teameq import core
from teameq.core import (
    ConstantPolicy,
    DimensionError,
    EvaluationError,
    HashPolicy,
    IndividualPolicy,
    JointMixPolicy,
    NormalFormTeamGame,
    ProductPolicy,
    SharedPolicy,
    UniformPolicy,
    _nf_team_value,
    evaluate,
    game_from_dict,
    game_to_dict,
    mixture_value,
    policy_from_dict,
    policy_to_dict,
    product_to_joint,
    team_action_dist,
    team_value,
)
from teameq.games import (
    SkirmishConfig,
    example1,
    grid_skirmish,
    random_stochastic_game,
    random_team_game,
)


def pure(actions, counts=(2, 2)):
    return ProductPolicy.pure(actions, counts)


class TestNormalFormEvaluation:
    def test_example1_all_zeros(self):
        g = example1()
        assert evaluate(g, pure((0, 0)), pure((0, 0))) == 1.0

    def test_example1_bonus_cell(self):
        g = example1()
        assert evaluate(g, pure((1, 1)), pure((0, 0))) == 2.0

    def test_example1_cross_cell(self):
        # 1 + nu2 - nu1 with nu1 = 2, nu2 = 1
        g = example1()
        assert evaluate(g, pure((1, 0)), pure((0, 1))) == 0.0

    def test_zero_sum(self):
        g = random_team_game((2, 2), ((2, 2), (2, 2)), seed=3)
        p1, p2 = pure((0, 1)), pure((1, 0))
        assert team_value(g, 1, p1, p2) == -team_value(g, 2, p2, p1)

    def test_bilinearity_of_joint_mixes(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            g = random_team_game((2, 2), ((2, 2), (2, 2)), seed=seed)
            joints = g.joint_actions(1)
            a = JointMixPolicy([joints[0]], [1.0])
            b = JointMixPolicy([joints[3]], [1.0])
            q = ProductPolicy(
                [IndividualPolicy(2, {0: rng.dirichlet((1, 1))}) for _ in range(2)]
            )
            w = rng.uniform()
            mix = JointMixPolicy([joints[0], joints[3]], [w, 1 - w])
            lhs = evaluate(g, mix, q)
            rhs = w * evaluate(g, a, q) + (1 - w) * evaluate(g, b, q)
            assert abs(lhs - rhs) <= 1e-9

    def test_dimension_mismatch(self):
        g = example1()
        with pytest.raises(DimensionError):
            evaluate(g, ProductPolicy.pure((0,), (2,)), pure((0, 0)))

    def test_distribution_values_are_team_value_bit_for_bit(self):
        # the loops that keep joint-action distributions read values this way
        rng = np.random.default_rng(1)
        games = [random_team_game((2, 2), ((3, 2), (2, 3)), seed=s) for s in range(4)]
        games.append(NormalFormTeamGame((2, 2), ((3, 2), (2, 3)), np.zeros((3, 2, 2, 3))))
        for g in games:
            p1, p2 = (
                ProductPolicy([IndividualPolicy(c, {0: rng.dirichlet(np.ones(c))}) for c in counts])
                for counts in g.action_counts
            )
            j2 = JointMixPolicy([(0, 2), (1, 0)], [0.3, 0.7])
            for team, own, opp in ((1, p1, p2), (1, p1, j2), (2, p2, p1), (2, j2, p1)):
                dists = team_action_dist(g, team, own), team_action_dist(g, 3 - team, opp)
                got = _nf_team_value(g.matrix(), team, *dists)
                assert repr(got) == repr(team_value(g, team, own, opp))
        with pytest.raises(DimensionError):
            team_action_dist(g, 1, ProductPolicy.pure((0,), (2,)))

    def test_shared_policy_needs_homogeneous_spaces(self):
        g = NormalFormTeamGame((2, 1), ((2, 3), (2,)), np.zeros((2, 3, 2)))
        with pytest.raises(DimensionError):
            evaluate(
                g, SharedPolicy(IndividualPolicy.uniform(2), 2), ProductPolicy.pure((0,), (2,))
            )


class TestProductToJoint:
    def test_degenerate(self):
        g = example1()
        jm = product_to_joint(pure((0, 0)), g, 1)
        assert jm.atoms == ((0, 0),) and jm.weights[0] == 1.0

    def test_uniform(self):
        g = example1()
        p = ProductPolicy([IndividualPolicy.uniform(2), IndividualPolicy.uniform(2)])
        jm = product_to_joint(p, g, 1)
        assert len(jm.atoms) == 4
        assert np.allclose(jm.weights, 0.25)

    def test_half_pure(self):
        g = example1()
        p = ProductPolicy(
            [IndividualPolicy(2, {0: [0.5, 0.5]}), IndividualPolicy.deterministic(2, 0)]
        )
        jm = product_to_joint(p, g, 1)
        assert dict(zip(jm.atoms, jm.weights)) == {(0, 0): 0.5, (1, 0): 0.5}

    def test_value_preserved(self):
        for seed in range(10):
            g = random_team_game((2, 2), ((2, 2), (2, 2)), seed=seed)
            rng = np.random.default_rng(seed)
            p = ProductPolicy([IndividualPolicy(2, {0: rng.dirichlet((1, 1))}) for _ in range(2)])
            q = pure((rng.integers(2), rng.integers(2)))
            direct = evaluate(g, p, q)
            via_joint = evaluate(g, product_to_joint(p, g, 1), q)
            assert abs(direct - via_joint) <= 1e-9


class TestStochasticEvaluation:
    def test_exact_matches_brute_force(self):
        # the layered walk against plain recursion over every joint action
        # and successor, with mixed and hashed members on both sides
        games = [random_stochastic_game(seed=seed, horizon=3) for seed in range(3)]
        games.append(grid_skirmish(SkirmishConfig(3, 3, 2, horizon=2)))
        for g in games:
            c1, c2 = g.action_counts
            uniform = ProductPolicy([UniformPolicy(c) for c in c1])
            hashed = ProductPolicy([HashPolicy(c, 7 + m) for m, c in enumerate(c2)])
            assert evaluate(g, uniform, hashed) == pytest.approx(
                brute_force_value(g, uniform, hashed), abs=1e-12
            )
            mixed = ProductPolicy([UniformPolicy(c) for c in c2])
            hashed1 = ProductPolicy([HashPolicy(c, 3 + m) for m, c in enumerate(c1)])
            assert evaluate(g, hashed1, mixed) == pytest.approx(
                brute_force_value(g, hashed1, mixed), abs=1e-12
            )

    def test_truncation_bound(self):
        # finite-horizon value within Rmax * gamma^H / (1 - gamma) of longer runs
        g = random_stochastic_game(seed=2, horizon=4, discount=0.8)
        p1 = ProductPolicy([ConstantPolicy(2, 0)] * 2)
        p2 = ProductPolicy([ConstantPolicy(2, 1)] * 2)
        v_h = evaluate(g, p1, p2)
        longer = dataclasses.replace(g, horizon=g.horizon + 6)
        v_hk = evaluate(longer, p1, p2)
        bound = g.reward_bound * g.discount**g.horizon / (1 - g.discount)
        assert abs(v_h - v_hk) <= bound + 1e-12

    def test_exact_budget_guard(self):
        g = random_stochastic_game(seed=3)
        p = ProductPolicy([IndividualPolicy.uniform(2, obs_keys=range(3))] * 2)
        with pytest.raises(EvaluationError) as err:
            evaluate(dataclasses.replace(g, exact_bound=2), p, p)
        assert "exact_bound" in str(err.value)
        assert "monte" not in str(err.value).lower()

    def test_exact_budget_boundary(self):
        # the bound caps the (state, joint action) pairs of the widest step,
        # counted as the walk counts them: a bound equal to that count
        # passes, one less refuses
        g = grid_skirmish(SkirmishConfig(3, 3, 2, horizon=3))
        p1 = ProductPolicy([UniformPolicy(c) for c in g.action_counts[0]])
        p2 = ProductPolicy([HashPolicy(c, 5 + m) for m, c in enumerate(g.action_counts[1])])

        def joints(policy, team, state):
            obs = g.member_observations(team, state)
            return itertools.product(
                *([a for a, _ in m.support(o)] for m, o in zip(policy.members, obs))
            )

        layer, widest = {s for s, p in g.initial if p > 0.0}, 0
        for _ in range(g.horizon):
            pairs = [
                (s, (a1, a2)) for s in layer for a1 in joints(p1, 1, s) for a2 in joints(p2, 2, s)
            ]
            widest = max(widest, len(pairs))
            layer = {s2 for s, joint in pairs for s2, pt in g.successors(s, joint) if pt > 0.0}
        assert widest == 1764
        exact = evaluate(g, p1, p2)
        assert evaluate(dataclasses.replace(g, exact_bound=widest), p1, p2) == exact
        refused = f"[(]{widest} state-action pairs in one step > {widest - 1}[)]"
        with pytest.raises(EvaluationError, match=refused):
            evaluate(dataclasses.replace(g, exact_bound=widest - 1), p1, p2)

    def test_exact_bound_below_one_is_refused(self):
        g = random_stochastic_game(seed=0)
        with pytest.raises(ValueError, match="exact bound"):
            dataclasses.replace(g, exact_bound=0)

    def test_rows_read_are_validated(self):
        # transition is asked at steps 0 to H-2 only: a malformed row out of
        # the last step is never asked, so it is not reported; one at step
        # H-2 is, and so is a last-step reward beyond the declared bound
        g = grid_skirmish(SkirmishConfig(3, 3, 2, horizon=3))
        last = g.horizon - 1
        p1 = ProductPolicy([UniformPolicy(c) for c in g.action_counts[0]])
        p2 = ProductPolicy([HashPolicy(c, 5 + m) for m, c in enumerate(g.action_counts[1])])

        def halved_at(step):
            def transition(state, joint):
                row = g.transition(state, joint)
                return tuple((s2, 0.5 * pt) for s2, pt in row) if state[0] == step else row

            return dataclasses.replace(g, transition=transition)

        assert evaluate(halved_at(last), p1, p2) == evaluate(g, p1, p2)
        with pytest.raises(ValueError, match="transition row .* sums to 0.5"):
            evaluate(halved_at(last - 1), p1, p2)
        over = dataclasses.replace(
            g, reward=lambda s, j: g.reward_bound + 1.0 if s[0] == last else g.reward(s, j)
        )
        with pytest.raises(ValueError, match="exceeds the declared bound"):
            evaluate(over, p1, p2)

    def test_uniform_policy_matches_uniform_table(self):
        g = random_stochastic_game(seed=4)
        lazy = ProductPolicy([UniformPolicy(2)] * 2)
        table = ProductPolicy([IndividualPolicy.uniform(2, obs_keys=range(3))] * 2)
        assert evaluate(g, lazy, lazy) == pytest.approx(evaluate(g, table, table), abs=1e-12)
        row = UniformPolicy(3).dist("any")
        assert not row.flags.writeable and UniformPolicy(3).pure_action("any") is None

    def test_member_observations_match_per_member_calls(self):
        # under the default full observation every member sees the state,
        # without a call per member; a custom member_obs is called per member
        g = grid_skirmish(SkirmishConfig(3, 3, 2, horizon=3))
        assert g.member_obs is core.full_observation
        custom = dataclasses.replace(g, member_obs=lambda team, member, s: (s[0], member, team))
        states = [g.initial[0][0]]
        for _ in range(g.horizon - 1):
            states += [s2 for a in range(6) for s2, _ in g.successors(states[-1], ((a, 0), (0, a)))]
        for game in (g, custom):
            for team in (1, 2):
                for state in states:
                    per_member = tuple(game.member_obs(team, m, state) for m in range(2))
                    assert game.member_observations(team, state) == per_member
        assert custom.member_observations(2, states[0]) == ((0, 0, 2), (0, 1, 2))

    def test_mc_mixture_support_limit(self):
        # evaluation is exact only, so the refusal must not offer a
        # Monte-Carlo estimate as a way out
        g = random_stochastic_game(seed=0)
        p = ProductPolicy([ConstantPolicy(2, 0)] * 2)
        mix = [(p, 1.0 / 65)] * 65
        with pytest.raises(EvaluationError, match="mixture support exceeds 64") as err:
            team_value(g, 1, mix, p)
        assert "monte" not in str(err.value).lower()


class TestValidation:
    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ValueError):
            IndividualPolicy(2, {0: [0.6, 0.6]})

    def test_negative_probability(self):
        with pytest.raises(ValueError):
            IndividualPolicy(2, {0: [1.2, -0.2]})

    def test_joint_mix_simplex(self):
        with pytest.raises(ValueError):
            JointMixPolicy([(0, 0), (1, 1)], [0.7, 0.7])

    def test_payoff_total_function(self):
        with pytest.raises(DimensionError):
            NormalFormTeamGame((2, 2), ((2, 2), (2, 2)), np.zeros((2, 2, 2)))

    def test_non_finite_payoff(self):
        payoff = np.zeros((2, 2, 2, 2))
        payoff[0, 0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            NormalFormTeamGame((2, 2), ((2, 2), (2, 2)), payoff)

    def test_mixture_support_limit(self):
        g = example1()
        entries = [(pure((0, 0)), 1.0 / 128)] * 128
        with pytest.raises(EvaluationError):
            mixture_value(g, entries, pure((0, 0)))


class TestDeterministicTables:
    def test_hash_policy_actions_pinned(self):
        # SeBR's random restarts reach result files: the hash must not move
        state = grid_skirmish(SkirmishConfig(3, 3, 2, 3)).initial[0][0]
        assert state == (0, (0, 1, 8, 7))
        cases = [
            ((5, 0, 0), 4),
            ((5, 12345, state), 3),
            ((5, -3, state), 1),
            ((4, 2**62, "abc"), 3),
            ((7, 17, (1, (2, 3))), 2),
            ((2, 1, None), 0),
        ]
        for (n, seed, obs), action in cases:
            policy = HashPolicy(n, seed)
            assert policy._action(obs) == policy.pure_action(obs) == action
            assert policy.support(obs) == ((action, 1.0),)

    def test_from_actions_matches_validated_table(self):
        actions = {0: 2, "a": 0, (1, (2, 3)): 2, None: 1}
        fallback = IndividualPolicy.uniform(3, obs_keys=["other"])
        fast = IndividualPolicy.from_actions(3, actions, fallback)
        slow = IndividualPolicy(3, {o: np.eye(3)[a] for o, a in actions.items()}, fallback)
        assert fast.observations() == slow.observations()
        for obs in (*actions, "other"):
            assert np.array_equal(fast.dist(obs), slow.dist(obs))
            assert not fast.dist(obs).flags.writeable
            assert fast.support(obs) == slow.support(obs)
            assert fast.pure_action(obs) == slow.pure_action(obs)
        assert fast.dist(0) is fast.dist((1, (2, 3)))
        with pytest.raises(KeyError):
            IndividualPolicy.from_actions(3, actions).dist("other")

    @pytest.mark.parametrize("action", [-1, 3])
    def test_from_actions_rejects_actions_out_of_range(self, action):
        with pytest.raises(ValueError, match="outside"):
            IndividualPolicy.from_actions(3, {0: 1, 1: action})


class TestSerialization:
    def test_game_round_trip(self):
        g = random_team_game((2, 2), ((2, 3), (2, 2)), seed=11)
        g2 = game_from_dict(game_to_dict(g))
        assert g2.team_sizes == g.team_sizes
        assert g2.action_counts == g.action_counts
        assert np.array_equal(g2.payoff, g.payoff)

    def test_payoff_is_flat_row_major(self):
        g = example1()
        doc = game_to_dict(g)
        assert doc["payoff"] == [float(x) for x in g.payoff.ravel()]

    @pytest.mark.parametrize(
        "policy",
        [
            ProductPolicy.pure((1, 0), (2, 2)),
            SharedPolicy(IndividualPolicy(2, {0: [0.25, 0.75]}), 2),
            JointMixPolicy([(0, 0), (1, 1)], [0.75, 0.25]),
        ],
    )
    def test_policy_round_trip(self, policy):
        g = example1()
        restored = policy_from_dict(policy_to_dict(policy))
        opp = ProductPolicy.pure((0, 1), (2, 2))
        assert evaluate(g, restored, opp) == pytest.approx(
            evaluate(g, policy, opp), abs=1e-12
        )


def _product_combinations(slots) -> list:
    """Every pick of one (action, prob) pair per slot, multiplied from the
    first slot on: the generic product that `_combinations` shortcuts."""
    out = []
    for picks in itertools.product(*slots):
        prob = 1.0
        for _, q in picks:
            prob *= q
        out.append((prob, tuple(a for a, _ in picks)))
    return out


def _completion_list(slots, team, unit, unit_actions) -> list:
    """`_complete`'s list for a two-member team from the generic product."""
    fixed = [i for i in range(2) if i not in unit]
    out = []
    for prob, acts in _product_combinations(slots):
        if prob > 0.0:
            pairs = []
            for ua in unit_actions:
                own = [0, 0]
                for i, a in zip(fixed + list(unit), acts[: len(fixed)] + ua):
                    own[i] = a
                opp = acts[len(fixed):]
                pairs.append((ua, (tuple(own), opp) if team == 1 else (opp, tuple(own))))
            out.append((prob, pairs))
    return out


_supports = st.lists(
    st.tuples(st.integers(0, 5), st.floats(0.0, 1.0, allow_nan=False)), min_size=1, max_size=3
).map(tuple)
_pure_supports = st.tuples(st.integers(0, 5), st.floats(0.0, 1.0)).map(lambda pick: (pick,))


class TestCompletions:
    @given(
        st.one_of(_pure_supports, _supports),
        st.lists(_pure_supports, min_size=3, max_size=3),
        st.sampled_from([1, 2]),
        st.sampled_from([(), (0,), (1,), (0, 1)]),
    )
    def test_completion_lists_equal_the_generic_product(self, first, rest, team, unit):
        # pure play (every slot one pair) takes a direct path that must give
        # the generic product's list bit for bit, zero probabilities included
        slots = tuple([first] + rest)[: 4 - len(unit)]
        unit_actions = list(itertools.product(range(2), repeat=len(unit)))
        combos = core._combinations(slots)
        assert combos == _product_combinations(slots)
        assert [p.hex() for p, _ in combos] == [p.hex() for p, _ in _product_combinations(slots)]
        expected = _completion_list(slots, team, unit, unit_actions)
        assert core._complete(slots, {}, team, 2, unit, unit_actions) == expected

    @pytest.mark.parametrize("unit", [(1, 0), (0, 2)])
    def test_free_members_must_be_consecutive_and_ascending(self, unit):
        slots = (((0, 1.0),),) * 2
        with pytest.raises(ValueError, match="not consecutive"):
            core._complete(slots, {}, 1, 3, unit, [(0, 0)])
