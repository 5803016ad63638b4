"""Game representation and evaluation tests."""

import copy
import dataclasses
import hashlib
import itertools
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_value, population_mixtures
import teameq
from teameq import core
from teameq.core import (
    NF_OBS,
    ConstantPolicy,
    DimensionError,
    EvaluationError,
    HashPolicy,
    IndividualPolicy,
    JointMixPolicy,
    NormalFormTeamGame,
    ProductPolicy,
    SharedPolicy,
    StochasticTeamGame,
    UniformPolicy,
    _nf_values,
    _pricing_key,
    _pure_index,
    check_team_policy,
    cross_payoff_matrix,
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
from teameq.deviation import DeviationSpec, Joint, build_deviation_spec
from teameq.evaluation import CLASS_ORDER, Candidate, exploitability_profile
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
from teameq.oracles import (
    _member_values,
    _NormalFormTable,
    advantage_decompose,
    best_response_individual,
    best_response_joint,
    best_response_shared,
    sebr,
    team_reward_tensor,
)
from teameq.psro import extend_population, initial_population


def pure(actions, counts=(2, 2)):
    return ProductPolicy.pure(actions, counts)


@pytest.mark.parametrize("seed", [2.5, float("nan"), float("inf")])
def test_hash_policy_seed_must_be_an_integer(seed):
    # 2.5 would play exactly as 2; NaN and infinity failed inside the hash
    with pytest.raises(ValueError, match="seed must be an integer"):
        HashPolicy(6, seed)
    numpy_seeded = HashPolicy(6, np.int64(2))
    assert type(numpy_seeded.seed) is int and repr(numpy_seeded) == repr(HashPolicy(6, 2))
    assert [numpy_seeded.pure_action(o) for o in range(50)] == [
        HashPolicy(6, 2).pure_action(o) for o in range(50)
    ]


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
        # the loops that keep pricing keys read values this way; a policy
        # pure with probability exactly 1.0 is read by its joint index, on
        # every path, and a near-pure one by its distribution
        rng = np.random.default_rng(1)
        shape = (3, 2, 2, 3)
        games = [random_team_game((2, 2), ((3, 2), (2, 3)), seed=s) for s in range(4)]
        games.append(NormalFormTeamGame((2, 2), ((3, 2), (2, 3)), np.zeros(shape)))
        signed_zeros = np.where(rng.random(shape) < 0.4, -0.0, rng.integers(-1, 2, shape) * 1.0)
        games.append(NormalFormTeamGame((2, 2), ((3, 2), (2, 3)), signed_zeros))
        assert np.signbit(games[-1].payoff[games[-1].payoff == 0.0]).any()
        near = IndividualPolicy(3, {NF_OBS: [1 - 1e-13, 0, 0]})
        for g in games:
            p1, p2 = (
                ProductPolicy([IndividualPolicy(c, {0: rng.dirichlet(np.ones(c))}) for c in counts])
                for counts in g.action_counts
            )
            j2 = JointMixPolicy([(0, 2), (1, 0)], [0.3, 0.7])
            pure_policies = {
                team: [
                    ProductPolicy([ConstantPolicy(c, c - 1) for c in counts]),
                    ProductPolicy([HashPolicy(c, 7 * team + m) for m, c in enumerate(counts)]),
                    ProductPolicy.pure((1, 0), counts),
                    JointMixPolicy.pure((team % 2, 1)),
                ]
                for team, counts in ((1, g.action_counts[0]), (2, g.action_counts[1]))
            }
            near_pure = {
                1: [
                    ProductPolicy([near, ConstantPolicy(2, 1)]),
                    JointMixPolicy([(2, 1)], [1 - 1e-13]),
                ],
                2: [
                    ProductPolicy([ConstantPolicy(2, 1), near]),
                    JointMixPolicy([(1, 2)], [1 - 1e-13]),
                ],
            }
            cases = [(1, p1, p2), (1, p1, j2), (2, p2, p1), (2, j2, p1)]
            for team in (1, 2):
                opponents = ((p2, j2) if team == 1 else (p1,)) + tuple(pure_policies[3 - team])
                for own in pure_policies[team] + near_pure[team]:
                    cases += [(team, own, opp) for opp in opponents]
            mixed_opp = {1: p2, 2: p1}
            for team, own, opp in cases:
                expected = repr(team_value(g, team, own, opp))
                dists = team_action_dist(g, team, own), team_action_dist(g, 3 - team, opp)
                got = _nf_values(g.matrix(), team, dists[0], [dists[1]])[0]
                assert repr(got) == expected
                idx = _pure_index(g, team, own)
                assert (idx is None) == any(own is q for q in (p1, p2, j2, *near_pure[team]))
                if idx is not None:
                    assert dists[0][idx] == 1.0
                    assert repr(_nf_values(g.matrix(), team, idx, [dists[1]])[0]) == expected
                # every mix of index and distribution keys, on both sides
                keys = _pricing_key(g, team, own), _pricing_key(g, 3 - team, opp)
                assert isinstance(keys[0], int) == (idx is not None)
                for own_key in {id(k): k for k in (dists[0], keys[0])}.values():
                    for opp_key in {id(k): k for k in (dists[1], keys[1])}.values():
                        got = _nf_values(g.matrix(), team, own_key, [opp_key])[0]
                        assert repr(got) == expected
                # the table builder keys both entries itself, and a
                # population prices the pair from the keys it keeps
                pop = initial_population(g)
                for t, entry in ((team, own), (3 - team, opp)):
                    pop = extend_population(g, pop, entry, t)
                pair = [own, opp] if team == 1 else [opp, own]
                for cell in (cross_payoff_matrix(g, pair[:1], pair[1:])[0, 0], pop.payoffs[1, 1]):
                    assert repr(float(cell) if team == 1 else 0.0 - float(cell)) == expected
                # an opponent mixture of index and distribution atoms, with
                # one atom given twice: adding a pure atom's weight at its
                # index gives the floats of adding its one-hot distribution,
                # from the atoms and from a population's kept keys alike
                atoms = [(opp, 0.3), (mixed_opp[team], 0.45), (opp, 0.25)]
                atom_dists = [team_action_dist(g, 3 - team, a) for a, _ in atoms]
                mixed = np.zeros(g.joint_count(3 - team))
                for d, (_, w) in zip(atom_dists, atoms):
                    mixed += w * d
                onehot = g.matrix() @ mixed if team == 1 else 0.0 - mixed @ g.matrix()
                mixes = population_mixtures(g, team, atoms)
                tables = [_NormalFormTable(g, team, mix) for mix in mixes]
                reference = repr(onehot.reshape(g.action_counts[team - 1]).tolist())
                assert all(repr(t.tensor.tolist()) == reference for t in tables)
                if isinstance(own, ProductPolicy):
                    table = _NormalFormTable(g, team, [(opp, 1.0)])
                    assert repr(table.value(own.members)) == expected
                    assert repr(table.value(own.members)) == expected  # with the kept rows
                    values = _nf_values(g.matrix(), team, dists[0], atom_dists)
                    mixed_value = repr(sum(w * v for (_, w), v in zip(atoms, values)))
                    for t in tables:
                        assert repr(t.value(own.members)) == mixed_value
                        assert repr(t.value(own.members)) == mixed_value  # kept rows
        with pytest.raises(DimensionError):
            team_action_dist(g, 1, ProductPolicy.pure((0,), (2,)))
        # with pure teammates a member's values index the tensor; equal
        # (up to the sign of a zero) to contracting each teammate's row
        for sizes in ((3, 2), (2, 3, 2)):
            g = random_team_game((len(sizes), 2), (sizes, (2, 2)), seed=3)
            opponent = ProductPolicy([UniformPolicy(2), ConstantPolicy(2, 1)])
            base = team_reward_tensor(g, 1, opponent)
            for tensor in (base, np.where(base > 0.0, -0.0, 0.0)):
                for member in range(len(sizes)):
                    members = [HashPolicy(c, 3 + m) for m, c in enumerate(sizes)]
                    members[member] = UniformPolicy(sizes[member])
                    moved = np.moveaxis(tensor, member, 0)
                    for i in reversed([i for i in range(len(sizes)) if i != member]):
                        moved = moved @ members[i].dist(NF_OBS)
                    got = _member_values(tensor, members, member)
                    assert got.shape == moved.shape and (got == moved).all()

    def test_a_zero_value_is_positive_for_both_teams(self):
        # team 2 reads 0.0 less team 1's value, so a zero never reads -0.0
        z = pure((0, 1))
        skirmish = grid_skirmish(SkirmishConfig(3, 3, 2, horizon=1))
        zeros = ProductPolicy([ConstantPolicy(6, 0)] * 2)
        for game, profile in ((anti_coordination(), z), (skirmish, zeros)):
            for team in (1, 2):
                value = team_value(game, team, profile, profile)
                assert value == 0.0 and math.copysign(1.0, value) == 1.0
        g = anti_coordination()
        dist = team_action_dist(g, 2, z)
        assert math.copysign(1.0, _nf_values(g.matrix(), 2, dist, [dist])[0]) == 1.0
        tensor = team_reward_tensor(g, 2, z)
        assert (tensor == 0.0).any() and not np.signbit(tensor[tensor == 0.0]).any()

    def test_shared_policy_needs_homogeneous_spaces(self):
        g = NormalFormTeamGame((2, 1), ((2, 3), (2,)), np.zeros((2, 3, 2)))
        with pytest.raises(DimensionError):
            evaluate(
                g, SharedPolicy(UniformPolicy(2), 2), ProductPolicy.pure((0,), (2,))
            )


class TestProductToJoint:
    def test_degenerate(self):
        g = example1()
        jm = product_to_joint(pure((0, 0)), g, 1)
        assert jm.atoms == ((0, 0),) and jm.weights[0] == 1.0

    def test_uniform(self):
        g = example1()
        p = ProductPolicy([UniformPolicy(2), UniformPolicy(2)])
        jm = product_to_joint(p, g, 1)
        assert len(jm.atoms) == 4
        assert np.allclose(jm.weights, 0.25)

    def test_half_pure(self):
        g = example1()
        p = ProductPolicy(
            [IndividualPolicy(2, {0: [0.5, 0.5]}), ConstantPolicy(2, 0)]
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
        p = ProductPolicy([UniformPolicy(2)] * 2)
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

    def test_joint_mix_is_refused(self):
        # the policy check refuses a joint mix before any pass is walked
        g = grid_skirmish(SkirmishConfig(3, 3, 2, horizon=2))
        hashed = ProductPolicy([HashPolicy(6, 1), HashPolicy(6, 2)])
        mix = JointMixPolicy.pure((0, 0))
        message = "joint-mix policies apply to normal-form games only"
        with pytest.raises(DimensionError, match=message):
            evaluate(g, mix, hashed)
        with pytest.raises(DimensionError, match=message):
            team_value(g, 1, hashed, [(hashed, 0.5), (mix, 0.5)])

    @pytest.mark.parametrize(
        "shape, error, match",
        [
            (dict(action_counts=((6,), (6, 6))), DimensionError, "one action count per player"),
            (dict(team_sizes=(0, 2)), ValueError, "team sizes must be positive"),
            (dict(action_counts=((6, 0), (6, 6))), ValueError, "action counts must be positive"),
        ],
        ids=["count-missing", "team-empty", "count-zero"],
    )
    def test_unplayable_shapes_are_refused(self, shape, error, match):
        # refused when built, not mid-run inside the first oracle
        g = grid_skirmish(SkirmishConfig(3, 3, 2, horizon=2))
        with pytest.raises(error, match=match):
            dataclasses.replace(g, **shape)

    def test_exact_bound_below_one_is_refused(self):
        g = random_stochastic_game(seed=0)
        with pytest.raises(ValueError, match="exact bound"):
            dataclasses.replace(g, exact_bound=0)

    @pytest.mark.parametrize("name", ["horizon", "exact_bound"])
    @pytest.mark.parametrize("count", [2.5, math.nan, 3.0])
    def test_non_integer_horizon_and_exact_bound_are_refused(self, name, count):
        # a NaN exact_bound once turned the budget off, and a NaN or
        # fractional horizon failed mid-evaluation with TypeError
        g = random_stochastic_game(seed=0)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            dataclasses.replace(g, **{name: count})

    def test_numpy_integer_horizon_and_exact_bound_pass(self):
        g = grid_skirmish(SkirmishConfig(3, 3, 2, horizon=2))
        opp = ProductPolicy([ConstantPolicy(6, 0)] * 2)
        numpy_ints = dataclasses.replace(g, horizon=np.int64(2), exact_bound=np.int32(10**6))
        assert best_response_joint(numpy_ints, opp, 1).value == 1.9
        with pytest.raises(EvaluationError, match=r"\(36 state-action pairs in one step > 10\)"):
            best_response_joint(dataclasses.replace(numpy_ints, exact_bound=np.int64(10)), opp, 1)

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
        table = ProductPolicy([IndividualPolicy(2, dict.fromkeys(range(3), [0.5, 0.5]))] * 2)
        assert evaluate(g, lazy, lazy) == pytest.approx(evaluate(g, table, table), abs=1e-12)
        row = UniformPolicy(3).dist("any")
        assert not row.flags.writeable and UniformPolicy(3).pure_action("any") is None

    def test_constant_policy_shares_one_read_only_row(self):
        policy = ConstantPolicy(3, 1)
        row = policy.dist(0)
        assert row is policy.dist("x") and not row.flags.writeable
        assert row.tolist() == [0.0, 1.0, 0.0]

    def test_pure_product_plays_at_every_state(self):
        # a pure product used to be a table keyed by the normal-form
        # observation alone, so the skirmish's first state raised KeyError
        g = grid_skirmish(SkirmishConfig(3, 3, 2, 2))
        stay = ProductPolicy([ConstantPolicy(6, 4)] * 2)
        assert evaluate(g, ProductPolicy.pure((4, 4), (6, 6)), stay) == 0.0

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

    @pytest.mark.parametrize(
        "game",
        [example1(), random_stochastic_game(horizon=2, seed=0)],
        ids=["example1", "random_stochastic"],
    )
    def test_no_mixture_support_limit(self, game):
        # evaluation is linear in each support, so a 65-entry candidate gets
        # an answer from every class, and `random` is the weighted sum of the
        # entries' values against the uniform product
        if game.is_normal_form:
            entries = [
                ProductPolicy([
                    IndividualPolicy(2, {0: [i / 64, 1 - i / 64]}),
                    ConstantPolicy(2, i % 2),
                ])
                for i in range(65)
            ]
        else:
            entries = [ProductPolicy([HashPolicy(2, i), HashPolicy(2, i + 100)]) for i in range(65)]
        uniform = ProductPolicy([UniformPolicy(2)] * 2)
        weights = np.arange(1, 66) / np.arange(1, 66).sum()
        cand = Candidate(1, tuple(entries), tuple(weights))
        report = exploitability_profile(game, cand)
        assert [r.class_name for r in report.results] == list(CLASS_ORDER)
        assert all(r.applicable and np.isfinite(r.opponent_reward) for r in report.results)
        expected = sum(w * team_value(game, 2, uniform, e) for e, w in cand.mixture())
        assert report.result("random").opponent_reward == expected

    # each guard reads `not x >= lo`, so a NaN fails it; before, a NaN
    # passed `x < lo` and `abs(sum - 1) > tol` alike
    @pytest.mark.parametrize(
        "build",
        [
            lambda g, u, d1: IndividualPolicy(2, {NF_OBS: [math.nan, math.nan]}),
            lambda g, u, d1: JointMixPolicy([(0, 0), (1, 1)], [math.nan, math.nan]),
            lambda g, u, d1: team_value(g, 1, [(u, math.nan), (d1, math.nan)], u),
            # the negative entry used to be dropped after the sum check
            lambda g, u, d1: mixture_value(g, [(u, 1.5), (d1, -0.5)], u),
            lambda g, u, d1: Candidate(1, (u, d1), (math.nan, math.nan)),
        ],
        ids=["policy-row-nan", "joint-mix-nan", "mixture-nan", "mixture-negative", "candidate-nan"],
    )
    def test_nan_and_negative_weights_are_refused(self, build):
        g = example1()
        u = ProductPolicy([UniformPolicy(2)] * 2)
        with pytest.raises(ValueError, match="negative or NaN|weights must form"):
            build(g, u, pure((1, 1)))

    # each used to answer for team 2 (team 0 or 3) or fail with IndexError
    @pytest.mark.parametrize("team", [0, 3, -1])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda g, t, z: check_team_policy(g, t, z),
            lambda g, t, z: team_value(g, t, z, z),
            lambda g, t, z: team_action_dist(g, t, z),
            lambda g, t, z: build_deviation_spec(g, t, z, Joint()),
            lambda g, t, z: DeviationSpec(t, Joint(), z, (), ()),
            lambda g, t, z: Candidate(t, (z,), (1.0,)),
            lambda g, t, z: best_response_joint(g, z, t),
            lambda g, t, z: best_response_shared(g, z, t),
            lambda g, t, z: best_response_individual(g, z, t, z),
            lambda g, t, z: sebr(g, z, t),
            lambda g, t, z: advantage_decompose(g, z, z, t, (0, 0)),
        ],
        ids=[
            "check_team_policy", "team_value", "team_action_dist", "build_deviation_spec",
            "DeviationSpec", "Candidate", "best_response_joint", "best_response_shared",
            "best_response_individual", "sebr", "advantage_decompose",
        ],
    )
    def test_teams_other_than_1_and_2_are_refused(self, entry, team):
        with pytest.raises(ValueError, match=f"team must be 1 or 2, got {team}"):
            entry(example1(), team, pure((0, 0)))


def _chain(initial=((0, 1.0),), row=lambda s: ((s + 1, 1.0),), reward=0.5, bound=1.0):
    """1v1, two actions, H=3, discount 0.9: every step pays ``reward``."""
    return StochasticTeamGame(
        (1, 1), ((2,), (2,)), initial, lambda s, j: row(s), lambda s, j: reward, 0.9, 3, bound
    )


class TestStochasticGameValidation:
    def _value(self, game):
        return evaluate(game, ProductPolicy([ConstantPolicy(2, 0)]), ProductPolicy([ConstantPolicy(2, 1)]))

    def test_valid_chain(self):
        assert self._value(_chain()) == pytest.approx(0.5 * (1 + 0.9 + 0.81))
        assert self._value(_chain(row=lambda s: ((s, 0.25), (s + 1, 0.75)))) == pytest.approx(1.355)

    @pytest.mark.parametrize(
        "game, match",
        [
            (_chain(reward=math.nan), "reward nan is NaN or exceeds"),
            (_chain(reward=math.inf), "reward inf is NaN or exceeds"),
            (_chain(row=lambda s: ((s, math.nan),)), "sums to nan"),
            (_chain(row=lambda s: ((s, 1.5), (s + 1, -0.5))), "negative or NaN probability"),
            (_chain(row=lambda s: ((s, 0.5), (s + 1, math.nan))), "negative or NaN probability"),
        ],
        ids=["reward-nan", "reward-inf", "row-nan", "row-negative", "row-nan-of-two"],
    )
    def test_bad_rows_are_refused(self, game, match):
        with pytest.raises(ValueError, match=match):
            self._value(game)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(initial=((0, math.nan),)), "negative or NaN probability"),
            (dict(initial=((0, 1.5), (1, -0.5))), "negative or NaN probability"),
            (dict(bound=math.nan), "reward bound"),
            (dict(bound=math.inf), "reward bound"),
            (dict(bound=-1.0), "reward bound"),
        ],
        ids=["initial-nan", "initial-negative", "bound-nan", "bound-inf", "bound-negative"],
    )
    def test_bad_construction_is_refused(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            _chain(**kwargs)


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

    @settings(derandomize=True, deadline=None)
    @given(
        st.integers(1, 9),
        st.one_of(st.integers(-(2**63), -1), st.integers(0, 2**62), st.integers(2**62, 2**63 - 1)),
        st.recursive(
            st.none() | st.integers() | st.text(max_size=3),
            lambda inner: st.tuples(inner, inner) | st.tuples(inner),
            max_leaves=6,
        ),
    )
    def test_hash_policy_is_the_keyed_blake2b(self, n, seed, obs):
        key = seed.to_bytes(8, "little", signed=True)
        digest = hashlib.blake2b(repr(obs).encode(), digest_size=8, key=key).digest()
        expected = int.from_bytes(digest, "little") % n
        assert HashPolicy(n, seed).support(obs) == ((expected, 1.0),)

    def test_import_loads_no_openssl(self):
        # a clean interpreter, since this one has imported hashlib already;
        # the witness digest shows that the probe sees hashlib when it loads
        code = (
            "import sys, teameq, teameq.cli\n"
            "from teameq.core import HashPolicy\n"
            "from teameq.oracles import subseed\n"
            "HashPolicy(3, 7).pure_action((1, 2)), subseed(7, 'x')\n"
            "openssl = {'hashlib', '_hashlib'}\n"
            "print(sorted(openssl & set(sys.modules)))\n"
            "from teameq.deviation import _tables_digest\n"
            "_tables_digest([HashPolicy(3, 7)])\n"
            "print(sorted(openssl & set(sys.modules)))\n"
        )
        src = str(Path(teameq.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.splitlines() == ["[]", "['_hashlib', 'hashlib']"]

    def test_hash_policy_copies_act_the_same(self):
        policy = HashPolicy(6, -(2**63))
        game = grid_skirmish(SkirmishConfig(3, 3, 2, 3))
        joints = list(itertools.product(itertools.product(range(6), repeat=2), repeat=2))
        states = {s for s0, _ in game.initial for j in joints for s, _ in game.transition(s0, j)}
        for other in (pickle.loads(pickle.dumps(policy)), copy.deepcopy(policy)):
            assert (other.n_actions, other.seed) == (6, -(2**63))
            for obs in [*states, (1, (2, 3)), None, "abc"]:
                assert other.pure_action(obs) == policy.pure_action(obs)

    def test_from_actions_matches_validated_table(self):
        actions = {0: 2, "a": 0, (1, (2, 3)): 2, None: 1}
        fallback = IndividualPolicy(3, {"other": np.full(3, 1 / 3)})
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

    def test_a_round_trip_plays_the_same_bits(self):
        # a row read back is kept as written, not divided by its sum again
        g = sad(SadConfig(3, 3))
        uniform = ProductPolicy([UniformPolicy(6)] * 3)
        restored = policy_from_dict(policy_to_dict(uniform))
        for member in restored.members:
            assert member.dist(NF_OBS).tobytes() == UniformPolicy(6).dist(NF_OBS).tobytes()
        before = team_value(g, 1, uniform, uniform)
        assert team_value(g, 1, restored, restored).hex() == before.hex()


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
