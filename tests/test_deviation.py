"""Deviation policy spaces, sample budgets and equilibrium verification."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lp_maxmin
from teameq.core import (
    NF_OBS,
    ConstantPolicy,
    DimensionError,
    EvalConfig,
    HashPolicy,
    IndividualPolicy,
    JointMixPolicy,
    ProductPolicy,
    SharedPolicy,
    team_value,
)
from teameq.deviation import (
    DeviationSpec,
    Joint,
    NoCorrelation,
    PivotFollowers,
    SampleFactor,
    Sequential,
    _tables_digest,
    build_deviation_spec,
    sample_budget,
    verify_equilibrium,
)
from teameq.games import (
    SkirmishConfig,
    anti_coordination,
    example1,
    grid_skirmish,
    random_stochastic_game,
    random_team_game,
)
from teameq.oracles import _unit_best_response_exact, best_response_joint


def pure(actions, counts=(2, 2)):
    return ProductPolicy.pure(actions, counts)


class TestSampleBudget:
    def test_teammate_growth(self):
        # 10 -> 100 teammates with f_team = 100 grows 1e10 by 9e3
        sf = SampleFactor(f_team=100, f_policy=0, n_init=10**10)
        assert sample_budget(sf, 90, 0) == 10**10 + 9 * 10**3

    def test_zero_growth(self):
        sf = SampleFactor(f_team=7, f_policy=3, n_init=42)
        assert sample_budget(sf, 0, 0) == 42

    def test_linear_formula(self):
        sf = SampleFactor(f_team=0, f_policy=2, n_init=5)
        assert sample_budget(sf, 0, 3) == 11

    @given(
        n_init=st.integers(0, 10**6),
        f_team=st.integers(0, 1000),
        f_policy=st.integers(0, 1000),
        a=st.integers(0, 500),
        b=st.integers(0, 500),
        c=st.integers(0, 500),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_linearity(self, n_init, f_team, f_policy, a, b, c):
        sf = SampleFactor(f_team=f_team, f_policy=f_policy, n_init=n_init)
        assert sample_budget(sf, a + b, c) - sample_budget(sf, a, c) == b * f_team

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            SampleFactor(f_team=-1)
        with pytest.raises(ValueError):
            sample_budget(SampleFactor(), -1, 0)


class TestBuildDeviationSpec:
    def test_no_correlation_counts(self):
        g = example1()
        spec = build_deviation_spec(g, 1, pure((0, 0)), NoCorrelation())
        assert len(spec.individual) == 4  # 2 + 2 pure deviations
        assert spec.correlated == ()

    def test_joint_counts(self):
        g = example1()
        spec = build_deviation_spec(g, 1, pure((0, 0)), Joint())
        assert len(spec.correlated) == 4
        assert spec.individual == ()

    def test_pivot_followers_shared_form(self):
        g = example1()
        spec = build_deviation_spec(g, 1, pure((0, 0)), PivotFollowers(pivot=0))
        assert spec.individual == ()
        assert all(isinstance(p, SharedPolicy) for p in spec.correlated)
        assert len(spec.correlated) == 2

    def test_invalid_pivot(self):
        g = example1()
        with pytest.raises(ValueError):
            build_deviation_spec(g, 1, pure((0, 0)), PivotFollowers(pivot=5))

    def test_sequential_budget_and_reproducibility(self):
        g = example1()
        corr = Sequential(sample_factor=SampleFactor(n_init=3), seed=17)
        spec1 = build_deviation_spec(g, 1, pure((0, 0)), corr)
        spec2 = build_deviation_spec(g, 1, pure((0, 0)), corr)
        assert len(spec1.individual) + len(spec1.correlated) == 3

        def fingerprint(spec):
            indiv = [(m, p.pure_action(0)) for m, p in spec.individual]
            corr_sig = [tuple(m.pure_action(0) for m in p.members) for p in spec.correlated]
            return indiv, corr_sig

        assert fingerprint(spec1) == fingerprint(spec2)

    def test_sequential_fills_with_joints(self):
        g = example1()
        corr = Sequential(sample_factor=SampleFactor(n_init=5), seed=2)
        spec = build_deviation_spec(g, 1, pure((0, 0)), corr)
        assert len(spec.individual) == 4 and len(spec.correlated) == 1
        # the only joint action not representable as a unilateral move is (1,1)
        assert tuple(m.pure_action(0) for m in spec.correlated[0].members) == (1, 1)

    def test_budget_invariant_enforced(self):
        with pytest.raises(ValueError):
            DeviationSpec(
                team=1,
                correlation=Sequential(sample_factor=SampleFactor(n_init=1)),
                candidate=pure((0, 0)),
                individual=((0, IndividualPolicy.deterministic(2, 0)),) * 2,
                correlated=(),
                budget=1,
            )

    def test_no_correlation_forbids_correlated(self):
        with pytest.raises(ValueError):
            DeviationSpec(
                team=1,
                correlation=NoCorrelation(),
                candidate=pure((0, 0)),
                individual=(),
                correlated=(pure((1, 1)),),
            )

    def test_member_deviations_are_exact_best_responses(self):
        # 6^|observations| member tables are far too many to enumerate; each
        # member's deviation is its dynamic-programming best response with
        # the teammate at the candidate, and the two searches share one step
        # table, so no (state, joint action) reaches the game twice
        g = grid_skirmish(SkirmishConfig(3, 3, 2, horizon=4))
        calls = []

        def transition(state, joint):
            calls.append((state, joint))
            return g.transition(state, joint)

        counted = dataclasses.replace(g, transition=transition)
        cand = ProductPolicy([ConstantPolicy(6, 4)] * 2)
        opp = ProductPolicy([HashPolicy(6, 17), HashPolicy(6, 29)])
        spec = build_deviation_spec(counted, 1, cand, NoCorrelation(), opponent=opp)
        assert len(calls) == len(set(calls))
        assert [member for member, _ in spec.individual] == [0, 1]
        for member, table in spec.individual:
            _, best = _unit_best_response_exact(g, 1, (member,), cand.members, opp, EvalConfig())
            deviation = ProductPolicy([table if m == member else p for m, p in enumerate(cand.members)])
            assert team_value(g, 1, deviation, opp) == pytest.approx(best, abs=1e-12)

    def test_stochastic_joint_is_the_joint_best_response(self):
        g = grid_skirmish(SkirmishConfig(2, 1, 1, horizon=1))
        cand = ProductPolicy([ConstantPolicy(6, 4)])
        with pytest.raises(ValueError, match="opponent"):
            build_deviation_spec(g, 1, cand, Joint())
        spec = build_deviation_spec(g, 1, cand, Joint(), opponent=cand)
        assert repr(spec.correlated) == repr((best_response_joint(g, cand, 1)[0],))
        # a normal-form spec does not read the opponent
        nf_spec = build_deviation_spec(example1(), 1, pure((0, 0)), Joint(), opponent=object())
        assert len(nf_spec.correlated) == 4


def pure_joint_count(game, spec):
    """Distinct pure team joint policies in the correlated deviation set:
    joint actions on a normal-form game; on a stochastic one the seeded
    products, whose hashed members are pure at every observation."""
    if game.is_normal_form:
        keys = {tuple(m.pure_action(NF_OBS) for m in p.members) for p in spec.correlated}
        return len({k for k in keys if None not in k})
    return len({tuple(m.seed for m in p.members) for p in spec.correlated})


class TestCooperativeAbility:
    def test_no_correlation_is_zero(self):
        g = example1()
        spec = build_deviation_spec(g, 1, pure((0, 0)), NoCorrelation())
        assert pure_joint_count(g, spec) == 0

    def test_pivot_followers(self):
        g = example1()
        spec = build_deviation_spec(g, 1, pure((0, 0)), PivotFollowers(0))
        assert pure_joint_count(g, spec) == 2  # (0,0) and (1,1)

    def test_joint(self):
        g = example1()
        spec = build_deviation_spec(g, 1, pure((0, 0)), Joint())
        assert pure_joint_count(g, spec) == 4

    def test_stochastic_sequential_counts_seeded_products(self):
        # a budget of 5 holds the two member tables, then three seeded
        # deterministic products
        g = grid_skirmish(SkirmishConfig(3, 3, 2, horizon=3))
        zeros = ProductPolicy([ConstantPolicy(6, 0)] * 2)
        corr = Sequential(sample_factor=SampleFactor(n_init=5), seed=4)
        spec = build_deviation_spec(g, 1, zeros, corr, opponent=zeros)
        assert (len(spec.individual), len(spec.correlated)) == (2, 3)
        assert pure_joint_count(g, spec) == 3


class TestVerifyEquilibrium:
    def test_nash_passes_no_correlation(self):
        g = example1()
        profile = (pure((0, 0)), pure((0, 0)))
        specs = [build_deviation_spec(g, t, profile[t - 1], NoCorrelation()) for t in (1, 2)]
        report = verify_equilibrium(g, profile, specs, epsilon=1e-9)
        assert report.passed
        assert all(c.max_gain == pytest.approx(0.0, abs=1e-9) for c in report.checks)

    def test_joint_check_fails_with_witness(self):
        g = example1()
        profile = (pure((0, 0)), pure((0, 0)))
        specs = [build_deviation_spec(g, t, profile[t - 1], Joint()) for t in (1, 2)]
        report = verify_equilibrium(g, profile, specs, epsilon=1e-9)
        assert not report.passed
        team1 = report.checks[0]
        assert team1.max_gain == pytest.approx(1.0, abs=1e-9)
        assert team1.witness == {"kind": "correlated", "joint_action": [1, 1]}

    def test_ctme_mix_passes_joint(self):
        # the CTME profile comes from the independent LP oracle
        g = example1()
        lp_val, row_mix = lp_maxmin(g.matrix())
        _, col_mix = lp_maxmin(-g.matrix().T)
        joints1, joints2 = g.joint_actions(1), g.joint_actions(2)
        mix1 = JointMixPolicy(
            [joints1[i] for i in np.flatnonzero(row_mix > 1e-9)],
            row_mix[row_mix > 1e-9] / row_mix[row_mix > 1e-9].sum(),
        )
        mix2 = JointMixPolicy(
            [joints2[i] for i in np.flatnonzero(col_mix > 1e-9)],
            col_mix[col_mix > 1e-9] / col_mix[col_mix > 1e-9].sum(),
        )
        profile = (mix1, mix2)
        specs = [build_deviation_spec(g, t, profile[t - 1], Joint()) for t in (1, 2)]
        report = verify_equilibrium(g, profile, specs, epsilon=1e-6)
        assert report.passed

    def test_monotone_verification_strength(self):
        # joint deviation sets contain every unilateral deviation of a pure
        # product candidate, so the joint gain dominates
        for seed in range(15):
            g = random_team_game((2, 2), ((2, 2), (2, 2)), seed=seed)
            cand = pure((seed % 2, (seed >> 1) % 2))
            opp = pure((0, 1))
            profile = (cand, opp)
            g_nc = verify_equilibrium(
                g,
                profile,
                [
                    build_deviation_spec(g, 1, cand, NoCorrelation()),
                    build_deviation_spec(g, 2, opp, NoCorrelation()),
                ],
            ).checks[0].max_gain
            g_joint = verify_equilibrium(
                g,
                profile,
                [
                    build_deviation_spec(g, 1, cand, Joint()),
                    build_deviation_spec(g, 2, opp, Joint()),
                ],
            ).checks[0].max_gain
            assert g_joint >= g_nc - 1e-12

    def test_joint_pass_implies_all_classes_pass(self):
        # subset property on a profile that passes the joint check
        g = anti_coordination()
        cand, opp = pure((0, 1)), pure((0, 1))
        profile = (cand, opp)
        classes = [NoCorrelation(), PivotFollowers(0), Sequential(sample_factor=SampleFactor(n_init=8), seed=1), Joint()]
        gains = {}
        for corr in classes:
            specs = [build_deviation_spec(g, t, profile[t - 1], corr) for t in (1, 2)]
            gains[corr.name] = verify_equilibrium(g, profile, specs).checks[0].max_gain
        assert gains["joint"] <= 1e-9
        assert all(v <= gains["joint"] + 1e-9 for v in gains.values())

    @pytest.mark.parametrize("correlation", [NoCorrelation(), Joint()], ids=["none", "joint"])
    def test_stochastic_witness_names_the_deviation(self, correlation):
        # a stochastic deviation is a table per member: the witness gives its
        # value against the opponent and a digest of the deviating tables
        g = grid_skirmish(SkirmishConfig(3, 3, 2, horizon=4))
        zeros = ProductPolicy([ConstantPolicy(6, 0)] * 2)
        profile = (zeros, zeros)
        specs = [build_deviation_spec(g, t, zeros, correlation, opponent=zeros) for t in (1, 2)]
        report = verify_equilibrium(g, profile, specs)
        digests = set()
        for check, spec in zip(report.checks, specs):
            base = team_value(g, spec.team, zeros, zeros)
            witness = check.witness
            individual = isinstance(correlation, NoCorrelation)
            if individual:
                assert witness["kind"] == "individual"
                member, table = spec.individual[witness["member"]]
                assert member == witness["member"]
                members = list(zeros.members)
                members[member] = table
                deviation, tables = ProductPolicy(members), [table]
            else:
                assert witness["kind"] == "correlated"
                (deviation,) = spec.correlated
                tables = deviation.members
            assert set(witness) == {"kind", "value", "tables"} | ({"member"} if individual else set())
            assert witness["value"] == team_value(g, spec.team, deviation, zeros)
            assert witness["value"] - base == check.max_gain
            assert witness["tables"] == _tables_digest(tables)
            digests.add(witness["tables"])
        assert len(digests) == 2
        assert _tables_digest([ConstantPolicy(6, 0)]) != _tables_digest([ConstantPolicy(6, 1)])

    def test_individual_deviation_needs_distributed_candidate(self):
        g = example1()
        mix = JointMixPolicy([(0, 0), (1, 1)], [0.5, 0.5])
        with pytest.raises(DimensionError):
            build_deviation_spec(g, 1, mix, NoCorrelation())


def _reachable_tables(game, n_actions):
    """Every pure stationary table over the member observations of the
    states any play reaches at steps 0 to H-1."""
    every_joint = list(
        itertools.product(
            itertools.product(*(range(c) for c in game.action_counts[0])),
            itertools.product(*(range(c) for c in game.action_counts[1])),
        )
    )
    layer = {s for s, p in game.initial if p > 0}
    seen = set(layer)
    for _ in range(game.horizon - 1):
        layer = {s2 for s in layer for j in every_joint for s2, p in game.successors(s, j) if p > 0}
        seen |= layer
    obs = sorted(
        {o for team in (1, 2) for s in seen for o in game.member_observations(team, s)}, key=repr
    )
    return [
        IndividualPolicy.from_actions(n_actions, dict(zip(obs, acts)))
        for acts in itertools.product(range(n_actions), repeat=len(obs))
    ]


class TestStochasticGainsMatchBruteForce:
    """On games small enough to enumerate every pure table, each class's
    max gain is the best over the tables that class may deviate to."""

    @pytest.mark.parametrize(
        "game",
        [
            grid_skirmish(SkirmishConfig(2, 2, 2, 2)),
            random_stochastic_game(horizon=1, seed=0),
            random_stochastic_game(horizon=1, seed=1),
        ],
        ids=["skirmish-2x2", "random-h1-s0", "random-h1-s1"],
    )
    @pytest.mark.parametrize("hashed", [False, True], ids=["zeros", "hashed"])
    def test_max_gains(self, game, hashed):
        def side(t):
            counts = game.action_counts[t]
            if hashed:
                return ProductPolicy([HashPolicy(c, 5 * t + m) for m, c in enumerate(counts)])
            return ProductPolicy([ConstantPolicy(c, 0) for c in counts])

        profile = (side(0), side(1))
        tables = _reachable_tables(game, game.action_counts[0][0])
        classes = [NoCorrelation(), PivotFollowers(0), Sequential(), Joint()]
        gains = {}
        for corr in classes:
            specs = [
                build_deviation_spec(game, t, profile[t - 1], corr, opponent=profile[2 - t])
                for t in (1, 2)
            ]
            report = verify_equilibrium(game, profile, specs)
            gains[corr.name] = [c.max_gain for c in report.checks]
        for team in (1, 2):
            own, opp = profile[team - 1], profile[2 - team]
            base = team_value(game, team, own, opp)

            def gain(members):
                return team_value(game, team, ProductPolicy(members), opp) - base

            n = len(own.members)
            none = max(
                gain([t if i == m else p for i, p in enumerate(own.members)])
                for m in range(n)
                for t in tables
            )
            pivot = max(gain([t] * n) for t in tables)
            joint = max(gain(list(combo)) for combo in itertools.product(tables, repeat=n))
            got = {name: g[team - 1] for name, g in gains.items()}
            assert got["no_correlation"] == pytest.approx(none, abs=1e-12)
            assert got["pivot_followers"] == pytest.approx(pivot, abs=1e-12)
            assert got["joint"] == pytest.approx(joint, abs=1e-12)
            # the sequential budget (16) holds every member table, then
            # seeded products: between the unilateral and the joint gain
            assert none - 1e-12 <= got["sequential"] <= joint + 1e-12
