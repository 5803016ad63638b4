"""Deviation policy spaces, sample budgets and equilibrium verification."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lp_maxmin
from teameq.cli import parse_game_spec
from teameq.core import (
    NF_OBS,
    ConstantPolicy,
    DimensionError,
    HashPolicy,
    IndividualPolicy,
    JointMixPolicy,
    ProductPolicy,
    SharedPolicy,
    UniformPolicy,
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
from teameq.evaluation import Candidate, exploitability_profile
from teameq.games import (
    SkirmishConfig,
    anti_coordination,
    example1,
    grid_skirmish,
    random_stochastic_game,
    random_team_game,
)
from teameq.oracles import _belief_response, best_response_joint


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

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"f_team": float("nan")}, "finite"),
            ({"f_team": float("inf")}, "finite"),
            ({"f_policy": float("nan")}, "finite"),
            ({"f_policy": float("inf")}, "finite"),
            ({"n_init": 2.5}, "integer"),
            ({"n_init": float("inf")}, "integer"),
            ({"n_init": float("nan")}, "integer"),
        ],
    )
    def test_non_finite_rates_and_non_integer_counts_are_refused(self, kwargs, match):
        # a NaN or infinite rate would fail every sequential spec at build
        # time, an infinite count overflow, and n_init=2.5 budget 2
        with pytest.raises(ValueError, match=match):
            SampleFactor(**kwargs)
        sf = SampleFactor(f_team=1.5, f_policy=0.5, n_init=np.int64(3))
        assert sample_budget(sf, 2, 1) == 6


class TestBuildDeviationSpec:
    def test_no_correlation_counts(self):
        # one deviation per member: its first best pure action with the
        # teammate at the candidate
        g = example1()
        zeros = pure((0, 0))
        spec = build_deviation_spec(g, 1, zeros, NoCorrelation(), opponent=zeros)
        assert spec.correlated == ()
        assert [m for m, _ in spec.individual] == [0, 1]
        for member, pol in spec.individual:
            values = [
                team_value(g, 1, pure((a, 0) if member == 0 else (0, a)), zeros) for a in (0, 1)
            ]
            assert pol.pure_action(NF_OBS) == int(np.argmax(values))

    def test_joint_counts(self):
        # one deviation: the joint oracle's policy
        g = example1()
        zeros = pure((0, 0))
        spec = build_deviation_spec(g, 1, zeros, Joint(), opponent=zeros)
        assert spec.individual == ()
        assert repr(spec.correlated) == repr((best_response_joint(g, zeros, 1).policy,))

    def test_pivot_followers_shared_form(self):
        # one shared policy: the first best diagonal joint action
        g = example1()
        zeros = pure((0, 0))
        spec = build_deviation_spec(g, 1, zeros, PivotFollowers(), opponent=zeros)
        assert spec.individual == ()
        (shared,) = spec.correlated
        assert isinstance(shared, SharedPolicy)
        values = [team_value(g, 1, pure((a, a)), zeros) for a in (0, 1)]
        assert shared.pure_joint_action((NF_OBS,) * 2) == (int(np.argmax(values)),) * 2

    def test_sequential_budget_and_reproducibility(self):
        g = example1()
        corr = Sequential(sample_factor=SampleFactor(n_init=3), seed=17)
        spec1 = build_deviation_spec(g, 1, pure((0, 0)), corr, opponent=pure((0, 0)))
        spec2 = build_deviation_spec(g, 1, pure((0, 0)), corr, opponent=pure((0, 0)))
        assert len(spec1.individual) + len(spec1.correlated) == 3

        def fingerprint(spec):
            indiv = [(m, p.pure_action(0)) for m, p in spec.individual]
            corr_sig = [tuple(m.pure_action(0) for m in p.members) for p in spec.correlated]
            return indiv, corr_sig

        assert fingerprint(spec1) == fingerprint(spec2)

    @pytest.mark.parametrize("seed", [2.5, float("nan"), float("inf")])
    def test_sequential_seed_must_be_an_integer(self, seed):
        # 2.5 would sample as 2; NaN would be accepted and 2.5 fail later
        with pytest.raises(ValueError, match="seed must be an integer"):
            Sequential(seed=seed)
        g = example1()
        specs = [
            build_deviation_spec(
                g, 1, pure((0, 0)), Sequential(SampleFactor(n_init=5), s), opponent=pure((0, 0))
            )
            for s in (2, np.int64(2))
        ]
        sampled = [[p.members[0].pure_action(0) for p in spec.correlated] for spec in specs]
        assert sampled[0] == sampled[1] == [1]

    def test_sequential_fills_with_joints(self):
        g = example1()
        corr = Sequential(sample_factor=SampleFactor(n_init=5), seed=2)
        spec = build_deviation_spec(g, 1, pure((0, 0)), corr, opponent=pure((0, 0)))
        assert len(spec.individual) == 4 and len(spec.correlated) == 1
        # the only joint action not representable as a unilateral move is (1,1)
        assert tuple(m.pure_action(0) for m in spec.correlated[0].members) == (1, 1)

    def test_budget_invariant_enforced(self):
        with pytest.raises(ValueError):
            DeviationSpec(
                team=1,
                correlation=Sequential(sample_factor=SampleFactor(n_init=1)),
                candidate=pure((0, 0)),
                individual=((0, ConstantPolicy(2, 0)),) * 2,
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
            _, best = _belief_response(g, 1, (member,), cand.members, opp)
            deviation = ProductPolicy([table if m == member else p for m, p in enumerate(cand.members)])
            assert team_value(g, 1, deviation, opp) == pytest.approx(best, abs=1e-12)

    def test_stochastic_joint_is_the_joint_best_response(self):
        g = grid_skirmish(SkirmishConfig(2, 1, 1, horizon=1))
        cand = ProductPolicy([ConstantPolicy(6, 4)])
        with pytest.raises(ValueError, match="opponent"):
            build_deviation_spec(g, 1, cand, Joint())
        spec = build_deviation_spec(g, 1, cand, Joint(), opponent=cand)
        assert repr(spec.correlated) == repr((best_response_joint(g, cand, 1).policy,))
        # a normal-form spec is the joint oracle's policy too
        nf, zeros = example1(), pure((0, 0))
        with pytest.raises(ValueError, match="opponent"):
            build_deviation_spec(nf, 1, zeros, Joint())
        nf_spec = build_deviation_spec(nf, 1, zeros, Joint(), opponent=zeros)
        assert repr(nf_spec.correlated) == repr((best_response_joint(nf, zeros, 1).policy,))


def pure_joint_count(game, spec):
    """Distinct pure team joint policies in the correlated deviation set:
    joint actions on a normal-form game; on a stochastic one the seeded
    products, whose hashed members are pure at every observation."""
    if game.is_normal_form:
        keys = {p.pure_joint_action((NF_OBS,) * p.n_members) for p in spec.correlated}
        return len(keys - {None})
    return len({tuple(m.seed for m in p.members) for p in spec.correlated})


class TestCooperativeAbility:
    def test_no_correlation_is_zero(self):
        g = example1()
        spec = build_deviation_spec(g, 1, pure((0, 0)), NoCorrelation(), opponent=pure((0, 0)))
        assert pure_joint_count(g, spec) == 0

    def test_pivot_followers(self):
        # one shared pure policy: the best of (0,0) and (1,1)
        g = example1()
        spec = build_deviation_spec(g, 1, pure((0, 0)), PivotFollowers(), opponent=pure((0, 0)))
        assert pure_joint_count(g, spec) == 1

    def test_joint(self):
        # one pure joint action: the joint oracle's
        g = example1()
        spec = build_deviation_spec(g, 1, pure((0, 0)), Joint(), opponent=pure((0, 0)))
        assert pure_joint_count(g, spec) == 1

    def test_stochastic_sequential_counts_seeded_products(self):
        # a budget of 5 holds the two member tables, then three seeded
        # deterministic products
        g = grid_skirmish(SkirmishConfig(3, 3, 2, horizon=3))
        zeros = ProductPolicy([ConstantPolicy(6, 0)] * 2)
        corr = Sequential(sample_factor=SampleFactor(n_init=5), seed=4)
        spec = build_deviation_spec(g, 1, zeros, corr, opponent=zeros)
        assert (len(spec.individual), len(spec.correlated)) == (2, 3)
        assert pure_joint_count(g, spec) == 3


def product_profile(game, kind):
    """All-zeros, uniform or seeded Dirichlet (normal form) product policies
    for both teams."""
    rng = np.random.default_rng(11)

    def member(c):
        if kind == "zeros":
            return ConstantPolicy(c, 0)
        if kind == "uniform":
            return UniformPolicy(c)
        return IndividualPolicy(c, {NF_OBS: rng.dirichlet(np.ones(c))})

    return tuple(ProductPolicy([member(c) for c in counts]) for counts in game.action_counts)


class TestVerifyEquilibrium:
    def test_nash_passes_no_correlation(self):
        g = example1()
        profile = (pure((0, 0)), pure((0, 0)))
        specs = [
            build_deviation_spec(g, t, profile[t - 1], NoCorrelation(), opponent=profile[2 - t])
            for t in (1, 2)
        ]
        report = verify_equilibrium(g, profile, specs, epsilon=1e-9)
        assert report.passed
        assert all(c.max_gain == pytest.approx(0.0, abs=1e-9) for c in report.checks)

    def test_joint_check_fails_with_witness(self):
        g = example1()
        profile = (pure((0, 0)), pure((0, 0)))
        specs = [
            build_deviation_spec(g, t, profile[t - 1], Joint(), opponent=profile[2 - t])
            for t in (1, 2)
        ]
        report = verify_equilibrium(g, profile, specs, epsilon=1e-9)
        assert not report.passed
        team1 = report.checks[0]
        assert team1.max_gain == pytest.approx(1.0, abs=1e-9)
        assert team1.witness == {"kind": "correlated", "joint_action": [1, 1]}

    @pytest.mark.parametrize("epsilon", [-1.0, -1e-12, float("inf"), float("nan")])
    def test_bad_epsilon_is_refused(self, epsilon):
        # a negative epsilon FAILs every profile and NaN passes none: the
        # verdict would come from epsilon, not from the gains
        g = example1()
        profile = (pure((0, 0)), pure((0, 0)))
        specs = [
            build_deviation_spec(g, t, profile[t - 1], NoCorrelation(), opponent=profile[2 - t])
            for t in (1, 2)
        ]
        with pytest.raises(ValueError, match="epsilon must be finite and nonnegative"):
            verify_equilibrium(g, profile, specs, epsilon=epsilon)
        assert verify_equilibrium(g, profile, specs, epsilon=0.0).passed

    @pytest.mark.parametrize(
        "case,message",
        [
            ("team-twice", "team 1 has two deviation specs"),
            ("no-spec", "no deviation spec"),
            ("other-candidate", "built for another candidate"),
        ],
    )
    def test_unchecked_teams_are_refused(self, case, message):
        # the joint spec's gain of 1.0 used to be dropped for the Nash spec
        # after it, and no spec or another candidate's spec read PASS
        g = example1()
        zeros = pure((0, 0))
        specs = {
            "team-twice": [
                build_deviation_spec(g, 1, zeros, Joint(), opponent=zeros),
                build_deviation_spec(g, 1, zeros, NoCorrelation(), opponent=zeros),
            ],
            "no-spec": [],
            "other-candidate": [build_deviation_spec(g, 1, pure((1, 1)), Joint(), opponent=zeros)],
        }[case]
        with pytest.raises(ValueError, match=message):
            verify_equilibrium(g, (zeros, zeros), specs)

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
        specs = [
            build_deviation_spec(g, t, profile[t - 1], Joint(), opponent=profile[2 - t])
            for t in (1, 2)
        ]
        report = verify_equilibrium(g, profile, specs, epsilon=1e-6)
        assert report.passed

    def test_monotone_verification_strength(self):
        # every unilateral deviation of a pure product candidate is a pure
        # joint action, so the best joint gain dominates
        for seed in range(15):
            g = random_team_game((2, 2), ((2, 2), (2, 2)), seed=seed)
            cand = pure((seed % 2, (seed >> 1) % 2))
            opp = pure((0, 1))
            profile = (cand, opp)
            g_nc = verify_equilibrium(
                g,
                profile,
                [
                    build_deviation_spec(g, 1, cand, NoCorrelation(), opponent=opp),
                    build_deviation_spec(g, 2, opp, NoCorrelation(), opponent=cand),
                ],
            ).checks[0].max_gain
            g_joint = verify_equilibrium(
                g,
                profile,
                [
                    build_deviation_spec(g, 1, cand, Joint(), opponent=opp),
                    build_deviation_spec(g, 2, opp, Joint(), opponent=cand),
                ],
            ).checks[0].max_gain
            assert g_joint >= g_nc - 1e-12

    def test_joint_pass_implies_all_classes_pass(self):
        # subset property on a profile that passes the joint check
        g = anti_coordination()
        cand, opp = pure((0, 1)), pure((0, 1))
        profile = (cand, opp)
        classes = [NoCorrelation(), PivotFollowers(), Sequential(sample_factor=SampleFactor(n_init=8), seed=1), Joint()]
        gains = {}
        for corr in classes:
            specs = [
                build_deviation_spec(g, t, profile[t - 1], corr, opponent=profile[2 - t])
                for t in (1, 2)
            ]
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

    @pytest.mark.parametrize(
        "spec,profile",
        [
            ("anti_coordination", "zeros"),
            ("anti_coordination", "uniform"),
            ("skirmish:w=3,h=3,n=2,H=2", "zeros"),
        ],
    )
    def test_joint_reaches_the_profile_value(self, spec, profile):
        # verify's joint class and the exploitability profile's read one
        # best deviation value: base plus max gain is the opponent's reward
        g = parse_game_spec(spec)
        sides = product_profile(g, profile)
        specs = [
            build_deviation_spec(g, t, sides[t - 1], Joint(), opponent=sides[2 - t])
            for t in (1, 2)
        ]
        report = verify_equilibrium(g, sides, specs)
        for check in report.checks:
            opp = 3 - check.team
            base = team_value(g, check.team, sides[check.team - 1], sides[opp - 1])
            frozen = Candidate.single(opp, sides[opp - 1])
            reward = exploitability_profile(g, frozen, classes=("joint",)).result("joint")
            assert base + check.max_gain == pytest.approx(reward.opponent_reward, abs=1e-12)

    def test_individual_deviation_needs_distributed_candidate(self):
        g = example1()
        mix = JointMixPolicy([(0, 0), (1, 1)], [0.5, 0.5])
        with pytest.raises(DimensionError):
            build_deviation_spec(g, 1, mix, NoCorrelation(), opponent=pure((0, 0)))


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
        classes = [NoCorrelation(), PivotFollowers(), Sequential(), Joint()]
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


class TestNormalFormGainsMatchBruteForce:
    """Each class's best deviation reaches the maximum over every pure
    deviation that class may take: member x action for ``none``, every
    diagonal joint action for ``pivot``, every joint action for ``joint``."""

    @pytest.mark.parametrize(
        "spec",
        [
            "example1",
            "anti_coordination",
            "sad:N=3,A=3",
            "random:n1=3,n2=3,actions=3,seed=3",
            "random:n1=3,n2=2,actions=3,seed=8",
        ],
    )
    @pytest.mark.parametrize("kind", ["zeros", "uniform", "dirichlet"])
    def test_max_gains(self, spec, kind):
        game = parse_game_spec(spec)
        profile = product_profile(game, kind)
        for team in (1, 2):
            own, opp = profile[team - 1], profile[2 - team]
            counts = game.action_counts[team - 1]
            base = team_value(game, team, own, opp)

            def gain(policy):
                return team_value(game, team, policy, opp) - base

            def unilateral(member, action):
                members = list(own.members)
                members[member] = ConstantPolicy(counts[member], action)
                return ProductPolicy(members)

            def joint(actions):
                return ProductPolicy.pure(actions, counts)

            brute = {
                "no_correlation": max(
                    gain(unilateral(m, a)) for m, c in enumerate(counts) for a in range(c)
                ),
                "pivot_followers": max(
                    gain(joint((a,) * len(counts))) for a in range(counts[0])
                ),
                "joint": max(gain(joint(ja)) for ja in game.joint_actions(team)),
            }
            for corr in (NoCorrelation(), PivotFollowers(), Joint()):
                dev_spec = build_deviation_spec(game, team, own, corr, opponent=opp)
                (check,) = verify_equilibrium(game, profile, [dev_spec]).checks
                assert check.max_gain == pytest.approx(brute[corr.name], abs=1e-12)
                witness = check.witness
                if witness["kind"] == "individual":
                    witnessed = unilateral(witness["member"], witness["action"])
                else:
                    witnessed = joint(witness["joint_action"])
                assert gain(witnessed) == pytest.approx(check.max_gain, abs=1e-12)
