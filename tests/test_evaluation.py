"""Exploitability profiles, relative population performance, Elo."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lp_maxmin
from teameq.core import (
    ConstantPolicy,
    HashPolicy,
    IndividualPolicy,
    JointMixPolicy,
    NormalFormTeamGame,
    ProductPolicy,
    evaluate,
    team_value,
)
from teameq.evaluation import (
    CLASS_ORDER,
    Candidate,
    MatchLedger,
    cross_payoff_matrix,
    elo_ratings,
    exploitability_profile,
    rpp,
)
from teameq.games import (
    SadConfig,
    SkirmishConfig,
    anti_coordination,
    example1,
    grid_skirmish,
    random_team_game,
    sad,
)
from teameq.oracles import solve_matrix_maxmin
from teameq.psro import PsroConfig, run_psro


def pure(actions, counts=(2, 2)):
    return ProductPolicy.pure(actions, counts)


class TestExploitabilityProfile:
    def test_all_zeros_candidate_matches_brute_force(self):
        # the expected value is read off the brute-force oracle, never a
        # hand number: max over team-2 pure joints of R2 against the frozen
        # candidate
        g = example1()
        cand = Candidate.single(1, pure((0, 0)))
        report = exploitability_profile(g, cand, classes=("joint",), seed=0)
        brute = max(
            -evaluate(g, pure((0, 0)), pure(j)) for j in g.joint_actions(2)
        )
        assert report.result("joint").opponent_reward == pytest.approx(brute, abs=1e-12)

    def test_maxmin_candidate_joint_class(self):
        # zero-sum duality: the joint-class opponent earns exactly -value
        g = example1()
        sol = solve_matrix_maxmin(g.matrix(), tol=1e-9)
        joints = g.joint_actions(1)
        support = np.flatnonzero(sol.row_mix > 1e-12)
        mix = JointMixPolicy([joints[i] for i in support], sol.row_mix[support])
        report = exploitability_profile(g, Candidate.single(1, mix), classes=("joint",))
        assert report.result("joint").opponent_reward == pytest.approx(-1.25, abs=1e-6)

    def test_random_class_definition(self):
        g = example1()
        cand = Candidate.single(1, pure((1, 0)))
        report = exploitability_profile(g, cand, classes=("random",))
        uniform = ProductPolicy([IndividualPolicy.uniform(2)] * 2)
        expected = -evaluate(g, pure((1, 0)), uniform)
        assert report.result("random").opponent_reward == pytest.approx(expected, abs=1e-12)

    def test_class_dominance(self):
        g = example1()
        for oracle in ("joint", "shared", "sebr", "individual"):
            result = run_psro(g, PsroConfig(oracle=oracle, max_iterations=10, seed=2))
            cand = Candidate.from_psro(result, 1)
            report = exploitability_profile(g, cand, seed=2)
            joint = report.result("joint").opponent_reward
            for r in report.results:
                if r.applicable:
                    assert joint >= r.opponent_reward - 2e-6

    def test_equilibrium_candidate_unexploitable(self):
        # a candidate passing the joint check loses exactly its value
        g = anti_coordination()
        cand = Candidate.single(1, pure((0, 1)))
        report = exploitability_profile(g, cand, classes=("joint",))
        assert report.result("joint").opponent_reward == pytest.approx(0.0, abs=1e-9)

    def test_synchronized_not_applicable_on_heterogeneous(self):
        g = NormalFormTeamGame((2, 2), ((2, 2), (2, 3)), np.zeros((2, 2, 2, 3)))
        cand = Candidate.single(1, pure((0, 0)))
        report = exploitability_profile(g, cand, classes=("synchronized",))
        entry = report.result("synchronized")
        assert not entry.applicable and entry.opponent_reward is None

    def test_synchronized_on_skirmish(self):
        # the shared oracle searches common actions by backward induction
        # where 6^|observations| pure tables cannot be enumerated
        g = grid_skirmish(SkirmishConfig(3, 3, 2, 3))
        entries = (
            ProductPolicy([HashPolicy(6, 5), HashPolicy(6, 6)]),
            ProductPolicy([ConstantPolicy(6, 4), HashPolicy(6, 8)]),
        )
        for cand in (Candidate.single(1, entries[0]), Candidate(1, entries, (0.5, 0.5))):
            entry = exploitability_profile(g, cand, classes=("synchronized",)).results[0]
            assert entry.applicable and np.isfinite(entry.opponent_reward)

    def test_class_order(self):
        g = example1()
        report = exploitability_profile(g, Candidate.single(1, pure((0, 0))))
        assert tuple(r.class_name for r in report.results) == CLASS_ORDER


class TestRpp:
    def test_identical_populations_zero_on_antisymmetric_game(self):
        g = sad(SadConfig(2, 2))
        entries = [pure((0, 0), (5, 5)), pure((3, 3), (5, 5)), pure((3, 4), (5, 5))]
        assert rpp(g, entries, entries) == pytest.approx(0.0, abs=1e-9)

    def test_dominant_population(self):
        g = example1()
        strong = [pure((0, 0))]  # row (0,0) earns at least 1 in every column
        weak = [pure((0, 0)), pure((0, 1))]
        assert rpp(g, strong, weak) >= 1.0 - 1e-9

    def test_cross_matrix_value(self):
        assert solve_matrix_maxmin(np.array([[1.0, 2.0], [2.0, -1.0]])).value == pytest.approx(
            1.25, abs=1e-9
        )

    def test_antisymmetry(self):
        # on team-swap antisymmetric games rpp(A,B) = -rpp(B,A)
        for seed in range(6):
            rng = np.random.default_rng(seed)
            base = rng.uniform(-1, 1, size=(4, 4))
            payoff = (base - base.T).reshape(2, 2, 2, 2)
            g = NormalFormTeamGame((2, 2), ((2, 2), (2, 2)), payoff)
            pop_a = [pure((0, 0)), pure((1, 0))]
            pop_b = [pure((0, 1)), pure((1, 1))]
            assert rpp(g, pop_a, pop_b) == pytest.approx(-rpp(g, pop_b, pop_a), abs=2e-6)

    def test_matches_lp_oracle(self):
        g = random_team_game((2, 2), ((2, 2), (2, 2)), seed=77)
        pop_a = [pure(j) for j in g.joint_actions(1)]
        pop_b = [pure(j) for j in g.joint_actions(2)]
        matrix = cross_payoff_matrix(g, pop_a, pop_b)
        lp_val, _ = lp_maxmin(matrix)
        assert rpp(g, pop_a, pop_b) == pytest.approx(lp_val, abs=1e-6)

    def test_stochastic_cells_are_team_values(self):
        g = grid_skirmish(SkirmishConfig(3, 3, 2, 2))
        const = [(1, 3), (5, 5), (3, 1), (0, 2), (2, 0)]
        pop_a = [ProductPolicy([ConstantPolicy(6, a) for a in acts]) for acts in const[:3]]
        pop_b = [ProductPolicy([ConstantPolicy(6, a) for a in acts]) for acts in const[1:]]
        pop_b.append(ProductPolicy([HashPolicy(6, 3), HashPolicy(6, 4)]))
        matrix = cross_payoff_matrix(g, pop_a, pop_b)
        assert np.abs(matrix).max() > 0
        for i, a in enumerate(pop_a):
            for j, b in enumerate(pop_b):
                assert matrix[i, j] == team_value(g, 1, a, b)
        lp_val, _ = lp_maxmin(matrix)
        assert rpp(g, pop_a, pop_b) == pytest.approx(lp_val, abs=1e-6)

    def test_empty_population_rejected(self):
        g = example1()
        with pytest.raises(ValueError):
            rpp(g, [], [pure((0, 0))])


class TestElo:
    def test_draw_between_equals(self):
        ratings = elo_ratings([("a", "b", 0.5)], k=32, base=1200)
        assert ratings == {"a": 1200.0, "b": 1200.0}

    def test_win_at_equal_ratings(self):
        ratings = elo_ratings([("a", "b", 1.0)], k=32, base=1200)
        assert ratings["a"] == pytest.approx(1216.0)
        assert ratings["b"] == pytest.approx(1184.0)

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            elo_ratings([("", "b", 1.0)])

    def test_empty_ledger_rejected(self):
        with pytest.raises(ValueError):
            elo_ratings([])

    def test_invalid_score_rejected(self):
        with pytest.raises(ValueError):
            MatchLedger((("a", "b", 0.3),))

    @given(
        outcomes=st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from(["d", "e"]), st.sampled_from([0.0, 0.5, 1.0])),
            min_size=1,
            max_size=30,
        ),
        k=st.floats(1.0, 64.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_total_rating_conserved(self, outcomes, k):
        ratings = elo_ratings(outcomes, k=k, base=1000.0)
        assert sum(ratings.values()) == pytest.approx(1000.0 * len(ratings), abs=1e-6)

    def test_deterministic_in_ledger_order(self):
        matches = [("a", "b", 1.0), ("b", "c", 0.0), ("a", "c", 0.5)]
        assert elo_ratings(matches) == elo_ratings(matches)
