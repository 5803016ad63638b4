"""PSRO loop, meta solving and population bookkeeping."""

import dataclasses
import pickle

import numpy as np
import pytest

from helpers import lp_maxmin
from teameq.core import (
    ConstantPolicy,
    DimensionError,
    IndividualPolicy,
    JointMixPolicy,
    ProductPolicy,
    cross_payoff_matrix,
    evaluate,
    mixture_value,
)
from teameq.evaluation import Candidate, exploitability_profile
from teameq.games import (
    SkirmishConfig,
    anti_coordination,
    example1,
    grid_skirmish,
    random_team_game,
)
from teameq.oracles import BestResponse, best_response_shared, team_reward_tensor
from teameq.psro import (
    Population,
    PsroConfig,
    extend_population,
    initial_population,
    meta_solve,
    run_psro,
)


def pure(actions, counts=(2, 2)):
    return ProductPolicy.pure(actions, counts)


class TestMetaSolve:
    def test_two_by_two_equalizer(self):
        x, y, value = meta_solve(np.array([[1.0, 2.0], [2.0, -1.0]]), tol=1e-9)
        assert value == pytest.approx(1.25, abs=1e-9)
        assert np.allclose(x, [0.75, 0.25], atol=1e-9)
        assert np.allclose(y, [0.75, 0.25], atol=1e-9)

    def test_degenerate(self):
        x, y, value = meta_solve(np.array([[4.2]]), tol=1e-12)
        assert value == 4.2 and x[0] == 1.0 and y[0] == 1.0

    def test_constant_game(self):
        mat = np.zeros((3, 3))
        x, y, value = meta_solve(mat, tol=1e-9)
        assert value == pytest.approx(0.0, abs=1e-12)
        best_response_slack = (mat @ y).max() - x @ mat @ y
        assert best_response_slack <= 1e-12


class TestExtendPopulation:
    def test_row_shape(self):
        g = example1()
        pop = initial_population(g)
        pop2 = extend_population(g, pop, pure((1, 1)), 1)
        assert pop2.payoffs.shape == (2, 1)
        assert len(pop2.team1) == 2 and len(pop2.team2) == 1

    def test_existing_cells_untouched(self):
        g = example1()
        pop = initial_population(g)
        pop2 = extend_population(g, pop, pure((0, 1)), 2)
        assert np.array_equal(pop2.payoffs[:, :1], pop.payoffs)

    def test_duplicate_entry_duplicates_row(self):
        g = example1()
        pop = initial_population(g)
        pop2 = extend_population(g, pop, pure((0, 0)), 1)
        assert np.allclose(pop2.payoffs[0], pop2.payoffs[1], atol=1e-12)

    def test_example1_bonus_cell(self):
        g = example1()
        pop = initial_population(g)
        pop2 = extend_population(g, pop, pure((1, 1)), 1)
        assert pop2.payoffs[1, 0] == 2.0

    def test_hand_built_population_extends_like_a_grown_one(self):
        # a population built by hand keeps no keys: extending it checks and
        # keys its entries first, and gives the grown population's cells
        # and keys
        g = random_team_game((2, 2), ((3, 3), (3, 3)), seed=5)
        mixed = ProductPolicy([IndividualPolicy(3, {0: [0.2, 0.3, 0.5]}), ConstantPolicy(3, 1)])
        grown = extend_population(g, initial_population(g), mixed, 2)
        hand = Population(grown.team1, grown.team2, grown.payoffs)
        assert hand.keys is None and grown.keys is not None
        joint = JointMixPolicy([(2, 1), (0, 0)], [0.5, 0.5])
        pops = [extend_population(g, pop, joint, 1) for pop in (grown, hand)]
        table = cross_payoff_matrix(g, pops[0].team1, pops[0].team2)
        for pop in pops:
            assert pop.payoffs.tobytes() == table.tobytes()
            assert pop.key_counts == g.action_counts
            assert repr(pop.keys) == repr(pops[0].keys)
        assert pops[0].keys[0][0] == 0 and pops[0].keys[1][0] == 0
        assert [type(k) for k in pops[0].keys[1]] == [int, np.ndarray]
        # the hand-built entries are checked as they are keyed
        bad = Population((pure((0, 0)),), grown.team2, grown.payoffs)
        with pytest.raises(DimensionError):
            extend_population(g, bad, joint, 1)

    def test_no_holes_invariant(self):
        with pytest.raises(ValueError):
            Population((pure((0, 0)),), (pure((0, 0)),), np.zeros((2, 1)))


class TestRunPsro:
    def test_joint_oracle_reaches_matrix_value(self):
        g = example1()
        result = run_psro(g, PsroConfig(oracle="joint", seed=0))
        assert result.value == pytest.approx(1.25, abs=1e-6)
        assert result.converged

    def test_shared_oracle_one_sided_cap(self):
        # expanding team 1 against the frozen all-zeros opponent: independent
        # shared play cannot exceed 2q(1-q) <= 0.5 on the separator game
        g = anti_coordination()
        result = run_psro(g, PsroConfig(oracle="shared", expand_teams=(1,), seed=0))
        assert result.value <= 0.5 + 1e-6

    def test_sebr_oracle_one_sided_optimum(self):
        g = anti_coordination()
        result = run_psro(g, PsroConfig(oracle="sebr", expand_teams=(1,), seed=0))
        assert result.value == pytest.approx(1.0, abs=1e-6)

    def test_sebr_restarts_reach_the_oracle(self, monkeypatch):
        import teameq.psro as psro_module

        restarts = []
        real = psro_module.sebr

        def spy(*args, **kwargs):
            restarts.append(kwargs["restarts"])
            return real(*args, **kwargs)

        monkeypatch.setattr(psro_module, "sebr", spy)
        run_psro(example1(), PsroConfig(oracle="sebr", max_iterations=3, sebr_restarts=1))
        assert restarts and set(restarts) == {1}

    def test_duplicate_responses_are_not_appended(self, monkeypatch):
        # each team's oracle hands back its seed entry with a gain above tol:
        # both new lines equal existing ones only if oriented as the matrix is
        import teameq.psro as psro_module

        def seed_entry(game, team, pop, *args, **kwargs):
            return BestResponse(pop.entries(team)[0], 10.0, 0.0, "enumeration")

        monkeypatch.setattr(psro_module, "_oracle_response", seed_entry)
        result = run_psro(example1(), PsroConfig(oracle="joint"))
        assert (result.iterations, result.converged) == (1, False)
        assert (len(result.population.team1), len(result.population.team2)) == (1, 1)
        assert result.history[0].br_gain_1 > 0 and result.history[0].br_gain_2 > 0

    def test_certified_when_every_expanded_answer_has_a_gap(self):
        # Joint-PSRO enumerates on normal form; SeBR is a local search
        joint = run_psro(example1(), PsroConfig(oracle="joint"))
        assert joint.certified
        assert all(r.gap_1 == r.gap_2 == 0.0 for r in joint.history)
        seq = run_psro(example1(), PsroConfig(oracle="sebr"))
        assert not seq.certified
        assert all(r.gap_1 is None and r.gap_2 is None for r in seq.history)
        # a frozen team has no answer, so it neither has a gap nor needs one
        frozen = run_psro(example1(), PsroConfig(oracle="joint", expand_teams=(1,)))
        assert frozen.certified and frozen.history[-1].gap_2 is None

    def test_br_gain_nonnegative(self):
        for oracle in ("joint", "sebr", "individual", "shared"):
            for seed in range(5):
                g = random_team_game((2, 2), ((2, 2), (2, 2)), seed=200 + seed)
                result = run_psro(
                    g, PsroConfig(oracle=oracle, max_iterations=10, seed=seed)
                )
                for rec in result.history:
                    assert rec.br_gain_1 >= -1e-6
                    assert rec.br_gain_2 >= -1e-6

    def test_joint_double_oracle_termination(self):
        for seed in range(8):
            g = random_team_game((2, 2), ((3, 3), (3, 3)), seed=300 + seed)
            bound = g.joint_count(1) + g.joint_count(2)
            result = run_psro(g, PsroConfig(oracle="joint", max_iterations=bound, seed=seed))
            lp_val, _ = lp_maxmin(g.matrix())
            assert result.converged
            assert result.iterations <= bound
            assert result.value == pytest.approx(lp_val, abs=1e-6)

    def test_monotone_restriction_values_one_sided(self):
        # with the opponent population frozen, the restricted game value for
        # the expanding team is nondecreasing across iterations
        for seed in range(8):
            g = random_team_game((2, 2), ((2, 2), (2, 2)), seed=400 + seed)
            result = run_psro(
                g, PsroConfig(oracle="joint", expand_teams=(1,), max_iterations=10, seed=seed)
            )
            values = [rec.meta_value for rec in result.history]
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_meta_mixture_matches_joint_mix(self):
        # a lottery over deterministic products equals the corresponding
        # joint mix in value
        g = example1()
        entries = [pure((0, 0)), pure((1, 1))]
        weights = [0.75, 0.25]
        opp = pure((0, 1))
        lottery = mixture_value(g, list(zip(entries, weights)), opp)
        joint_mix = JointMixPolicy([(0, 0), (1, 1)], weights)
        assert lottery == pytest.approx(evaluate(g, joint_mix, opp), abs=1e-9)

    def test_duplicate_suppression_terminates(self):
        g = example1()
        result = run_psro(g, PsroConfig(oracle="joint", max_iterations=40, seed=0))
        # populations stay within the pure joint action counts
        assert len(result.population.team1) <= g.joint_count(1)
        assert len(result.population.team2) <= g.joint_count(2)

    def test_history_schema(self):
        g = example1()
        result = run_psro(g, PsroConfig(oracle="joint", seed=0))
        rec = result.history[0]
        assert rec.iteration == 1
        assert rec.pop_1 >= 1 and rec.pop_2 >= 1

    def test_cap_hit_reported_not_fatal(self):
        g = example1()
        result = run_psro(g, PsroConfig(oracle="joint", max_iterations=1, seed=0))
        assert not result.converged
        assert result.iterations == 1

    def test_team_psro_converges_to_no_shared_gain(self):
        # teams of three with three actions: a mixed shared deviation that
        # the oracle misses would end the run falsely converged
        g = random_team_game((3, 3), ((3, 3, 3), (3, 3, 3)), seed=3)
        cfg = PsroConfig(oracle="shared", seed=0)
        result = run_psro(g, cfg)
        assert result.converged
        mixes = np.random.default_rng(0).dirichlet(np.ones(3), 2000)
        operands = [x for m in range(3) for x in (mixes, [3, m])]
        for team in (1, 2):
            weights = result.meta_2 if team == 1 else result.meta_1
            opponent = result.population.mixture(3 - team, weights)
            meta = result.value if team == 1 else -result.value
            assert best_response_shared(g, opponent, team).value <= meta + cfg.tol
            tensor = team_reward_tensor(g, team, opponent)
            sampled = np.einsum(tensor, [0, 1, 2], *operands, [3])
            assert sampled.max() <= meta + cfg.tol

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            PsroConfig(oracle="nope")
        with pytest.raises(ValueError):
            PsroConfig(expand_teams=())
        with pytest.raises(ValueError, match="sebr_restarts"):
            PsroConfig(sebr_restarts=-1)

    @pytest.mark.parametrize(
        "field,count",
        [
            ("max_iterations", 2.5),
            ("max_iterations", 2.0),
            ("max_iterations", np.nan),
            ("sebr_restarts", 1.5),
            ("sebr_restarts", np.nan),
            ("seed", 2.5),
            ("seed", np.nan),
            ("seed", np.inf),
        ],
    )
    def test_count_that_is_not_an_integer_is_refused(self, field, count):
        # `range` would raise TypeError mid-run, and SeBR's sub-seeds would
        # truncate a fractional seed or fail on a NaN; the config refuses
        # each up front
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            PsroConfig(**{field: count})

    def test_numpy_integer_counts_are_accepted(self):
        cfg = PsroConfig(max_iterations=np.int64(2), sebr_restarts=np.int32(1), seed=np.int64(2))
        result = run_psro(example1(), cfg)
        assert result.iterations <= 2
        same = run_psro(example1(), PsroConfig(max_iterations=2, sebr_restarts=1, seed=2))
        assert result.history == same.history

    @pytest.mark.parametrize("tol", [0.0, -1e-6, np.nan, np.inf])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol"):
            PsroConfig(tol=tol)


class TestMetaSolveCalls:
    """A run solves each meta matrix once: once per iteration, plus the
    final matrix when the cap stops a run that has just appended."""

    @staticmethod
    def _counted(monkeypatch):
        import teameq.psro as psro_module

        solves = []
        original = psro_module.meta_solve

        def counted(payoffs, tol=1e-6):
            solves.append((np.array(payoffs), original(payoffs, tol)))
            return solves[-1][1]

        monkeypatch.setattr(psro_module, "meta_solve", counted)
        return solves

    @staticmethod
    def _assert_last_solve_returned(solves, result):
        matrix, (meta_1, meta_2, value) = solves[-1]
        assert matrix.tolist() == result.population.payoffs.tolist()
        assert result.meta_1.tolist() == meta_1.tolist()
        assert result.meta_2.tolist() == meta_2.tolist()
        assert result.value == value

    def test_converged_run(self, monkeypatch):
        solves = self._counted(monkeypatch)
        g = random_team_game((2, 2), ((3, 3), (3, 3)), seed=500)
        result = run_psro(g, PsroConfig(oracle="joint", max_iterations=18, seed=0))
        assert result.converged and result.iterations > 1
        assert len(solves) == result.iterations
        self._assert_last_solve_returned(solves, result)

    def test_capped_run(self, monkeypatch):
        solves = self._counted(monkeypatch)
        g = random_team_game((2, 2), ((3, 3), (3, 3)), seed=500)
        result = run_psro(g, PsroConfig(oracle="joint", max_iterations=2, seed=0))
        assert not result.converged and result.iterations == 2
        before, last = result.history
        assert (last.pop_1, last.pop_2) != (before.pop_1, before.pop_2)  # appended at the cap
        assert len(solves) == result.iterations + 1
        self._assert_last_solve_returned(solves, result)


def _count_keys_and_builds(monkeypatch):
    """Record each policy the run keys (with its key) and each policy any
    module builds a joint-action distribution for."""
    import teameq.core as core_module
    import teameq.psro as psro_module

    keyed, built = [], []
    key_of, dist_of = psro_module._pricing_key, core_module._joint_dist

    def counted_key(game, team, policy, check=True):
        keyed.append((policy, key_of(game, team, policy, check)))
        return keyed[-1][1]

    def counted_dist(game, team, policy):
        built.append(policy)
        return dist_of(game, team, policy)

    monkeypatch.setattr(psro_module, "_pricing_key", counted_key)
    monkeypatch.setattr(core_module, "_joint_dist", counted_dist)
    return keyed, built


def _ids(policies):
    return sorted(map(id, policies))


def test_joint_run_keys_each_entry_once(monkeypatch):
    # the run keys every entry once, when it joins; a Joint-PSRO entry plays
    # one joint action, so its key is its joint index and no joint-action
    # distribution is built for it, nor by the oracles reading the keys
    keyed, built = _count_keys_and_builds(monkeypatch)
    g = random_team_game((2, 2), ((3, 3), (3, 3)), seed=500)
    result = run_psro(g, PsroConfig(oracle="joint", max_iterations=18, seed=0))
    assert result.converged and result.iterations > 2
    pop = result.population
    assert _ids(p for p, _ in keyed) == _ids(pop.team1 + pop.team2)
    assert all(type(key) is int for _, key in keyed)
    assert built == []


def test_team_run_builds_one_distribution_per_mixed_entry(monkeypatch):
    # Team-PSRO's shared entries mix: each one's distribution is built
    # once, when it is keyed, and a pure entry's never
    keyed, built = _count_keys_and_builds(monkeypatch)
    g = random_team_game((2, 2), ((3, 3), (3, 3)), seed=500)
    result = run_psro(g, PsroConfig(oracle="shared", max_iterations=18, seed=0))
    pop = result.population
    entries = pop.team1 + pop.team2
    assert _ids(p for p, _ in keyed) == _ids(entries)
    mixed = [p for p, key in keyed if isinstance(key, np.ndarray)]
    assert mixed and len(mixed) < len(entries)
    assert _ids(built) == _ids(mixed)


def test_joint_run_checks_each_entry_once(monkeypatch):
    # an entry is checked when it joins the population and never again, by
    # the loop or by an oracle reading it: 9 checks for the 9 entries
    import teameq.core as core_module
    import teameq.oracles as oracles_module
    import teameq.psro as psro_module

    checked = []
    check = core_module.check_team_policy

    def counted(game, team, policy):
        checked.append(policy)
        return check(game, team, policy)

    for module in (core_module, oracles_module, psro_module):
        monkeypatch.setattr(module, "check_team_policy", counted)
    g = random_team_game((2, 2), ((3, 3), (3, 3)), seed=500)
    result = run_psro(g, PsroConfig(oracle="joint", max_iterations=18, seed=0))
    entries = result.population.team1 + result.population.team2
    assert len(checked) == len(entries) == 9
    assert _ids(checked) == _ids(entries)


@pytest.mark.parametrize("oracle", ["joint", "shared", "individual", "sebr"])
def test_every_oracle_reads_the_kept_distributions(monkeypatch, oracle):
    # each oracle's opponent mixture carries the population's keys, so no
    # oracle keys an opponent entry itself
    import teameq.oracles as oracles_module

    keyed = []
    key_of = oracles_module._pricing_key

    def recorded(game, team, policy, check=True):
        keyed.append(policy)
        return key_of(game, team, policy, check)

    monkeypatch.setattr(oracles_module, "_pricing_key", recorded)
    g = random_team_game((2, 2), ((3, 3), (3, 3)), seed=500)
    result = run_psro(g, PsroConfig(oracle=oracle, max_iterations=8, seed=0))
    assert result.iterations > 2
    entries = result.population.team1 + result.population.team2
    assert not [p for p in keyed if any(p is e for e in entries)]


class TestSkirmishSPsro:
    """S-PSRO and Indep-PSRO on the 3x3 2v2 skirmish at H=3, 4 iterations,
    seed 0."""

    @staticmethod
    def _run(oracle="sebr"):
        g = grid_skirmish(SkirmishConfig(3, 3, 2, horizon=3))
        calls = [0]

        def transition(state, joint):
            calls[0] += 1
            return g.transition(state, joint)

        counted = dataclasses.replace(g, transition=transition)
        cfg = PsroConfig(oracle=oracle, max_iterations=4, seed=0)
        return g, run_psro(counted, cfg), calls[0]

    def test_golden_values(self):
        g, result, _ = self._run()
        history = [
            (r.iteration, r.meta_value, r.br_gain_1, r.br_gain_2, r.pop_1, r.pop_2)
            for r in result.history
        ]
        assert history == [
            (1, 0.0, 3.705, 2.755, 2, 2),
            (2, 3.705, 0.0, 5.5575, 2, 3),
            (3, -1.14, 4.016794871794872, 0.9143750000000004, 3, 4),
            (4, 0.04749999999999999, 2.7075, 1.9, 4, 5),
        ]
        assert result.population.payoffs.tolist() == [
            [0.0, -2.755, -0.9025, -2.755, -0.9025],
            [3.705, 3.705, -1.8525, 0.04749999999999999, -1.8525],
            [3.705, 3.705, 2.755, 0.04749999999999999, -1.8525],
            [2.755, 2.755, 1.805, 2.755, 0.95],
        ]
        assert result.meta_1.tolist() == [0.0, 0.0, 0.0, 1.0]
        assert result.meta_2.tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
        assert (result.value, result.converged, result.iterations) == (0.95, False, 4)
        report = exploitability_profile(g, Candidate.from_psro(result, 1), seed=0)
        assert [(r.class_name, r.opponent_reward) for r in report.results] == [
            ("sequential", 1.8525),
            ("joint", 1.8524999999999998),
            ("synchronized", 1.805),
            ("no_correlation", 0.9025),
            ("random", -0.10187210648148094),
        ]

    def test_transition_calls(self):
        # pins the work: evaluating a (policy, opponent) pair a second time,
        # an oracle asking the game again for a step it already walked, or
        # any pass asking for a transition out of the last step, raises the
        # count
        assert self._run()[2] == 1407

    def test_population_does_not_grow_with_use(self):
        # SeBR's restarts stay in the population as table fallbacks; a
        # policy that remembered what it was asked would grow the pickled
        # population every time it is played
        g = grid_skirmish(SkirmishConfig(3, 3, 2, horizon=3))
        result = run_psro(g, PsroConfig(oracle="sebr", max_iterations=4, seed=0))
        before = len(pickle.dumps(result.population))
        exploitability_profile(g, Candidate.from_psro(result, 1), classes=("random",))
        assert len(pickle.dumps(result.population)) == before

    def test_individual_oracle_golden_values(self):
        # Indep-PSRO; its exploitability profile is left unpinned: the
        # joint class reads below the sequential one there (ROADMAP item 1)
        _, result, calls = self._run("individual")
        history = [
            (r.iteration, r.meta_value, r.br_gain_1, r.br_gain_2, r.pop_1, r.pop_2)
            for r in result.history
        ]
        assert history == [
            (1, 0.0, 3.705, 2.755, 2, 2),
            (2, 3.705, 0.0, 5.5575, 2, 3),
            (3, -1.14, 2.1996153846153845, 0.9143750000000004, 3, 4),
            (4, 0.9025, 0.9500000000000001, 1.805, 4, 5),
        ]
        assert result.population.payoffs.tolist() == [
            [0.0, -2.755, -0.9025, -2.755, -0.95],
            [3.705, 3.705, -1.8525, 0.04749999999999999, 0.04749999999999999],
            [2.755, 1.805, 0.95, 0.9025, -0.9025],
            [1.8525, 1.8525, 0.95, 1.8525, 1.8525],
        ]
        assert result.meta_1.tolist() == [0.0, 0.0, 0.32758620689655193, 0.6724137931034481]
        assert result.meta_2.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]
        assert (result.value, result.converged, result.iterations) == (0.95, False, 4)
        assert calls == 456
