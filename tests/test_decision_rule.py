"""One decision rule on both game kinds.

A candidate beats the incumbent only by more than 1e-9 times the game's
payoff scale, and ties go to the earliest candidate.  So a PSRO trajectory
depends on the game, not on its payoff units, its payoff offset, or
whether a normal-form game is written as a one-step stochastic game.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest

from helpers import one_step
from teameq import oracles
from teameq.core import NormalFormTeamGame, ProductPolicy
from teameq.evaluation import CLASS_ORDER, Candidate, exploitability_profile
from teameq.games import SadConfig, anti_coordination, example1, random_team_game, sad
from teameq.oracles import solve_matrix_maxmin
from teameq.psro import Population, PsroConfig, _best_entry_vs, run_psro

VARIANTS = ("joint", "shared", "individual", "sebr")
#: Iteration cap of the trajectory comparisons, which keeps them quick.
CAP = 8


def _random_3v3(seed):
    return random_team_game((3, 3), ((3, 3, 3), (3, 3, 3)), seed=seed)


@functools.lru_cache(maxsize=None)
def _base_run(seed, oracle):
    return run_psro(_random_3v3(seed), PsroConfig(oracle=oracle, max_iterations=CAP))


def _sizes(result):
    return [(r.iteration, r.pop_1, r.pop_2) for r in result.history]


@pytest.mark.parametrize("oracle", VARIANTS)
@pytest.mark.parametrize("seed", range(10))
def test_power_of_two_units_keep_every_trajectory(seed, oracle):
    # scaling by 2**k is exact in floating point, so every value scales
    # exactly and every decision stays as it was
    k = int(np.random.default_rng(seed).integers(-10, 21))
    base = _base_run(seed, oracle)
    game = _random_3v3(seed)
    scale = 2.0**k
    scaled = run_psro(
        dataclasses.replace(game, payoff=game.payoff * scale),
        PsroConfig(oracle=oracle, max_iterations=CAP, tol=1e-6 * scale),
    )
    assert _sizes(scaled) == _sizes(base)
    got = [r.meta_value / scale for r in scaled.history] + [scaled.value / scale]
    assert got == [r.meta_value for r in base.history] + [base.value]


@pytest.mark.parametrize("oracle", VARIANTS)
@pytest.mark.parametrize("seed", range(10))
def test_a_payoff_shift_keeps_iterations_and_population_sizes(seed, oracle):
    game = _random_3v3(seed)
    shifted = run_psro(
        dataclasses.replace(game, payoff=game.payoff + 0.37),
        PsroConfig(oracle=oracle, max_iterations=CAP),
    )
    assert _sizes(shifted) == _sizes(_base_run(seed, oracle))


_EMBEDDED = [example1, anti_coordination, lambda: sad(SadConfig(3, 3))] + [
    functools.partial(_random_3v3, seed) for seed in range(5)
]


@pytest.mark.parametrize("make", _EMBEDDED, ids=lambda make: make().name)
def test_a_one_step_game_decides_as_its_normal_form(make):
    game = make()
    embedded = one_step(game)
    runs = {}
    for oracle in ("joint", "individual", "sebr"):
        cfg = PsroConfig(oracle=oracle, max_iterations=CAP)
        runs[oracle] = run_psro(game, cfg)
        assert run_psro(embedded, cfg).value == pytest.approx(runs[oracle].value, abs=1e-9)
    # the normal-form S-PSRO candidate, a mixture of pure products, plays on both kinds
    candidate = Candidate.from_psro(runs["sebr"], 1)
    classes = ("joint", "sequential", "no_correlation", "random")
    expected = exploitability_profile(game, candidate, classes).results
    got = exploitability_profile(embedded, candidate, classes).results
    for want, have in zip(expected, got, strict=True):
        assert have.opponent_reward == pytest.approx(want.opponent_reward, abs=1e-9), want


def _constant_game(sizes, payoff):
    counts = tuple((sizes[t],) * sizes[t] for t in (0, 1))
    return NormalFormTeamGame(sizes, counts, np.full(counts[0] + counts[1], payoff))


@pytest.mark.parametrize("payoff", [0.7, -2.9])
@pytest.mark.parametrize("sizes", [(2, 2), (3, 3)])
def test_a_constant_game_has_zero_slack_and_runs(sizes, payoff):
    game = _constant_game(sizes, payoff)
    assert oracles._slack(game) == 0.0
    for oracle in VARIANTS:
        result = run_psro(game, PsroConfig(oracle=oracle))
        assert result.converged and result.value == payoff
    report = exploitability_profile(game, Candidate.from_psro(result, 1))
    assert [r.class_name for r in report.results] == list(CLASS_ORDER)
    for r in report.results:
        assert r.opponent_reward == pytest.approx(-payoff, abs=1e-12)


def test_constant_matrices_solve_with_a_zero_gap():
    rng = np.random.default_rng(0)
    for _ in range(200):
        shape = rng.integers(1, 10, 2)
        payoff = rng.uniform(-1.0, 1.0) * 10.0 ** rng.integers(-6, 7)
        assert solve_matrix_maxmin(np.full(shape, payoff)).gap == 0.0


def test_the_incumbent_goes_to_the_earlier_of_two_entries_one_ulp_apart():
    low = 0.5
    high = math.nextafter(low, 1.0)
    entries = (object(), object())
    pop = Population(entries, (object(),), np.array([[low], [high]]))
    assert _best_entry_vs(pop, 1, [1.0], oracles._slack(example1())) is entries[0]
    # the same margin the other way round: the earlier entry wins again
    pop = Population(entries, (object(),), np.array([[high], [low]]))
    assert _best_entry_vs(pop, 1, [1.0], oracles._slack(example1())) is entries[0]


def test_sebr_starts_alike_on_both_game_kinds():
    # at most ``restarts`` pure products: all of them, on either game kind
    game = example1()

    def starts(g):
        return [
            tuple(m.pure_action(0) for m in start.members)
            for start in oracles.sebr_starts(g, 1, None, restarts=4, seed=3)
        ]

    assert starts(one_step(game)) == starts(game) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(isinstance(s, ProductPolicy) for s in oracles.sebr_starts(game, 1, None, 4, 3))
