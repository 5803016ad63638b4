"""Stochastic golden digests: PSRO runs and exploitability profiles on the
3x3 2v2 grid skirmish.

The runs are the benchmark's own: S-PSRO at H=4 and H=5 (6 iterations,
seed 0) with team 1's five-class profile at seed 500, and Indep-PSRO and
Joint-PSRO at H=4 (4 iterations).  Each digest is the SHA-256 of the
``repr`` of a result's numbers (floats at full precision, so a changed last
bit or the sign of a zero shows).  They guard that faster exact stochastic
evaluation and oracles keep every value bit for bit.  On a mismatch the
test prints the new digest and the repr it hashed.
"""

import pytest

from teameq.core import IndividualPolicy, _belief_value
from teameq.evaluation import Candidate, exploitability_profile
from teameq.games import SkirmishConfig, grid_skirmish
from teameq.oracles import best_response_joint
from teameq.psro import PsroConfig, run_psro

from test_nf_golden import _check, _run_numbers

PSRO = {
    ("sebr", 4, 6): "12f2762e07c1c5c6",
    ("sebr", 5, 6): "54c38f4d8c769b19",
    ("individual", 4, 4): "15ee1a247e9ec0bb",
    ("joint", 4, 4): "329104a1aeea9e4a",
}

PROFILE = {
    4: "6682aa0743ea8274",
    5: "ae9cf6dae27a2ceb",
}


def _skirmish(horizon):
    return grid_skirmish(SkirmishConfig(3, 3, 2, horizon=horizon))


@pytest.fixture(scope="module")
def runs():
    """Each PSRO run once, shared by its digest and its profile."""
    return {
        key: run_psro(_skirmish(key[1]), PsroConfig(oracle=key[0], max_iterations=key[2], seed=0))
        for key in PSRO
    }


@pytest.mark.parametrize("key", sorted(PSRO), ids=lambda k: f"{k[0]}-H{k[1]}")
def test_skirmish_psro(runs, key):
    _check(_run_numbers(runs[key]), PSRO[key])


@pytest.mark.parametrize("horizon", sorted(PROFILE))
def test_skirmish_spsro_profile(runs, horizon):
    result = runs["sebr", horizon, 6]
    report = exploitability_profile(
        _skirmish(horizon), Candidate.from_psro(result, 1), seed=500
    )
    numbers = [(r.class_name, r.opponent_reward, r.applicable, r.note) for r in report.results]
    _check(numbers, PROFILE[horizon])


#: The joint class's exact value against each positive-weight atom of team
#: 1's S-PSRO candidate, in entry order.
ATOM_JOINT = {
    4: (3.5197499999999993, 2.709875, 4.51725),
    5: (6.098762499999999, 6.098762499999999, 6.098762499999999),
}


@pytest.mark.parametrize("horizon", sorted(ATOM_JOINT))
def test_joint_value_against_each_atom(runs, horizon):
    atoms = Candidate.from_psro(runs["sebr", horizon, 6], 1).mixture()
    answers = [best_response_joint(_skirmish(horizon), atom, 2) for atom, _ in atoms]
    assert tuple(a.value for a in answers) == ATOM_JOINT[horizon]
    assert {(a.method, a.gap) for a in answers} == {("exact_dp", 0.0)}


#: `core._belief_value` of the responding team against each team's
#: S-PSRO candidate, as float.hex, by (horizon, candidate team).
BELIEF_VALUE = {
    (4, 1): "0x1.05530a824bc2fp+2",
    (4, 2): "0x1.031733c767324p+2",
    (5, 1): "0x1.6856aa58320c2p+2",
    (5, 2): "0x1.86521ff2e48e8p+2",
}


def test_belief_value_bounds_every_profile_class(runs):
    # against the mixture the history-dependent response reads between
    # every class the profile computes (sequential at two seeds; at the
    # second, SeBR's Markov policy reaches the value) and the response that
    # knows the drawn atom
    for (horizon, team), expected in BELIEF_VALUE.items():
        mix = Candidate.from_psro(runs["sebr", horizon, 6], team).mixture()
        assert _belief_value(_skirmish(horizon), 3 - team, mix).hex() == expected
    game = _skirmish(4)
    candidate = Candidate.from_psro(runs["sebr", 4, 6], 1)
    mix = candidate.mixture()
    value = _belief_value(game, 2, mix)
    readings = [r.opponent_reward for r in exploitability_profile(game, candidate, seed=0).results]
    readings += [
        r.opponent_reward
        for r in exploitability_profile(game, candidate, ("sequential",), seed=400).results
    ]
    assert all(reading <= value + 1e-9 for reading in readings)
    assert readings[-1] == pytest.approx(value, abs=1e-9)
    assert value < sum(w * v for (_, w), v in zip(mix, ATOM_JOINT[4]))


def _chain_depth(member) -> int:
    """Tables a lookup in ``member`` can pass through."""
    depth = 0
    while isinstance(member, IndividualPolicy):
        depth, member = depth + 1, member.fallback
    return depth


def test_spsro_member_tables_are_flat(runs):
    # each SeBR update builds a table over the member's previous one; the
    # earlier tables are copied in, not chained below it
    pop = runs["sebr", 4, 6].population
    depths = [_chain_depth(m) for entry in pop.team1 + pop.team2 for m in entry.members]
    assert max(depths) == 1
