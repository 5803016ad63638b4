"""Normal-form golden digests: PSRO runs, verification reports and rpp.

Each digest is the SHA-256 of the ``repr`` of a result's numbers (floats
at full precision, so a changed last bit or the sign of a zero shows).
They guard that faster normal-form evaluation keeps every value bit for
bit.  On a mismatch the test prints the new digest and the repr it hashed.
"""

import hashlib

import pytest

from teameq.cli import parse_game_spec
from teameq.core import IndividualPolicy, ProductPolicy
from teameq.deviation import Joint, NoCorrelation, build_deviation_spec, verify_equilibrium
from teameq.evaluation import rpp
from teameq.games import random_team_game
from teameq.psro import PsroConfig, run_psro

RANDOM = "random:n1=2,n2=2,actions=3,seed=7"


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _run_numbers(result) -> tuple:
    history = [
        (r.iteration, r.meta_value, r.br_gain_1, r.br_gain_2, r.pop_1, r.pop_2)
        for r in result.history
    ]
    return (
        history,
        result.population.payoffs.tolist(),
        result.meta_1.tolist(),
        result.meta_2.tolist(),
        result.value,
    )


def _check(obj, expected):
    got = _digest(obj)
    assert got == expected, f"digest {got} of {obj!r}"


JOINT_PSRO = {
    500: "037939faec464220",
    501: "f66a4a3b97eef17a",
    502: "8c0252994c359d2b",
    503: "8d0ef238d2eb7a3d",
    504: "b2cc04afc0cdb029",
    505: "6be77f68cc85aabb",
    506: "7e7b8effda823a39",
    507: "06c84e0b5756fc0f",
    508: "6105093035ed7f6b",
    509: "14d6fa085c8311fc",
    510: "ed9e908ffcd8bd91",
    511: "097250f45b64be8a",
    512: "09e645934f17082c",
    513: "123c9d331532b1c1",
    514: "b31224a742b440f4",
    515: "beb614e408ccf7f5",
    516: "3e3750b8b0cd63aa",
    517: "2fd41a1f752fbdd1",
    518: "741702ad65fcf2e5",
    519: "22dd7c444cdadd47",
}


@pytest.mark.parametrize("game_seed", sorted(JOINT_PSRO))
def test_joint_psro_criterion_8_games(game_seed):
    g = random_team_game((2, 2), ((3, 3), (3, 3)), seed=game_seed)
    result = run_psro(g, PsroConfig(oracle="joint", max_iterations=18, seed=game_seed - 500))
    _check(_run_numbers(result), JOINT_PSRO[game_seed])


LOCAL_PSRO = {
    ("example1", "sebr"): "9dfe26f8b32b464a",
    ("example1", "individual"): "6177133a7315c327",
    ("example1", "shared"): "f0e78fba7db99349",
    ("anti_coordination", "sebr"): "fcfdf35d99bfbc57",
    ("anti_coordination", "individual"): "fcfdf35d99bfbc57",
    ("anti_coordination", "shared"): "ad0b60284912d5ed",
    ("sad:N=2,A=5", "sebr"): "fcfdf35d99bfbc57",
    ("sad:N=2,A=5", "individual"): "fcfdf35d99bfbc57",
    ("sad:N=2,A=5", "shared"): "fcfdf35d99bfbc57",
    (RANDOM, "sebr"): "a0a87ea8e4d9c1e7",
    (RANDOM, "individual"): "5a02f69a86764057",
    (RANDOM, "shared"): "0bfd0c9785c6fe36",
}


@pytest.mark.parametrize("spec,oracle", sorted(LOCAL_PSRO))
def test_local_oracle_psro(spec, oracle):
    result = run_psro(parse_game_spec(spec), PsroConfig(oracle=oracle, seed=0))
    _check(_run_numbers(result), LOCAL_PSRO[spec, oracle])


VERIFY = {
    ("example1", "none"): "d01980211392ffe9",
    ("example1", "joint"): "2184d3fbf2013842",
    ("anti_coordination", "none"): "17d2552f4d9bad0a",
    ("anti_coordination", "joint"): "6e55145ca3cad293",
    ("sad:N=2,A=5", "none"): "4ffbc07a7423641e",
    ("sad:N=2,A=5", "joint"): "4dbb547839beb2a5",
}


@pytest.mark.parametrize("spec,klass", sorted(VERIFY))
def test_verify_at_uniform_profile(spec, klass):
    g = parse_game_spec(spec)
    profile = tuple(
        ProductPolicy([IndividualPolicy.uniform(c) for c in counts]) for counts in g.action_counts
    )
    correlation = NoCorrelation() if klass == "none" else Joint()
    specs = [build_deviation_spec(g, t, profile[t - 1], correlation) for t in (1, 2)]
    report = verify_equilibrium(g, profile, specs)
    _check(report.to_dict(), VERIFY[spec, klass])


def test_rpp_between_runs():
    g = parse_game_spec(RANDOM)
    run_a = run_psro(g, PsroConfig(oracle="sebr", seed=0))
    run_b = run_psro(g, PsroConfig(oracle="individual", seed=0))
    values = (rpp(g, run_a.population, run_b.population), rpp(g, run_b.population, run_a.population))
    _check(values, "d279a77584317d42")
