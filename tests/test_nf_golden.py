"""Normal-form golden digests: maxmin solves, PSRO runs, verification
reports and rpp.

Each digest is the SHA-256 of the ``repr`` of a result's numbers (floats
at full precision, so a changed last bit or the sign of a zero shows).
They guard that faster normal-form evaluation keeps every value bit for
bit.  On a mismatch the test prints the new digest and the repr it hashed.
"""

import hashlib

import numpy as np
import pytest

from teameq.cli import parse_game_spec
from teameq.core import IndividualPolicy, ProductPolicy
from teameq.deviation import Joint, NoCorrelation, build_deviation_spec, verify_equilibrium
from teameq.evaluation import rpp
from teameq.games import random_team_game
from teameq.oracles import MaxminConvergenceError, solve_matrix_maxmin
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


def _solution_numbers(sol) -> tuple:
    return (sol.row_mix.tolist(), sol.col_mix.tolist(), sol.value, sol.gap)


def _random_matrix(seed: int) -> np.ndarray:
    """Seeded rectangular payoffs: integer-valued for seeds 0 mod 4 (ratio
    ties for Bland's rule), scaled by 1e6 for seeds 3 mod 4 (the relative
    tolerance)."""
    rng = np.random.default_rng(seed)
    rows, cols = (int(n) for n in rng.integers(1, 13, size=2))
    if seed % 4 == 0:
        return rng.integers(-2, 3, size=(rows, cols)).astype(float)
    mat = rng.uniform(-1.0, 1.0, size=(rows, cols))
    return mat * 1e6 if seed % 4 == 3 else mat


SOLVE_GAMES = (
    "example1",
    "anti_coordination",
    "sad:N=2,A=5",
    "sad:N=3,A=3",
    "random:n1=2,n2=2,actions=3,seed=500",
    "random:n1=2,n2=2,actions=3,seed=501",
)

SOLVE = {
    "example1": "fa0b51e7460b463a",
    "anti_coordination": "f1b467c77ff7a823",
    "sad:N=2,A=5": "f948f7d4488cbe9d",
    "sad:N=3,A=3": "c5e1e3b229c4a9c2",
    "random:n1=2,n2=2,actions=3,seed=500": "73f147b7410df318",
    "random:n1=2,n2=2,actions=3,seed=501": "ef3151017b7e66f4",
    "matrix-0": "75fa3c3acc68cf31",
    "matrix-1": "7bbbf79c3b4c4c8f",
    "matrix-2": "c8e12426142bc934",
    "matrix-3": "e21297cc712096d3",
    "matrix-4": "4c223d471182e0b7",
    "matrix-5": "131a4f54f9de59c0",
    "matrix-6": "eaff2e34bba54528",
    "matrix-7": "d8f62c750702ed9d",
    "matrix-8": "a67c8567df86df66",
    "matrix-9": "bac7abf8ff47fd4d",
    "matrix-10": "6a812d9bfbe5e9da",
    "matrix-11": "2430c649be59cb47",
    "matrix-12": "0cd2f63d56cee62d",
    "matrix-13": "71780cac7ebfbe9f",
    "matrix-14": "cf0ed2ed52cf5637",
    "matrix-15": "c827646b9f250220",
    "matrix-16": "0bc26376194525f4",
    "matrix-17": "89929b549f581bb5",
    "matrix-18": "8bd6005bd52efb99",
    "matrix-19": "72c30b97114e5970",
    "capped": "27db753d456dd978",
}


def _solve_case(name: str):
    if name in SOLVE_GAMES:
        return solve_matrix_maxmin(parse_game_spec(name).matrix(), tol=1e-6)
    if name == "capped":  # `test_iteration_cap_reports_best`'s solve
        mat = np.random.default_rng(2).uniform(-1, 1, size=(10, 10))
        with pytest.raises(MaxminConvergenceError) as exc:
            solve_matrix_maxmin(mat, tol=1e-13, max_iterations=5)
        return exc.value.best
    return solve_matrix_maxmin(_random_matrix(int(name.split("-")[1])), tol=1e-6)


@pytest.mark.parametrize("name", list(SOLVE))
def test_solve_matrix_maxmin(name):
    _check(_solution_numbers(_solve_case(name)), SOLVE[name])
