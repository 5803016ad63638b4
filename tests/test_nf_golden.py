"""Normal-form golden digests: maxmin solves, PSRO runs, verification
reports, rpp and the command line's run files.

Each digest is the SHA-256 of the ``repr`` of a result's numbers (floats
at full precision, so a changed last bit or the sign of a zero shows).
They guard that faster normal-form evaluation keeps every value bit for
bit.  On a mismatch the test prints the new digest and the repr it hashed.
The CLI table keeps, per command, its exit code, its stdout and the
SHA-256 of each file it writes, less the wall clock and the output path.
"""

import contextlib
import hashlib
import io
import os
import re

import numpy as np
import pytest

from teameq.cli import main, parse_game_spec
from teameq.core import ProductPolicy, UniformPolicy
from teameq.deviation import Joint, NoCorrelation, build_deviation_spec, verify_equilibrium
from teameq.evaluation import rpp
from teameq.games import random_team_game
from teameq.oracles import MaxminConvergenceError, solve_matrix_maxmin
from teameq.psro import PsroConfig, run_psro

RANDOM = "random:n1=2,n2=2,actions=3,seed=7"
LARGE = "random:n1=5,n2=5,actions=3,seed=0"


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
    500: "9aa1b10a08807238",
    501: "4c85181a00c41897",
    502: "dc28e714972055d5",
    503: "9e1005ce4bf44ebd",
    504: "18fe605f245980ae",
    505: "3bbb21f9057822ed",
    506: "bc6eda51d03c6ff2",
    507: "5b55f309460258ac",
    508: "5d7c76003dfa2ba4",
    509: "cad35d65b808da64",
    510: "f0ba6c9725f13dac",
    511: "edc3f5e68bf3bb2e",
    512: "462d452e5b8f4e0b",
    513: "b70cf70ee099d642",
    514: "184ea04984043241",
    515: "5da119233257f514",
    516: "ed51806d550f675f",
    517: "29e36ccf9beda55f",
    518: "e6eed5105db122d3",
    519: "bce050177d06efb8",
}


@pytest.mark.parametrize("game_seed", sorted(JOINT_PSRO))
def test_joint_psro_criterion_8_games(game_seed):
    g = random_team_game((2, 2), ((3, 3), (3, 3)), seed=game_seed)
    result = run_psro(g, PsroConfig(oracle="joint", max_iterations=18, seed=game_seed - 500))
    _check(_run_numbers(result), JOINT_PSRO[game_seed])


LOCAL_PSRO = {
    ("example1", "sebr"): "fda7a58bad742e98",
    ("example1", "individual"): "6177133a7315c327",
    ("example1", "shared"): "199ecd3b7e33bb22",
    ("anti_coordination", "sebr"): "fcfdf35d99bfbc57",
    ("anti_coordination", "individual"): "fcfdf35d99bfbc57",
    ("anti_coordination", "shared"): "ad0b60284912d5ed",
    ("sad:N=2,A=5", "sebr"): "fcfdf35d99bfbc57",
    ("sad:N=2,A=5", "individual"): "fcfdf35d99bfbc57",
    ("sad:N=2,A=5", "shared"): "fcfdf35d99bfbc57",
    (RANDOM, "sebr"): "06288585cf7515e7",
    (RANDOM, "individual"): "690975ef9f460a71",
    (RANDOM, "shared"): "31234149fd5fbe23",
    # teams of five: 243 joint actions a side, 40 and 37 iterations
    (LARGE, "sebr"): "379b74e473f89c52",
    (LARGE, "individual"): "ddd939ff7879ca5c",
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
        ProductPolicy([UniformPolicy(c) for c in counts]) for counts in g.action_counts
    )
    correlation = NoCorrelation() if klass == "none" else Joint()
    specs = [
        build_deviation_spec(g, t, profile[t - 1], correlation, opponent=profile[2 - t])
        for t in (1, 2)
    ]
    report = verify_equilibrium(g, profile, specs)
    _check(report.to_dict(), VERIFY[spec, klass])


def test_rpp_between_runs():
    g = parse_game_spec(RANDOM)
    run_a = run_psro(g, PsroConfig(oracle="sebr", seed=0))
    run_b = run_psro(g, PsroConfig(oracle="individual", seed=0))
    values = (rpp(g, run_a.population, run_b.population), rpp(g, run_b.population, run_a.population))
    _check(values, "d7de3ee2a0618d82")


def _solution_numbers(sol) -> tuple:
    return (sol.row_mix.tolist(), sol.col_mix.tolist(), sol.value, sol.gap)


def _random_matrix(seed: int, side: int = 12) -> np.ndarray:
    """Seeded rectangular payoffs with sides up to ``side``: integer-valued
    for seeds 0 mod 4 (ratio ties for Bland's rule), scaled by 1e6 for seeds
    3 mod 4 (the relative tolerance)."""
    rng = np.random.default_rng(seed)
    rows, cols = (int(n) for n in rng.integers(1, side + 1, size=2))
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

_ZEROS = np.array([[0.0, -0.0, 1.0], [-0.0, 1.0, 0.0], [1.0, 0.0, -0.0]])

#: Edge shapes of the simplex's decisions: no pivot (span 0), one row or
#: column, and signed zeros in the payoffs.
SOLVE_MATRICES = {
    "constant": np.full((3, 4), -2.5),
    "row": np.random.default_rng(3).uniform(-1.0, 1.0, size=(1, 7)),
    "column": np.random.default_rng(4).uniform(-1.0, 1.0, size=(6, 1)),
    "signed-zeros": _ZEROS,
    "signed-zeros-constant": _ZEROS[:2, :2],
}

SOLVE = {
    "example1": "24dae3cf43ad4674",
    "anti_coordination": "f1b467c77ff7a823",
    "sad:N=2,A=5": "f948f7d4488cbe9d",
    "sad:N=3,A=3": "c5e1e3b229c4a9c2",
    "random:n1=2,n2=2,actions=3,seed=500": "7f552872663c2e47",
    "random:n1=2,n2=2,actions=3,seed=501": "c4afaf9e0a3b1014",
    "matrix-0": "2bd256b95ecfa969",
    "matrix-1": "c6eec668eb3faffe",
    "matrix-2": "e396b417a99daf00",
    "matrix-3": "4baa059f5bb1d962",
    "matrix-4": "f6d0b13db986e470",
    "matrix-5": "4b22a87ea58e2d00",
    "matrix-6": "87c3823615581bee",
    "matrix-7": "605a0ba9f74164ad",
    "matrix-8": "32acd5011d08f1f6",
    "matrix-9": "4a55cc96d8f314d1",
    "matrix-10": "58bd49f7c8aba84b",
    "matrix-11": "2430c649be59cb47",
    "matrix-12": "91da4e80a61ff35c",
    "matrix-13": "3a29520b740dc30f",
    "matrix-14": "cf0ed2ed52cf5637",
    "matrix-15": "dd82a5c37fced023",
    "matrix-16": "c1db75b82cf27899",
    "matrix-17": "411753e028d987f9",
    "matrix-18": "7063fde24c25173f",
    "matrix-19": "60f8c87ac7ad4b0f",
    "capped": "0fdedc09c7cc9eaa",
    # recorded before the simplex's decisions moved to Python floats
    "constant": "6d2c61686151b838",
    "row": "4b3e3ea19acbc156",
    "column": "09047713f77e5bd9",
    "signed-zeros": "64d8b8b4df1d2ec4",
    "signed-zeros-constant": "5097d8794626261b",
    "large-20": "4e25d932cf09aa2f",
    "large-21": "9109dcac9c502eef",
    "large-22": "ac8a8165babc4078",
    "large-23": "d69705485fdd0eb3",
    "large-24": "f6b9f9f74eee6740",
    "large-25": "20f2cc6244f36c90",
    "large-26": "d34a88c60e8d59c1",
    "large-27": "d38b9e83dce3b28d",
    "large-28": "ee774b953a049921",
    "large-29": "d24d7e431edbe0b6",
    "cap-0": "0aa24b16e337e933",
    "cap-1": "107dd8f3f0035ebb",
    "tol-0": "cc3269fde529b88d",
}

_CAP_MATRIX = np.random.default_rng(5).uniform(-1.0, 1.0, size=(6, 7))


def _solve_case(name: str):
    if name in SOLVE_GAMES:
        return solve_matrix_maxmin(parse_game_spec(name).matrix(), tol=1e-6)
    if name in SOLVE_MATRICES:
        return solve_matrix_maxmin(SOLVE_MATRICES[name], tol=1e-6)
    if name.startswith("large-"):
        return solve_matrix_maxmin(_random_matrix(int(name[6:]), side=40), tol=1e-6)
    if name == "capped":  # `test_iteration_cap_reports_best`'s solve
        mat = np.random.default_rng(2).uniform(-1, 1, size=(10, 10))
        with pytest.raises(MaxminConvergenceError) as exc:
            solve_matrix_maxmin(mat, tol=1e-13, max_iterations=5)
        return exc.value.best
    if name.startswith("cap-"):  # the slack basis (uniform sides) and one pivot on
        with pytest.raises(MaxminConvergenceError) as exc:
            solve_matrix_maxmin(_CAP_MATRIX, max_iterations=int(name[4:]))
        return exc.value.best
    if name == "tol-0":  # converged, but the round-off gap exceeds a zero tolerance
        with pytest.raises(MaxminConvergenceError) as exc:
            solve_matrix_maxmin(np.random.default_rng(0).uniform(-1, 1, size=(6, 7)), tol=0.0)
        return exc.value.best, str(exc.value)
    return solve_matrix_maxmin(_random_matrix(int(name.split("-")[1])), tol=1e-6)


@pytest.mark.parametrize("name", list(SOLVE))
def test_solve_matrix_maxmin(name):
    case = _solve_case(name)
    if name == "tol-0":
        _check((_solution_numbers(case[0]), case[1]), SOLVE[name])
    else:
        _check(_solution_numbers(case), SOLVE[name])


def _cli_steps(spec: str) -> list[tuple]:
    """(name, argv, directory whose files are hashed) of one game's runs,
    in order: eval and report read the psro runs."""
    game = ["--game", spec]
    steps = [
        ("game", ["game", *game]),
        ("solve", ["solve", *game]),
        ("verify-nash", ["verify", *game, "--profile", "all-zeros", "--class", "none"]),
    ]
    for klass in ("none", "pivot", "sequential", "joint"):
        steps.append((f"verify-{klass}", ["verify", *game, "--profile", "uniform", "--class", klass]))
    for oracle in ("joint", "shared", "individual", "sebr"):
        steps.append((f"psro-{oracle}", ["psro", *game, "--oracle", oracle]))
    steps += [
        ("exploit-run", ["eval", *game, "--mode", "exploit", "--run", "psro-sebr"]),
        ("exploit-profile", ["eval", *game, "--mode", "exploit", "--profile", "all-zeros", "--team", "2"]),
        ("rpp", ["eval", *game, "--mode", "rpp", "--run-a", "psro-sebr", "--run-b", "psro-individual"]),
    ]
    runs = [(name, [*argv, "--out", name], name) for name, argv in steps]
    for fmt in ("csv", "json-lines"):
        runs.append((f"report-{fmt}", ["report", "--run", "psro-joint", "--format", fmt], "psro-joint"))
    return runs


CLI_GAMES = ("example1", RANDOM)

_VOLATILE = re.compile(rb'^  "(?:wall_clock_seconds|out_dir)": .*\n', re.MULTILINE)


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(_VOLATILE.sub(b"", fh.read())).hexdigest()[:16]


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """Every CLI step of both games: (exit code, stdout, file digests)."""
    runs, cwd = {}, os.getcwd()
    for spec in CLI_GAMES:
        os.chdir(tmp_path_factory.mktemp("cli"))
        try:
            for name, argv, directory in _cli_steps(spec):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(argv)
                files = {f: _file_digest(os.path.join(directory, f)) for f in sorted(os.listdir(directory))}
                runs[spec, name] = (code, out.getvalue(), files)
        finally:
            os.chdir(cwd)
    return runs


CLI = {
    ("example1", "game"): (
        0,
        "wrote example1 to game/game.json\n",
        {
            "game.json": "2e74ae52768894e5",
            "manifest.json": "fe08877446d03b2a",
            "summary.json": "18bf82dfa1ca5095",
        },
    ),
    ("example1", "solve"): (
        0,
        "value 1.25 gap 6.66133815e-16\n",
        {
            "manifest.json": "f93d0a5c992465c2",
            "solution.json": "2670d39347dccf72",
            "summary.json": "5490032d70898658",
        },
    ),
    ("example1", "verify-nash"): (
        0,
        "team 1 [no_correlation] max_gain 0 witness {'kind': 'individual', 'member': 0, 'action': 0} PASS\nteam 2 [no_correlation] max_gain 0 witness {'kind': 'individual', 'member': 0, 'action': 0} PASS\nverdict PASS\n",
        {
            "manifest.json": "eaa79b13bf23bd38",
            "summary.json": "4312a3bb441ddd7b",
            "verify.json": "4312a3bb441ddd7b",
        },
    ),
    ("example1", "verify-none"): (
        2,
        "team 1 [no_correlation] max_gain 0.75 witness {'kind': 'individual', 'member': 0, 'action': 0} FAIL\nteam 2 [no_correlation] max_gain 0.75 witness {'kind': 'individual', 'member': 0, 'action': 0} FAIL\nverdict FAIL\n",
        {
            "manifest.json": "fbc9be2dc5cd0d05",
            "summary.json": "9c7fec905e61c813",
            "verify.json": "9c7fec905e61c813",
        },
    ),
    ("example1", "verify-pivot"): (
        2,
        "team 1 [pivot_followers] max_gain 1.25 witness {'kind': 'correlated', 'joint_action': [0, 0]} FAIL\nteam 2 [pivot_followers] max_gain 0.75 witness {'kind': 'correlated', 'joint_action': [0, 0]} FAIL\nverdict FAIL\n",
        {
            "manifest.json": "38746710b76f6639",
            "summary.json": "ec81105bf20345b1",
            "verify.json": "ec81105bf20345b1",
        },
    ),
    ("example1", "verify-sequential"): (
        2,
        "team 1 [sequential] max_gain 1.25 witness {'kind': 'correlated', 'joint_action': [0, 0]} FAIL\nteam 2 [sequential] max_gain 0.75 witness {'kind': 'individual', 'member': 0, 'action': 0} FAIL\nverdict FAIL\n",
        {
            "manifest.json": "17359c214cc5630d",
            "summary.json": "8cf3e618faf5650c",
            "verify.json": "8cf3e618faf5650c",
        },
    ),
    ("example1", "verify-joint"): (
        2,
        "team 1 [joint] max_gain 1.25 witness {'kind': 'correlated', 'joint_action': [0, 0]} FAIL\nteam 2 [joint] max_gain 0.75 witness {'kind': 'correlated', 'joint_action': [0, 0]} FAIL\nverdict FAIL\n",
        {
            "manifest.json": "5c04f2bac091cb54",
            "summary.json": "bd41e842c14444e0",
            "verify.json": "bd41e842c14444e0",
        },
    ),
    ("example1", "psro-joint"): (
        0,
        "meta value 1.25 after 3 iterations (converged=True)\n",
        {
            "history.csv": "59c408d823ee230b",
            "history.json": "c020643cd2d22c1f",
            "manifest.json": "fc0fa7aae39215ca",
            "population.json": "019e93c704c1c976",
            "summary.json": "87403b737c517c08",
        },
    ),
    ("example1", "psro-shared"): (
        0,
        "meta value 1.40192427 after 12 iterations (converged=True)\n",
        {
            "history.csv": "38e4b17bee61d50e",
            "history.json": "8f2e02f922d133e2",
            "manifest.json": "4b6cc5412aa49287",
            "population.json": "0d1652f7877742f0",
            "summary.json": "e854aafbd0deea54",
        },
    ),
    ("example1", "psro-individual"): (
        0,
        "meta value 1 after 1 iterations (converged=True)\n",
        {
            "history.csv": "d15c33ecdfdf0c00",
            "history.json": "9d06ff81c933c775",
            "manifest.json": "578ae08cc48c5ceb",
            "population.json": "96c4b11132bddc6a",
            "summary.json": "a54c20211ab87b18",
        },
    ),
    ("example1", "psro-sebr"): (
        0,
        "meta value 1.25 after 3 iterations (converged=True)\n",
        {
            "history.csv": "59c408d823ee230b",
            "history.json": "c020643cd2d22c1f",
            "manifest.json": "f918a89dc240c7b1",
            "population.json": "b8eca57dc3dee2f2",
            "summary.json": "9357a7d592bf836e",
        },
    ),
    ("example1", "exploit-run"): (
        0,
        "sequential: -1.25\njoint: -1.25\nsynchronized: -1.25\nno_correlation: -1.25\nrandom: -2\n",
        {
            "manifest.json": "2a16ca0f8b4706af",
            "report.csv": "fd14a79ba1670a61",
            "report.json": "78de86e423043098",
            "summary.json": "78de86e423043098",
        },
    ),
    ("example1", "exploit-profile"): (
        0,
        "sequential: 2\njoint: 2\nsynchronized: 2\nno_correlation: 1\nrandom: 0.5\n",
        {
            "manifest.json": "ec8480e8bd8d5f2d",
            "report.csv": "f2f1c3753cb41907",
            "report.json": "c95e58603092f858",
            "summary.json": "c95e58603092f858",
        },
    ),
    ("example1", "rpp"): (
        0,
        "rpp 2\n",
        {
            "manifest.json": "e8c5036a29f43a0d",
            "rpp.json": "6e99cad2d35e56de",
            "summary.json": "6e99cad2d35e56de",
        },
    ),
    ("example1", "report-csv"): (
        0,
        "wrote psro-joint/history.csv\n",
        {
            "history.csv": "59c408d823ee230b",
            "history.json": "c020643cd2d22c1f",
            "manifest.json": "fc0fa7aae39215ca",
            "population.json": "019e93c704c1c976",
            "summary.json": "87403b737c517c08",
        },
    ),
    ("example1", "report-json-lines"): (
        0,
        "wrote psro-joint/history.jsonl\n",
        {
            "history.csv": "59c408d823ee230b",
            "history.json": "c020643cd2d22c1f",
            "history.jsonl": "d0920bae57eae1cb",
            "manifest.json": "fc0fa7aae39215ca",
            "population.json": "019e93c704c1c976",
            "summary.json": "87403b737c517c08",
        },
    ),
    ("random:n1=2,n2=2,actions=3,seed=7", "game"): (
        0,
        "wrote random(seed=7) to game/game.json\n",
        {
            "game.json": "ac95cfb2ffcce065",
            "manifest.json": "8e5551679cf019e6",
            "summary.json": "3fa753009cb70956",
        },
    ),
    ("random:n1=2,n2=2,actions=3,seed=7", "solve"): (
        0,
        "value -0.018455407 gap 8.46545056e-16\n",
        {
            "manifest.json": "2782b4526b0c03ab",
            "solution.json": "2db18ad7cb697a1e",
            "summary.json": "36a4afc7982c4926",
        },
    ),
    ("random:n1=2,n2=2,actions=3,seed=7", "verify-nash"): (
        2,
        "team 1 [no_correlation] max_gain 0.584144613 witness {'kind': 'individual', 'member': 0, 'action': 1} FAIL\nteam 2 [no_correlation] max_gain 1.23966032 witness {'kind': 'individual', 'member': 0, 'action': 2} FAIL\nverdict FAIL\n",
        {
            "manifest.json": "91a4351896771c7a",
            "summary.json": "740b5f6c42749910",
            "verify.json": "740b5f6c42749910",
        },
    ),
    ("random:n1=2,n2=2,actions=3,seed=7", "verify-none"): (
        2,
        "team 1 [no_correlation] max_gain 0.0762198861 witness {'kind': 'individual', 'member': 1, 'action': 0} FAIL\nteam 2 [no_correlation] max_gain 0.114660355 witness {'kind': 'individual', 'member': 1, 'action': 0} FAIL\nverdict FAIL\n",
        {
            "manifest.json": "998da28f14e69022",
            "summary.json": "6d9e1ae7786914fc",
            "verify.json": "6d9e1ae7786914fc",
        },
    ),
    ("random:n1=2,n2=2,actions=3,seed=7", "verify-pivot"): (
        2,
        "team 1 [pivot_followers] max_gain 0.193402998 witness {'kind': 'correlated', 'joint_action': [0, 0]} FAIL\nteam 2 [pivot_followers] max_gain -0.000678965717 witness {'kind': 'correlated', 'joint_action': [2, 2]} PASS\nverdict FAIL\n",
        {
            "manifest.json": "97f4575fcc2ab685",
            "summary.json": "df694f621e5b685d",
            "verify.json": "df694f621e5b685d",
        },
    ),
    ("random:n1=2,n2=2,actions=3,seed=7", "verify-sequential"): (
        2,
        "team 1 [sequential] max_gain 0.193402998 witness {'kind': 'correlated', 'joint_action': [0, 0]} FAIL\nteam 2 [sequential] max_gain 0.259016032 witness {'kind': 'correlated', 'joint_action': [2, 0]} FAIL\nverdict FAIL\n",
        {
            "manifest.json": "80491adb896e6940",
            "summary.json": "ed28f7f5228fe8a8",
            "verify.json": "ed28f7f5228fe8a8",
        },
    ),
    ("random:n1=2,n2=2,actions=3,seed=7", "verify-joint"): (
        2,
        "team 1 [joint] max_gain 0.193402998 witness {'kind': 'correlated', 'joint_action': [0, 0]} FAIL\nteam 2 [joint] max_gain 0.259016032 witness {'kind': 'correlated', 'joint_action': [2, 0]} FAIL\nverdict FAIL\n",
        {
            "manifest.json": "9162a62efebfef49",
            "summary.json": "c0d95a9df95e087e",
            "verify.json": "c0d95a9df95e087e",
        },
    ),
    ("random:n1=2,n2=2,actions=3,seed=7", "psro-joint"): (
        0,
        "meta value -0.018455407 after 7 iterations (converged=True)\n",
        {
            "history.csv": "a858b1cdb5bb4952",
            "history.json": "2c84a1bdb4fd58e6",
            "manifest.json": "a19f761b6066d8f5",
            "population.json": "06d7f3bcb01fdec4",
            "summary.json": "ef0650464ff3976c",
        },
    ),
    ("random:n1=2,n2=2,actions=3,seed=7", "psro-shared"): (
        0,
        "meta value 0.0375676394 after 20 iterations (converged=True)\n",
        {
            "history.csv": "1abbc88bd01eac94",
            "history.json": "e8dd526c575ee940",
            "manifest.json": "4842ad5b41561ed0",
            "population.json": "e6a51373bc178505",
            "summary.json": "00f9276ab029e088",
        },
    ),
    ("random:n1=2,n2=2,actions=3,seed=7", "psro-individual"): (
        0,
        "meta value -0.018455407 after 8 iterations (converged=True)\n",
        {
            "history.csv": "02158ae72ee6281d",
            "history.json": "03e416059adfe977",
            "manifest.json": "e1c492073cee879a",
            "population.json": "0c5bad899b499fb1",
            "summary.json": "7598206719b41f1a",
        },
    ),
    ("random:n1=2,n2=2,actions=3,seed=7", "psro-sebr"): (
        0,
        "meta value -0.018455407 after 7 iterations (converged=True)\n",
        {
            "history.csv": "2096a6ce500883a1",
            "history.json": "99536ef868d0d9c1",
            "manifest.json": "9f792ef7bacec160",
            "population.json": "83541827744ec32a",
            "summary.json": "b938be8d877a8ae7",
        },
    ),
    ("random:n1=2,n2=2,actions=3,seed=7", "exploit-run"): (
        0,
        "sequential: 0.018455407\njoint: 0.018455407\nsynchronized: -0.00778175677\nno_correlation: 0.018455407\nrandom: -0.15322782\n",
        {
            "manifest.json": "9e039ea1c24e433d",
            "report.csv": "074e4bccb14ab8c9",
            "report.json": "3bb5a16f23c175b5",
            "summary.json": "3bb5a16f23c175b5",
        },
    ),
    ("random:n1=2,n2=2,actions=3,seed=7", "exploit-profile"): (
        0,
        "sequential: 0.834335546\njoint: 0.834335546\nsynchronized: 0.748154052\nno_correlation: 0.834335546\nrandom: 0.131463571\n",
        {
            "manifest.json": "0528692420a8e829",
            "report.csv": "db66f6aac229fe45",
            "report.json": "6d8de77d2bb5ccfe",
            "summary.json": "6d8de77d2bb5ccfe",
        },
    ),
    ("random:n1=2,n2=2,actions=3,seed=7", "rpp"): (
        0,
        "rpp -0.018455407\n",
        {
            "manifest.json": "bdb64dd41e962f34",
            "rpp.json": "8b38ce92281b282c",
            "summary.json": "8b38ce92281b282c",
        },
    ),
    ("random:n1=2,n2=2,actions=3,seed=7", "report-csv"): (
        0,
        "wrote psro-joint/history.csv\n",
        {
            "history.csv": "a858b1cdb5bb4952",
            "history.json": "2c84a1bdb4fd58e6",
            "manifest.json": "a19f761b6066d8f5",
            "population.json": "06d7f3bcb01fdec4",
            "summary.json": "ef0650464ff3976c",
        },
    ),
    ("random:n1=2,n2=2,actions=3,seed=7", "report-json-lines"): (
        0,
        "wrote psro-joint/history.jsonl\n",
        {
            "history.csv": "a858b1cdb5bb4952",
            "history.json": "2c84a1bdb4fd58e6",
            "history.jsonl": "26d57b2f8e2817bd",
            "manifest.json": "a19f761b6066d8f5",
            "population.json": "06d7f3bcb01fdec4",
            "summary.json": "ef0650464ff3976c",
        },
    ),
}


@pytest.mark.parametrize("spec,step", list(CLI))
def test_cli_run_files(cli_runs, spec, step):
    assert cli_runs[spec, step] == CLI[spec, step]
