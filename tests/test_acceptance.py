"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion 10 is a soft directional check: a failure turns into an xfail
(investigation marker) rather than a suite failure.
"""

import time

import numpy as np
import pytest

from helpers import lp_maxmin, shared_maxmin_grid
from teameq.core import (
    ConstantPolicy,
    EvalConfig,
    HashPolicy,
    IndividualPolicy,
    ProductPolicy,
    SharedPolicy,
    evaluate,
)
from teameq.deviation import Joint, NoCorrelation, build_deviation_spec, SampleFactor, sample_budget, verify_equilibrium
from teameq.evaluation import Candidate, exploitability_profile
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
from teameq.oracles import advantage_decompose, sebr, solve_matrix_maxmin
from teameq.psro import PsroConfig, run_psro


def pure(actions, counts=(2, 2)):
    return ProductPolicy.pure(actions, counts)


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_example1_ground_truth():
    start = time.perf_counter()
    g = example1()
    zeros = (pure((0, 0)), pure((0, 0)))
    assert evaluate(g, *zeros) == 1.0
    assert evaluate(g, pure((1, 1)), pure((0, 0))) == 2.0

    nc_specs = [build_deviation_spec(g, t, zeros[t - 1], NoCorrelation()) for t in (1, 2)]
    nc = verify_equilibrium(g, zeros, nc_specs, epsilon=1e-9)
    assert nc.passed
    assert all(abs(c.max_gain) <= 1e-9 for c in nc.checks)

    joint_specs = [build_deviation_spec(g, t, zeros[t - 1], Joint()) for t in (1, 2)]
    joint = verify_equilibrium(g, zeros, joint_specs, epsilon=1e-9)
    assert not joint.passed
    team1 = joint.checks[0]
    assert abs(team1.max_gain - 1.0) <= 1e-9
    assert team1.witness["joint_action"] == [1, 1]

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"NE gap 0, joint witness (1,1) gain 1.0, {elapsed:.3f}s")


def test_criterion_2_ctme_two_routes():
    start = time.perf_counter()
    g = example1()
    sol = solve_matrix_maxmin(g.matrix(), tol=1e-9)
    assert abs(sol.value - 1.25) <= 1e-6
    assert np.allclose(sol.row_mix, [0.75, 0.0, 0.0, 0.25], atol=1e-6)

    result = run_psro(g, PsroConfig(oracle="joint", meta_tol=1e-6, gain_tol=1e-6, seed=0))
    assert abs(result.value - sol.value) <= 1e-6
    # the PSRO meta mixture induces the same distribution on joint actions
    induced = {}
    for entry, w in zip(result.population.team1, result.meta_1):
        atom = entry.atoms[0] if hasattr(entry, "atoms") else entry.pure_joint_action([0, 0])
        induced[atom] = induced.get(atom, 0.0) + float(w)
    assert abs(induced.get((0, 0), 0.0) - 0.75) <= 1e-6
    assert abs(induced.get((1, 1), 0.0) - 0.25) <= 1e-6

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, f"CTME 1.25 with mix 3/4:1/4 from both routes, {elapsed:.3f}s")


def test_criterion_3_shared_restriction_gap():
    g = example1()
    # stated 1-d oracle: max_q min(1-3q+4q^2, 2-3q, 3-3q, 4-3q)
    qs = np.linspace(0.0, 1.0, 10001)
    oracle_vals = np.minimum.reduce(
        [1 - 3 * qs + 4 * qs**2, 2 - 3 * qs, 3 - 3 * qs, 4 - 3 * qs]
    )
    oracle_value = float(oracle_vals.max())
    q_star, shared_value = shared_maxmin_grid(g, 1, points=10001)
    assert abs(shared_value - oracle_value) <= 1e-4
    assert abs(shared_value - 1.0) <= 1e-4

    ctme_value = solve_matrix_maxmin(g.matrix(), tol=1e-9).value
    shared_solution = SharedPolicy(IndividualPolicy(2, {0: [1 - q_star, q_star]}), 2)
    profile = exploitability_profile(
        g, Candidate.single(1, shared_solution), classes=("joint",)
    )
    opponent_reward = profile.result("joint").opponent_reward
    gap = opponent_reward - (-ctme_value)
    assert abs(gap - 0.25) <= 1e-3
    report(3, f"shared-restricted value {shared_value:.4f}, joint-class gap {gap:.4f}")


def test_criterion_4_sequential_vs_synchronized_separator():
    start = time.perf_counter()
    g = anti_coordination()
    team_psro = run_psro(g, PsroConfig(oracle="shared", expand_teams=(1,), seed=0))
    assert team_psro.value <= 0.5 + 1e-6
    s_psro = run_psro(g, PsroConfig(oracle="sebr", expand_teams=(1,), seed=0))
    assert abs(s_psro.value - 1.0) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(
        4,
        f"Team-PSRO {team_psro.value:.6f} <= 0.5, S-PSRO {s_psro.value:.6f} = 1, {elapsed:.3f}s",
    )


def test_criterion_5_sample_factor_arithmetic():
    sf_team = SampleFactor(f_team=100, f_policy=0, n_init=10**10)
    n_after_team = sample_budget(sf_team, 90, 0)
    assert n_after_team == 10**10 + 9 * 10**3
    sf_policy = SampleFactor(f_team=0, f_policy=100, n_init=n_after_team)
    n_after_policy = sample_budget(sf_policy, 0, 990)
    assert n_after_policy - n_after_team == 99_000
    report(5, "budget 1e10 + 9e3 after teammates, +9.9e4 after policies")


def test_criterion_6_sebr_monotonicity_suite():
    start = time.perf_counter()
    updates = 0
    for seed in range(100):
        g = random_team_game((2, 2), ((2, 2), (2, 2)), seed=seed)
        opp = ProductPolicy([HashPolicy(2, 1000 + seed), HashPolicy(2, 2000 + seed)])
        trace = []
        sebr(g, opp, 1, restarts=2, seed=seed, trace=trace)
        for _, _, _, before, after in trace:
            assert after - before >= -1e-9
        updates += len(trace)

    cfg = EvalConfig(exact_bound=10**7)
    for i in range(20):
        horizon = 1 + i % 6
        game = grid_skirmish(
            SkirmishConfig(
                3, 3, 2,
                horizon=horizon,
                damage=1.0 + (i % 2),
                discount=(0.9, 0.95)[i % 2],
            )
        )
        opp = ProductPolicy([HashPolicy(6, 3000 + i), HashPolicy(6, 4000 + i)])
        trace = []
        sebr(game, opp, 1, restarts=1, seed=i, trace=trace, cfg=cfg, max_sweeps=4)
        assert trace
        for _, _, _, before, after in trace:
            assert after - before >= -1e-9
        updates += len(trace)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(6, f"{updates} member updates all weakly improving, {elapsed:.1f}s")


def test_criterion_7_advantage_identity():
    checked = 0
    worst = 0.0
    rng = np.random.default_rng(7)
    # 150 normal-form instances of varying size
    for i in range(150):
        acts = 2 + i % 2
        g = random_team_game((2, 2), ((acts, acts), (acts, acts)), seed=i)
        p1 = ProductPolicy(
            [IndividualPolicy(acts, {0: rng.dirichlet(np.ones(acts))}) for _ in range(2)]
        )
        p2 = ProductPolicy(
            [IndividualPolicy(acts, {0: rng.dirichlet(np.ones(acts))}) for _ in range(2)]
        )
        action = (int(rng.integers(acts)), int(rng.integers(acts)))
        order = (0, 1) if i % 2 == 0 else (1, 0)
        terms = advantage_decompose(g, p1, p2, 1, action, order=order)
        q_val = evaluate(g, pure(action, (acts, acts)), p2)
        v_val = evaluate(g, p1, p2)
        err = abs(terms.sum() - (q_val - v_val))
        worst = max(worst, err)
        assert err <= 1e-12
        checked += 1
    # 50 stochastic instances; the joint advantage is rebuilt from the raw
    # transition/reward tables and the core evaluator, independent of the
    # decomposition engine
    import dataclasses
    import itertools

    for i in range(50):
        g = random_stochastic_game(n_states=3, horizon=3, seed=i)
        p1 = ProductPolicy(
            [IndividualPolicy(2, {s: rng.dirichlet((1, 1)) for s in range(3)}) for _ in range(2)]
        )
        p2 = ProductPolicy(
            [IndividualPolicy(2, {s: rng.dirichlet((1, 1)) for s in range(3)}) for _ in range(2)]
        )
        action = (int(rng.integers(2)), int(rng.integers(2)))
        obs = int(rng.integers(3))
        terms = advantage_decompose(g, p1, p2, 1, action, obs=obs)

        tail_game = dataclasses.replace(g, horizon=g.horizon - 1)

        def value_from(state):
            return evaluate(
                dataclasses.replace(tail_game, initial=((state, 1.0),)), p1, p2
            )

        def q_of(team_action):
            total = 0.0
            for opp_action in itertools.product(range(2), repeat=2):
                w = np.prod([p2.members[m].dist(obs)[a] for m, a in enumerate(opp_action)])
                joint = (team_action, opp_action)
                tail = sum(p * value_from(s2) for s2, p in g.transition(obs, joint))
                total += w * (g.reward(obs, joint) + g.discount * tail)
            return total

        v_val = 0.0
        for own in itertools.product(range(2), repeat=2):
            w = np.prod([p1.members[m].dist(obs)[a] for m, a in enumerate(own)])
            v_val += w * q_of(own)
        err = abs(terms.sum() - (q_of(action) - v_val))
        worst = max(worst, err)
        assert err <= 1e-12
        checked += 1
    assert checked == 200
    report(7, f"sum identity on {checked} instances, worst error {worst:.2e}")


def test_criterion_8_joint_psro_double_oracle():
    start = time.perf_counter()
    worst_iters, worst_err = 0, 0.0
    for seed in range(20):
        g = random_team_game((2, 2), ((3, 3), (3, 3)), seed=500 + seed)
        result = run_psro(g, PsroConfig(oracle="joint", max_iterations=18, seed=seed))
        lp_value, _ = lp_maxmin(g.matrix())
        assert result.converged
        assert result.iterations <= 18
        err = abs(result.value - lp_value)
        assert err <= 1e-3
        worst_iters = max(worst_iters, result.iterations)
        worst_err = max(worst_err, err)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(8, f"20 games, <= {worst_iters} iters, worst LP error {worst_err:.2e}, {elapsed:.1f}s")


def test_criterion_9_class_dominance():
    games_under_test = [example1(), sad(SadConfig(2, 3)), anti_coordination()]
    tol = 1e-6
    checked = 0
    for game in games_under_test:
        for oracle in ("joint", "shared", "individual", "sebr"):
            result = run_psro(game, PsroConfig(oracle=oracle, max_iterations=12, seed=1))
            candidate = Candidate.from_psro(result, 1)
            profile = exploitability_profile(game, candidate, seed=1)
            joint_reward = profile.result("joint").opponent_reward
            for entry in profile.results:
                if entry.applicable and entry.class_name != "joint":
                    assert joint_reward >= entry.opponent_reward - 2 * tol
            checked += 1
    report(9, f"joint class dominates on {checked} PSRO candidates")


def test_criterion_10_soft_headline_direction():
    game = sad(SadConfig(2, 5))
    per_seed = {}
    for oracle in ("sebr", "shared"):
        vals = []
        for seed in range(5):
            result = run_psro(game, PsroConfig(oracle=oracle, max_iterations=15, seed=seed))
            candidate = Candidate.from_psro(result, 1)
            profile = exploitability_profile(game, candidate, classes=("joint",), seed=seed)
            vals.append(profile.result("joint").opponent_reward)
        per_seed[oracle] = vals
    mean_spsro = float(np.mean(per_seed["sebr"]))
    mean_team = float(np.mean(per_seed["shared"]))
    print(f"\n  S-PSRO per-seed joint exploitability: {[f'{v:.6f}' for v in per_seed['sebr']]}")
    print(f"  Team-PSRO per-seed joint exploitability: {[f'{v:.6f}' for v in per_seed['shared']]}")
    if mean_spsro > mean_team + 1e-12:
        pytest.xfail(
            "soft criterion: S-PSRO mean exploitability "
            f"{mean_spsro:.6f} > Team-PSRO {mean_team:.6f}; investigate"
        )
    report(10, f"S-PSRO mean {mean_spsro:.6f} <= Team-PSRO mean {mean_team:.6f} (soft)")
