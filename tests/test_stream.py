"""The seeded stream behind random games and sequential samples: numpy's
``default_rng`` (SeedSequence plus PCG64) computed without numpy.random,
bit for bit, and pinned by recorded literals against future numpy changes."""

import numpy as np
import pytest

from teameq.cli import parse_game_spec
from teameq.core import NF_OBS, ProductPolicy, UniformPolicy, _DefaultRng
from teameq.deviation import SampleFactor, Sequential, build_deviation_spec
from teameq.games import random_team_game

# seeds of one, three and four 32-bit words
UNIFORM_SEEDS = [*range(300), 2**64 + 3, 10**30]
# one draw, a criterion-8 game, both sides of the first block edge, and
# several broadcast blocks
UNIFORM_SIZES = [1, 81, 1023, 1024, 1025, 5000]


@pytest.mark.parametrize("size", UNIFORM_SIZES)
def test_uniform_is_numpys_default_rng(size):
    for seed in UNIFORM_SEEDS:
        expected = np.random.default_rng(seed).uniform(-1.0, 1.0, size=size)
        got = _DefaultRng(seed).uniform(-1.0, 1.0, (size,))
        assert got.tobytes() == expected.tobytes(), seed


@pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-3.5, 7.25), (2.0, 2.0)])
def test_uniform_keeps_numpys_shape_and_range_arithmetic(lo, hi):
    for seed in (0, 7, 10**30):
        expected = np.random.default_rng(seed).uniform(lo, hi, size=(3, 5, 7, 11))
        got = _DefaultRng(seed).uniform(lo, hi, (3, 5, 7, 11))
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes(), seed


@pytest.mark.parametrize(
    "pop,k",
    [(729, 729), (729, 30), (10001, 201), (20000, 401), (10**6, 20001), (10, 0), (0, 0)],
    ids=["floyd-all", "floyd-part", "tail-just-over", "tail", "tail-million", "k-0", "empty"],
)
def test_choice_is_numpys_default_rng(pop, k):
    # above 10,000 with k > pop // 50 numpy shuffles a tail; else Floyd's draw
    for seed in (0, 1, 2**64 + 3):
        expected = np.random.default_rng(seed).choice(pop, size=k, replace=False)
        assert _DefaultRng(seed).choice(pop, k) == expected.tolist(), seed


def test_one_stream_serves_draws_in_turn():
    # the buffered 32-bit half of a choice draw carries into the next one
    ref, port = np.random.default_rng(11), _DefaultRng(11)
    for n in (3, 2000, 1):
        assert port.uniform(0.0, 1.0, (n,)).tobytes() == ref.uniform(0.0, 1.0, n).tobytes()
        assert port.choice(50, 7) == ref.choice(50, 7, replace=False).tolist()


def test_choice_refuses_an_impossible_sample():
    with pytest.raises(ValueError, match="cannot sample 3 of 2"):
        _DefaultRng(0).choice(2, 3)


# Recorded literals: they hold whatever a future numpy does to its Generator.


def test_recorded_random_game_payoffs():
    game = random_team_game((2, 2), ((3, 3), (3, 3)), seed=500)
    assert [x.hex() for x in game.payoff.reshape(-1)[:4].tolist()] == [
        "0x1.1161420a8e430p-3",
        "0x1.6a7934ada46e4p-1",
        "0x1.29b10902e4350p-2",
        "-0x1.6be6d56e6cda0p-3",
    ]


def test_recorded_samples():
    assert _DefaultRng(0).choice(9, 3) == [7, 4, 5]
    assert _DefaultRng(0).choice(20000, 401)[:5] == [18929, 11562, 10370, 19176, 14536]
    game = parse_game_spec("random:n1=2,n2=2,actions=3,seed=500")
    uniform = ProductPolicy((UniformPolicy(3), UniformPolicy(3)))
    spec = build_deviation_spec(
        game, 1, uniform, Sequential(SampleFactor(n_init=9), seed=0), opponent=uniform
    )
    picks = [p.pure_joint_action((NF_OBS, NF_OBS)) for p in spec.correlated]
    assert (len(spec.individual), picks) == (6, [(2, 1), (1, 1), (1, 2)])
