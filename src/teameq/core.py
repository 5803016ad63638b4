"""Game representations and payoff evaluation for two-team zero-sum games.

Two kinds of games are supported: normal-form games given by a payoff
tensor over both teams' pure joint actions, and tabular stochastic games
with a finite joint-observation space, discounting and a finite evaluation
horizon.  Only team 1's reward is ever stored; team 2's reward is its
negation.

Games and policies are immutable after construction and safe to share
across threads.  Evaluation is a pure function of (game, policies).
"""

from __future__ import annotations

import itertools
import math
import numbers
# hashlib.blake2b is this same type, but importing hashlib also maps
# OpenSSL's libcrypto, which blake2b never uses
from _blake2 import blake2b
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

Obs = Hashable

#: The single observation every player sees in a normal-form game.
NF_OBS = 0

#: Distributions must sum to one within this tolerance.
DIST_TOL = 1e-12


def _integer(name: str, value) -> int:
    """``value`` as an int; ValueError unless it is an integer (numpy's pass)."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


class DimensionError(ValueError):
    """Policies and game shapes do not line up."""


class EvaluationError(ValueError):
    """Evaluation requested with an unusable configuration or budget."""


def _check_dist(dist: np.ndarray, what: str) -> np.ndarray:
    """A validated probability row, read-only and as given but for clipping
    negatives to 0 (not renormalised, so a row read back plays its bits)."""
    arr = np.asarray(dist, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{what}: expected a 1-d probability vector")
    if not arr.min(initial=0.0) >= -DIST_TOL:
        raise ValueError(f"{what}: negative or NaN probability {arr.min()}")
    if not abs(arr.sum() - 1.0) <= DIST_TOL:
        raise ValueError(f"{what}: probabilities sum to {arr.sum()!r}, not 1")
    arr = np.maximum(arr, 0.0)
    arr.setflags(write=False)
    return arr


def _support_of(dist: np.ndarray) -> tuple:
    """``((action, prob), ...)`` for the positive-probability actions."""
    return tuple((int(a), float(dist[a])) for a in np.nonzero(dist)[0])


# ---------------------------------------------------------------------------
# Seeded draws
#
# _DefaultRng is numpy's ``default_rng(seed)`` stream, bit for bit, for
# the two Generator methods teameq draws with, computed without importing
# numpy.random (whose secrets -> hmac import maps OpenSSL).  numpy pins only
# its bit generators' streams across versions; the port pins the methods
# too, so a seed gives the same draws on every numpy.

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier (O'Neill 2014; numpy's default).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: ``uniform`` steps this many states in Python ints and reaches every
#: further state as one jump from them.
_PCG_BLOCK = 1024
#: Blocks per broadcast chunk of ``uniform`` (128 KiB per uint64 temporary).
_PCG_CHUNK = 16


def _hasher(const: int, mult: int) -> Callable[[int], int]:
    """SeedSequence's 32-bit hashmix, its constant advancing per call."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ (value >> 16)

    return hashmix


def _seed_sequence(seed: int) -> tuple[int, int]:
    """``SeedSequence(seed).generate_state(4, uint64)`` as PCG64 reads it:
    (initial state, stream), each two words high first."""
    words = [seed & _M32]
    while seed > _M32:
        seed >>= 32
        words.append(seed & _M32)

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ (value >> 16)

    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    generate = _hasher(0x8B51F9DD, 0x58F38DED)
    halves = [generate(pool[i % 4]) for i in range(8)]
    w = [halves[2 * i] | halves[2 * i + 1] << 32 for i in range(4)]
    return w[0] << 64 | w[1], w[2] << 64 | w[3]


def _xsl_rr(state: int) -> int:
    """PCG64's output: the state's two halves xored, rotated right by its top
    six bits."""
    x = ((state >> 64) ^ state) & _M64
    rot = state >> 122
    return (x >> rot | x << (64 - rot)) & _M64


def _uint64_limbs(values) -> tuple[np.ndarray, np.ndarray]:
    """128-bit ints as their (high, low) uint64 limbs, fresh arrays."""
    packed = b"".join(v.to_bytes(16, "little") for v in values)
    limbs = np.frombuffer(packed, dtype="<u8").reshape(-1, 2).astype(np.uint64)
    return limbs[:, 1], limbs[:, 0]


def _unit_draws(high: np.ndarray, low: np.ndarray, out=None) -> np.ndarray:
    """``_xsl_rr``'s top 53 bits times ``2**-53`` for states given as limbs,
    overwriting both; rotating by ``-rot & 63`` shifts by 0 for ``rot`` 0."""
    rot = high >> 58
    high ^= low
    np.right_shift(high, rot, out=low)
    rot = -rot
    rot &= 63
    high <<= rot
    low |= high
    low >>= 11
    return np.multiply(low, 2.0**-53, out=out)


class _DefaultRng:
    """numpy's ``default_rng(seed)`` for ``uniform`` and for ``choice``
    without replacement, bit for bit: SeedSequence's pool, then PCG64's
    128-bit LCG with its XSL-RR output and its buffered 32-bit half-words.
    ValueError unless ``seed`` is a nonnegative integer."""

    def __init__(self, seed: int):
        seed = _integer("seed", seed)
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        initstate, stream = _seed_sequence(seed)
        self._inc = (stream << 1 | 1) & _M128
        self._state = ((self._inc + initstate) * _PCG_MULT + self._inc) & _M128
        self._half = None

    def _next64(self) -> int:
        self._state = (self._state * _PCG_MULT + self._inc) & _M128
        return _xsl_rr(self._state)

    def _next32(self) -> int:
        """The low half of a fresh 64-bit draw, then its high half."""
        if self._half is not None:
            half, self._half = self._half, None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _M32

    def _bounded(self, top: int) -> int:
        """Uniform integer in ``[0, top]`` for ``top < 2**32 - 1``: Lemire's
        multiply-and-reject on 32-bit draws; ``top`` 0 draws nothing."""
        if top == 0:
            return 0
        span = top + 1
        m = self._next32() * span
        if (m & _M32) < span:
            floor = (1 << 32) % span
            while (m & _M32) < floor:
                m = self._next32() * span
        return m >> 32

    def uniform(self, lo: float, hi: float, shape: tuple) -> np.ndarray:
        """``Generator.uniform(lo, hi, shape)``: ``lo + (hi - lo) * u`` per
        cell in C order, ``u`` a 64-bit draw's top 53 bits times ``2**-53``.
        ValueError when ``hi - lo`` overflows."""
        lo, hi = float(lo), float(hi)
        width = hi - lo
        if not math.isfinite(width):
            raise ValueError(f"range width {hi!r} - {lo!r} overflows")
        n = math.prod(shape)
        head = []
        state = self._state
        for _ in range(min(n, _PCG_BLOCK)):
            state = (state * _PCG_MULT + self._inc) & _M128
            head.append(state)
        x_hi, x_lo = _uint64_limbs(head)
        if n <= _PCG_BLOCK:
            self._state = state
            u = _unit_draws(x_hi, x_lo)
        else:
            u = self._broadcast_draws(head, x_hi, x_lo, n)
        u *= width
        u += lo
        return u.reshape(-1)[:n].reshape(shape)

    def _broadcast_draws(self, head: list, x_hi, x_lo, n: int) -> np.ndarray:
        """Unit draws for states 1 to ``n`` from the first block's, in rows
        of ``_PCG_BLOCK``, and the stream advanced past state ``n``: state
        ``k * _PCG_BLOCK + i`` is ``a_k * head[i] + c_k`` (mod 2**128), one
        broadcast multiply-add per row on (high, low) uint64 limbs.  The
        low limbs' full product goes by 32-bit halves (Hacker's Delight's
        mulhi), so no partial sum overflows."""
        rows = -(-n // _PCG_BLOCK)
        jump_a, jump_c = 1, 0
        for _ in range(_PCG_BLOCK):
            jump_a, jump_c = jump_a * _PCG_MULT & _M128, (jump_c * _PCG_MULT + self._inc) & _M128
        coeffs = [(1, 0)]
        for _ in range(rows - 1):
            a, c = coeffs[-1]
            coeffs.append((a * jump_a & _M128, (c * jump_a + jump_c) & _M128))
        a_k, c_k = coeffs[(n - 1) // _PCG_BLOCK]
        self._state = (a_k * head[(n - 1) % _PCG_BLOCK] + c_k) & _M128
        x0, x1 = x_lo & _M32, x_lo >> 32
        a_hi, a_lo = (col[:, None] for col in _uint64_limbs(a for a, _ in coeffs))
        c_hi, c_lo = (col[:, None] for col in _uint64_limbs(c for _, c in coeffs))
        out = np.empty((rows, _PCG_BLOCK))
        for r in range(0, rows, _PCG_CHUNK):
            rs = slice(r, r + _PCG_CHUNK)
            y0, y1 = a_lo[rs] & _M32, a_lo[rs] >> 32
            ll = x0 * y0
            mid = x0 * y1
            mid += ll >> 32
            mid2 = x1 * y0
            mid2 += mid & _M32
            ll &= _M32
            low = mid2 << 32
            low |= ll
            high = x1 * y1
            high += mid >> 32
            high += mid2 >> 32
            high += x_hi * a_lo[rs]
            high += x_lo * a_hi[rs]
            high += c_hi[rs]
            low += c_lo[rs]
            high += low < c_lo[rs]
            _unit_draws(high, low, out=out[rs])
        return out

    def choice(self, pop: int, k: int) -> list[int]:
        """``Generator.choice(pop, k, replace=False)`` as ints, for
        ``0 <= k <= pop < 2**32 - 1``: above 10,000 with ``k > pop // 50`` a
        Fisher-Yates pass over the last ``k`` slots of ``range(pop)``; else
        Floyd's draw (Bentley & Floyd 1987), then a shuffle of it."""
        if not 0 <= k <= pop < _M32:
            raise ValueError(f"cannot sample {k} of {pop} without replacement")
        if pop > 10000 and k > pop // 50:
            moved: dict = {}
            for i in range(pop - 1, max(pop - k, 1) - 1, -1):
                j = self._bounded(i)
                moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
            return [moved.get(i, i) for i in range(pop - k, pop)]
        drawn: list = []
        seen = set()
        for j in range(pop - k, pop):
            v = self._bounded(j)
            if v in seen:
                v = j
            seen.add(v)
            drawn.append(v)
        for i in range(k - 1, 0, -1):
            j = self._bounded(i)
            drawn[i], drawn[j] = drawn[j], drawn[i]
        return drawn


# ---------------------------------------------------------------------------
# Individual (per-player) policies
#
# Every member policy offers dist(obs), the action distribution as a numpy
# row, and support(obs), its positive-probability (action, prob) pairs.


class IndividualPolicy:
    """Tabular per-player policy: observation -> distribution over actions.

    ``fallback`` answers observations outside the table.  A fallback that
    is itself a table is flattened in: its entries sit under the new ones
    and its own fallback is taken over, so a lookup reaches at most one
    table and one non-table policy.
    """

    __slots__ = ("n_actions", "_table", "_support", "_fallback")

    def __init__(
        self,
        n_actions: int,
        table: Mapping[Obs, Sequence[float]],
        fallback: "IndividualPolicy | None" = None,
    ):
        self.n_actions = int(n_actions)
        tab, support, fallback = self._inherited(fallback)
        for obs, dist in table.items():
            arr = _check_dist(dist, f"policy entry for obs {obs!r}")
            if arr.shape != (self.n_actions,):
                raise DimensionError(
                    f"policy entry for obs {obs!r} has {arr.shape[0]} actions, "
                    f"expected {self.n_actions}"
                )
            tab[obs] = arr
            support[obs] = _support_of(arr)
        self._table = tab
        self._support = support
        self._fallback = fallback

    @classmethod
    def from_actions(
        cls,
        n_actions: int,
        actions: Mapping[Obs, int],
        fallback: "IndividualPolicy | None" = None,
    ):
        """Deterministic table playing ``actions[obs]`` at each observation.

        Equal to the validated constructor given the one-hot rows, without
        building and checking a row per entry: each action's entries share
        one read-only one-hot row and one support.  Raises ValueError for
        an action outside ``[0, n_actions)``.
        """
        n = int(n_actions)
        eye = np.eye(n)
        eye.setflags(write=False)
        rows: dict = {}
        tab, support, fallback = cls._inherited(fallback)
        for obs, a in actions.items():
            if a not in rows:
                if not 0 <= a < n:
                    raise ValueError(f"action {a} outside [0, {n})")
                rows[a] = (eye[a], ((int(a), 1.0),))
            tab[obs], support[obs] = rows[a]
        policy = cls.__new__(cls)
        policy.n_actions = n
        policy._table = tab
        policy._support = support
        policy._fallback = fallback
        return policy

    @staticmethod
    def _inherited(fallback) -> tuple[dict, dict, object]:
        """Copies of a fallback table's entries and supports, and the
        policy below it; empty tables over ``fallback`` otherwise."""
        if isinstance(fallback, IndividualPolicy):
            return dict(fallback._table), dict(fallback._support), fallback._fallback
        return {}, {}, fallback

    def dist(self, obs: Obs) -> np.ndarray:
        entry = self._table.get(obs)
        if entry is not None:
            return entry
        if self._fallback is not None:
            return self._fallback.dist(obs)
        raise KeyError(f"no policy entry for observation {obs!r}")

    def support(self, obs: Obs) -> tuple:
        entry = self._support.get(obs)
        if entry is not None:
            return entry
        if self._fallback is not None:
            return self._fallback.support(obs)
        raise KeyError(f"no policy entry for observation {obs!r}")

    def observations(self) -> tuple:
        return tuple(self._table)

    @property
    def fallback(self):
        """The policy asked at observations outside the table, or None."""
        return self._fallback

    def pure_action(self, obs: Obs) -> int | None:
        """The deterministic action at ``obs``, or None if mixed."""
        d = self.dist(obs)
        top = int(np.argmax(d))
        return top if d[top] >= 1.0 - DIST_TOL else None

    def __repr__(self):
        return f"IndividualPolicy(n_actions={self.n_actions}, entries={len(self._table)})"


class ConstantPolicy:
    """Deterministic policy playing one action at every observation, on
    either game kind.  Every observation shares one read-only row.
    """

    __slots__ = ("n_actions", "action", "_row", "_support")

    def __init__(self, n_actions: int, action: int):
        if not 0 <= action < n_actions:
            raise ValueError(f"action {action} outside [0, {n_actions})")
        self.n_actions = int(n_actions)
        self.action = int(action)
        self._row = np.zeros(self.n_actions)
        self._row[self.action] = 1.0
        self._row.setflags(write=False)
        self._support = ((self.action, 1.0),)

    def dist(self, obs: Obs) -> np.ndarray:
        return self._row

    def support(self, obs: Obs) -> tuple:
        return self._support

    def pure_action(self, obs: Obs) -> int:
        return self.action

    def __repr__(self):
        return f"ConstantPolicy({self.action}/{self.n_actions})"


class UniformPolicy:
    """Uniform policy at every observation, on either game kind.  Every
    observation shares one read-only row.
    """

    __slots__ = ("n_actions", "_row", "_support")

    def __init__(self, n_actions: int):
        if n_actions < 1:
            raise ValueError("n_actions must be >= 1")
        self.n_actions = int(n_actions)
        self._row = np.full(self.n_actions, 1.0 / self.n_actions)
        self._row.setflags(write=False)
        self._support = _support_of(self._row)

    def dist(self, obs: Obs) -> np.ndarray:
        return self._row

    def support(self, obs: Obs) -> tuple:
        return self._support

    def pure_action(self, obs: Obs) -> int | None:
        return 0 if self.n_actions == 1 else None

    def __repr__(self):
        return f"UniformPolicy({self.n_actions})"


class HashPolicy:
    """Deterministic pseudo-random policy: a seeded stable hash of the
    observation picks the action.  Used for reproducible random restarts
    without enumerating the observation space.

    The action is a pure function of ``(n_actions, seed, observation)``.
    One blake2b state keyed by the seed is built once and copied per call
    (the digest of keying afresh); a hash state does not pickle, so the
    policy pickles and copies as its two numbers.  ValueError unless
    ``seed`` is an integer."""

    __slots__ = ("n_actions", "seed", "_keyed")

    def __init__(self, n_actions: int, seed: int):
        self.n_actions = int(n_actions)
        self.seed = _integer("seed", seed)
        self._keyed = blake2b(digest_size=8, key=self.seed.to_bytes(8, "little", signed=True))

    def __reduce__(self):
        return (HashPolicy, (self.n_actions, self.seed))

    def _action(self, obs: Obs) -> int:
        h = self._keyed.copy()
        h.update(repr(obs).encode())
        return int.from_bytes(h.digest(), "little") % self.n_actions

    def dist(self, obs: Obs) -> np.ndarray:
        row = np.zeros(self.n_actions)
        row[self._action(obs)] = 1.0
        return row

    def support(self, obs: Obs) -> tuple:
        return ((self._action(obs), 1.0),)

    def pure_action(self, obs: Obs) -> int:
        return self._action(obs)

    def __repr__(self):
        return f"HashPolicy(n_actions={self.n_actions}, seed={self.seed})"


# ---------------------------------------------------------------------------
# Team policies


class ProductPolicy:
    """Team policy: members act independently, one policy per member."""

    __slots__ = ("members",)

    def __init__(self, members: Sequence):
        self.members = tuple(members)
        if not self.members:
            raise ValueError("a team needs at least one member policy")

    @classmethod
    def pure(cls, actions: Sequence[int], n_actions: Sequence[int]):
        """Deterministic product policy playing ``actions`` at every
        observation."""
        return cls([ConstantPolicy(n, a) for a, n in zip(actions, n_actions, strict=True)])

    @property
    def n_members(self) -> int:
        return len(self.members)

    def pure_joint_action(self, obs_list: Sequence[Obs]) -> tuple | None:
        acts = tuple(m.pure_action(o) for m, o in zip(self.members, obs_list, strict=True))
        return None if any(a is None for a in acts) else acts

    def __repr__(self):
        return f"ProductPolicy({list(self.members)!r})"


class SharedPolicy(ProductPolicy):
    """All members draw independently from one shared policy: the product
    policy whose ``n_members`` members are all ``policy``.

    This is the parameter-sharing analogue: the shared distribution is
    sampled once per member, not once per team, so a mixed shared policy
    still induces an independent product over members.
    """

    __slots__ = ("policy",)

    def __init__(self, policy, n_members: int):
        if n_members < 1:
            raise ValueError("n_members must be >= 1")
        super().__init__((policy,) * int(n_members))
        self.policy = policy

    def __repr__(self):
        return f"SharedPolicy({self.policy!r} x{self.n_members})"


class JointMixPolicy:
    """Probability distribution over pure team joint actions (normal-form).

    Atoms are joint-action tuples; weights form a simplex.  A degenerate
    JointMix (a single atom) is a pure team joint policy.
    """

    __slots__ = ("atoms", "weights")

    def __init__(self, atoms: Sequence[tuple], weights: Sequence[float]):
        self.atoms = tuple(tuple(int(a) for a in atom) for atom in atoms)
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("joint-mix atoms must be distinct")
        if not self.atoms:
            raise ValueError("joint mix needs at least one atom")
        lengths = {len(a) for a in self.atoms}
        if len(lengths) != 1:
            raise DimensionError("joint-mix atoms have inconsistent member counts")
        self.weights = _check_dist(weights, "joint-mix weights")
        if len(self.weights) != len(self.atoms):
            raise DimensionError("one weight per atom required")

    @classmethod
    def pure(cls, joint_action: Sequence[int]):
        """The one-atom mix playing ``joint_action``.  Equal to the validated
        constructor given ``[1.0]``, without re-checking that row: every
        pure mix shares one read-only weights row."""
        policy = cls.__new__(cls)
        policy.atoms = (tuple(int(a) for a in joint_action),)
        policy.weights = _PURE_WEIGHTS
        return policy

    @property
    def n_members(self) -> int:
        return len(self.atoms[0])

    def pure_joint_action(self, obs_list: Sequence[Obs]) -> tuple | None:
        """The one atom, or None if the mix has several."""
        return self.atoms[0] if len(self.atoms) == 1 else None

    def __repr__(self):
        pairs = ", ".join(f"{a}: {w:.4g}" for a, w in zip(self.atoms, self.weights))
        return f"JointMixPolicy({{{pairs}}})"


_PURE_WEIGHTS = _check_dist([1.0], "joint-mix weights")


class _PricedMixture(tuple):
    """An immutable mixture ``((policy, weight), ...)`` of positive-weight
    team policies and the tuple ``keys`` of their `_pricing_key`, taken when
    they were checked for a team with action counts ``counts`` (both None
    when none were kept), as `psro.Population.mixture` returns it; see
    `oracles._NormalFormTable`."""

    def __new__(cls, atoms, keys=None, counts=None):
        mix = super().__new__(cls, atoms)
        object.__setattr__(mix, "keys", keys)
        object.__setattr__(mix, "counts", counts)
        return mix

    def __setattr__(self, name, value):
        raise AttributeError("a priced mixture is immutable")


def as_mixture(policy) -> Sequence[tuple]:
    """Normalise a team policy or (policy, weight) sequence to a mixture.
    A `_PricedMixture` is returned as it is, after the weight checks."""
    if isinstance(policy, (ProductPolicy, JointMixPolicy)):
        return [(policy, 1.0)]
    pairs = [(p, float(w)) for p, w in policy]
    for _, w in pairs:
        if not w >= -1e-12:
            raise ValueError(f"mixture weight {w} is negative or NaN")
    total = sum(w for _, w in pairs)
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"mixture weights sum to {total}, not 1")
    if isinstance(policy, _PricedMixture):
        return policy
    return [(p, w) for p, w in pairs if w > 0.0]


# ---------------------------------------------------------------------------
# Games


def _check_shape(game) -> None:
    """Check a game's team sizes and action counts, one positive count per
    member of each nonempty team, and store them on it as int tuples."""
    sizes = (int(game.team_sizes[0]), int(game.team_sizes[1]))
    counts = (
        tuple(int(c) for c in game.action_counts[0]),
        tuple(int(c) for c in game.action_counts[1]),
    )
    if sizes[0] < 1 or sizes[1] < 1:
        raise ValueError("team sizes must be positive")
    if len(counts[0]) != sizes[0] or len(counts[1]) != sizes[1]:
        raise DimensionError("one action count per player required")
    if any(c < 1 for c in counts[0] + counts[1]):
        raise ValueError("action counts must be positive")
    object.__setattr__(game, "team_sizes", sizes)
    object.__setattr__(game, "action_counts", counts)


@dataclass(frozen=True)
class NormalFormTeamGame:
    """Two-team zero-sum normal-form game.

    ``payoff`` holds team 1's reward for every pure joint-action profile,
    with one tensor axis per player (team-1 members first).  Team 2's reward
    is the negation and is never stored.
    """

    team_sizes: tuple[int, int]
    action_counts: tuple[tuple[int, ...], tuple[int, ...]]
    payoff: np.ndarray
    name: str = ""

    def __post_init__(self):
        _check_shape(self)
        counts = self.action_counts
        payoff = np.asarray(self.payoff, dtype=float)
        if payoff.shape != counts[0] + counts[1]:
            raise DimensionError(
                f"payoff shape {payoff.shape} != action counts {counts[0] + counts[1]}"
            )
        if not np.isfinite(payoff).all():
            raise ValueError("payoff entries must be finite")
        payoff = payoff.copy()
        payoff.setflags(write=False)
        object.__setattr__(self, "payoff", payoff)

    @property
    def is_normal_form(self) -> bool:
        return True

    def joint_count(self, team: int) -> int:
        return math.prod(self.action_counts[team - 1])

    def joint_actions(self, team: int) -> list[tuple[int, ...]]:
        """All pure joint actions of a team, in lexicographic order."""
        return list(itertools.product(*(range(c) for c in self.action_counts[team - 1])))

    def joint_index(self, team: int, joint_action: Sequence[int]) -> int:
        return int(np.ravel_multi_index(tuple(joint_action), self.action_counts[team - 1]))

    def matrix(self) -> np.ndarray:
        """Team-1 payoff as a (team-1 joints) x (team-2 joints) matrix."""
        return self.payoff.reshape(self.joint_count(1), self.joint_count(2))


def full_observation(team: int, member: int, obs: Obs) -> Obs:
    """The default ``member_obs``: every member observes the joint observation."""
    return obs


@dataclass(frozen=True)
class StochasticTeamGame:
    """Tabular two-team zero-sum stochastic game with finite horizon.

    ``transition`` and ``reward`` are callables so that large state spaces
    (e.g. gridworlds) can be represented lazily; exact evaluation touches
    only reachable entries and validates them on the fly.  ``reward`` is
    asked at steps 0 to H-1 and ``transition`` at steps 0 to H-2 only: no
    value reads a row out of the last step, so a malformed one there is
    never asked for and never reported.  Joint actions are
    pairs ``(team1_actions, team2_actions)`` of int tuples.  ``member_obs``
    maps (team, member, joint_obs) to the member's private observation and
    defaults to `full_observation`.  ``exact_bound`` caps the (state, joint
    action) pairs that any exact pass touches in one step: evaluation, and
    the oracles' dynamic programs, which also count every joint action their
    free members can complete.  A pass that would touch more raises
    EvaluationError; a caller that needs a larger budget passes
    ``dataclasses.replace(game, exact_bound=...)``.
    """

    team_sizes: tuple[int, int]
    action_counts: tuple[tuple[int, ...], tuple[int, ...]]
    initial: tuple[tuple[Obs, float], ...]
    transition: Callable[[Obs, tuple], tuple[tuple[Obs, float], ...]]
    reward: Callable[[Obs, tuple], float]
    discount: float
    horizon: int
    reward_bound: float
    member_obs: Callable[[int, int, Obs], Obs] = full_observation
    name: str = ""
    exact_bound: int = 10**6

    def __post_init__(self):
        _check_shape(self)
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must lie in [0, 1)")
        if _integer("horizon", self.horizon) < 1:
            raise ValueError("horizon must be >= 1")
        if not 0.0 <= self.reward_bound < math.inf:
            raise ValueError("reward bound must be finite and nonnegative")
        if _integer("exact_bound", self.exact_bound) < 1:
            raise ValueError("exact bound must be >= 1")
        if not all(p >= 0.0 for _, p in self.initial):
            raise ValueError("initial distribution has a negative or NaN probability")
        total = sum(p for _, p in self.initial)
        if not abs(total - 1.0) <= DIST_TOL:
            raise ValueError(f"initial distribution sums to {total}, not 1")

    @property
    def is_normal_form(self) -> bool:
        return False

    def successors(self, obs: Obs, joint_action: tuple) -> tuple[tuple[Obs, float], ...]:
        rows = tuple(self.transition(obs, joint_action))
        # one successor needs no sign check: the sum check refuses p != 1
        if len(rows) == 1:
            total = rows[0][1]
        elif all(p >= 0.0 for _, p in rows):
            total = sum(p for _, p in rows)
        else:
            raise ValueError(
                f"transition row for {obs!r}, {joint_action!r} has a negative or NaN probability"
            )
        if not abs(total - 1.0) <= DIST_TOL:
            raise ValueError(
                f"transition row for {obs!r}, {joint_action!r} sums to {total}, not 1"
            )
        return rows

    def step_reward(self, obs: Obs, joint_action: tuple) -> float:
        r = float(self.reward(obs, joint_action))
        if not abs(r) <= self.reward_bound + 1e-9:
            raise ValueError(
                f"reward {r} is NaN or exceeds the declared bound {self.reward_bound}"
            )
        return r

    def member_observations(self, team: int, obs: Obs) -> tuple:
        n = self.team_sizes[team - 1]
        if self.member_obs is full_observation:
            return (obs,) * n
        return tuple(self.member_obs(team, i, obs) for i in range(n))


Game = NormalFormTeamGame | StochasticTeamGame


def check_team(team) -> None:
    """Raise ValueError unless ``team`` is 1 or 2."""
    if team not in (1, 2):
        raise ValueError(f"team must be 1 or 2, got {team!r}")


def check_team_policy(game: Game, team: int, policy) -> None:
    """Raise DimensionError when ``policy`` cannot play for ``team``, and
    ValueError when ``team`` is not 1 or 2."""
    check_team(team)
    counts = game.action_counts[team - 1]
    if isinstance(policy, ProductPolicy):
        if policy.n_members != len(counts):
            raise DimensionError(
                f"team {team} has {len(counts)} members, policy has {policy.n_members}"
            )
        for member, c in zip(policy.members, counts):
            if member.n_actions != c:
                raise DimensionError("member action count mismatch")
    elif isinstance(policy, JointMixPolicy):
        if not game.is_normal_form:
            raise DimensionError("joint-mix policies apply to normal-form games only")
        if policy.n_members != len(counts):
            raise DimensionError("joint-mix member count mismatch")
        for atom in policy.atoms:
            for a, c in zip(atom, counts):
                if not 0 <= a < c:
                    raise DimensionError(f"joint action {atom} outside action ranges")
    else:
        raise DimensionError(f"not a team policy: {policy!r}")


# ---------------------------------------------------------------------------
# Evaluation


def team_action_dist(game: NormalFormTeamGame, team: int, policy) -> np.ndarray:
    """Distribution over a team's pure joint actions (flattened, row-major).

    Checks ``policy`` with `check_team_policy` first.  `evaluate`, which has
    checked both policies itself, builds its distributions unchecked."""
    check_team_policy(game, team, policy)
    return _joint_dist(game, team, policy)


def _joint_dist(game: NormalFormTeamGame, team: int, policy) -> np.ndarray:
    """`team_action_dist` of an already checked policy."""
    if isinstance(policy, JointMixPolicy):
        out = np.zeros(game.joint_count(team))
        for atom, w in zip(policy.atoms, policy.weights):
            out[game.joint_index(team, atom)] += w
        return out
    members = policy.members
    out = np.ones(1)
    for member in members:
        out = np.multiply.outer(out, member.dist(NF_OBS)).ravel()
    return out


def _pure_action(member) -> int | None:
    """The action a member policy plays with probability exactly 1.0 at the
    normal-form observation, or None.  `_check_dist` keeps a row's bits, so
    a valid single-entry row can read 1 - 1e-13: that one is mixed here."""
    support = member.support(NF_OBS)
    if len(support) == 1 and support[0][1] == 1.0:
        return support[0][0]
    return None


def _pure_index(game: NormalFormTeamGame, team: int, policy) -> int | None:
    """Row-major joint index of a checked normal-form team policy that plays
    one joint action with probability exactly 1.0, or None when it is
    mixed: a product or shared policy whose every member is pure, or a joint
    mix of one atom with weight 1.0."""
    if isinstance(policy, JointMixPolicy):
        if len(policy.atoms) != 1 or policy.weights[0] != 1.0:
            return None
        actions = policy.atoms[0]
    else:
        actions = [_pure_action(member) for member in policy.members]
        if None in actions:
            return None
    idx = 0
    for action, count in zip(actions, game.action_counts[team - 1]):
        idx = idx * count + action
    return idx


def _pricing_key(game: NormalFormTeamGame, team: int, policy, check: bool = True):
    """A normal-form team policy's key: its `_pure_index` when it is pure,
    else its joint-action distribution.  Checks ``policy`` first unless
    ``check`` is False."""
    if check:
        check_team_policy(game, team, policy)
    idx = _pure_index(game, team, policy)
    return _joint_dist(game, team, policy) if idx is None else idx


def _key_rows(matrix: np.ndarray, keys) -> list:
    """Each team-1 key's ``d @ M``; an index's is the row ``M[idx]``."""
    return [k @ matrix if isinstance(k, np.ndarray) else matrix[k] for k in keys]


def _nf_values(matrix: np.ndarray, team: int, own, opponents, rows=None) -> list[float]:
    """`team_value` of one normal-form team policy against each of several,
    from the `_pricing_key` ``own`` of the policy and ``opponents`` of the
    opponents, and the game's `matrix`, in `team_value`'s arithmetic:
    ``(d1 @ M) @ d2`` plus 0.0 for team 1 and 0.0 less it for team 2, so a
    zero reads 0.0 for both teams.

    A pure policy is read by index: team 1's ``d1 @ M`` is the row
    ``M[idx]`` and ``row @ d2`` the entry ``row[idx]``, and likewise for
    team 2.  Each product has one nonzero term, 1.0 times the entry, so it
    is that entry up to the sign of a zero, which the 0.0 normalises: the
    value is the distribution's bit for bit.  ``rows``, team 2 only, holds
    the opponents' `_key_rows` when the caller keeps them, as
    `_NormalFormTable` does.  Every normal-form value is read here; loops
    that evaluate one policy against many keep each key once instead of
    calling `team_value`."""
    pure = not isinstance(own, np.ndarray)
    if team == 1:
        row = matrix[own] if pure else own @ matrix
        return [0.0 + float(row @ d if isinstance(d, np.ndarray) else row[d]) for d in opponents]
    if rows is None:
        rows = _key_rows(matrix, opponents)
    if pure:
        return [0.0 - float(r[own]) for r in rows]
    return [0.0 - float(r @ own) for r in rows]


def _members_view(policy) -> tuple:
    if isinstance(policy, ProductPolicy):
        return policy.members
    raise DimensionError(
        "a distributed (product or shared) team policy is required here"
    )


# Every exact stochastic pass (evaluation and the oracles' dynamic programs)
# walks the same finite-horizon layered graph: _joint_support lists the joint
# actions played at a state, _forward walks the layers reached (no state
# probabilities), _backward runs backward induction over a recorded walk,
# and _profile_value sums a profile's value in one pass over the layers,
# recording the walk, state probabilities included, only for a caller that
# passes a list (the guarded greedy, whose lookahead weighs by them).
# _belief_value, the value against a mixture, is the one pass that keeps no
# walk: it values (t, state, posterior) nodes depth first.
# The passes ask ``steps`` for each (state, joint action)'s step reward, for
# its successors row at steps 0 to H-2 only (no value reads a row out of
# the last step, which counts 0), and for member observations: the game
# itself, or the _StepTable of the oracle call they serve.


class _StepTable:
    """What one oracle call's walks ask, each computed once: the validated
    ``successors`` row and ``step_reward`` of each (state, joint action),
    each state's member observations, and, state by state, the member
    supports of the opponent atoms the call registers at entry.

    An iterated search (SeBR, iterated individual best responses, the greedy
    improvement, the table search, whose domain walk fills the table that
    its enumeration or backward induction then reads) walks the same steps
    from sweep to sweep and round to round, against the same opponent
    atoms; it builds one table at entry and drops it when it returns, so a
    table holds one call's keys only.  The searching team's members change
    within the call, so their supports are never kept; `_joint_support`'s
    completion lists are, since they depend on supports only.  The greedy
    improvement goes one step further for its lookahead: it keeps, per
    opponent atom and state, apart for the last step, each unit action's
    successor row and step reward for the whole call, since they do not
    depend on the unit's own tables.
    Single-pass work (`evaluate`, a meta-game cell, the `random` profile
    class) asks the game directly in one value pass: its keys do not
    repeat, so a table would only cost time and memory.
    """

    __slots__ = ("_game", "_rows", "_rewards", "_obs", "_atoms", "_completions")

    def __init__(self, game: StochasticTeamGame, atoms=()):
        self._game = game
        self._rows: dict = {}
        self._rewards: dict = {}
        self._obs: dict = {}
        # an atom plays one side only, so its supports are keyed by state;
        # atoms are keyed by identity
        self._atoms: dict = {atom: {} for atom, _ in atoms}
        self._completions: dict = {}

    # a first visit is a miss, so a miss must be cheap: .get, not KeyError

    def successors(self, obs: Obs, joint_action: tuple) -> tuple:
        key = (obs, joint_action)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = self._game.successors(obs, joint_action)
        return row

    def step_reward(self, obs: Obs, joint_action: tuple) -> float:
        key = (obs, joint_action)
        r = self._rewards.get(key)
        if r is None:
            r = self._rewards[key] = self._game.step_reward(obs, joint_action)
        return r

    def member_observations(self, side: int, obs: Obs) -> tuple:
        key = (side, obs)
        found = self._obs.get(key)
        if found is None:
            found = self._obs[key] = self._game.member_observations(side, obs)
        return found

    def completions(self, team: int, unit=(), unit_actions=((),)) -> dict:
        """The ``completions`` dict of every `_joint_support` call of this
        oracle call with the same ``team``, ``unit`` and ``unit_actions``."""
        return self._completions.setdefault((team, unit, tuple(unit_actions)), {})

    def supports(self, side: int, policy, state: Obs) -> tuple:
        """`_member_supports` of the team policy ``policy`` playing
        ``side``; kept per state when ``policy`` is a registered atom."""
        kept = self._atoms.get(policy)
        if kept is None:
            return _member_supports(self, side, _members_view(policy), state)
        slots = kept.get(state)
        if slots is None:
            slots = kept[state] = _member_supports(self, side, _members_view(policy), state)
        return slots


def _member_supports(steps, side, members, state, free=()) -> tuple:
    """The supports of ``members`` playing ``side`` at ``state``, except the
    members in ``free``, with observations from ``steps`` (the game or a
    step table)."""
    obs_list = steps.member_observations(side, state)
    if not free:
        return tuple([member.support(obs) for member, obs in zip(members, obs_list, strict=True)])
    return tuple([
        member.support(obs)
        for i, (member, obs) in enumerate(zip(members, obs_list, strict=True))
        if i not in free
    ])


def _joint_support(
    game, team, members, opponent, state, completions: dict, unit=(), unit_actions=((),),
    steps=None,
):
    """Joint actions at ``state`` when ``team``'s members play ``members``
    and the other team plays ``opponent``, except the members in ``unit``,
    which are free.  Returns ``[(prob, [(unit_action, joint), ...])]``: one
    entry per combination of the fixed players' actions with positive
    probability, completed by each of ``unit_actions``.  The probability
    multiplies ``team``'s members first, then the opponent's.  ``steps`` is
    the calling oracle's step table (default: the game), which keeps a
    registered opponent atom's supports.

    ``completions`` maps the fixed players' supports to the list they give.
    A caller passes one dict to every state it visits with the same
    ``team``, ``unit`` and ``unit_actions``, so each list is built once and
    then shared: callers must not mutate it."""
    if steps is None:
        slots = _member_supports(game, team, members, state, unit) + _member_supports(
            game, 3 - team, _members_view(opponent), state
        )
    else:
        slots = _member_supports(steps, team, members, state, unit) + steps.supports(
            3 - team, opponent, state
        )
    return _complete(slots, completions, team, len(members), unit, unit_actions)


def _combinations(slots) -> list:
    """Every way to pick one ``(action, prob)`` pair per slot, as ``(prob,
    actions)`` in lexicographic order of the picks; each probability
    multiplies its picks from the first slot on, as math.prod does."""
    if all(len(slot) == 1 for slot in slots):
        # pure play: the one combination, by the same multiplications
        prob, acts = 1.0, []
        for ((a, q),) in slots:
            prob *= q
            acts.append(a)
        return [(prob, tuple(acts))]
    combos = [(1.0, ())]
    for slot in slots:
        combos = [(p * q, acts + (a,)) for p, acts in combos for a, q in slot]
    return combos


def _complete(slots, completions: dict, team, n_members, unit=(), unit_actions=((),)):
    """`_joint_support`'s list from the fixed players' supports ``slots``,
    ``team``'s fixed members first, kept in ``completions``.  The free
    members ``unit`` are consecutive, in ascending order, so each unit
    action fills the gap between the fixed members before and after it;
    ValueError otherwise."""
    out = completions.get(slots)
    if out is not None:
        return out
    lo = unit[0] if unit else 0
    if unit != tuple(range(lo, lo + len(unit))):
        raise ValueError(f"free members {unit} are not consecutive in ascending order")
    n_fixed = n_members - len(unit)
    out = completions[slots] = []
    for prob, acts in _combinations(slots):
        if prob <= 0.0:
            continue
        before, after, opp = acts[:lo], acts[lo:n_fixed], acts[n_fixed:]
        if team == 1:
            out.append((prob, [(ua, (before + ua + after, opp)) for ua in unit_actions]))
        else:
            out.append((prob, [(ua, (opp, before + ua + after)) for ua in unit_actions]))
    return out


def _budget_error(game: StochasticTeamGame, step_pairs: int) -> EvaluationError:
    return EvaluationError(
        f"exact budget exceeded ({step_pairs} state-action pairs in one "
        f"step > {game.exact_bound}); raise the game's exact_bound"
    )


def _forward(game: StochasticTeamGame, start, support, steps=None):
    """Walk ``game.horizon`` steps from the states of ``start``, (state,
    prob) pairs, that have positive probability.

    Yields ``(t, state, None, rows)`` step by step, states in first-reached
    order; ``rows`` is ``support(t, state)`` with each joint action's
    successor row, from ``steps`` (default: the game), added:
    ``[(prob, [(unit_action, joint, successors), ...])]``.  Nothing follows
    the last step, so its rows carry the empty successor row ``()`` and
    ``steps`` is not asked for them.  Before it, the successors with
    positive probability form the next layer.  The walk is one of
    reachability: no state probability is multiplied out, since
    `_backward` reads none.  Only `_profile_value`'s walks carry them, in
    the third slot, and those are what the greedy reads.  Raises
    EvaluationError when one step touches more than ``game.exact_bound``
    (state, joint action) pairs.
    """
    successors = (game if steps is None else steps).successors
    last = game.horizon - 1
    # dicts as ordered sets: a state keeps the place it was first reached at
    layer = dict.fromkeys(state for state, p in start if p > 0.0)
    for t in range(game.horizon):
        step_pairs = 0
        nxt: dict = {}
        for state in layer:
            combos = support(t, state)
            step_pairs += sum(len(pairs) for _, pairs in combos)
            if step_pairs > game.exact_bound:
                raise _budget_error(game, step_pairs)
            if t == last:
                rows = [(p, [(ua, joint, ()) for ua, joint in pairs]) for p, pairs in combos]
            else:
                rows = []
                for p, pairs in combos:
                    row = []
                    for ua, joint in pairs:
                        succ = successors(state, joint)
                        for s2, pt in succ:
                            if pt > 0.0:
                                nxt[s2] = None
                        row.append((ua, joint, succ))
                    rows.append((p, row))
            yield t, state, None, rows
        layer = nxt


def _backward(game: StochasticTeamGame, walk, team: int, steps=None) -> tuple[list, list]:
    """Backward induction for ``team`` over ``walk``, the list of tuples
    `_forward` yielded or `_profile_value` recorded (their third slot is
    not read), with step rewards from ``steps`` (default: the game).
    Returns ``(q, values)``: ``q`` holds one dict per step mapping each
    state to ``{unit_action: action value}``, ``values`` one dict per step,
    and an empty one after the last, mapping each state to its value, its
    best action value.  A successor outside the next layer (reached with
    probability 0) counts 0, and so does the empty successor row of the
    last step."""
    step_reward = (game if steps is None else steps).step_reward
    sign = 1.0 if team == 1 else -1.0
    q: list[dict] = [{} for _ in range(game.horizon)]
    values: list[dict] = [{} for _ in range(game.horizon + 1)]
    for t, state, _p, rows in reversed(walk):
        after = values[t + 1]
        acts: dict = {}
        for p, row in rows:
            for ua, joint, succ in row:
                if not succ:
                    # the last step: what `0 + pt * 0.0` reads for every row
                    tail = 0.0
                elif len(succ) == 1:
                    # sum's arithmetic on one term: 0 + pt * v
                    ((s2, pt),) = succ
                    tail = 0 + pt * after.get(s2, 0.0)
                else:
                    tail = sum(pt * after.get(s2, 0.0) for s2, pt in succ)
                acts[ua] = acts.get(ua, 0.0) + p * (
                    sign * step_reward(state, joint) + game.discount * tail
                )
        q[t][state] = acts
        values[t][state] = max(acts.values())
    return q, values


def _belief_value(game: StochasticTeamGame, team: int, atoms) -> float:
    """Best history-dependent value of the whole ``team`` against opponent
    atoms ``[(policy, weight), ...]``, one drawn before play and held: no
    table reaches it, but it bounds every table's.  Each node ``(t, state,
    posterior)`` is valued once, depth first on an explicit stack, so any
    horizon fits, in `_backward`'s arithmetic; the posterior is each atom's
    normalised weight given the opponent joint actions seen.  Each step's
    (state, joint action) pairs count against ``game.exact_bound``."""
    unit = tuple(range(game.team_sizes[team - 1]))
    unit_actions = list(itertools.product(*(range(c) for c in game.action_counts[team - 1])))
    sign, last = 1.0 if team == 1 else -1.0, game.horizon - 1
    completions, memo, step_pairs = {}, {}, [0] * game.horizon

    def node(t, state, belief):
        merged: dict = {}
        for i, ((atom, _), b) in enumerate(zip(atoms, belief)):
            if b > 0.0:
                slots = _member_supports(game, 3 - team, _members_view(atom), state)
                for p, pairs in _complete(slots, completions, team, len(unit), unit, unit_actions):
                    merged.setdefault(pairs[0][1], (pairs, [0.0] * len(atoms)))[1][i] = b * p
        step_pairs[t] += len(merged) * len(unit_actions)
        if step_pairs[t] > game.exact_bound:
            raise _budget_error(game, step_pairs[t])
        acts = [0.0] * len(unit_actions)
        for pairs, weights in merged.values():
            prob = sum(weights)
            after = tuple(w / prob for w in weights)
            for k, (_, joint) in enumerate(pairs):
                # no successor after the last step; one with probability 0 would add 0
                terms = []
                for s2, pt in game.successors(state, joint) if t < last else ():
                    if pt > 0.0:
                        terms.append(pt * (yield t + 1, s2, after))
                tail = sum(terms)
                acts[k] += prob * (sign * game.step_reward(state, joint) + game.discount * tail)
        return max(acts)

    def root():
        total = sum(w for _, w in atoms)
        prior, terms = tuple(w / total for _, w in atoms), []
        for s, p in game.initial:
            if p > 0.0:
                terms.append(p * (yield 0, s, prior))
        return float(sum(terms))

    stack, sent = [(None, root())], None
    while stack:
        key, gen = stack[-1]
        try:
            child = gen.send(sent)
        except StopIteration as done:
            stack.pop()
            sent = memo[key] = done.value
            continue
        sent = memo.get(child)
        if sent is None:
            stack.append((child, node(*child)))
    return sent


def _profile_value(game: StochasticTeamGame, p1, p2, steps=None, walk=None):
    """Expected discounted team-1 reward of the profile (p1, p2), team 1's
    members multiplied first, in one pass over the layers `_forward` walks
    from the initial states, within the same per-step budget.

    ``steps`` (default: the game) answers successors rows, step rewards and
    member observations; with a step table, whichever side is a registered
    atom has its supports kept there, and so are the completion lists.
    Each state asks its joint actions' successors rows, then their step
    rewards; a state at the last step asks step rewards only, as in
    `_forward`.  The value sums ``discount**t * (p_state * p) * reward``
    state by state in first-reached order.  ``walk``, when given, is a list
    that receives the tuples `_forward` would yield, for `_backward`, but
    with each state's probability in the third slot: the greedy weighs its
    lookahead by them.
    """
    if steps is None:
        completions: dict = {}

        def support(s):
            return _joint_support(game, 1, p1.members, p2, s, completions)
    else:
        n1, completions = game.team_sizes[0], steps.completions(1)

        def support(s):
            slots = steps.supports(1, p1, s) + steps.supports(2, p2, s)
            return _complete(slots, completions, 1, n1)

    look = game if steps is None else steps
    successors, step_reward = look.successors, look.step_reward
    last = game.horizon - 1
    dist: dict[Obs, float] = {}
    for state, p in game.initial:
        if p > 0.0:
            dist[state] = dist.get(state, 0.0) + p
    total, discount_t = 0.0, 1.0
    for t in range(game.horizon):
        step_pairs = 0
        nxt: dict[Obs, float] = {}
        for state, p_state in dist.items():
            combos = support(state)
            # every combination is completed by the one empty unit action
            step_pairs += len(combos)
            if step_pairs > game.exact_bound:
                raise _budget_error(game, step_pairs)
            if t < last:
                rows = []
                for p, ((ua, joint),) in combos:
                    w = p_state * p
                    succ = successors(state, joint)
                    for s2, pt in succ:
                        if pt > 0.0:
                            nxt[s2] = nxt.get(s2, 0.0) + w * pt
                    if walk is not None:
                        rows.append((p, [(ua, joint, succ)]))
            elif walk is not None:
                rows = [(p, [(ua, joint, ())]) for p, ((ua, joint),) in combos]
            if walk is not None:
                walk.append((t, state, p_state, rows))
            for p, ((_, joint),) in combos:
                total += discount_t * (p_state * p) * step_reward(state, joint)
        dist = nxt
        discount_t *= game.discount
    return total


def evaluate(game: Game, p1, p2) -> float:
    """Expected team-1 reward of a policy profile (team 2's reward is the
    negation).

    Both policies are checked with `check_team_policy` once, here, which
    refuses a joint mix on a stochastic game.  Normal-form profiles are
    evaluated exactly (multilinear expectation) from each policy's
    `_pricing_key`, taken without checking it again, so a pure policy is
    read by its joint index (see `_nf_values`); stochastic ones by exact
    finite-horizon dynamic programming within ``exact_bound``.
    """
    check_team_policy(game, 1, p1)
    check_team_policy(game, 2, p2)
    if game.is_normal_form:
        own = _pricing_key(game, 1, p1, check=False)
        return _nf_values(game.matrix(), 1, own, [_pricing_key(game, 2, p2, check=False)])[0]
    return _profile_value(game, p1, p2)


def mixture_value(game: Game, mix1, mix2) -> float:
    """Expected team-1 reward when both sides mix over team policies.

    Mixtures are episode-level lotteries: an entry is drawn once, then
    played for the whole episode.  The expectation is exact: one
    evaluation per pair of positive-weight entries.
    """
    pairs1, pairs2 = as_mixture(mix1), as_mixture(mix2)
    total = 0.0
    for pol1, w1 in pairs1:
        for pol2, w2 in pairs2:
            total += w1 * w2 * evaluate(game, pol1, pol2)
    return total


def team_value(game: Game, team: int, own, opponent) -> float:
    """Expected reward of ``team`` when it plays ``own`` against ``opponent``.

    Either side may be a policy or a mixture of policies.  Raises
    ValueError when ``team`` is not 1 or 2.
    """
    check_team(team)
    if team == 1:
        return mixture_value(game, own, opponent)
    return 0.0 - mixture_value(game, opponent, own)


def cross_payoff_matrix(game: Game, entries_a, entries_b):
    """Team-1 reward of every pairing: A's entries field team 1, B's team 2.

    On a normal-form game each entry is checked and keyed once, and the
    cells are `_key_table`'s."""
    if game.is_normal_form:
        keys_b = [_pricing_key(game, 2, b) for b in entries_b]
        return _key_table(game.matrix(), [_pricing_key(game, 1, a) for a in entries_a], keys_b)
    out = np.zeros((len(entries_a), len(entries_b)))
    for i, a in enumerate(entries_a):
        for j, b in enumerate(entries_b):
            out[i, j] = team_value(game, 1, a, b)
    return out


def _key_table(matrix: np.ndarray, keys_a, keys_b) -> np.ndarray:
    """Team-1 reward of every pairing of team-1 keys ``keys_a`` with team-2
    keys ``keys_b``, one `_nf_values` row per team-1 key: a pure entry is
    read by its joint index and a mixed one by its distribution."""
    out = np.zeros((len(keys_a), len(keys_b)))
    for i, own in enumerate(keys_a):
        out[i] = _nf_values(matrix, 1, own, keys_b)
    return out


# ---------------------------------------------------------------------------
# Conversions


def product_to_joint(policy: ProductPolicy, game: NormalFormTeamGame, team: int) -> JointMixPolicy:
    """Joint-mix equivalent of an independent product policy (normal form).

    Weights are products of individual action probabilities; zero-weight
    joint actions are dropped.
    """
    if not isinstance(policy, ProductPolicy):
        raise DimensionError("product_to_joint expects a ProductPolicy")
    check_team_policy(game, team, policy)
    atoms, weights = [], []
    for joint in game.joint_actions(team):
        w = math.prod(m.dist(NF_OBS)[a] for m, a in zip(policy.members, joint))
        if w > 0.0:
            atoms.append(joint)
            weights.append(w)
    return JointMixPolicy(atoms, weights)


# ---------------------------------------------------------------------------
# Serialization (normal-form games and their policies)


def game_to_dict(game: NormalFormTeamGame) -> dict:
    """JSON-ready form: team sizes, action counts, flat row-major payoff."""
    if not isinstance(game, NormalFormTeamGame):
        raise TypeError("only normal-form games serialize to the payoff schema")
    return {
        "type": "normal_form",
        "name": game.name,
        "team_sizes": list(game.team_sizes),
        "action_counts": [list(game.action_counts[0]), list(game.action_counts[1])],
        "payoff": [float(x) for x in game.payoff.ravel()],
    }


def game_from_dict(data: Mapping) -> NormalFormTeamGame:
    if data.get("type", "normal_form") != "normal_form":
        raise ValueError(f"not a normal-form game document: {data.get('type')!r}")
    counts = (
        tuple(int(c) for c in data["action_counts"][0]),
        tuple(int(c) for c in data["action_counts"][1]),
    )
    shape = counts[0] + counts[1]
    payoff = np.asarray(data["payoff"], dtype=float).reshape(shape)
    return NormalFormTeamGame(
        team_sizes=(int(data["team_sizes"][0]), int(data["team_sizes"][1])),
        action_counts=counts,
        payoff=payoff,
        name=str(data.get("name", "")),
    )


def policy_to_dict(policy) -> dict:
    """Serialize a normal-form team policy (variant tag plus tables); a
    shared policy keeps its own tag, so it is tested before the product."""
    if isinstance(policy, SharedPolicy):
        return {
            "kind": "shared",
            "n_members": policy.n_members,
            "policy": {
                "n_actions": policy.policy.n_actions,
                "dist": [float(x) for x in policy.policy.dist(NF_OBS)],
            },
        }
    if isinstance(policy, ProductPolicy):
        return {
            "kind": "product",
            "members": [
                {"n_actions": m.n_actions, "dist": [float(x) for x in m.dist(NF_OBS)]}
                for m in policy.members
            ],
        }
    if isinstance(policy, JointMixPolicy):
        return {
            "kind": "jointmix",
            "atoms": [list(a) for a in policy.atoms],
            "weights": [float(w) for w in policy.weights],
        }
    raise TypeError(f"cannot serialize {policy!r}")


def policy_from_dict(data: Mapping):
    kind = data["kind"]
    if kind == "product":
        return ProductPolicy(
            [
                IndividualPolicy(m["n_actions"], {NF_OBS: m["dist"]})
                for m in data["members"]
            ]
        )
    if kind == "shared":
        p = data["policy"]
        return SharedPolicy(
            IndividualPolicy(p["n_actions"], {NF_OBS: p["dist"]}), int(data["n_members"])
        )
    if kind == "jointmix":
        return JointMixPolicy([tuple(a) for a in data["atoms"]], data["weights"])
    raise ValueError(f"unknown policy kind {kind!r}")

