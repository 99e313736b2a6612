"""Radio environment: hotspot pools, air-to-ground channel, rates, geometry.

Units are meters, seconds, watts and bits/s unless a field name says
otherwise (``*_db``, ``*_dbm``, ``*_hz``). All sampling is driven by
explicit seeds; rerunning with the same seed and config reproduces the
same objects bit for bit.

The records here are plain frozen dataclasses, and their JSON form is
their fields: ``harness`` writes an experiment's test instances as
self-contained ``uavplan.instance.v1`` objects, and reads one back for
``uavplan plan``. Training instances are sampled on every run, and a
training instance is a row: its ascending indices into the training pool
(``_sample_rows``), with no ``Instance`` built for it; ``harness``
exports their hotspot ids alone.

This module also holds the package's JSON codec, which ``oracle``,
``world_model`` and ``harness`` all import (each imports this module
already): the one encoder (``_canonical_json``, a dataclass as its
fields, which refuses NaN and the infinities: JSON has no such number,
so no artifact holds one; messages still quote them, ``_excerpt``) and
the one checked reader (``_from_json``, and ``_record_from_dict`` for a
whole file's object with its schema). The reader builds a JSON value as
a declared type (a dataclass, a tuple, a ``dict[int, T]``, a union, a
float, an int, a str or a bool), refuses any value of another JSON type,
any unknown key and any missing one, and names the dotted key; the
config, an instance, a tour and a world model are each read by it, with
no cast of their own.

Every random draw in the package is a draw of one private stream class,
``_Stream``, which makes from raw 64-bit PCG64 outputs (O'Neill, *PCG*,
2014), in pure Python and bit for bit, the draws numpy's ``Generator``
would make from ``np.random.default_rng(seed)``. Raw outputs come from one
of two sources, both checked on numpy 2.4.6:

- ``_Stream(seed)`` (the pool, Q-learning, the planner, the Q-learning
  baseline's words, and the rows of a small batch) seeds
  ``np.random.default_rng(seed)`` and reads that generator's raw outputs
  in bounded chunks (``bit_generator.random_raw``); it is the generator's
  only consumer;
- the draw kernel ``_floyd_rows`` makes the rows of a batch of more
  than ``_PER_SEED_MAX`` seeds (``_sample_rows``) all at once, and
  seeds no ``Generator``. Seeding 20,000 generators through
  ``default_rng`` costs 13-22 us each on a 2-CPU host, most of what
  drawing train-large's training instances cost. The kernel's numpy calls
  cost tens of microseconds per draw whatever the batch size, so it pays
  only on a large batch. In process on that host (medians of alternating
  rounds), one stream per seed against the kernel took 0.19 against 1.32
  ms for 3 seeds drawing 30 of 100, 1.17 against 1.14 ms for 30 drawing
  20 of 100, 0.91 against 0.63 ms for 32 drawing 5 of 50, 1.37 against
  1.49 ms for 32 drawing 30 of 100, and 547 against 77 ms for 20,000
  drawing 5 of 50; hence ``_PER_SEED_MAX`` = 32, about where they cross.
  The steps reproduced are:

  1. a seed's entropy words are its 32-bit digits, least significant
     first, at least one; seeds are batched by their word count;
  2. ``SeedSequence``'s ``mix_entropy`` (O'Neill's ``seed_seq`` design),
     as uint32 numpy arithmetic over the batch: ``hashmix`` each word into
     a pool of 4 (zeros past the last word), with the hash constant
     running from ``INIT_A`` by ``MULT_A``; ``mix`` every pool word into
     every other (``MIX_MULT_L``, ``MIX_MULT_R``); then ``mix`` each word
     past the fourth into every pool word;
  3. ``generate_state(4, uint64)``: 8 ``hashmix`` outputs of the pool
     words in turn, the constant running from ``INIT_B`` by ``MULT_B``,
     read in pairs as 4 little-endian 64-bit words s0..s3;
  4. PCG64's ``set_seed``, every seed at once: inc = (s2 << 64 | s3) <<
     1 | 1 and state = ((s0 << 64 | s1) + inc) * MULT + inc, mod 2**128.
     Each 128-bit value is held as two uint64 arrays, its high and low
     limbs, whose numpy arithmetic wraps mod 2**64: a sum carries into
     the high limb where the low sum wrapped below an addend, and the
     product keeps the low 128 bits of the schoolbook product of the
     limbs, the high word of the low limbs' product summed from its
     32-bit partial products (``_lcg_step``). No Python int is made per
     seed;
  5. as many outputs per stream as its draws need, on the same limbs:
     one LCG step, then XSL-RR (the limbs xored, rotated right by the top
     6 bits, the left shift taken mod 64 so that rotation 0 keeps the
     word), per output; then Floyd's algorithm (see ``choice`` below)
     draw by draw over all rows at once. A row on which
     Lemire's draw might reject (its low product word below the bound,
     rare at these bounds) is drawn again, whole, by ``_Stream(seed)``,
     and so is every row of a draw that would take the tail shuffle.

tests/test_environment.py pins both sources against ``default_rng`` and
``PCG64``, and each draw against ``Generator``:

- ``raw()``: one output itself, which Q-learning compares with a
  threshold in place of ``random() < eps`` (``ql``);
- ``random()``: the top 53 bits of one output times 2**-53;
- ``uniform(0, s)``: ``0.0 + s * random()``;
- ``integers(n)``: Lemire's bounded draw (*Fast random integer generation
  in an interval*, ACM TOMACS 2019) on 32-bit outputs, which PCG64's
  ``next_uint32`` takes as the low half of a fresh output, then its high
  half; n = 1 draws nothing;
- the set ``choice(n, size=k, replace=False)`` draws: Floyd's algorithm
  with ``integers(j + 1)`` for j from n - k to n - 1 when n <= 10,000 or
  k <= n // 50, otherwise a shuffle of the last k of ``range(n)``;
- the index ``choice(len(w), p=w / w.sum())`` draws for a row of weights
  ``w`` (``_Stream.choice``, which the planner's and the Q-learning
  baseline's words take every weighted letter from): ``w.sum()`` is
  numpy's pairwise sum (``_pairwise_sum``), then ``cumsum`` (sequential)
  of the normalized row scaled by its last entry, one ``random()``, and a
  right-sided search; a row whose sum is not positive draws nothing.

A scalar ``Generator`` call costs far more than the draw: on a 2-CPU host,
``random()`` takes 0.81 us and ``integers(5)`` 2.4 us, against 0.33 and
0.64 us from the stream. That matters in Q-learning's 100,000 steps and in
the planner's word sampling.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
import sys
from bisect import bisect_right
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache, reduce
from itertools import accumulate, chain, repeat
from operator import add, attrgetter, truediv
from typing import Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigurationError, ConsistencyError

SPEED_OF_LIGHT_M_S = 299_792_458.0

Point = tuple[float, float]


@dataclass(frozen=True)
class ChannelParams:
    """Constants of the probabilistic air-to-ground channel.

    ``mu_los_db`` / ``mu_nlos_db`` are excess attenuations beyond free
    space; line of sight may not attenuate more than non line of sight.
    ``noise_power_dbm`` is the total AWGN power over one resource block.
    """

    carrier_frequency_hz: float = 2.0e9
    path_loss_exponent: float = 2.0
    mu_los_db: float = 3.0
    mu_nlos_db: float = 23.0
    noise_power_dbm: float = -104.0
    rb_bandwidth_hz: float = 180e3
    user_tx_power_w: float = 1.0
    los_sigmoid_a: float = 9.61
    los_sigmoid_b: float = 0.16

    def __post_init__(self) -> None:
        if self.carrier_frequency_hz <= 0:
            raise ConfigurationError("carrier frequency must be positive")
        if self.rb_bandwidth_hz <= 0:
            raise ConfigurationError("resource-block bandwidth must be positive")
        if self.user_tx_power_w <= 0:
            raise ConfigurationError("user transmit power must be positive")
        if self.path_loss_exponent < 2.0:
            raise ConfigurationError("path-loss exponent must be >= 2 (free space)")
        if self.mu_los_db > self.mu_nlos_db:
            raise ConfigurationError("LoS excess attenuation exceeds NLoS")
        if self.los_sigmoid_a < 0:
            # keeps the LoS probability in [0, 1] and its denominator positive
            raise ConfigurationError(
                f"los_sigmoid_a must be >= 0, not {self.los_sigmoid_a}")
        try:
            # the factors of every rate that the channel alone sets, with
            # line of sight at the elevation of a UAV hovering above the
            # user (90 degrees), where pool profits are taken
            (self.noise_power_w, self.free_space_constant,
             10.0 ** (self.mu_nlos_db / 10.0), los_probability(0.0, 1.0, self))
        except OverflowError:
            raise ConfigurationError(
                f"one of noise_power_dbm {self.noise_power_dbm}, "
                f"carrier_frequency_hz {self.carrier_frequency_hz}, "
                f"mu_nlos_db {self.mu_nlos_db}, los_sigmoid_a "
                f"{self.los_sigmoid_a} and los_sigmoid_b {self.los_sigmoid_b} "
                "overflows float arithmetic") from None

    @property
    def noise_power_w(self) -> float:
        return 10.0 ** ((self.noise_power_dbm - 30.0) / 10.0)

    @property
    def free_space_constant(self) -> float:
        """(4 pi f / c)^2, the d-independent part of free-space loss."""
        return (4.0 * math.pi * self.carrier_frequency_hz / SPEED_OF_LIGHT_M_S) ** 2


@dataclass(frozen=True)
class MissionConfig:
    """UAV flight parameters and the square service area."""

    uav_altitude_m: float = 200.0
    uav_speed_m_per_s: float = 20.0
    dwell_time_s: float = 0.0
    area_side_m: float = 2000.0

    def __post_init__(self) -> None:
        if self.uav_altitude_m <= 0:
            raise ConfigurationError("altitude must be positive")
        speed = self.uav_speed_m_per_s
        # the planner divides by the square, which underflows to 0 below
        # about 1.6e-162
        if not (speed > 0 and speed * speed > 0):
            raise ConfigurationError(
                f"speed must be positive with a positive square, not {speed!r}")
        if self.dwell_time_s < 0:
            raise ConfigurationError("dwell time cannot be negative")
        if self.area_side_m <= 0:
            raise ConfigurationError("area side must be positive")


@dataclass(frozen=True)
class Hotspot:
    """A service area: identifier, center, user count and cached profit.

    ``profit_bps`` equals hotspot_sum_rate() evaluated with the UAV
    hovering directly above the center at mission altitude.
    """

    id: int
    center_m: Point
    num_users: int
    profit_bps: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (*self.center_m, self.profit_bps))):
            raise ConsistencyError(f"{self}: center and profit must be finite")
        if self.num_users < 0:
            raise ConfigurationError("user count cannot be negative")
        if self.profit_bps < 0:
            raise ConfigurationError("profit cannot be negative")


@dataclass(frozen=True)
class Instance:
    """One realization: selected hotspots, depot, and the full config."""

    hotspots: tuple[Hotspot, ...]
    depot_m: Point
    channel: ChannelParams
    mission: MissionConfig
    seed: int

    def __post_init__(self) -> None:
        if not self.hotspots:
            raise ConfigurationError("an instance needs at least one hotspot")
        ids = [h.id for h in self.hotspots]
        if len(set(ids)) != len(ids):
            raise ConsistencyError("duplicate hotspot ids in instance")

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(h.id for h in self.hotspots)

    def hotspot(self, hotspot_id: int) -> Hotspot:
        for h in self.hotspots:
            if h.id == hotspot_id:
                return h
        raise ConsistencyError(f"unknown hotspot id {hotspot_id}")


def edge_cost(p_i: Point, p_j: Point) -> float:
    """Horizontal Euclidean distance in meters."""
    return math.hypot(p_i[0] - p_j[0], p_i[1] - p_j[1])


def los_probability(horizontal_dist_m: float, altitude_m: float,
                    chan: ChannelParams) -> float:
    """Line-of-sight probability from the elevation-angle sigmoid model.

    Returns 1 / (1 + a exp(-b (theta_deg - a))) where theta is the
    elevation angle seen from the ground user. NLoS probability is the
    complement.
    """
    if altitude_m <= 0:
        raise ConfigurationError("altitude must be positive")
    theta_deg = math.degrees(math.atan2(altitude_m, horizontal_dist_m))
    a = chan.los_sigmoid_a
    b = chan.los_sigmoid_b
    return 1.0 / (1.0 + a * math.exp(-b * (theta_deg - a)))


def channel_gain(dist_3d_m: float, los_prob: float, chan: ChannelParams) -> float:
    """Linear channel gain mixing LoS/NLoS excess attenuation.

    g = 1 / (K0 d^alpha) / (Pr_LoS mu_LoS + Pr_NLoS mu_NLoS), with the
    mu terms converted from dB and K0 the free-space constant.
    """
    if dist_3d_m <= 0:
        raise ConfigurationError("UAV coincides with user (zero distance)")
    mu_los = 10.0 ** (chan.mu_los_db / 10.0)
    mu_nlos = 10.0 ** (chan.mu_nlos_db / 10.0)
    mix = los_prob * mu_los + (1.0 - los_prob) * mu_nlos
    return 1.0 / (chan.free_space_constant * dist_3d_m ** chan.path_loss_exponent) / mix


def hotspot_sum_rate(h: Hotspot, uav_pos_3d: tuple[float, float, float],
                     chan: ChannelParams) -> float:
    """Aggregate achievable rate of a hotspot, users co-located at its center.

    Sum over users of B log2(1 + p g / sigma^2); with co-located users this
    is num_users times the single-user rate.
    """
    x, y, alt = uav_pos_3d
    if alt <= 0:
        raise ConfigurationError("UAV altitude must be positive")
    if h.num_users == 0:
        return 0.0
    horiz = edge_cost((x, y), h.center_m)
    dist = math.hypot(horiz, alt)
    p_los = los_probability(horiz, alt, chan)
    gain = channel_gain(dist, p_los, chan)
    snr = chan.user_tx_power_w * gain / chan.noise_power_w
    return h.num_users * chan.rb_bandwidth_hz * math.log2(1.0 + snr)


def _positive_poisson(rng: _Stream, mean: float) -> int:
    """Poisson draw conditioned on being >= 1.

    Exactly the law of redrawing until nonzero, but via the truncated
    inverse CDF so tiny means cannot stall the sampler.
    """
    norm = -math.expm1(-mean)  # P(K >= 1)
    if norm <= 0.0:
        return 1
    target = rng.random() * norm
    k = 1
    term = math.exp(-mean) * mean
    cum = term
    while cum < target and k < 1_000_000:
        k += 1
        term *= mean / k
        cum += term
    return k


def sample_pool(rng_seed: int, pool_size: int, mean_users: float,
                area: MissionConfig, chan: ChannelParams) -> list[Hotspot]:
    """Draw a pool of hotspots: uniform centers, Poisson user counts.

    Zero user draws are resampled so every hotspot serves at least one
    user. Profits are cached from hotspot_sum_rate with the UAV overhead
    at mission altitude.
    """
    if pool_size < 1:
        raise ConfigurationError("pool size must be >= 1")
    if mean_users <= 0:
        raise ConfigurationError("mean user count must be positive")
    if math.exp(-mean_users) < sys.float_info.min:
        # _positive_poisson starts from exp(-mean), which must be a normal
        # float for its draws to follow the law (it underflows past ~745)
        raise ConfigurationError(
            f"mean_users {mean_users} is too large: exp(-mean_users) is not a "
            "normal float")
    rng = _Stream(rng_seed)
    side = area.area_side_m
    pool: list[Hotspot] = []
    for i in range(pool_size):
        cx = rng.uniform(side)
        cy = rng.uniform(side)
        users = _positive_poisson(rng, mean_users)
        stub = Hotspot(id=i + 1, center_m=(cx, cy), num_users=users, profit_bps=0.0)
        profit = hotspot_sum_rate(stub, (cx, cy, area.uav_altitude_m), chan)
        pool.append(Hotspot(id=i + 1, center_m=(cx, cy), num_users=users,
                            profit_bps=profit))
    return pool


def sample_instances(seeds: Sequence[int], pool: Sequence[Hotspot],
                     n_select: int, depot: Point, chan: ChannelParams,
                     mission: MissionConfig) -> list[Instance]:
    """One Instance per seed, in order: the ``n_select`` distinct pool
    hotspots that ``_sample_rows`` selects with the seed's stream."""
    if n_select < 1 or n_select > len(pool):
        raise ConfigurationError(
            f"cannot select {n_select} hotspots from a pool of {len(pool)}")
    return [Instance(hotspots=tuple(sorted(map(pool.__getitem__, row),
                                           key=attrgetter("id"))),
                     depot_m=depot, channel=chan, mission=mission, seed=seed)
            for seed, row in zip(seeds, _sample_rows(seeds, len(pool),
                                                     n_select))]


def _sample_rows(seeds: Sequence[int], n: int, k: int) -> list[list[int]]:
    """Per seed, in order, the ``k`` distinct indices of ``range(n)`` that
    its stream selects uniformly, ascending. A batch of more than
    ``_PER_SEED_MAX`` seeds is drawn by the kernel ``_floyd_rows``, a
    smaller one, or a draw that takes the tail shuffle, by one
    ``_Stream(seed)`` per seed (see the module docstring)."""
    if len(seeds) <= _PER_SEED_MAX or not (n <= 10_000 or k <= n // 50):
        picks = [_Stream(seed).sample(n, k) for seed in seeds]
    else:
        picks = _floyd_rows(seeds, n, k)
    return [sorted(row) for row in picks]


def sample_instance(rng_seed: int, pool: Sequence[Hotspot], n_select: int,
                    depot: Point, chan: ChannelParams,
                    mission: MissionConfig) -> Instance:
    """Uniformly select ``n_select`` distinct pool hotspots into an
    Instance: ``sample_instances``' one-seed case."""
    return sample_instances([rng_seed], pool, n_select, depot, chan,
                            mission)[0]


# --- the random stream --------------------------------------------------------

# raw outputs read per refill: small first, so that a stream drawing a few
# numbers reads few, then bounded
_CHUNKS = (16, 64, 256)
_CHUNK = 1024
# a batch of more seeds than this is drawn by ``_floyd_rows``, a smaller
# one by one ``_Stream(seed)`` per seed (see the module docstring)
_PER_SEED_MAX = 32
_MASK32 = 0xFFFF_FFFF
_TWO_32 = 0x1_0000_0000
_MASK64 = (1 << 64) - 1


class _Stream:
    """The draws of ``np.random.default_rng(seed)``, made in pure Python
    from that generator's raw 64-bit outputs; see the module docstring."""

    __slots__ = ("raw", "_half")

    def __init__(self, seed: int):
        raw = np.random.default_rng(seed).bit_generator.random_raw
        # the next raw 64-bit output, as an int
        self.raw = chain.from_iterable(
            raw(k).tolist() for k in chain(_CHUNKS, repeat(_CHUNK))).__next__
        self._half: int | None = None  # the unused high half of an output

    def random(self) -> float:
        """``Generator.random()``: the top 53 bits of one output."""
        return (self.raw() >> 11) * 1.1102230246251565e-16

    def uniform(self, high: float) -> float:
        """``Generator.uniform(0.0, high)``."""
        return 0.0 + high * self.random()

    def _uint32(self) -> int:
        # PCG64's next_uint32: the low half of a fresh output, then its
        # high half
        half = self._half
        if half is None:
            x = self.raw()
            self._half = x >> 32
            return x & _MASK32
        self._half = None
        return half

    def integers(self, n: int) -> int:
        """``Generator.integers(n)`` for 1 <= n <= 2**32: Lemire's bounded
        draw on 32-bit outputs; n = 1 draws nothing."""
        if not 1 < n <= _TWO_32:
            if n == 1:
                return 0
            raise ValueError(f"integers(n) needs 1 <= n <= 2**32, not {n}")
        # _uint32, inline
        if (half := self._half) is None:
            x = self.raw()
            self._half, m = x >> 32, (x & _MASK32) * n
        else:
            self._half, m = None, half * n
        if m & _MASK32 < n:
            threshold = (_TWO_32 - n) % n
            while m & _MASK32 < threshold:
                m = self._uint32() * n
        return m >> 32

    def sample(self, n: int, k: int) -> set[int]:
        """The set ``Generator.choice(n, size=k, replace=False)`` draws,
        1 <= k <= n: Floyd's algorithm, or for a large pool and a large
        share of it a shuffle of the last k places (whose final order the
        set does not keep)."""
        if n <= 10_000 or k <= n // 50:
            chosen: set[int] = set()
            for j in range(n - k, n):
                v = self.integers(j + 1)
                chosen.add(j if v in chosen else v)
            return chosen
        moved: dict[int, int] = {}   # place -> the value shuffled into it
        for i in range(n - 1, max(n - k, 1) - 1, -1):
            j = self.integers(i + 1)
            moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
        return {moved.get(i, i) for i in range(n - k, n)}

    def choice(self, weights: list[float]) -> int | None:
        """The index ``Generator.choice(len(w), p=w / w.sum())`` draws for
        the non-negative row ``w`` (``weights``), without its argument
        checks, or None, drawing nothing, when the row's sum is not
        positive. The sum is numpy's pairwise sum (``_pairwise_sum``); the
        draw is the running sum of the normalized row scaled by its last
        entry, one ``random()``, and the first entry above it. The search
        divides only the sums it visits by the last one: dividing by a
        positive number keeps their order, so it finds the index it would
        find in the scaled list."""
        total = _pairwise_sum(weights)
        if not total > 0.0:
            return None
        cdf = list(accumulate(map(truediv, weights, repeat(total))))
        last = cdf[-1]
        return bisect_right(cdf, self.random(), key=lambda c: c / last)


# PCG64's 128-bit LCG multiplier, and numpy's SeedSequence constants
_PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715


def _seed_words(entropy: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for a batch of
    seeds with the same number of entropy words; ``entropy[j]`` holds word
    j of every seed. uint32 arithmetic wraps as numpy's does."""
    h = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal h
        value = value ^ h
        h = h * _MULT_A & _MASK32
        value = value * h
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % 4] ^ h
        h = h * _MULT_B & _MASK32
        value = value * h
        out.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack([out[i] | (out[i + 1] << 32) for i in range(0, 8, 2)],
                    axis=1)


def _pcg64_seeded(seeds: Sequence[int]
                  ) -> tuple[tuple[np.ndarray, np.ndarray],
                             tuple[np.ndarray, np.ndarray]]:
    """PCG64's seeded state and inc for every seed, each as its (high,
    low) uint64 limbs, without seeding a ``Generator``: steps 1-4 of the
    module docstring over all seeds at once."""
    if len(seeds) and min(seeds) < 0:
        # SeedSequence refuses them too; their words would be two's
        # complement digits here
        raise ValueError(f"seeds must be >= 0, not {min(seeds)}")
    words = np.empty((len(seeds), 4), dtype=np.uint64)
    counts = [(s.bit_length() + 31) >> 5 or 1 for s in seeds]
    # grouped in Python: np.unique would import numpy.ma, about 1 MB of
    # resident memory that nothing else needs
    for count in sorted(set(counts)):
        batch = [k for k, c in enumerate(counts) if c == count]
        words[batch] = _seed_words([
            np.array([seeds[k] >> 32 * j & _MASK32 for k in batch],
                     dtype=np.uint32)
            for j in range(count)])
    s_hi, s_lo, i_hi, i_lo = words.T
    inc = (i_hi << 1 | i_lo >> 63, i_lo << 1 | 1)
    return _lcg_step(_add128((s_hi, s_lo), inc), inc), inc


# the multiplier's limbs, and the low limb's 32-bit halves
_MULT_HI, _MULT_LO = (np.uint64(_PCG_MULT >> 64),
                      np.uint64(_PCG_MULT & _MASK64))
_MULT_LO_1, _MULT_LO_0 = (np.uint64(_PCG_MULT >> 32 & _MASK32),
                          np.uint64(_PCG_MULT & _MASK32))


def _add128(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]
            ) -> tuple[np.ndarray, np.ndarray]:
    """a + b mod 2**128 on (high, low) uint64 limbs, which wrap: the low
    sum carries where it wrapped below an addend."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]), lo


def _lcg_step(state: tuple[np.ndarray, np.ndarray],
              inc: tuple[np.ndarray, np.ndarray]
              ) -> tuple[np.ndarray, np.ndarray]:
    """state * MULT + inc mod 2**128 on (high, low) uint64 limbs. Mod
    2**128 the product is lo * MULT_LO, whole, plus 2**64 times the low
    words of hi * MULT_LO and lo * MULT_HI; the high word of lo * MULT_LO
    is summed from its four 32-bit partial products, none of which
    overflows."""
    hi, lo = state
    lo_1, lo_0 = lo >> 32, lo & _MASK32
    p00, p01 = lo_0 * _MULT_LO_0, lo_0 * _MULT_LO_1
    p10, p11 = lo_1 * _MULT_LO_0, lo_1 * _MULT_LO_1
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    high = p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return _add128((high + hi * _MULT_LO + lo * _MULT_HI, lo * _MULT_LO), inc)


def _pcg64_next(state: tuple[np.ndarray, np.ndarray],
                inc: tuple[np.ndarray, np.ndarray]
                ) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The next raw output of every stream (``_pcg64_seeded``'s limbs):
    the stepped state, and the outputs as uint64. One LCG step, then
    XSL-RR: the high and low limbs xored, rotated right by the top 6 bits
    (a left shift by 64 - rot, taken mod 64, so rotation 0 keeps x)."""
    state = _lcg_step(state, inc)
    x = state[0] ^ state[1]
    rot = state[0] >> 58
    return state, x >> rot | x << (64 - rot & 63)


def _floyd_rows(seeds: Sequence[int], n: int, k: int) -> list[list[int]]:
    """``_Stream(seed).sample(n, k)`` for every seed, as a list of the
    drawn indices, where that draw takes Floyd's algorithm (n <= 10,000 or
    k <= n // 50; 1 <= k <= n <= 2**32): step 5 of the module docstring
    over all seeds at once."""
    state, inc = _pcg64_seeded(seeds)
    # the j == 0 step of a whole-pool draw draws nothing; every other step
    # takes one 32-bit draw, the low half of an output and then its high
    draws = k - (k == n)
    halves = np.empty((len(seeds), draws + 1), dtype=np.uint64)
    for t in range(0, draws, 2):
        state, raw = _pcg64_next(state, inc)
        halves[:, t] = raw & _MASK32
        halves[:, t + 1] = raw >> 32
    chosen = np.zeros((len(seeds), k), dtype=np.uint64)
    redraw = np.zeros(len(seeds), dtype=bool)
    t = 0
    for step, j in enumerate(range(n - k, n)):
        if j:
            m = halves[:, t] * (j + 1)
            t += 1
            # Lemire's draw rejects only where the low word is below the
            # bound; such a row is drawn again by its stream
            redraw |= (m & _MASK32) <= j
            v = m >> 32
            chosen[:, step] = np.where(
                (chosen[:, :step] == v[:, None]).any(axis=1), j, v)
    rows = chosen.tolist()
    for r in np.flatnonzero(redraw).tolist():
        rows[r] = list(_Stream(seeds[r]).sample(n, k))
    return rows


def _pairwise_sum(xs: list[float]) -> float:
    """``ndarray.sum()`` of the float64 row ``xs``: numpy's pairwise sum,
    in order below 8 entries, in eight interleaved partial sums up to 128,
    and halved at a multiple of 8 above. Partial sum j adds entries j,
    j + 8, j + 16, ... in order; they grow together, one block of eight
    entries at a time."""
    n = len(xs)
    if n < 8:
        return reduce(add, xs, 0.0)
    if n <= 128:
        end = n - n % 8
        r = xs[:8]
        for i in range(8, end, 8):
            r = list(map(add, r, xs[i:i + 8]))
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, xs[end:], total)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(xs[:half]) + _pairwise_sum(xs[half:])


# --- the JSON form of records -------------------------------------------------

def _fields(obj) -> dict:
    """A dataclass instance's JSON form: its fields."""
    if is_dataclass(obj):
        return vars(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON "
                    "serializable")


# The one JSON encoding of every artifact: sorted keys, no spaces, a
# dataclass as its fields, and a NaN or an infinity refused with a
# ValueError (JSON has no such number). One encoder serves every call
# (json.dumps with these options builds a new one per call).
_FORM = {"sort_keys": True, "separators": (",", ":"), "default": _fields}
_canonical_json = json.JSONEncoder(**_FORM, allow_nan=False).encode
# The same encoding with NaN and the infinities written as ``NaN`` and
# ``Infinity``: for messages, which quote bad input as it is, and for a
# config's record, which a config built through the Python API may hold
# them in until a stage refuses them.
_quoting_json = json.JSONEncoder(**_FORM).encode


def _cut(text: str, limit: int = 100) -> str:
    return text if len(text) <= limit else text[:limit - 3] + "..."


def _excerpt(obj) -> str:
    """``obj`` in canonical JSON, NaN and the infinities quoted as they
    are, cut to 100 characters."""
    return _cut(_quoting_json(obj))


# The str of an int: what a JSON object's key must be to be read as one.
_INT_KEY = re.compile(r"0|-?[1-9][0-9]*")
# A dataclass's declared field types, evaluated once per class: a world
# model file holds one record per letter.
_type_hints = cache(get_type_hints)


def _from_json(hint, value, what: str, key: str = ""):
    """The JSON value ``value`` at ``key`` of a ``what`` (a config, an
    instance, a tour or a world model) built as the declared type
    ``hint``. A dataclass is built from an object of its fields, each built
    as its declared type, with every default from the dataclass; a tuple
    from a list (or a tuple) of its length, item by item; a ``dict[int,
    T]`` from an object whose keys are each the ``str`` of an int (``"7"``
    or ``"-3"``, not ``"07"``, ``"+7"`` or ``"7.0"``), each value built as
    ``T``; a union as the first member that takes the value; a float from
    a finite number, an integer as that float; any other type from a value
    of exactly that type (so no int from a bool). A key that is not a
    field, a field without a default that is missing, a value that no
    declared type takes (an integer that no float holds too, or an object
    with a key that is not an int's ``str``) and a value that a nested
    dataclass's own check refuses are configuration errors that name the
    dotted key (a tuple item by its index), or the nested dataclass's
    section."""
    def at(name) -> str:
        return f"{key}.{name}" if key else str(name)

    args = get_args(hint)
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise ConfigurationError(f"{what} {key or 'root'} must be a JSON "
                                     "object")
        hints = _type_hints(hint)
        kwargs = {}
        for name, item in value.items():
            if name not in hints:
                raise ConfigurationError(f"unknown {what} key {at(name)}")
            kwargs[name] = _from_json(hints[name], item, what, at(name))
        for f in fields(hint):
            if (f.name not in kwargs and f.default is MISSING
                    and f.default_factory is MISSING):
                raise ConfigurationError(f"{what} key {at(f.name)} is missing")
        try:
            return hint(**kwargs)
        except ConfigurationError as e:
            if not key:
                raise
            raise ConfigurationError(f"{what} {key}: {e}") from None
    if get_origin(hint) is tuple:
        if isinstance(value, (list, tuple)):
            # a stored word's letters: all Python ints, taken at once
            if args == (int, ...) and set(map(type, value)) <= {int}:
                return tuple(value)
            items = args[:1] * len(value) if args[-1] is Ellipsis else args
            if len(items) == len(value):
                return tuple(_from_json(h, v, what, at(k))
                             for k, (h, v) in enumerate(zip(items, value)))
    elif get_origin(hint) is dict:
        if isinstance(value, dict) and all(map(_INT_KEY.fullmatch, value)):
            return {int(name): _from_json(args[1], item, what, at(name))
                    for name, item in value.items()}
    elif args:
        for member in args:
            with contextlib.suppress(ConfigurationError):
                return _from_json(member, value, what, key)
    elif hint is float and type(value) in (int, float):
        with contextlib.suppress(OverflowError):
            if math.isfinite(number := float(value)):
                return number
    elif type(value) is hint:
        return value
    raise ConfigurationError(
        f"{what} key {key} must be of type "
        f"{str(hint) if args else hint.__name__}, not {_excerpt(value)}")


def _record_from_dict(cls, schema: str, what: str, d, required: bool = False):
    """``cls`` built from the JSON object ``d`` (``_from_json``), whose
    ``schema`` must be ``schema``; ``d`` may omit it unless ``required``."""
    if isinstance(d, dict):
        d = dict(d)
        found = d.pop("schema", None if required else schema)
        if found != schema:
            raise ConfigurationError(f"unsupported {what} schema {found!r}")
    return _from_json(cls, d, what)
