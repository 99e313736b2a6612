"""Radio environment: hotspot pools, air-to-ground channel, rates, geometry.

Units are meters, seconds, watts and bits/s unless a field name says
otherwise (``*_db``, ``*_dbm``, ``*_hz``). All sampling is driven by
explicit seeds; rerunning with the same seed and config reproduces the
same objects bit for bit.

``instance_to_dict`` writes an instance as one self-contained
``uavplan.instance.v1`` object (the test instances of an experiment).
Training instances are stored by ``harness`` as their hotspot ids alone,
and rebuilt there from the pool, the config and their place in the file.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import asdict, dataclass
from typing import Sequence

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
        if self.uav_speed_m_per_s <= 0:
            raise ConfigurationError("speed must be positive")
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


def _positive_poisson(rng: np.random.Generator, mean: float) -> int:
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
    rng = np.random.default_rng(rng_seed)
    side = area.area_side_m
    pool: list[Hotspot] = []
    for i in range(pool_size):
        cx = float(rng.uniform(0.0, side))
        cy = float(rng.uniform(0.0, side))
        users = _positive_poisson(rng, mean_users)
        stub = Hotspot(id=i + 1, center_m=(cx, cy), num_users=users, profit_bps=0.0)
        profit = hotspot_sum_rate(stub, (cx, cy, area.uav_altitude_m), chan)
        pool.append(Hotspot(id=i + 1, center_m=(cx, cy), num_users=users,
                            profit_bps=profit))
    return pool


def sample_instance(rng_seed: int, pool: Sequence[Hotspot], n_select: int,
                    depot: Point, chan: ChannelParams,
                    mission: MissionConfig) -> Instance:
    """Uniformly select ``n_select`` distinct pool hotspots into an Instance."""
    if n_select < 1 or n_select > len(pool):
        raise ConfigurationError(
            f"cannot select {n_select} hotspots from a pool of {len(pool)}")
    rng = np.random.default_rng(rng_seed)
    idx = rng.choice(len(pool), size=n_select, replace=False)
    chosen = sorted((pool[int(i)] for i in idx), key=lambda h: h.id)
    return Instance(hotspots=tuple(chosen), depot_m=depot, channel=chan,
                    mission=mission, seed=rng_seed)


def _choice_index(rng: np.random.Generator, p: np.ndarray) -> int:
    """The index ``rng.choice(len(p), p=p)`` draws, drawn the way it draws
    it, without its argument checks: the cdf ``p.cumsum()`` scaled by its
    last entry, one ``rng.random()``, and the first cdf entry above it.
    ``p`` must be non-negative with a positive sum near 1."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return bisect_right(cdf.tolist(), rng.random())


# --- JSON schemas -----------------------------------------------------------

def hotspot_to_dict(h: Hotspot) -> dict:
    return {"id": h.id, "center_m": list(h.center_m), "num_users": h.num_users,
            "profit_bps": h.profit_bps}


def hotspot_from_dict(d: dict) -> Hotspot:
    return Hotspot(id=int(d["id"]), center_m=(float(d["center_m"][0]),
                                               float(d["center_m"][1])),
                   num_users=int(d["num_users"]), profit_bps=float(d["profit_bps"]))


POOL_SCHEMA = "uavplan.pool.v2"


def pool_to_dict(pool: Sequence[Hotspot]) -> dict:
    return {"schema": POOL_SCHEMA,
            "hotspots": [hotspot_to_dict(h) for h in pool]}


def pool_from_dict(d: dict) -> list[Hotspot]:
    return [hotspot_from_dict(h) for h in d["hotspots"]]


def instance_to_dict(inst: Instance) -> dict:
    return {
        "schema": "uavplan.instance.v1",
        "seed": inst.seed,
        "depot_m": list(inst.depot_m),
        "mission": asdict(inst.mission),
        "channel": asdict(inst.channel),
        "hotspots": [hotspot_to_dict(h) for h in inst.hotspots],
    }


def instance_from_dict(d: dict) -> Instance:
    return Instance(
        hotspots=tuple(hotspot_from_dict(h) for h in d["hotspots"]),
        depot_m=(float(d["depot_m"][0]), float(d["depot_m"][1])),
        channel=ChannelParams(**d["channel"]),
        mission=MissionConfig(**d["mission"]),
        seed=int(d["seed"]),
    )
