import math

import numpy as np
import pytest

from uavplan.environment import (ChannelParams, channel_gain,
                                 edge_cost, hotspot_sum_rate, instance_from_dict,
                                 instance_to_dict, los_probability,
                                 pool_from_dict, pool_to_dict, sample_instance,
                                 sample_pool)
from uavplan.errors import ConfigurationError


class TestChannelParams:
    def test_defaults_valid(self):
        ChannelParams()

    def test_los_attenuation_cannot_exceed_nlos(self):
        with pytest.raises(ConfigurationError):
            ChannelParams(mu_los_db=25.0, mu_nlos_db=3.0)

    def test_nonpositive_power_rejected(self):
        with pytest.raises(ConfigurationError):
            ChannelParams(user_tx_power_w=0.0)


class TestLosProbability:
    def test_overhead_is_near_certain(self, chan):
        # UAV directly above the user: elevation 90 degrees
        assert los_probability(0.0, 200.0, chan) >= 0.999

    def test_zero_slope_collapses_to_constant(self, chan):
        flat = ChannelParams(los_sigmoid_b=0.0)
        expected = 1.0 / (1.0 + flat.los_sigmoid_a)
        for dist in (0.0, 100.0, 5000.0):
            assert los_probability(dist, 200.0, flat) == pytest.approx(expected)

    def test_monotone_in_altitude(self, chan):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = float(rng.uniform(0.0, 3000.0))
            h1 = float(rng.uniform(1.0, 500.0))
            h2 = h1 + float(rng.uniform(0.0, 500.0))
            assert los_probability(d, h2, chan) >= los_probability(d, h1, chan) - 1e-15

    def test_in_unit_interval_and_complement(self, chan):
        rng = np.random.default_rng(4)
        for _ in range(500):
            p = los_probability(float(rng.uniform(0, 1e4)),
                                float(rng.uniform(1, 1e3)), chan)
            assert 0.0 <= p <= 1.0
            assert p + (1.0 - p) == 1.0


class TestChannelGain:
    def test_pure_los_collapse(self, chan):
        d = 150.0
        g = channel_gain(d, 1.0, chan)
        mu = 10 ** (chan.mu_los_db / 10)
        expected = 1.0 / (chan.free_space_constant * d ** 2 * mu)
        assert g == pytest.approx(expected, rel=1e-12)

    def test_inverse_square_law(self, chan):
        g1 = channel_gain(100.0, 0.7, chan)
        g2 = channel_gain(200.0, 0.7, chan)
        assert g1 / g2 == pytest.approx(4.0, rel=1e-12)

    def test_against_db_domain_fspl_calculator(self, chan):
        # independent path: free-space path loss computed in dB and undone
        d, f = 200.0, chan.carrier_frequency_hz
        fspl_db = 20 * math.log10(4 * math.pi * d * f / 299_792_458.0)
        expected = 10 ** (-(fspl_db + chan.mu_los_db) / 10)
        assert channel_gain(d, 1.0, chan) == pytest.approx(expected, rel=1e-9)

    def test_zero_distance_rejected(self, chan):
        with pytest.raises(ConfigurationError):
            channel_gain(0.0, 1.0, chan)

    def test_positive_and_decreasing(self, chan):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = float(rng.uniform(0, 1))
            d1 = float(rng.uniform(1, 5000))
            d2 = d1 + float(rng.uniform(1, 1000))
            g1, g2 = channel_gain(d1, p, chan), channel_gain(d2, p, chan)
            assert g1 > 0 and g2 > 0 and g1 > g2


class TestHotspotSumRate:
    def test_no_users_no_rate(self, chan, make_instance):
        h = make_instance([(10, 10)], users=5).hotspots[0]
        empty = type(h)(id=h.id, center_m=h.center_m, num_users=0, profit_bps=0.0)
        assert hotspot_sum_rate(empty, (10, 10, 200.0), chan) == 0.0

    def test_unit_snr_gives_exactly_bandwidth(self, chan, make_instance):
        # choose the noise power equal to received power: log2(1 + 1) = 1
        h = make_instance([(0, 0)], users=5).hotspots[0]
        single = type(h)(id=1, center_m=(0.0, 0.0), num_users=1, profit_bps=0.0)
        g = channel_gain(200.0, los_probability(0.0, 200.0, chan), chan)
        noise_dbm = 10 * math.log10(chan.user_tx_power_w * g) + 30.0
        tuned = ChannelParams(noise_power_dbm=noise_dbm)
        rate = hotspot_sum_rate(single, (0, 0, 200.0), tuned)
        assert rate == pytest.approx(tuned.rb_bandwidth_hz, rel=1e-12)

    def test_default_parameters_against_independent_evaluator(self, chan):
        # spreadsheet-style recomputation in the dB domain, five users
        h_alt = 200.0
        fspl_db = 20 * math.log10(4 * math.pi * h_alt
                                  * chan.carrier_frequency_hz / 299_792_458.0)
        p_los = 1.0 / (1.0 + 9.61 * math.exp(-0.16 * (90.0 - 9.61)))
        mix_lin = p_los * 10 ** 0.3 + (1 - p_los) * 10 ** 2.3
        g = 10 ** (-fspl_db / 10) / mix_lin
        snr = 1.0 * g / 10 ** ((-104.0 - 30.0) / 10.0)
        expected = 5 * 180e3 * math.log2(1 + snr)

        from uavplan.environment import Hotspot
        h = Hotspot(id=1, center_m=(500.0, 500.0), num_users=5, profit_bps=0.0)
        got = hotspot_sum_rate(h, (500.0, 500.0, h_alt), chan)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_additive_in_users(self, chan):
        from uavplan.environment import Hotspot
        one = Hotspot(id=1, center_m=(3.0, 4.0), num_users=1, profit_bps=0.0)
        six = Hotspot(id=1, center_m=(3.0, 4.0), num_users=6, profit_bps=0.0)
        pos = (100.0, 100.0, 200.0)
        assert hotspot_sum_rate(six, pos, chan) == pytest.approx(
            6 * hotspot_sum_rate(one, pos, chan), rel=1e-12)


class TestEdgeCost:
    def test_three_four_five(self):
        assert edge_cost((0.0, 0.0), (3.0, 4.0)) == 5.0

    def test_identity(self):
        assert edge_cost((7.5, -2.0), (7.5, -2.0)) == 0.0

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a, b, c = ((float(x), float(y))
                       for x, y in rng.uniform(-1e3, 1e3, size=(3, 2)))
            assert edge_cost(a, b) == edge_cost(b, a)
            assert edge_cost(a, c) <= edge_cost(a, b) + edge_cost(b, c) + 1e-9


class TestSampling:
    def test_pool_at_default_scale(self, chan, mission):
        pool = sample_pool(7, 50, 5.0, mission, chan)
        assert len(pool) == 50
        assert all(0 <= h.center_m[0] <= 2000 and 0 <= h.center_m[1] <= 2000
                   for h in pool)
        assert [h.id for h in pool] == list(range(1, 51))

    def test_zero_user_draws_resampled_to_one(self, chan, mission):
        pool = sample_pool(3, 1, 1e-9, mission, chan)
        assert pool[0].num_users == 1

    def test_everyone_has_users(self, chan, mission):
        pool = sample_pool(9, 200, 0.3, mission, chan)
        assert min(h.num_users for h in pool) >= 1

    def test_pool_determinism(self, chan, mission):
        assert sample_pool(7, 20, 5.0, mission, chan) == \
            sample_pool(7, 20, 5.0, mission, chan)

    def test_profit_is_cached_sum_rate(self, chan, mission):
        for h in sample_pool(21, 10, 5.0, mission, chan):
            recomputed = hotspot_sum_rate(
                h, (h.center_m[0], h.center_m[1], mission.uav_altitude_m), chan)
            assert h.profit_bps == recomputed

    def test_invalid_pool_config(self, chan, mission):
        with pytest.raises(ConfigurationError):
            sample_pool(1, 0, 5.0, mission, chan)
        with pytest.raises(ConfigurationError):
            sample_pool(1, 5, -1.0, mission, chan)

    def test_instance_selection(self, chan, mission):
        pool = sample_pool(7, 50, 5.0, mission, chan)
        inst = sample_instance(42, pool, 5, (1000.0, 1000.0), chan, mission)
        assert len(inst.hotspots) == 5
        assert len(set(inst.ids)) == 5

    def test_select_whole_pool(self, chan, mission):
        pool = sample_pool(7, 8, 5.0, mission, chan)
        inst = sample_instance(1, pool, 8, (0.0, 0.0), chan, mission)
        assert sorted(inst.ids) == [h.id for h in pool]

    def test_overselection_rejected(self, chan, mission):
        pool = sample_pool(7, 5, 5.0, mission, chan)
        with pytest.raises(ConfigurationError):
            sample_instance(1, pool, 6, (0.0, 0.0), chan, mission)

    def test_different_seeds_differ(self, chan, mission):
        # collision chance for 5 of 50 is about 1 / 2.1e6 per pair
        pool = sample_pool(7, 50, 5.0, mission, chan)
        picks = {sample_instance(s, pool, 5, (0.0, 0.0), chan, mission).ids
                 for s in range(100)}
        assert len(picks) >= 99

    def test_instance_determinism(self, chan, mission):
        pool = sample_pool(7, 50, 5.0, mission, chan)
        a = sample_instance(5, pool, 5, (10.0, 20.0), chan, mission)
        b = sample_instance(5, pool, 5, (10.0, 20.0), chan, mission)
        assert a == b


class TestSerialization:
    def test_pool_round_trip(self, chan, mission):
        pool = sample_pool(13, 12, 5.0, mission, chan)
        assert pool_from_dict(pool_to_dict(pool)) == pool

    def test_instance_round_trip(self, chan, mission):
        pool = sample_pool(13, 12, 5.0, mission, chan)
        inst = sample_instance(99, pool, 6, (123.0, 456.0), chan, mission)
        assert instance_from_dict(instance_to_dict(inst)) == inst
