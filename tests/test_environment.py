import ast
import inspect
import json
import math
from itertools import accumulate
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavplan import environment
from uavplan.environment import (_CHUNK, _CHUNKS, _HEADS, _PCG_MULT,
                                 _PER_SEED_MAX, ChannelParams, Hotspot,
                                 Instance, MissionConfig, _canonical_json,
                                 _floyd_rows, _from_json, _head, _jump,
                                 _pairwise_sum, _pcg64_next, _pcg64_seeded,
                                 _sample_rows, _seeded, _Stream,
                                 channel_gain, edge_cost,
                                 hotspot_sum_rate, los_probability,
                                 sample_instance, sample_instances,
                                 sample_pool)
from uavplan.errors import ConfigurationError
from uavplan.harness import POOL_SCHEMA, instance_from_dict

from harness_oracles import instance_to_dict, pool_to_dict


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
    """A record's JSON form is its dataclasses' fields (``harness``'s one
    encoder rule), and ``harness``'s reader builds the record back."""

    def test_pool_round_trip(self, chan, mission):
        pool = sample_pool(13, 12, 5.0, mission, chan)
        text = _canonical_json({"schema": POOL_SCHEMA, "hotspots": pool})
        assert text == _canonical_json(pool_to_dict(pool))
        hotspots = json.loads(text)["hotspots"]
        assert list(_from_json(tuple[Hotspot, ...], hotspots, "pool")) == pool

    def test_instance_round_trip(self, chan, mission):
        pool = sample_pool(13, 12, 5.0, mission, chan)
        inst = sample_instance(99, pool, 6, (123.0, 456.0), chan, mission)
        text = _canonical_json(instance_to_dict(inst))
        assert instance_from_dict(json.loads(text)) == inst


# --- the random stream ----------------------------------------------------------

def _stream(seed: int, chunks: list[int]) -> _Stream:
    """A stream reading its raw outputs in chunks of the given sizes, the
    last repeated."""
    with mock.patch.multiple(environment, _CHUNKS=tuple(chunks[:-1]),
                             _CHUNK=chunks[-1]):
        return _Stream(seed)


# bounds n of integers(n): the smallest, the largest, around 2**31 (where
# Lemire's threshold is largest), and anywhere in between
bounds = st.one_of(st.just(1), st.just(2), st.just(2 ** 32),
                   st.integers(2 ** 31 - 3, 2 ** 31 + 3),
                   st.integers(2 ** 32 - 3, 2 ** 32), st.integers(1, 100),
                   st.integers(1, 2 ** 32))
draws = st.lists(st.one_of(
    st.tuples(st.just("random"), st.just(0)),
    st.tuples(st.just("uniform"), st.floats(0.0, 1e6)),
    st.tuples(st.just("integers"), bounds)), min_size=1, max_size=120)


def _same_draws(ours: _Stream, seed: int | None, ops, theirs=None) -> None:
    """``ours`` draws what ``theirs``, ``default_rng(seed)`` unless given,
    draws."""
    if theirs is None:
        theirs = np.random.default_rng(seed)
    for op, arg in ops:
        if op == "random":
            assert ours.random() == theirs.random()
        elif op == "uniform":
            assert ours.uniform(arg) == theirs.uniform(0.0, arg)
        else:
            assert ours.integers(arg) == theirs.integers(arg)
    # and the stream is where the generator is
    assert ours.integers(7) == theirs.integers(7)
    assert ours.random() == theirs.random()


_MASK128 = (1 << 128) - 1
# seeds of 1 to 8 entropy words
LONG_SEEDS = [0, 2 ** 32 - 1, 2 ** 64 + 9, 2 ** 96, 2 ** 128, 2 ** 160 - 1,
              10 ** 50, 2 ** 255 + 7]


class TestStream:
    """``_Stream`` against ``np.random.default_rng``'s ``Generator``: a
    numpy that changes one of these algorithms fails here rather than
    changing the artifacts' bytes."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 63), draws,
           st.lists(st.integers(1, 9), min_size=1, max_size=6))
    def test_interleaved_draws_across_chunk_boundaries(self, seed, ops, chunks):
        """Chunks of 1 to 9 raw outputs put a boundary between, or inside,
        the draws: an integers() that rejects, and the high half of an
        output kept for the next 32-bit draw."""
        _same_draws(_stream(seed, chunks), seed, ops)

    def test_long_interleaving_in_default_chunks(self):
        """Past the growing chunks into the fixed ones, with every kind of
        bound."""
        rng = np.random.default_rng(0)
        for seed in range(5):
            ops = []
            for _ in range(3000):
                kind = int(rng.integers(3))
                if kind == 0:
                    ops.append(("random", 0))
                elif kind == 1:
                    ops.append(("uniform", float(rng.uniform(0, 2000))))
                else:
                    ops.append(("integers", int(rng.integers(1, 2 ** 32 + 1))
                                if rng.random() < 0.5 else int(rng.integers(1, 60))))
            _same_draws(_Stream(seed), seed, ops)

    def test_one_draws_nothing(self):
        ours, theirs = _Stream(3), np.random.default_rng(3)
        assert [ours.integers(1) for _ in range(5)] == [0] * 5
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("n", [0, -1, 2 ** 32 + 1])
    def test_bounds_out_of_range_are_refused(self, n):
        with pytest.raises(ValueError):
            _Stream(0).integers(n)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.integers(1, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
        st.integers(9_990, 30_000).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(1, n)))),
        st.integers(0, 2 ** 63))
    @example((10_001, 200), 0)        # Floyd's algorithm: k <= n // 50
    @example((10_001, 201), 0)        # the tail shuffle
    @example((10_000, 300), 1)        # Floyd's algorithm: n <= 10,000
    @example((20_000, 5_000), 2)
    @example((20_000, 20_000), 3)     # every place shuffled but the first
    def test_sample_is_choice_without_replacement(self, nk, seed):
        n, k = nk
        expected = np.random.default_rng(seed).choice(n, size=k, replace=False)
        assert _Stream(seed).sample(n, k) == set(expected.tolist())

    @pytest.mark.parametrize("seed", LONG_SEEDS)
    def test_seeded_state_is_pcg64s(self, seed):
        """One seed's Python-int seeding, of 1 to 8 entropy words: with 5
        or more, words past the fourth are mixed into the pool."""
        state = np.random.PCG64(seed).state["state"]
        assert _seeded(seed) == (state["state"], state["inc"])

    def test_seeds_of_any_integer_type(self):
        """A numpy integer seeds as its value does, and a float is
        refused, as ``default_rng`` does."""
        assert _Stream(np.int64(5)).random() == _Stream(5).random()
        with pytest.raises(TypeError):
            _Stream(1.5)

    @pytest.mark.parametrize("seed", LONG_SEEDS)
    def test_outputs_are_random_raw(self, seed):
        """Through the head and two chunks of lanes."""
        n = sum(_CHUNKS) + 2 * _CHUNK + 5
        ours = _Stream(seed).raw
        want = np.random.default_rng(seed).bit_generator.random_raw(n)
        assert [ours() for _ in range(n)] == want.tolist()

    @pytest.mark.parametrize("boundary", [
        *accumulate(_CHUNKS), sum(_CHUNKS) + _CHUNK,
        sum(_CHUNKS) + 2 * _CHUNK])
    def test_draws_across_every_boundary(self, boundary):
        """Each boundary of the head's chunks, and of the lanes' chunks
        past it, falls before, inside or after a 32-bit draw whose high
        half the next one takes, and draws at a bound that Lemire's method
        rejects about half the time (2**31 + 1)."""
        for seed in (2, 2 ** 128 + 5):
            for before in (boundary - 2, boundary - 1, boundary):
                ours, theirs = _Stream(seed), np.random.default_rng(seed)
                for _ in range(before):
                    ours.raw()
                theirs.bit_generator.random_raw(before)
                _same_draws(ours, None, [
                    ("integers", 5), *[("integers", 2 ** 31 + 1)] * 4,
                    ("random", 0), ("integers", 7), ("integers", 2 ** 32),
                    ("uniform", 3.0)], theirs)

    def test_an_evicted_head_is_made_again(self):
        """A seed's head, read again, comes from the cache; once the
        heads of ``_HEADS`` other seeds have evicted it, it is made again,
        chunk by chunk, with the same outputs."""
        n = sum(_CHUNKS) + 10
        want = np.random.default_rng(11).bit_generator.random_raw(n).tolist()

        def made(seed: int) -> int:
            """The head chunks a stream of ``seed`` made, reading past its
            head."""
            misses = _head.cache_info().misses
            raw = _Stream(seed).raw
            drawn = [raw() for _ in range(n)]
            assert seed != 11 or drawn == want
            return _head.cache_info().misses - misses

        made(11)
        assert made(11) == 0
        for other in range(1000, 1000 + _HEADS):
            assert made(other) == len(_CHUNKS)
        assert made(11) == len(_CHUNKS)
        assert made(11) == 0

    def test_the_cache_holds_heads_alone(self):
        """A stream read far past its head leaves its head in the cache,
        no more: no output past the head is kept."""
        _head.cache_clear()
        raw = _Stream(12).raw
        for _ in range(sum(_CHUNKS) + 3 * _CHUNK):
            raw()
        assert _head.cache_info().currsize == len(_CHUNKS)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, _MASK128), st.integers(0, _MASK128 >> 1),
           st.one_of(st.integers(0, 70), st.sampled_from(
               [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 ** 20 + 3])))
    def test_jump_is_repeated_steps(self, state, half_inc, steps):
        """``_jump(steps)`` takes a state where ``steps`` LCG steps do."""
        inc = half_inc << 1 | 1
        mult, plus = _jump(steps)
        want = state
        for _ in range(min(steps, 70)):
            want = (want * _PCG_MULT + inc) & _MASK128
        if steps > 70:
            # MULT**steps * state + inc * (MULT**steps - 1) / (MULT - 1),
            # the quotient taken mod 2**128 (MULT - 1 is even)
            power = pow(_PCG_MULT, steps, (1 << 128) * (_PCG_MULT - 1))
            want = (power * state
                    + inc * ((power - 1) // (_PCG_MULT - 1))) & _MASK128
        assert (mult * state + plus * inc) & _MASK128 == want

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0),
                              st.floats(1e-300, 1e300)),
                    min_size=1, max_size=300))
    def test_pairwise_sum_is_ndarray_sum(self, row):
        assert _pairwise_sum(row) == np.array(row).sum()


# seeds with 1 to 5 entropy words in numpy's SeedSequence
ENTROPY_EDGES = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64, 2 ** 128, 2 ** 160 - 1]


def _raw(seeds, n: int) -> list[list[int]]:
    """The first ``n`` raw outputs of each seed's kernel stream."""
    state, inc = _pcg64_seeded(seeds)
    outputs = []
    for _ in range(n):
        state, raw = _pcg64_next(state, inc)
        outputs.append(raw.tolist())
    return [list(row) for row in zip(*outputs)] if n else [[] for _ in seeds]


def _from_limbs(hi, lo) -> int:
    return int(hi) << 64 | int(lo)


def _limbs(value: int) -> tuple[np.ndarray, np.ndarray]:
    """One stream's (high, low) uint64 limbs of a 128-bit value."""
    return (np.array([value >> 64], dtype=np.uint64),
            np.array([value & (1 << 64) - 1], dtype=np.uint64))


def _before(stepped: int, inc: int) -> int:
    """The state whose LCG step with ``inc`` is ``stepped``."""
    return (stepped - inc) * pow(_PCG_MULT, -1, 1 << 128) & _MASK128


def _parent_sample_instance(seed, pool, n_select, depot, chan, mission):
    """``sample_instance`` as it was drawn before bulk seeding: the set
    ``Generator.choice(len(pool), size=n_select, replace=False)`` draws,
    in id order."""
    idx = np.random.default_rng(seed).choice(len(pool), size=n_select,
                                             replace=False)
    chosen = sorted((pool[i] for i in idx.tolist()), key=lambda h: h.id)
    return Instance(hotspots=tuple(chosen), depot_m=depot, channel=chan,
                    mission=mission, seed=seed)


# the kernel's side of the seed-count rule
MANY = _PER_SEED_MAX + 1


class TestBulkStreams:
    """The draw kernel (``_pcg64_seeded``, ``_pcg64_next``, ``_floyd_rows``)
    against ``PCG64`` and ``np.random.default_rng``: the seeded state of
    every entropy length, the raw outputs, the sets ``_Stream.sample``
    draws, and the instances ``sample_instances`` draws on both sides of
    the seed-count rule."""

    @staticmethod
    def _are_rows(rows, seeds, n: int, k: int) -> None:
        """``rows`` is ``_sample_rows``' one form of a draw: a C-contiguous
        int64 array of shape (len(seeds), k) whose row j is
        ``sorted(Generator.choice(n, k, replace=False))`` of ``seeds[j]``."""
        assert rows.dtype == np.int64 and rows.flags.c_contiguous
        assert rows.shape == (len(seeds), k)
        assert rows.tolist() == [sorted(np.random.default_rng(s).choice(
            n, k, replace=False).tolist()) for s in seeds]

    @staticmethod
    def _seeded(seeds) -> list[tuple[int, int]]:
        """The (state, inc) the kernel seeds each stream with, each read
        back from its limbs as ``hi << 64 | lo``."""
        state, inc = _pcg64_seeded(seeds)
        return list(zip(map(_from_limbs, *state), map(_from_limbs, *inc)))

    @pytest.mark.parametrize("seed", ENTROPY_EDGES)
    def test_seeded_state_is_pcg64s(self, seed):
        state = np.random.PCG64(seed).state["state"]
        assert self._seeded([seed]) == [(state["state"], state["inc"])]

    @pytest.mark.parametrize("seed", ENTROPY_EDGES)
    def test_outputs_are_random_raw(self, seed):
        """Past default_rng's first chunk of 16 and far beyond."""
        want = np.random.default_rng(seed).bit_generator.random_raw(3000)
        assert _raw([seed], 3000) == [want.tolist()]

    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, _MASK128), st.integers(0, _MASK128 >> 1))
    # all-ones state and inc limbs, where every carry fires
    @example(_MASK128, _MASK128 >> 1)
    @example(0, 0)
    # states that step to a state whose top 6 bits are 0 (rotation 0)
    @example(_before((1 << 122) - 1, 1), 0)
    @example(_before(12345, _MASK128), _MASK128 >> 1)
    def test_one_limb_step_is_the_128_bit_step(self, state, half_inc):
        """One ``_pcg64_next`` on limbs is the Python-int LCG step mod
        2**128 and its XSL-RR output, on any state and odd inc: with every
        limb all ones (every carry fires), and to a stepped state whose top
        6 bits are 0 (rotation 0)."""
        inc = half_inc << 1 | 1
        (hi, lo), out = _pcg64_next(_limbs(state), _limbs(inc))
        stepped = (state * _PCG_MULT + inc) & _MASK128
        x = (stepped >> 64 ^ stepped) & (1 << 64) - 1
        rot = stepped >> 122
        assert _from_limbs(hi[0], lo[0]) == stepped
        assert out.dtype == np.uint64
        assert out.tolist() == [(x >> rot | x << (64 - rot)) & (1 << 64) - 1]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 2 ** 32 - 1),
                              st.integers(2 ** 32, 2 ** 64),
                              st.integers(0, 2 ** 200),
                              st.sampled_from(ENTROPY_EDGES)),
                    min_size=1, max_size=12))
    def test_mixed_length_batches_keep_seed_order(self, seeds):
        """Seeds of several entropy lengths, in any order and repeated:
        each stream is its own seed's, in the order given."""
        states = [np.random.PCG64(s).state["state"] for s in seeds]
        assert self._seeded(seeds) == [(t["state"], t["inc"]) for t in states]
        assert _raw(seeds, 5) == [
            np.random.default_rng(s).bit_generator.random_raw(5).tolist()
            for s in seeds]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 2 ** 32 - 1),
                              st.integers(2 ** 32, 2 ** 64 - 1),
                              st.integers(2 ** 64, 2 ** 200),
                              st.sampled_from(ENTROPY_EDGES)),
                    min_size=0, max_size=2 * MANY),
           st.integers(1, 100).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(1, n))))
    @example([0, 1, 2 ** 32, 2 ** 64, 2 ** 64, 5] * 6, (100, 100))
    @example([0], (1, 1))
    @example([], (10, 3))
    def test_kernel_is_the_stream_sample(self, seeds, nk):
        """Seeds of 1, 2 and 3 or more entropy words, mixed and repeated,
        in batches on both sides of the seed-count rule, and no seed: the
        kernel draws each seed's ``_Stream(seed).sample(n, k)``, and so
        do ``_sample_rows``, in its one form, and ``sample_instances``,
        whichever way they draw."""
        n, k = nk
        want = [_Stream(s).sample(n, k) for s in seeds]
        assert [set(row) for row in _floyd_rows(seeds, n, k)] == want
        self._are_rows(_sample_rows(seeds, n, k), seeds, n, k)
        pool = [Hotspot(id=i + 1, center_m=(float(i), 0.0), num_users=1,
                        profit_bps=1.0) for i in range(n)]
        got = sample_instances(seeds, pool, k, (0.0, 0.0), ChannelParams(),
                               MissionConfig())
        assert [{h.id - 1 for h in inst.hotspots} for inst in got] == want

    def test_a_row_that_lemire_would_reject_is_drawn_again(self):
        """At a bound near 2**32 most rows may reject: those, and only
        those, are drawn again by their own stream."""
        n, seeds = 3_000_000_000, list(range(64))
        with mock.patch.object(environment, "_Stream", wraps=_Stream) as made:
            rows = _floyd_rows(seeds, n, 3)
        assert [set(row) for row in rows] == [
            _Stream(s).sample(n, 3) for s in seeds]
        assert len(seeds) // 2 < made.call_count < len(seeds)

    def test_streams_are_made_on_demand(self, chan, mission):
        """A kernel batch makes a ``_Stream`` only for a row it draws
        again; at 5 of 50, where Lemire's draw rejects with a chance of
        about 1e-8 per draw, it makes none."""
        pool = sample_pool(11, 50, 5.0, mission, chan)
        with mock.patch.object(environment, "_Stream", wraps=_Stream) as made:
            sample_instances(range(1000), pool, 5, (0.0, 0.0), chan, mission)
        assert made.call_count == 0

    def test_negative_seeds_are_refused(self, chan, mission):
        """As ``default_rng`` refuses them, on both sides of the rule."""
        pool = sample_pool(11, 10, 5.0, mission, chan)
        with pytest.raises(ValueError):
            np.random.default_rng(-1)
        with pytest.raises(ValueError):
            sample_instance(-1, pool, 3, (0.0, 0.0), chan, mission)
        with pytest.raises(ValueError):
            sample_instances([4, -2 ** 40], pool, 3, (0.0, 0.0), chan,
                             mission)
        with pytest.raises(ValueError):
            sample_instances([*range(MANY), -1], pool, 3, (0.0, 0.0), chan,
                             mission)

    @pytest.mark.parametrize("seed", [7, 2 ** 32 + 5, 2 ** 64 + 9],
                             ids=["1-word", "2-words", "3-words"])
    def test_one_seed_is_drawn_as_in_a_batch(self, chan, mission, seed):
        """A one-seed call seeds ``_Stream(seed)``, not the kernel, and
        draws the instance that the seed draws in a kernel batch."""
        args = (sample_pool(11, 50, 5.0, mission, chan), 5, (10.0, 20.0),
                chan, mission)
        with mock.patch.object(environment, "_floyd_rows") as kernel:
            one = sample_instance(seed, *args)
            assert sample_instances([seed], *args) == [one]
        assert kernel.call_count == 0
        assert sample_instances([3, seed, *range(2 ** 40, 2 ** 40 + MANY)],
                                *args)[1] == one

    def test_the_seed_count_rule(self):
        """Up to ``_PER_SEED_MAX`` seeds draw through one stream each, and
        more through the kernel, once, unless the draw takes the tail
        shuffle. On each path (a row Lemire's draw would reject, redrawn
        in place, and a whole-pool draw among them) the rows come in one
        form (``_are_rows``)."""
        for seeds, n, k, calls in (
                (range(_PER_SEED_MAX), 50, 5, 0),
                (range(MANY), 50, 5, 1),
                (range(64), 3_000_000_000, 3, 1),
                (range(MANY), 100, 100, 1),
                (range(MANY), 10_001, 201, 0)):
            with mock.patch.object(environment, "_floyd_rows",
                                   wraps=_floyd_rows) as kernel:
                rows = _sample_rows(seeds, n, k)
            assert kernel.call_count == calls
            self._are_rows(rows, seeds, n, k)

    @pytest.mark.parametrize("pool_size,n_select,seeds", [
        pytest.param(50, 5, range(1_000_000, 1_000_300), id="50-5"),
        pytest.param(100, 50, range(7, 57), id="100-50"),
        pytest.param(100, 100, [3, 2 ** 64, 0], id="whole-pool"),
        pytest.param(100, 100, [3, 2 ** 64, *range(MANY)],
                     id="whole-pool-kernel"),
        pytest.param(10_001, 200, [0, 1, 2 ** 32], id="floyd-k-small"),
        pytest.param(10_001, 200, [0, 1, 2 ** 32, *range(5, 5 + MANY)],
                     id="floyd-k-small-kernel"),
        pytest.param(10_001, 201, [0, 1, 2 ** 32], id="tail-shuffle"),
        pytest.param(10_001, 201, range(MANY), id="tail-shuffle-many")])
    def test_sample_instances_are_the_parent_draws(
            self, chan, mission, pool_size, n_select, seeds):
        """Both branches of ``choice``'s set (Floyd's algorithm at n <=
        10,000 or k <= n // 50, else the tail shuffle), on both sides of
        the seed-count rule, and a 50-of-100 sample whose streams run past
        default_rng's first chunk."""
        pool = sample_pool(11, pool_size, 5.0, mission, chan)
        depot = (10.0, 20.0)
        want = [_parent_sample_instance(s, pool, n_select, depot, chan,
                                        mission) for s in seeds]
        assert sample_instances(seeds, pool, n_select, depot, chan,
                                mission) == want
        assert [sample_instance(s, pool, n_select, depot, chan, mission)
                for s in seeds] == want


class TestOneDrawPath:
    """Every random draw in the package is a draw of
    ``environment._Stream``, and every raw output is made by the package's
    own PCG64: one seeding (``_seed_words``, on one seed's Python ints in
    ``_seeded`` or on a batch's arrays in ``_pcg64_seeded``), the head in
    Python ints (``_head``), and the limb arithmetic, which serves the
    stream's lanes (``_lanes``) and the draw kernel ``_floyd_rows``, which
    only ``_sample_rows`` calls. Nothing reaches ``np.random``, and the
    draw methods are called only on streams."""

    SRC = Path(environment.__file__).parent
    DRAWS = {"random", "uniform", "integers", "choice"}

    @staticmethod
    def _streams(fn) -> set[str]:
        """The names in ``fn`` that hold a stream: parameters annotated
        ``_Stream``, and names assigned a ``_Stream(...)``."""
        names = {a.arg for a in fn.args.args
                 if isinstance(a.annotation, ast.Name)
                 and a.annotation.id == "_Stream"}
        if any(a.arg == "self" for a in fn.args.args):
            names.add("self")
        for node in ast.walk(fn):
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                    and node.value.func.id == "_Stream"):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        return names

    @staticmethod
    def _callers(name: str) -> list[str]:
        """``path:function`` of every function in the package that calls
        ``name`` by name or as an attribute, once each."""
        found = []
        for path in sorted(TestOneDrawPath.SRC.glob("*.py")):
            tree = ast.parse(path.read_text())
            for fn in ast.walk(tree):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and (
                            (isinstance(node.func, ast.Name)
                             and node.func.id == name)
                            or (isinstance(node.func, ast.Attribute)
                                and node.func.attr == name)):
                        found.append(f"{path.name}:{fn.name}")
        return list(dict.fromkeys(found))

    def test_the_bulk_source_serves_only_instance_sampling(self):
        """No ``Generator`` and no second seeding path: ``_seed_words``
        seeds both the stream and the draw kernel, the limb steps serve
        only the stream's lanes and the kernel, and only ``_sample_rows``
        calls the kernel. The training set is drawn as its rows
        (``stage_training_instances``), and the test instances through
        ``sample_instances`` (``sample_instance`` is its one-seed case)."""
        assert self._callers("_seed_words") == [
            "environment.py:_seeded", "environment.py:_pcg64_seeded"]
        assert self._callers("_seeded") == ["environment.py:__init__"]
        assert self._callers("_outputs") == ["environment.py:__init__"]
        assert self._callers("_head") == ["environment.py:_outputs"]
        assert self._callers("_lanes") == ["environment.py:_outputs"]
        assert self._callers("_leap") == ["environment.py:_lanes"]
        assert self._callers("_mul128") == [
            "environment.py:_leap", "environment.py:_lcg_step"]
        assert self._callers("_add128") == [
            "environment.py:_pcg64_seeded", "environment.py:_leap",
            "environment.py:_lcg_step"]
        assert self._callers("_lcg_step") == [
            "environment.py:_pcg64_seeded", "environment.py:_pcg64_next"]
        assert self._callers("_xsl_rr") == [
            "environment.py:_lanes", "environment.py:_pcg64_next"]
        assert self._callers("_pcg64_seeded") == [
            "environment.py:_floyd_rows"]
        assert self._callers("_pcg64_next") == ["environment.py:_floyd_rows"]
        assert self._callers("_floyd_rows") == [
            "environment.py:_sample_rows"]
        assert self._callers("_sample_rows") == [
            "environment.py:sample_instances",
            "harness.py:stage_training_instances"]
        assert self._callers("sample_instances") == [
            "environment.py:sample_instance", "harness.py:iter_test_instances"]

    def test_only_the_stream_draws(self):
        problems = []
        for path in sorted(self.SRC.glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                where = f"{path.name}:{getattr(node, 'lineno', '?')}"
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [a.name for a in node.names]
                    module = getattr(node, "module", None) or ""
                    if ("numpy.random" in names or module.startswith("numpy.random")
                            or (module == "numpy" and "random" in names)):
                        problems.append(f"{where}: imports numpy.random")
                if (isinstance(node, ast.Attribute) and node.attr == "random"
                        and isinstance(node.value, ast.Name)
                        and node.value.id in ("np", "numpy")):
                    problems.append(f"{where}: np.random")
                if isinstance(node, ast.Name) and node.id == "default_rng":
                    problems.append(f"{where}: default_rng by name")
            for fn in ast.walk(tree):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                streams = self._streams(fn)
                for node in ast.walk(fn):
                    if (isinstance(node, ast.Attribute) and node.attr in self.DRAWS
                            and not (isinstance(node.value, ast.Name)
                                     and node.value.id in streams)
                            and not (isinstance(node.value, ast.Name)
                                     and node.value.id in ("np", "numpy"))):
                        problems.append(f"{path.name}:{node.lineno}: "
                                        f".{node.attr} on a non-stream")
        assert problems == []

    def test_the_stream_and_its_helpers_are_private(self):
        """perfbench's tracer wraps every public module function: a public
        draw function would put a span around each of 100,000+ draws. So
        ``environment``'s public functions are these, and no more."""
        public = sorted(name for name, value in vars(environment).items()
                        if inspect.isfunction(value)
                        and value.__module__ == environment.__name__
                        and not name.startswith("_"))
        assert public == [
            "channel_gain", "edge_cost", "hotspot_sum_rate",
            "los_probability", "sample_instance", "sample_instances",
            "sample_pool"]
