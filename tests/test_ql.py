import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from uavplan.environment import (_sample_rows, edge_cost, sample_instance,
                                 sample_pool)
from uavplan.errors import ConfigurationError, NumericError, TrainingError
from uavplan.oracle import (ObjectiveWeights, _table, demonstrate, make_tour,
                            solve)
from uavplan.ql import (DEPOT_STATE, QTable, QTrainConfig, construct_word,
                        qtable_to_dict, train_q)
from uavplan.world_model import Word

from oracle_oracles import (instance_scales, nearest_neighbor_construct,
                            pool_rows)

W = ObjectiveWeights()


def _scales(training):
    """Each training instance's cost scale, as the oracle stage gives it."""
    return [instance_scales(inst)[0] for inst, _ in training]


def _train(training, cfg, w, seed):
    """``train_q`` on (instance, demonstration) pairs that share one
    depot, as rows over their pool (``pool_rows``), with the
    demonstrations' objectives and the cost scales that the oracle stage
    gives."""
    return train_q(*pool_rows([inst for inst, _ in training]),
                   [demo.objective for _, demo in training], _scales(training),
                   cfg, w, seed)


@pytest.fixture
def two_hotspot_world(make_instance, default_weights):
    # asymmetric so one visiting order is strictly cheaper
    inst = make_instance([(100.0, 0.0), (150.0, 40.0)], depot=(0.0, 0.0))
    demo = solve(inst, default_weights)
    return inst, demo


def value_iteration_two_letters(inst, demo, cfg):
    """Exact fixed point of the update rule on the two-letter world."""
    a, b = sorted(inst.ids)
    alpha, beta = W.weight_alpha, W.weight_beta
    nn = nearest_neighbor_construct(inst)
    cost_scale = nn.total_cost_m
    profit_scale = sum(h.profit_bps for h in inst.hotspots)

    def leg(u, v):
        pu = inst.depot_m if u == DEPOT_STATE else inst.hotspot(u).center_m
        pv = inst.depot_m if v == DEPOT_STATE else inst.hotspot(v).center_m
        return edge_cost(pu, pv)

    def step_reward(u, v):
        return (-alpha * leg(u, v) / cost_scale
                + beta * inst.hotspot(v).profit_bps / profit_scale)

    def terminal_reward(u, v, order):
        r = step_reward(u, v) - alpha * leg(v, DEPOT_STATE) / cost_scale
        realized = make_tour(order, inst, W).objective
        if abs(realized - demo.objective) <= cfg.match_tolerance * abs(demo.objective):
            r += cfg.terminal_bonus
        return r

    q = {}
    q[(a, b)] = terminal_reward(a, b, [a, b])
    q[(b, a)] = terminal_reward(b, a, [b, a])
    q[(DEPOT_STATE, a)] = step_reward(DEPOT_STATE, a) + cfg.discount * q[(a, b)]
    q[(DEPOT_STATE, b)] = step_reward(DEPOT_STATE, b) + cfg.discount * q[(b, a)]
    return q


class TestQTrainConfig:
    @pytest.mark.parametrize("key", ["epsilon_start", "epsilon_end"])
    @pytest.mark.parametrize("value", [-0.5, -1e-300, 1.0000000000000002,
                                       2.5, math.inf, math.nan])
    def test_epsilon_outside_unit_interval_rejected(self, key, value):
        """Each epsilon is a probability: a value outside [0, 1], NaN
        included, is refused, naming the key."""
        with pytest.raises(ConfigurationError,
                           match=f"^{key} must be in \\[0, 1\\], not "):
            QTrainConfig(**{key: value})

    @pytest.mark.parametrize("value", [0.0, 5e-324, 0.5, 1.0])
    def test_epsilon_in_unit_interval_accepted(self, value):
        cfg = QTrainConfig(epsilon_start=value, epsilon_end=value)
        assert cfg.epsilon_start == cfg.epsilon_end == value

    @pytest.mark.parametrize("key", ["terminal_bonus", "reference_bonus"])
    @pytest.mark.parametrize("value,temperature,refused", [
        (math.inf, 0.2, "must be finite, not inf"),
        (math.nan, 0.0, "must be finite, not nan"),
        (-math.inf, 1e-9, "must be finite, not -inf"),
        (1e308, 0.2, "1e+308 over temperature 0.2 is not finite"),
        (-1e308, 0.2, "-1e+308 over temperature 0.2 is not finite"),
        (1e302, 1e-8, "1e+302 over temperature 1e-08 is not finite"),
        (3.5e307, 0.2, None), (-3.5e307, 0.2, None), (1e308, 1.0, None),
        # at or below 1e-9 MQL takes the argmax, dividing nothing
        (1e308, 1e-9, None), (1e308, 0.0, None)])
    def test_a_bonus_must_stay_finite_over_the_temperature(
            self, key, value, temperature, refused):
        """Each bonus is finite, and where MQL takes a softmax (a
        temperature above 1e-9), so is its magnitude over the temperature;
        a bonus that is not is refused, naming the key."""
        if refused is None:
            QTrainConfig(temperature=temperature, **{key: value})
            return
        with pytest.raises(ConfigurationError,
                           match=f"^{key} {re.escape(refused)}"):
            QTrainConfig(temperature=temperature, **{key: value})


class TestTrainQ:
    def test_zero_episodes_zero_table(self, two_hotspot_world):
        inst, demo = two_hotspot_world
        table = _train([(inst, demo)], QTrainConfig(episodes=0), W, 1)
        assert table.values == {}
        assert table.q(DEPOT_STATE, inst.ids[0]) == 0.0

    def test_empty_training_rejected(self, two_hotspot_world):
        inst, _ = two_hotspot_world
        with pytest.raises(TrainingError):
            train_q(inst.hotspots, inst.depot_m, [], [], [],
                    QTrainConfig(episodes=10), W, 1)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_cost_scales_of_another_length_rejected(self, two_hotspot_world,
                                                    extra):
        """One objective and one cost scale per training instance: a
        list of either one shorter or one longer is refused before any
        episode."""
        training = [two_hotspot_world] * 2
        hotspots, depot, rows = pool_rows([inst for inst, _ in training])
        demos = [demo.objective for _, demo in training]
        scales = _scales(training)
        cfg = QTrainConfig(episodes=10)
        side = 'shorter' if extra < 0 else 'longer'
        with pytest.raises(ValueError, match=r"zip\(\) argument 3 is "
                           f"{side} than arguments 1-2"):
            train_q(hotspots, depot, rows, demos,
                    (scales + [1.0])[:2 + extra], cfg, W, 1)
        with pytest.raises(ValueError, match=r"zip\(\) argument 2 is "
                           f"{side} than argument 1"):
            train_q(hotspots, depot, rows, (demos + demos)[:2 + extra],
                    scales, cfg, W, 1)

    def test_converges_to_value_iteration_fixed_point(self, two_hotspot_world):
        inst, demo = two_hotspot_world
        cfg = QTrainConfig(episodes=20000)
        table = _train([(inst, demo)], cfg, W, 3)
        expected = value_iteration_two_letters(inst, demo, cfg)
        for key, val in expected.items():
            assert table.q(*key) == pytest.approx(val, abs=1e-6)

    def test_greedy_rollout_reproduces_oracle_order(self, two_hotspot_world):
        inst, demo = two_hotspot_world
        cfg = QTrainConfig(episodes=20000, temperature=0.0)
        table = _train([(inst, demo)], cfg, W, 3)
        word = construct_word(table, None, inst, 0, cfg)
        assert word.letters == demo.order

    def test_table_covers_training_letters_only(self, chan, mission,
                                                default_weights):
        pool = sample_pool(31, 10, 5.0, mission, chan)
        training = []
        for k in range(20):
            inst = sample_instance(600 + k, pool, 4, (1000.0, 1000.0),
                                   chan, mission)
            training.append((inst, solve(inst, default_weights)))
        table = _train(training, QTrainConfig(episodes=300), W, 5)
        assert table.letters <= {h.id for h in pool}
        assert all(s == DEPOT_STATE or s in table.letters
                   for (s, _) in table.values)

    def test_reads_one_table_of_the_pool(self, chan, mission):
        """On a 300-hotspot pool, what ``train_q`` allocates above its
        inputs peaks under 4 times the bytes of the pool's table
        (``oracle._table``), the yardstick of a float64 array of every
        leg: no nested list of the pool's legs is built."""
        pool = sample_pool(43, 300, 5.0, mission, chan)
        depot = (1000.0, 1000.0)
        rows = _sample_rows(range(200), len(pool), 5)
        demos = demonstrate(pool, depot, rows, W)
        tracemalloc.start()
        try:
            train_q(pool, depot, rows, demos.objective, demos.cost_scale,
                    QTrainConfig(episodes=200), W, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * _table(pool, depot).nbytes

    def test_holds_each_q_value_once(self, chan, mission):
        """On a 600-hotspot pool, what ``train_q`` allocates above its
        inputs peaks under 1.75 times the bytes of the pool's table
        (``oracle._table``), the yardstick of a float64 array of every
        leg: the entries its updates wrote are each held once, in its
        state's row, with no dense row of every pool index and no second
        dict of the written entries (2.33 times with both and a table of
        the legs)."""
        pool = sample_pool(43, 600, 5.0, mission, chan)
        depot = (1000.0, 1000.0)
        rows = _sample_rows(range(200), len(pool), 5)
        demos = demonstrate(pool, depot, rows, W)
        tracemalloc.start()
        try:
            train_q(pool, depot, rows, demos.objective, demos.cost_scale,
                    QTrainConfig(episodes=200), W, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * _table(pool, depot).nbytes

    def test_reads_no_table_of_the_pool(self, chan, mission):
        """On a 600-hotspot pool, what ``train_q`` allocates above its
        inputs peaks under half the bytes of the pool's table
        (``oracle._table``): each leg is computed from its two points, and
        no table of the legs is built (1.33 times the table with one)."""
        pool = sample_pool(43, 600, 5.0, mission, chan)
        depot = (1000.0, 1000.0)
        rows = _sample_rows(range(200), len(pool), 5)
        demos = demonstrate(pool, depot, rows, W)
        tracemalloc.start()
        try:
            train_q(pool, depot, rows, demos.objective, demos.cost_scale,
                    QTrainConfig(episodes=200), W, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * _table(pool, depot).nbytes

    def test_deterministic(self, two_hotspot_world):
        inst, demo = two_hotspot_world
        cfg = QTrainConfig(episodes=500)
        t1 = _train([(inst, demo)], cfg, W, 11)
        t2 = _train([(inst, demo)], cfg, W, 11)
        assert t1.values == t2.values


class TestConstructWord:
    def test_emits_each_letter_exactly_once(self, chan, mission, default_weights):
        pool = sample_pool(31, 10, 5.0, mission, chan)
        inst = sample_instance(700, pool, 6, (1000.0, 1000.0), chan, mission)
        training = [(inst, solve(inst, default_weights))]
        table = _train(training, QTrainConfig(episodes=200), default_weights, 5)
        for seed in range(10):
            word = construct_word(table, None, inst, seed,
                                  QTrainConfig(episodes=0))
            assert sorted(word.letters) == sorted(inst.ids)

    def test_single_letter_instance(self, make_instance):
        inst = make_instance([(50.0, 0.0)])
        table = QTable(values={}, letters=set())
        word = construct_word(table, None, inst, 0, QTrainConfig(episodes=0))
        assert word.letters == (1,)

    def test_zero_temperature_is_greedy_argmax(self, make_instance):
        inst = make_instance([(100.0, 0.0), (200.0, 0.0), (300.0, 0.0)])
        table = QTable(values={(DEPOT_STATE, 2): 5.0, (2, 3): 5.0, (3, 1): 5.0},
                       letters={1, 2, 3})
        cfg = QTrainConfig(episodes=0, temperature=0.0)
        word = construct_word(table, None, inst, 0, cfg)
        assert word.letters == (2, 3, 1)

    def test_novel_letters_fall_back_to_distance(self, make_instance):
        # empty table: nearest-first greedy from the depot
        inst = make_instance([(300.0, 0.0), (100.0, 0.0), (200.0, 0.0)])
        table = QTable(values={}, letters=set())
        cfg = QTrainConfig(episodes=0, temperature=0.0)
        word = construct_word(table, None, inst, 0, cfg)
        assert word.letters == (2, 3, 1)

    def test_reference_bias_steers_start(self, make_instance):
        # equidistant letters: the reference's first letter wins the bonus
        r = 200.0
        pts = [(r * math.cos(a), r * math.sin(a))
               for a in np.linspace(0, 2 * math.pi, 5)[:4]]
        inst = make_instance(pts, depot=(0.0, 0.0))
        table = QTable(values={}, letters={1, 2, 3, 4})
        cfg = QTrainConfig(episodes=0, temperature=0.0)
        ref = Word.from_letters([3, 1, 2, 4])
        word = construct_word(table, ref, inst, 0, cfg)
        assert word.letters[0] == 3

    def test_sampling_matches_softmax_frequencies(self, make_instance):
        inst = make_instance([(100.0, 0.0), (200.0, 0.0), (300.0, 0.0)])
        table = QTable(values={(DEPOT_STATE, 1): 0.30, (DEPOT_STATE, 2): 0.20,
                               (DEPOT_STATE, 3): 0.10},
                       letters={1, 2, 3})
        cfg = QTrainConfig(episodes=0, temperature=0.2)
        n = 10_000
        firsts = [construct_word(table, None, inst, seed, cfg).letters[0]
                  for seed in range(n)]
        scores = np.array([0.30, 0.20, 0.10]) / cfg.temperature
        p = np.exp(scores - scores.max())
        p /= p.sum()
        for idx, letter in enumerate([1, 2, 3]):
            count = sum(1 for f in firsts if f == letter)
            sigma = math.sqrt(n * p[idx] * (1 - p[idx]))
            assert abs(count - n * p[idx]) <= 3 * sigma

    @pytest.mark.parametrize("key", ["terminal_bonus", "reference_bonus"])
    def test_a_row_that_is_not_finite_is_a_numeric_error(self, make_instance,
                                                          key):
        """A score that overflows over the temperature makes the softmax
        row NaN: that is a numeric error naming the temperature and both
        bonuses, with no numpy warning. Each bonus over the temperature
        stays finite, as the config requires, and the score is a Q-value
        that the terminal bonus trains plus the reference bonus on the same
        letter: ``key`` is the larger of the two."""
        inst = make_instance([(100.0, 0.0), (200.0, 0.0), (300.0, 0.0)])
        large, small = 3.5e307, 1e307
        bonus = {"terminal_bonus": small, "reference_bonus": small, key: large}
        table = QTable(values={(DEPOT_STATE, 2): bonus["terminal_bonus"]},
                       letters={1, 2, 3})
        cfg = QTrainConfig(episodes=0, **bonus)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=(
                    r"^MQL's softmax row is not finite: its scores over "
                    r"ql.temperature 0.2 overflow, at ql.terminal_bonus .* "
                    r"and ql.reference_bonus ")):
                construct_word(table, Word.from_letters([2, 1, 3]), inst, 0,
                               cfg)

    def test_deterministic_under_seed(self, make_instance):
        inst = make_instance([(100.0, 0.0), (200.0, 50.0), (50.0, 300.0)])
        table = QTable(values={}, letters=set())
        cfg = QTrainConfig(episodes=0, temperature=0.5)
        a = construct_word(table, None, inst, 42, cfg)
        b = construct_word(table, None, inst, 42, cfg)
        assert a.letters == b.letters


def qtable_from_dict(d: dict) -> QTable:
    """The Q-table that ``qtable_to_dict`` wrote as ``d``."""
    return QTable(
        values={(int(s), int(a)): float(v) for s, a, v in d["values"]},
        letters=set(int(x) for x in d["letters"]),
    )


class TestQTableSerialization:
    def test_round_trip(self, two_hotspot_world):
        inst, demo = two_hotspot_world
        cfg = QTrainConfig(episodes=200)
        table = _train([(inst, demo)], cfg, W, 7)
        back = qtable_from_dict(qtable_to_dict(table))
        assert back.values == table.values
        assert back.letters == table.letters
