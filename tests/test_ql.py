import math

import numpy as np
import pytest

from uavplan.environment import edge_cost, sample_instance, sample_pool
from uavplan.errors import TrainingError
from uavplan.oracle import ObjectiveWeights, make_tour, solve
from uavplan.ql import (DEPOT_STATE, QTable, QTrainConfig, construct_word,
                        qtable_from_dict, qtable_to_dict, train_q)
from uavplan.world_model import Word

from oracle_oracles import nearest_neighbor_construct

W = ObjectiveWeights()


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


class TestTrainQ:
    def test_zero_episodes_zero_table(self, two_hotspot_world):
        inst, demo = two_hotspot_world
        table = train_q([(inst, demo)], QTrainConfig(episodes=0), W, 1)
        assert table.values == {}
        assert table.q(DEPOT_STATE, inst.ids[0]) == 0.0

    def test_empty_training_rejected(self):
        with pytest.raises(TrainingError):
            train_q([], QTrainConfig(episodes=10), W, 1)

    def test_converges_to_value_iteration_fixed_point(self, two_hotspot_world):
        inst, demo = two_hotspot_world
        cfg = QTrainConfig(episodes=20000)
        table = train_q([(inst, demo)], cfg, W, 3)
        expected = value_iteration_two_letters(inst, demo, cfg)
        for key, val in expected.items():
            assert table.q(*key) == pytest.approx(val, abs=1e-6)

    def test_greedy_rollout_reproduces_oracle_order(self, two_hotspot_world):
        inst, demo = two_hotspot_world
        cfg = QTrainConfig(episodes=20000, temperature=0.0)
        table = train_q([(inst, demo)], cfg, W, 3)
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
        table = train_q(training, QTrainConfig(episodes=300), W, 5)
        assert table.letters <= {h.id for h in pool}
        assert all(s == DEPOT_STATE or s in table.letters
                   for (s, _) in table.values)

    def test_deterministic(self, two_hotspot_world):
        inst, demo = two_hotspot_world
        cfg = QTrainConfig(episodes=500)
        t1 = train_q([(inst, demo)], cfg, W, 11)
        t2 = train_q([(inst, demo)], cfg, W, 11)
        assert t1.values == t2.values


class TestConstructWord:
    def test_emits_each_letter_exactly_once(self, chan, mission, default_weights):
        pool = sample_pool(31, 10, 5.0, mission, chan)
        inst = sample_instance(700, pool, 6, (1000.0, 1000.0), chan, mission)
        table = train_q([(inst, solve(inst, default_weights))],
                        QTrainConfig(episodes=200), default_weights, 5)
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

    def test_deterministic_under_seed(self, make_instance):
        inst = make_instance([(100.0, 0.0), (200.0, 50.0), (50.0, 300.0)])
        table = QTable(values={}, letters=set())
        cfg = QTrainConfig(episodes=0, temperature=0.5)
        a = construct_word(table, None, inst, 42, cfg)
        b = construct_word(table, None, inst, 42, cfg)
        assert a.letters == b.letters


class TestQTableSerialization:
    def test_round_trip(self, two_hotspot_world):
        inst, demo = two_hotspot_world
        cfg = QTrainConfig(episodes=200)
        table = train_q([(inst, demo)], cfg, W, 7)
        back = qtable_from_dict(qtable_to_dict(table))
        assert back.values == table.values
        assert back.letters == table.letters
