"""Q-learning training and MQL construction against the loops they replaced.

``ref_train_q`` and ``ref_construct_word`` below are the earlier
implementations, kept verbatim as the test oracle: they look every hotspot
up with ``Instance.hotspot``, pick the greedy action with ``max`` by the key
``(q, -a)`` and re-walk the finished tour with ``make_tour`` (it forms
the same length and profit sums as the ``tour_length`` and profit sum
they used before). The production loops must give the same Q-table, with the same float bits, and
the same words, from the same random draws: the references take them from
numpy's ``Generator``, the production loops from ``environment._Stream``.
"""

import json
import math
import random
from dataclasses import replace
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavplan.environment import Hotspot, Instance, edge_cost
from uavplan.ql import (DEPOT_STATE, QTable, QTrainConfig, construct_word,
                        qtable_to_dict, train_q)
from uavplan.errors import ConfigurationError, TrainingError
from uavplan.oracle import (ObjectiveWeights, Tour, demonstrate, make_tour,
                            solve)
from uavplan.world_model import Word

from oracle_oracles import (instance_scales, nearest_neighbor_construct,
                            pool_rows)


# --- reference: the loops with per-step hotspot scans ---------------------------

def _instance_scales(inst: Instance) -> tuple[float, float]:
    nn = nearest_neighbor_construct(inst)
    cost_scale = nn.total_cost_m if nn.total_cost_m > 0 else 1.0
    total_profit = sum(h.profit_bps for h in inst.hotspots)
    return cost_scale, total_profit if total_profit > 0 else 1.0


def _scales(training) -> list[float]:
    """The cost scales that ``train_q`` takes, as the oracle stage gives
    them; ``ref_train_q`` computes its own."""
    return [instance_scales(inst)[0] for inst, _ in training]


def _center(inst: Instance, state: int):
    return inst.depot_m if state == DEPOT_STATE else inst.hotspot(state).center_m


def ref_train_q(training: list[tuple[Instance, Tour]], cfg: QTrainConfig,
                weights: ObjectiveWeights, rng_seed: int) -> QTable:
    if not training:
        raise TrainingError("no training instances for Q-learning")
    rng = np.random.default_rng(rng_seed)
    table = QTable(values={}, letters=set())
    prepared = []
    for inst, demo in training:
        cost_scale, profit_scale = _instance_scales(inst)
        prepared.append((inst, demo, cost_scale, profit_scale))
        table.letters.update(inst.ids)

    alpha = weights.weight_alpha
    beta = weights.weight_beta
    for ep in range(cfg.episodes):
        if cfg.episodes > 1:
            frac = ep / (cfg.episodes - 1)
        else:
            frac = 1.0
        eps = cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * frac
        inst, demo, cost_scale, profit_scale = prepared[int(rng.integers(len(prepared)))]
        state = DEPOT_STATE
        unvisited = sorted(inst.ids)
        order: list[int] = []
        while unvisited:
            if rng.random() < eps:
                action = unvisited[int(rng.integers(len(unvisited)))]
            else:
                action = max(unvisited, key=lambda a: (table.q(state, a), -a))
            leg = edge_cost(_center(inst, state), inst.hotspot(action).center_m)
            reward = (-alpha * leg / cost_scale
                      + beta * inst.hotspot(action).profit_bps / profit_scale)
            unvisited.remove(action)
            order.append(action)
            if unvisited:
                target = reward + cfg.discount * max(
                    table.q(action, a2) for a2 in unvisited)
            else:
                back = edge_cost(inst.hotspot(action).center_m, inst.depot_m)
                reward += -alpha * back / cost_scale
                realized = make_tour(order, inst, weights).objective
                if abs(realized - demo.objective) <= cfg.match_tolerance * abs(demo.objective):
                    reward += cfg.terminal_bonus
                target = reward
            key = (state, action)
            old = table.values.get(key, 0.0)
            table.values[key] = old + cfg.learning_rate * (target - old)
            state = action
    return table


def ref_construct_word(q: QTable, reference: Word | None, inst: Instance,
                       rng_seed: int, cfg: QTrainConfig) -> Word:
    if not inst.hotspots:
        raise ConfigurationError("empty test instance")
    rng = np.random.default_rng(rng_seed)
    diag = math.hypot(inst.mission.area_side_m, inst.mission.area_side_m)
    succ: dict[int, int] = {}
    first_ref: int | None = None
    if reference is not None and len(reference) > 0:
        letters = reference.letters
        first_ref = letters[0]
        succ = {a: b for a, b in zip(letters, letters[1:])}

    state = DEPOT_STATE
    unvisited = sorted(inst.ids)
    order: list[int] = []
    while unvisited:
        scores = []
        for a in unvisited:
            if a in q.letters:
                s = q.q(state, a)
            else:
                s = -edge_cost(_center(inst, state),
                               inst.hotspot(a).center_m) / diag
            hint = first_ref if state == DEPOT_STATE else succ.get(state)
            if hint == a:
                s += cfg.reference_bonus
            scores.append(s)
        if cfg.temperature <= 1e-9:
            k = int(np.argmax(scores))
        else:
            arr = np.array(scores) / cfg.temperature
            arr -= arr.max()
            p = np.exp(arr)
            p /= p.sum()
            k = int(rng.choice(len(unvisited), p=p))
        action = unvisited.pop(k)
        order.append(action)
        state = action
    return Word.from_letters(order)


# --- instances and comparison ----------------------------------------------------

WEIGHTS = {
    "0.9/0.1": ObjectiveWeights(0.9, 0.1),
    "0.5/0.5": ObjectiveWeights(0.5, 0.5),
    "0/1": ObjectiveWeights(0.0, 1.0),
}


def _instance(rng: random.Random, n: int, chan, mission, shuffled=False,
              grid=False) -> Instance:
    """``n`` hotspots with random ids, centers and profits. ``grid`` puts
    the points on a coarse lattice with two profit values, so equal legs and
    equal Q values come up often; ``shuffled`` stores them out of id order."""
    ids = rng.sample(range(1, 10 * n + 10), n)
    if not shuffled:
        ids.sort()

    def coord():
        return float(rng.randrange(0, 5) * 100) if grid else rng.uniform(0, 2000)

    hotspots = tuple(
        Hotspot(id=i, center_m=(coord(), coord()), num_users=rng.randint(1, 9),
                profit_bps=(rng.choice((1e6, 2e6)) if grid
                            else rng.uniform(1e5, 5e7)))
        for i in ids)
    return Instance(hotspots=hotspots, depot_m=(coord(), coord()),
                    channel=chan, mission=mission, seed=rng.randrange(10**6))


def _training(rng: random.Random, sizes, w: ObjectiveWeights, chan, mission):
    """Demonstrations on instances of the given sizes drawn from one pool
    and flown from one depot, as the pipeline's training rows are. Every
    other pool hotspot lies on the coarse lattice of ``_instance`` with one
    of its two profits, and so does the depot, so that equal legs and
    equal Q values come up often. An instance holds its hotspots in id
    order, as a row does; the first instance appears twice."""
    lattice = _instance(rng, max(sizes), chan, mission, grid=True)
    scattered = _instance(rng, max(sizes), chan, mission)
    by_id = {h.id: h for h in scattered.hotspots}
    by_id.update((h.id + 1000, replace(h, id=h.id + 1000))
                 for h in lattice.hotspots)
    pool = list(by_id.values())
    training = []
    for n in sizes:
        inst = Instance(hotspots=tuple(sorted(rng.sample(pool, n),
                                              key=attrgetter("id"))),
                        depot_m=lattice.depot_m, channel=chan,
                        mission=mission, seed=rng.randrange(10**6))
        training.append((inst, solve(inst, w)))
    return training + training[:1]


def _by_size(training) -> list[list[tuple[Instance, Tour]]]:
    """The pairs of ``training`` in groups of one instance size, sizes
    ascending, each in the given order: ``train_q`` takes rows of one
    size."""
    sizes = sorted({len(inst.hotspots) for inst, _ in training})
    return [[(inst, demo) for inst, demo in training
             if len(inst.hotspots) == n] for n in sizes]


def _bits(q: QTable) -> str:
    # json writes floats with repr, which round-trips exactly and tells
    # 0.0 from -0.0
    return json.dumps(qtable_to_dict(q), sort_keys=True)


def _train(training, cfg, w, seed):
    """``train_q`` on (instance, demonstration) pairs that share one
    depot, as rows over their pool (``pool_rows``), with the
    demonstrations' objectives and the cost scales that the oracle stage
    gives."""
    return train_q(*pool_rows([inst for inst, _ in training]),
                   [demo.objective for _, demo in training], _scales(training),
                   cfg, w, seed)


def _assert_same_training(training, cfg, w, seed):
    got = _bits(_train(training, cfg, w, seed))
    want = _bits(ref_train_q(training, cfg, w, seed))
    assert got == want
    return got


EPSILONS = {
    "explore": dict(epsilon_start=1.0, epsilon_end=1.0),
    "greedy": dict(epsilon_start=0.0, epsilon_end=0.0),
    "decaying": dict(epsilon_start=1.0, epsilon_end=0.05),
}


# --- equivalence ------------------------------------------------------------------

@pytest.mark.parametrize("weights", WEIGHTS)
@pytest.mark.parametrize("epsilon", EPSILONS)
@pytest.mark.parametrize("discount", [0.0, 0.95, 1.0])
def test_train_q_matches_reference(chan, mission, weights, epsilon, discount):
    """Rows of sizes 1-8 over one pool, three of each, trained one size at
    a time, lattice ties and a repeated instance: the same table, bit for
    bit, for every episode count."""
    w = WEIGHTS[weights]
    rng = random.Random(f"{weights}:{epsilon}:{discount}")
    training = _training(rng, [n for n in range(1, 9) for _ in range(3)], w,
                         chan, mission)
    for group in _by_size(training):
        for episodes in (0, 1, 2, 200):
            cfg = QTrainConfig(episodes=episodes, discount=discount,
                               **EPSILONS[epsilon])
            _assert_same_training(group, cfg, w, seed=episodes + 3)


def test_match_tolerance_hits_and_misses(chan, mission):
    """Tolerances at which no realized tour, only bit-exact demonstration
    tours, some and all tours earn the terminal bonus: each changes the
    table, and each table equals the reference's. (On these instances the
    table is the same at every tolerance from 1e-3 up.) The instances are
    trained one size at a time."""
    w = WEIGHTS["0.9/0.1"]
    rng = random.Random(11)
    training = _training(rng, [2, 3, 4, 5, 3, 4], w, chan, mission)
    tables = set()
    for tol in (-1.0, 0.0, 1e-4, 1e9):
        cfg = QTrainConfig(episodes=3000, match_tolerance=tol)
        tables.add(tuple(_assert_same_training(group, cfg, w, seed=5)
                         for group in _by_size(training)))
    assert len(tables) == 4


def test_exact_demonstration_match(chan, mission):
    """At tolerance 0 only a realized objective equal to the demonstration's
    in every bit earns the bonus, so the realized tour length must be summed
    leg by leg in the order ``make_tour`` sums it. The objective here is
    the length alone: under a profit term of order 1e7 a last-bit change of
    the length would round away, and the demonstration is the full tour
    solved at the default weights (at these the oracle would skip every
    hotspot)."""
    w = ObjectiveWeights(1.0, 0.0)
    rng = random.Random(17)
    bonus_paid = 0
    for k in range(40):
        inst = _instance(rng, 3 + k % 6, chan, mission, shuffled=k % 2 == 1)
        full = solve(inst, ObjectiveWeights()).order
        assert len(full) == len(inst.hotspots)
        training = [(inst, make_tour(full, inst, w))]
        cfg = QTrainConfig(episodes=300, match_tolerance=0.0)
        exact = _assert_same_training(training, cfg, w, seed=k)
        never = _bits(_train(training, replace(cfg, match_tolerance=-1.0),
                             w, k))
        bonus_paid += exact != never
    assert bonus_paid >= 20


def test_entry_written_as_zero_is_kept(chan, mission):
    """A zero-profit hotspot, at weights alpha 0 and beta 1, discount 0 and
    learning rate 1, and no terminal bonus, earns a reward of exactly 0.0,
    and the update writes 0.0: the table holds each pair into it with
    value 0.0, as the reference's does, and the same keys and bits
    throughout, one instance size at a time."""
    w = WEIGHTS["0/1"]
    rng = random.Random(29)
    training = _training(rng, [3, 4, 5], w, chan, mission)
    zero = training[0][0].hotspots[1]
    training = [(Instance(hotspots=tuple(replace(h, profit_bps=0.0)
                                         if h.id == zero.id else h
                                         for h in inst.hotspots),
                          depot_m=inst.depot_m, channel=chan,
                          mission=mission, seed=inst.seed), None)
                for inst, _ in training]
    training = [(inst, solve(inst, w)) for inst, _ in training]
    cfg = QTrainConfig(episodes=300, discount=0.0, learning_rate=1.0,
                       match_tolerance=-1.0)
    zeros = []
    for group in _by_size(training):
        _assert_same_training(group, cfg, w, seed=2)
        table = _train(group, cfg, w, 2)
        zeros += [v for (_, a), v in table.values.items() if a == zero.id]
    assert zeros and all(repr(v) == "0.0" for v in zeros)


@pytest.mark.parametrize("sizes", [[2, 2], [2, 7, 2, 3], [5, 2, 1, 8, 2]])
def test_train_q_rows_of_unequal_lengths(chan, mission, sizes):
    """Rows of unequal lengths over one pool, trained one length at a
    time, length 2 among them (one step with a maximum, then the last
    step) and length 1 (the last step alone): the same table as the
    reference's at every exploration schedule."""
    w = WEIGHTS["0.9/0.1"]
    rng = random.Random(str(sizes))
    training = _training(rng, sizes, w, chan, mission)
    for group in _by_size(training):
        for epsilon in EPSILONS.values():
            cfg = QTrainConfig(episodes=500, **epsilon)
            _assert_same_training(group, cfg, w, seed=len(sizes))


def test_instance_scales_match_the_nearest_neighbor_tour(chan, mission):
    rng = random.Random(3)
    for n in range(1, 30):
        inst = _instance(rng, n, chan, mission, shuffled=n % 2 == 0,
                         grid=n % 3 == 0)
        assert [repr(x) for x in instance_scales(inst)] == \
            [repr(x) for x in _instance_scales(inst)]


@pytest.mark.parametrize("temperature", [0.0, 0.2])
def test_construct_word_matches_reference(chan, mission, temperature):
    """Trained letters, unseen letters and a reference hint: the same word
    from the same seed."""
    w = WEIGHTS["0.9/0.1"]
    rng = random.Random(21)
    training = _training(rng, [5, 5, 5], w, chan, mission)
    q = _train(training, QTrainConfig(episodes=400), w, 9)
    cfg = QTrainConfig(temperature=temperature)
    for n in range(1, 12):
        inst = _instance(rng, n, chan, mission, shuffled=n % 2 == 0,
                         grid=n % 3 == 0)
        # mix in trained letters so both branches of the score run
        hotspots = tuple(Hotspot(id=i, center_m=h.center_m, num_users=1,
                                 profit_bps=h.profit_bps)
                         for i, h in zip(list(sorted(q.letters))[:n // 2]
                                         + [1000 + k for k in range(n)],
                                         inst.hotspots))
        inst = Instance(hotspots=hotspots, depot_m=inst.depot_m,
                        channel=chan, mission=mission, seed=0)
        ids = list(inst.ids)
        rng.shuffle(ids)
        for reference in (None, Word.from_letters(ids[:max(2, n - 1)])
                          if n >= 2 else None):
            for seed in range(3):
                assert construct_word(q, reference, inst, seed, cfg) == \
                    ref_construct_word(q, reference, inst, seed, cfg)


# --- property ----------------------------------------------------------------------

@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**64 - 1),
       st.one_of(st.floats(min_value=0.0, max_value=1.0),
                 st.sampled_from([0.0, 5e-324, 2**-53, 1.0 - 2**-53, 1.0]),
                 st.none()))
def test_raw_threshold_matches_random(x, eps):
    """``train_q``'s exploration test on a raw output: ``random()`` of
    ``x``, ``(x >> 11) * 2**-53``, is below ``eps`` exactly when ``x`` is
    below ``ceil(eps * 2**53) << 11``, for every eps in [0, 1]; None
    stands for the float of ``x`` itself, where the two meet."""
    if eps is None:
        eps = (x >> 11) * 2**-53
    assert ((x >> 11) * 2**-53 < eps) == (x < math.ceil(eps * 2**53) << 11)


_coord = st.floats(min_value=0.0, max_value=2000.0, allow_nan=False)


@st.composite
def instance_sets(draw):
    """A pool of 1-12 hotspots, ascending by id, a depot and one to four
    rows over the pool (ascending indices) of one size, 1-8 hotspots, as
    an int64 array; points drawn from a lattice now and then, so legs
    tie."""
    lattice = draw(st.booleans())
    coord = (st.integers(0, 4).map(lambda k: 100.0 * k) if lattice else _coord)
    ids = sorted(draw(st.lists(st.integers(min_value=0, max_value=60),
                               min_size=1, max_size=12, unique=True)))
    pool = [Hotspot(id=i, center_m=(draw(coord), draw(coord)), num_users=1,
                    profit_bps=draw(st.floats(min_value=0.0, max_value=5e7)))
            for i in ids]
    n = draw(st.integers(1, min(8, len(pool))))
    rows = draw(st.lists(st.lists(
        st.integers(0, len(pool) - 1), min_size=n, max_size=n,
        unique=True).map(sorted), min_size=1, max_size=4))
    return pool, (draw(coord), draw(coord)), np.array(rows, dtype=np.int64)


def _instances(drawn, chan, mission) -> list[Instance]:
    """Each row of ``instance_sets``' draw as an ``Instance``."""
    pool, depot, rows = drawn
    return [Instance(hotspots=tuple(pool[v] for v in row), depot_m=depot,
                     channel=chan, mission=mission, seed=k)
            for k, row in enumerate(rows)]


@settings(max_examples=200, deadline=None)
@given(instance_sets(), st.sampled_from(sorted(WEIGHTS)))
def test_demonstrate_carries_the_instance_cost_scale(chan, mission, drawn,
                                                     weights):
    """The cost scale that ``demonstrate`` carries with a demonstration of
    a row, and the oracle stage hands to ``train_q``, is
    ``instance_scales(inst)[0]`` of the row's instance bit for bit, and the
    reference's; its tour is ``solve``'s."""
    w = WEIGHTS[weights]
    d = demonstrate(*drawn, w)
    for *solved, scale, inst in zip(
            d.orders, d.cost_m, d.profit_bps, d.objective, d.cost_scale,
            _instances(drawn, chan, mission), strict=True):
        assert repr(scale) == repr(instance_scales(inst)[0]) \
            == repr(_instance_scales(inst)[0])
        assert Tour(*solved) == solve(inst, w)


@settings(max_examples=120, deadline=None)
@given(instance_sets(), st.sampled_from(sorted(WEIGHTS)),
       st.integers(min_value=0, max_value=80),
       st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from(sorted(EPSILONS)),
       st.sampled_from([-1.0, 0.0, 0.05]), st.integers(0, 2**32 - 1))
def test_train_q_property(chan, mission, drawn, weights, episodes, discount,
                          epsilon, tolerance, seed):
    w = WEIGHTS[weights]
    training = [(inst, solve(inst, w))
                for inst in _instances(drawn, chan, mission)]
    cfg = QTrainConfig(episodes=episodes, discount=discount,
                       match_tolerance=tolerance, **EPSILONS[epsilon])
    _assert_same_training(training, cfg, w, seed)
