"""The index-space oracle against the coordinate-based search it replaced.

``ref_*`` below are the earlier implementations, kept verbatim as the test
oracle: they look every point up with ``Instance.hotspot`` and every leg
with ``edge_cost``. The production search must return the same tours, with
the same float bits, on every instance.
"""

import itertools
import math
import random
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavplan import oracle
from uavplan.environment import (Hotspot, Instance, _sample_rows, edge_cost,
                                 sample_instances, sample_pool)
from uavplan.errors import ConsistencyError
from uavplan.harness import ExperimentConfig, iter_test_instances
from uavplan.oracle import (Demonstrations, ObjectiveWeights, Tour,
                            brute_force, demonstrate, make_tour, solve)

from oracle_oracles import (instance_scales, nearest_neighbor_construct,
                            pool_rows, relative_weights, selection_pass,
                            tied_exchange, tied_removal, two_opt)

_IMPROVE_EPS = 1e-12
_TIE_EPS = 1e-12


# --- reference: the coordinate-based search -----------------------------------

def ref_nearest_neighbor_construct(inst: Instance) -> Tour:
    w = ObjectiveWeights()
    remaining = sorted(inst.ids)
    pos = inst.depot_m
    order: list[int] = []
    while remaining:
        best = min(remaining,
                   key=lambda i: (edge_cost(pos, inst.hotspot(i).center_m), i))
        order.append(best)
        remaining.remove(best)
        pos = inst.hotspot(best).center_m
    return make_tour(order, inst, w)


def ref_canonical_orientation(order):
    rev = order[::-1]
    return rev if rev < order else order


def ref_two_opt(t: Tour, w: ObjectiveWeights, inst: Instance) -> Tour:
    if len(t.order) < 2 or w.weight_alpha == 0.0:
        return make_tour(t.order, inst, w)
    order = list(t.order)
    pts = {i: inst.hotspot(i).center_m for i in order}
    depot = inst.depot_m

    def point(k: int):
        return depot if k < 0 or k >= len(order) else pts[order[k]]

    improved = True
    while improved:
        improved = False
        best_delta = 0.0
        best_move = None
        n = len(order)
        for i in range(n - 1):
            a = point(i - 1)
            b = pts[order[i]]
            d_ab = edge_cost(a, b)
            for j in range(i + 1, n):
                c = pts[order[j]]
                d = point(j + 1)
                delta = (edge_cost(a, c) + edge_cost(b, d)
                         - d_ab - edge_cost(c, d))
                if delta < best_delta - _TIE_EPS:
                    best_delta = delta
                    best_move = (i, j)
                elif best_move is not None and abs(delta - best_delta) <= _TIE_EPS:
                    cand = order[:i] + order[i:j + 1][::-1] + order[j + 1:]
                    cur = (order[:best_move[0]]
                           + order[best_move[0]:best_move[1] + 1][::-1]
                           + order[best_move[1] + 1:])
                    if cand < cur:
                        best_move = (i, j)
        if best_move is not None and best_delta < -1e-9:
            i, j = best_move
            order[i:j + 1] = order[i:j + 1][::-1]
            improved = True
    return make_tour(order, inst, w)


def ref_selection_pass(t: Tour, w: ObjectiveWeights, inst: Instance) -> Tour:
    current = t
    while len(current.order) > 0:
        order = list(current.order)
        pts = {i: inst.hotspot(i).center_m for i in order}
        best_gain = 0.0
        best_after = None
        for k, v in enumerate(order):
            prev_pt = inst.depot_m if k == 0 else pts[order[k - 1]]
            next_pt = inst.depot_m if k == len(order) - 1 else pts[order[k + 1]]
            detour = (edge_cost(prev_pt, pts[v]) + edge_cost(pts[v], next_pt)
                      - edge_cost(prev_pt, next_pt))
            gain = (-w.weight_alpha * detour / w.cost_scale
                    + w.weight_beta * inst.hotspot(v).profit_bps / w.profit_scale)
            if gain < best_gain - _TIE_EPS:
                best_gain = gain
                best_after = order[:k] + order[k + 1:]
            elif (best_after is not None and abs(gain - best_gain) <= _TIE_EPS
                  and order[:k] + order[k + 1:] < best_after):
                best_after = order[:k] + order[k + 1:]
        if best_after is None or best_gain >= -_IMPROVE_EPS:
            break
        current = ref_two_opt(make_tour(best_after, inst, w), w, inst)
    return current


def ref_solve(inst: Instance, w: ObjectiveWeights) -> Tour:
    t = ref_nearest_neighbor_construct(inst)
    t = make_tour(t.order, inst, w)
    t = ref_two_opt(t, w, inst)
    t = ref_selection_pass(t, w, inst)
    return make_tour(ref_canonical_orientation(t.order), inst, w)


def ref_brute_force(inst: Instance, w: ObjectiveWeights) -> Tour:
    ids = sorted(inst.ids)
    n = len(ids)
    pts = [inst.hotspot(i).center_m for i in ids]
    profits = [inst.hotspot(i).profit_bps for i in ids]
    dist = [[0.0] * (n + 1) for _ in range(n + 1)]
    for a in range(n):
        dist[n][a] = dist[a][n] = edge_cost(inst.depot_m, pts[a])
        for b in range(a + 1, n):
            dist[a][b] = dist[b][a] = edge_cost(pts[a], pts[b])
    best_obj = 0.0
    best_order = ()
    alpha_scaled = w.weight_alpha / w.cost_scale
    beta_scaled = w.weight_beta / w.profit_scale
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            profit_term = beta_scaled * sum(profits[i] for i in subset)
            for perm in itertools.permutations(subset):
                if r > 1 and perm[0] > perm[-1]:
                    continue
                prev = n
                cost = 0.0
                for nxt in perm:
                    cost += dist[prev][nxt]
                    prev = nxt
                cost += dist[prev][n]
                obj = alpha_scaled * cost - profit_term
                if obj < best_obj - _TIE_EPS:
                    best_obj = obj
                    best_order = perm
                elif abs(obj - best_obj) <= _TIE_EPS and perm < best_order:
                    best_order = perm
    return make_tour(tuple(ids[i] for i in best_order), inst, w)


# --- instances -----------------------------------------------------------------

def _instance(rng: random.Random, n: int, chan, mission, shuffled=False,
              grid=False) -> Instance:
    """``n`` hotspots with random ids, centers, profits and depot. ``grid``
    puts centers and depot on a coarse lattice and draws profits from two
    values, so equal distances and equal removal gains (and the tie rules)
    come up often; ``shuffled`` stores the hotspots out of id order."""
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
                    channel=chan, mission=mission, seed=0)


def _bits(t: Tour):
    # repr round-trips a float exactly and tells 0 from 0.0 and -0.0
    return (t.order, repr(t.total_cost_m), repr(t.total_profit_bps),
            repr(t.objective))


def _column_bits(t: Tour):
    """``_bits`` of a tour as ``demonstrate``'s float columns hold it: the
    empty tour's profit, ``make_tour``'s int 0 (``sum()`` of nothing), is
    0.0 there."""
    return _bits(replace(t, total_profit_bps=float(t.total_profit_bps)))


def _rows(d: Demonstrations) -> list:
    """Each demonstration of the record ``d`` as ``_bits`` reads a tour,
    with its cost scale's repr. Every order is a tuple of Python ints and
    every column item a Python float."""
    columns = (d.cost_m, d.profit_bps, d.objective, d.cost_scale)
    assert all(type(o) is tuple and set(map(type, o)) <= {int}
               for o in d.orders)
    assert all(type(v) is float for c in columns for v in c)
    return [((o, repr(c), repr(p), repr(v)), repr(s))
            for o, c, p, v, s in zip(d.orders, *columns, strict=True)]


def _weight_sets(inst: Instance):
    base = ObjectiveWeights()
    return {
        "default": base,
        "relative": relative_weights(base, inst),
        "relative-even": relative_weights(ObjectiveWeights(0.5, 0.5), inst),
        "alpha-zero": ObjectiveWeights(0.0, 1.0),
    }


# --- equivalence ------------------------------------------------------------------

@pytest.mark.parametrize("shuffled,grid", [
    pytest.param(False, False, id="sorted"),
    pytest.param(True, False, id="shuffled"),
    pytest.param(False, True, id="grid-ties")])
def test_solve_matches_reference(chan, mission, shuffled, grid):
    """Sizes 1-50 with random depots, under every weight set: the same tour,
    bit for bit, and the selection pass does drop vertices on some."""
    rng = random.Random(4242 + 2 * shuffled + grid)
    dropped = 0
    for n in range(1, 51):
        inst = _instance(rng, n, chan, mission, shuffled=shuffled, grid=grid)
        for name, w in _weight_sets(inst).items():
            got = solve(inst, w)
            assert _bits(got) == _bits(ref_solve(inst, w)), (n, name)
            dropped += len(got.order) < n
    assert dropped > 0


def test_public_steps_match_reference(chan, mission):
    """Each step on its own (the adapters of tests/oracle_oracles.py),
    from shuffled start orders that include partial tours, equals the
    reference step; a selection pass that drops nothing returns its input
    object, as before."""
    rng = random.Random(77)
    for n in range(1, 41):
        inst = _instance(rng, n, chan, mission, shuffled=n % 2 == 0,
                         grid=n % 3 == 0)
        assert _bits(nearest_neighbor_construct(inst)) == \
            _bits(ref_nearest_neighbor_construct(inst))
        for w in _weight_sets(inst).values():
            order = list(inst.ids)
            rng.shuffle(order)
            start = make_tour(order[:rng.randint(0, n)], inst, w)
            assert _bits(two_opt(start, w, inst)) == \
                _bits(ref_two_opt(start, w, inst))
            got = selection_pass(start, w, inst)
            want = ref_selection_pass(start, w, inst)
            assert _bits(got) == _bits(want)
            assert (got is start) == (want is start)


def test_brute_force_matches_reference(chan, mission):
    rng = random.Random(5)
    for n in range(1, 8):
        for k in range(6):
            inst = _instance(rng, n, chan, mission, shuffled=k % 2 == 1,
                             grid=k % 3 == 2)
            for w in _weight_sets(inst).values():
                assert _bits(brute_force(inst, w)) == \
                    _bits(ref_brute_force(inst, w))


@pytest.mark.parametrize("step", [two_opt, selection_pass])
def test_unknown_id_is_consistency_error(make_instance, default_weights, step):
    inst = make_instance([(0, 0), (10, 0), (0, 10)])
    stray = Tour(order=(1, 999, 2), total_cost_m=0.0, total_profit_bps=0.0,
                 objective=0.0)
    with pytest.raises(ConsistencyError):
        step(stray, default_weights, inst)


# --- batches ---------------------------------------------------------------------

def _pool(rng: random.Random, ids, grid: bool) -> list[Hotspot]:
    """Hotspots with the given ids, drawn as ``_instance`` draws them."""

    def coord():
        return float(rng.randrange(0, 5) * 100) if grid else rng.uniform(0, 2000)

    return [Hotspot(id=i, center_m=(coord(), coord()), num_users=1,
                    profit_bps=(rng.choice((1e6, 2e6)) if grid
                                else rng.uniform(1e5, 5e7)))
            for i in ids]


@pytest.mark.parametrize("entries", [
    pytest.param(None, id="production-chunks"),
    pytest.param(300, id="small-chunks")])
@pytest.mark.parametrize("w,drops", [
    pytest.param(ObjectiveWeights(), False, id="default"),
    pytest.param(ObjectiveWeights(0.5, 0.5, cost_scale=4000.0,
                                  profit_scale=2e7), True, id="even-scaled")])
def test_batch_equals_each_instance_alone(chan, mission, entries, w, drops):
    """One call per size on a shuffled batch of rows of sizes 1-50 over
    one pool, half on a lattice (where legs and removal gains tie) and half
    random: every tour and cost scale is, bit for bit, what the row's
    instance gets alone from ``solve``, its hotspots stored in and out of
    id order. So it is in the production chunks and in chunks of one to a
    few rows, all over the pool's one table."""
    rng = random.Random(2323)
    pool = _pool(rng, range(1, 61), True) + _pool(rng, range(101, 161), False)
    depot = (200.0, 300.0)
    rows = [sorted(rng.sample(range(len(pool)), n)) for n in range(1, 51)
            for _ in range(2)]
    rng.shuffle(rows)
    alone = []
    for row in rows:
        hotspots = [pool[v] for v in row]
        if rng.random() < 0.5:
            rng.shuffle(hotspots)
        inst = Instance(hotspots=tuple(hotspots), depot_m=depot,
                        channel=chan, mission=mission, seed=0)
        alone.append((solve(inst, w), instance_scales(inst)[0]))
    got = [None] * len(rows)
    with mock.patch.object(oracle, "_BATCH_ENTRIES",
                           entries or oracle._BATCH_ENTRIES):
        for n in range(1, 51):
            at = [k for k, row in enumerate(rows) if len(row) == n]
            solved = demonstrate(pool, depot, np.array([rows[k] for k in at]),
                                 w)
            for k, bits in zip(at, _rows(solved), strict=True):
                got[k] = bits
    assert got == [(_column_bits(t), repr(s)) for t, s in alone]
    assert any(len(order) < len(row)
               for ((order, *_), _), row in zip(got, rows)) == drops


def test_rows_over_a_large_pool_share_its_one_table(chan, mission,
                                                    default_weights):
    """Rows over a pool of 600 hotspots are solved over one 601 x 601
    table of the pool, and each row's tour and cost scale are, bit for
    bit, those of its ``Instance`` alone."""
    pool = sample_pool(17, 600, 5.0, mission, chan)
    depot = (1000.0, 1000.0)
    seeds = range(40, 240)
    tables, real = [], oracle._table

    def table(hotspots, at):
        tables.append(real(hotspots, at))
        return tables[-1]

    with mock.patch.object(oracle, "_table", table):
        got = demonstrate(pool, depot, _sample_rows(seeds, 600, 20),
                          default_weights)
    assert [t.shape for t in tables] == [(601, 601)]
    assert _rows(got) == [
        (_column_bits(solve(inst, default_weights)),
         repr(instance_scales(inst)[0]))
        for inst in sample_instances(seeds, pool, 20, depot, chan, mission)]


# --- demonstration totals --------------------------------------------------------

def _are_make_tours(solved: Demonstrations, batch, w) -> None:
    """Each demonstration's order and totals are, bit for bit and type for
    type, ``make_tour``'s tour of its order, with the empty tour's profit
    a float (``_column_bits``)."""
    assert [bits for bits, _ in _rows(solved)] == [
        _column_bits(make_tour(order, inst, w))
        for order, inst in zip(solved.orders, batch, strict=True)]


def _are_solves(batch, w) -> None:
    """``solve``'s tour of each instance is, field by field, bit for bit
    and type for type, ``make_tour``'s tour of its order."""
    tours = [solve(inst, w) for inst in batch]
    assert [_bits(t) for t in tours] == [
        _bits(make_tour(t.order, inst, w)) for t, inst in zip(tours, batch)]


@pytest.mark.parametrize("m_training,test_sizes,seeds_per_size", [
    pytest.param(20_000, (5,), 36, id="train-large"),
    pytest.param(5_000, (30, 40, 50), 3, id="plan-large")])
def test_demonstration_totals_are_make_tours(m_training, test_sizes,
                                             seeds_per_size):
    """``demonstrate`` sums each tour's totals from its run's table; on
    the benchmark workloads' shapes, the training demonstrations (rows
    over the training pool) and the test instances' solves, every tour is
    ``make_tour``'s."""
    cfg = ExperimentConfig(m_training=m_training, test_sizes=test_sizes,
                           seeds_per_size=seeds_per_size)
    testing = sample_pool(cfg.pool_seed, cfg.testing_pool_size, cfg.mean_users,
                          cfg.mission, cfg.channel)
    seeds = range(cfg.train_seed_base, cfg.train_seed_base + cfg.m_training)
    training_pool = testing[:cfg.training_pool_size]
    rows = _sample_rows(seeds, len(training_pool), cfg.train_instance_size)
    training = sample_instances(seeds, training_pool, cfg.train_instance_size,
                                cfg.depot, cfg.channel, cfg.mission)
    _are_make_tours(demonstrate(training_pool, cfg.depot, rows, cfg.weights),
                    training, cfg.weights)
    _are_solves([inst for _, inst in iter_test_instances(cfg, testing)],
                cfg.weights)


@pytest.mark.parametrize("w", [
    pytest.param(ObjectiveWeights(0.5, 0.5, cost_scale=4000.0,
                                  profit_scale=2e7), id="even-scaled"),
    pytest.param(ObjectiveWeights(0.9, 0.1, cost_scale=1000.0,
                                  profit_scale=1e6), id="cost-heavy")])
def test_totals_of_skipping_tours_are_make_tours(chan, mission, w):
    """Random batches from one pool under weights where the oracle skips
    hotspots, solved one instance size at a time: tours of every length,
    the empty one too, are ``make_tour``'s, in the record's columns and,
    one instance at a time, through ``solve``, where the empty tour's
    profit is ``make_tour``'s int 0."""
    rng = random.Random(3535)
    for grid in (False, True):
        pool = _pool(rng, range(1, 61), grid)
        batch = [Instance(hotspots=tuple(rng.sample(pool, rng.randint(1, 12))),
                          depot_m=(200.0, 300.0), channel=chan,
                          mission=mission, seed=0) for _ in range(300)]
        lengths = [None] * len(batch)
        for n in range(1, 13):
            at = [k for k, inst in enumerate(batch) if len(inst.hotspots) == n]
            group = [batch[k] for k in at]
            solved = demonstrate(*pool_rows(group), w)
            _are_make_tours(solved, group, w)
            for k, order in zip(at, solved.orders, strict=True):
                lengths[k] = len(order)
        assert 0 in lengths and len(set(lengths)) > 5, lengths
        empty = [inst for inst, n in zip(batch, lengths) if n == 0]
        _are_solves(empty + batch[:20], w)


def test_grid_ties_take_the_sequential_rule(chan, mission):
    """Lattice instances whose 2-opt passes have a delta within
    ``_TIE_EPS`` of the best so far, and whose selection rounds have such a
    gain, resolve them by the sequential rule of ``_picks`` (the only place
    that compares resulting orders) and give the reference's tours."""
    ties = {"_two_opt": 0, "_selection_pass": 0}

    def counted_picks(values, below, result):
        caller = sys._getframe(1).f_code.co_name

        def counted(t, k):
            ties[caller] += 1
            return result(t, k)

        return picks(values, below, counted)

    picks = oracle._picks
    rng = random.Random(99)
    with mock.patch.object(oracle, "_picks", counted_picks):
        for n in range(4, 25):
            inst = _instance(rng, n, chan, mission, grid=True)
            for name in ("default", "relative-even"):
                w = _weight_sets(inst)[name]
                assert _bits(solve(inst, w)) == _bits(ref_solve(inst, w)), n
    assert ties["_two_opt"] > 0 and ties["_selection_pass"] > 0


# Values near a few bases, some within _TIE_EPS of one another, some
# between _TIE_EPS and 2 * _TIE_EPS apart, and NaNs.
_OFFSETS = [0.0, 4e-13, -4e-13, 1e-12, -1e-12, 1.5e-12, -1.5e-12, 3e-12]


@st.composite
def _value_rows(draw, exchange: bool):
    """Rows of one 2-opt pass (``exchange``) or one selection round: each
    row's tour, its values (deltas or gains) in scan order, the positions
    (exchanges (i, j) or removed places) they stand for, and each row's
    threshold."""
    n = draw(st.integers(min_value=2, max_value=6))
    places = [(i, j) for i in range(n) for j in range(i + 1, n)] if exchange \
        else list(range(n))
    bases = draw(st.lists(st.sampled_from([-2.0, -1.0, -1e-9, -1e-12, 0.0,
                                           1e-12, 0.5]) | st.floats(-3, 3),
                          min_size=1, max_size=3))
    value = (st.builds(float.__add__, st.sampled_from(bases),
                       st.sampled_from(_OFFSETS))
             | st.just(math.nan) | st.floats(0, 3))
    m = draw(st.integers(min_value=1, max_value=4))
    rows = [draw(st.lists(value, min_size=len(places), max_size=len(places))
                 if draw(st.booleans()) else
                 st.lists(st.floats(0, 3), min_size=len(places),
                          max_size=len(places)))
            for _ in range(m)]
    orders = [draw(st.permutations(range(n))) for _ in range(m)]
    below = (oracle._stops(np.array(draw(st.lists(
        st.floats(0, 1e5), min_size=m, max_size=m)))) if exchange
             else -_IMPROVE_EPS)
    return orders, rows, places, below


@settings(max_examples=300, deadline=None)
# -2.0 - 1e-12 rounds so that it is neither more than _TIE_EPS below -2.0
# nor within _TIE_EPS of it: the sequential rule skips it, though it is
# the row's minimum, and only the 2 * _TIE_EPS margin sends the row there
@example((False, ([(0, 1)], [[-2.0, -2.0 - 1e-12]], [0, 1], -_IMPROVE_EPS)))
@given(st.booleans().flatmap(lambda exchange: st.tuples(
    st.just(exchange), _value_rows(exchange))))
def test_picks_equals_the_sequential_rules(drawn):
    """On value rows with ties planted within ``_TIE_EPS``, near-ties
    within twice that, NaNs and all-non-negative rows, ``_picks`` makes
    each row's decision (taken or not, and which position if taken) as
    the sequential rule of 2-opt (``tied_exchange``, under a per-row
    threshold from ``_stops``) or of the selection pass (``tied_removal``,
    under ``-_IMPROVE_EPS``) makes it on the whole row."""
    exchange, (orders, rows, places, below) = drawn
    if exchange:
        def result(t, k):
            i, j = places[k]
            order = list(orders[t])
            return order[:i] + order[i:j + 1][::-1] + order[j + 1:]
    else:
        def result(t, k):
            return [v for p, v in enumerate(orders[t]) if p != k]
    pick, take = oracle._picks(np.array(rows), below, result)
    for t, row in enumerate(rows):
        if exchange:
            k, best = tied_exchange(list(orders[t]), row, places)
            want = k is not None and best < below[t]
        else:
            k = tied_removal(list(orders[t]), row)
            want = k is not None
        assert (bool(take[t]), int(pick[t]) if take[t] else None) == \
            (want, k if want else None), t


def test_a_nan_depot_is_refused(make_instance, default_weights):
    """A depot with a NaN coordinate, which only the Python API can give,
    makes every tour length NaN: the construction refuses it."""
    inst = make_instance([(0, 0), (10, 0), (0, 10)],
                         depot=(float("nan"), 0.0))
    with pytest.raises(ConsistencyError, match="is nan m long"):
        solve(inst, default_weights)


# --- properties ----------------------------------------------------------------------

_coord = st.floats(min_value=0.0, max_value=2000.0, allow_nan=False)


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    ids = draw(st.lists(st.integers(min_value=1, max_value=500), min_size=n,
                        max_size=n, unique=True))
    hotspots = tuple(
        Hotspot(id=i, center_m=(draw(_coord), draw(_coord)), num_users=1,
                profit_bps=draw(st.floats(min_value=0.0, max_value=5e7)))
        for i in ids)
    return hotspots, (draw(_coord), draw(_coord))


@settings(max_examples=150, deadline=None)
@given(instances(), st.sampled_from(["default", "relative", "relative-even",
                                     "alpha-zero"]))
def test_solve_properties(chan, mission, drawn, weights_name):
    """A solved order repeats no id, uses only the instance's ids, reads in
    canonical orientation, and its totals recompute from the geometry."""
    hotspots, depot = drawn
    inst = Instance(hotspots=hotspots, depot_m=depot, channel=chan,
                    mission=mission, seed=0)
    w = _weight_sets(inst)[weights_name]
    t = solve(inst, w)
    assert len(set(t.order)) == len(t.order)
    assert set(t.order) <= set(inst.ids)
    assert t.order <= t.order[::-1]
    assert _bits(make_tour(t.order, inst, w)) == _bits(t)
