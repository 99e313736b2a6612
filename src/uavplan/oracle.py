"""Offline tour optimizer: profit-aware TSP solved by construction + 2-Opt.

The objective minimized is  alpha * cost / cost_scale - beta * profit /
profit_scale  over closed depot tours that may skip vertices. With the
default unit scales, cost is raw meters and profit raw bits/s; at the
default weights (0.9 / 0.1) the profit term dominates by orders of
magnitude, so skipping stays inactive and the optimizer degenerates to
cost-minimal orderings over all hotspots. ``instance_scales`` in
tests/oracle_oracles.py gives the instance-relative scales under which
the trade-off bites.

Ties anywhere are broken toward the lexicographically smallest id
sequence so that downstream dictionaries stay stable.

The search runs in index space, over a batch of instances at once
(``demonstrate``). A batch is one pool of hotspots, ascending by id, one
depot and rows of one size, an (m, n) int array: an instance is a row,
the ascending indices of its hotspots in the pool. The training
instances are such rows over the training pool (``harness``), and
``solve`` is the one-row case over an instance's own hotspots. A call
builds one table (``_table``): the matrix of ``edge_cost`` values
between the pool's hotspots, ids ascending, with the depot last, one
float64 array filled in place, row by row, so each distance between
pool hotspots is computed once, not once per instance, and written into
its row and its column. The table is this module's own: ``ql.train_q``
computes each leg from its two points, the same float, and builds none.

Construction, 2-opt and the selection pass then run as numpy operations
over the rows, in chunks of ``_BATCH_ENTRIES`` for memory, with each
tour a row of table indices. No ``Tour`` is built for a demonstration:
``demonstrate`` returns one record of columns (``Demonstrations``), each
order a tuple of ids and each total a float.
The rows that leave one selection round form a block of one length, and
each block is finished with a few numpy operations, whatever its length:
the reverse-reading rule, the totals, and ``Tour``'s checks (no index
repeated, every total finite; ``_check_block``, which names the first
demonstration that fails). The totals are the ones ``make_tour``
computes, read from the table rather than recomputed from the
coordinates: the closed length is the table's legs in visiting order
(for the empty tour the depot's diagonal, 0.0), and the profit the
hotspots' profits in index order, which is id order, each row summed by
``_row_sums``. A leg and a float total are each computed one way
(``edge_cost``, ``_row_sums``), so every total has ``make_tour``'s bits,
and ``make_tour`` stays the one path for every other tour. Index order
is id order, so the tie rules compare the same sequences as on ids, and
every tour is bit for bit what the same search gives on coordinates
(tests/test_oracle_equivalence.py keeps that search as the reference).
A 2-opt pass and a selection round choose by one rule (``_picks``): a
row takes its first minimum only where no other entry of that row lies
within 2 * ``_TIE_EPS`` of it, which is when the sequential scan picks it
too; any other row takes the sequential rule over its computed entries,
so every tie resolves as the scan resolves it. The arithmetic runs under
``np.errstate``: an overflow or a NaN passes silently, as on Python
floats, and a construction length that is not finite is refused before
its chunk is searched (``_constructions``). tests/oracle_oracles.py
wraps each step on its own (construction, 2-opt, selection) as a
``Tour`` -> ``Tour`` function for the tests.

Q-learning scales each training instance's costs by the length of its
nearest-neighbor construction. ``demonstrate`` returns that length as a
column beside the tours', from the construction that the solve makes
anyway.

A table lives for one call and is never cached on ``Instance``. A cached
geometry and id map on every instance once raised the peak resident memory
of a 20,000-demonstration run from 99.9 to 142.0 MB (62.7 to 74.8 MB on
5,000 demonstrations with 30-50 hotspot test instances). For a pool of
P hotspots a call's table holds (P + 1)^2 entries (51 x 51 for the
default 50-hotspot training pool), 8 bytes each and nothing more: no
nested list of them is built, and the row arrays are bounded per
chunk. The table has no cap. Splitting a large pool's rows into runs
with smaller tables would lower only the oracle stage's own peak, which
a later stage passes: on a 2,000-hotspot training pool the set-up's
peak resident memory is 71 MB after the oracle and 97 MB after
Q-learning, which builds no table (``tools/setup_layers.py
--training-pool 2000``). And it made the oracle slower: on a
1,000-hotspot training pool (20,000 rows of 5 hotspots, one pinned Xeon
CPU) the oracle stage took 3.8-4.2 s in runs against 0.21-0.34 s with
one table.

A demonstration is stored by ``harness`` as its order alone, under one
weights header; the demonstrations are solved on every run and only
checked against that file. ``harness`` writes each evaluated test tour
as a self-contained ``uavplan.tour.v1`` object (``TOUR_SCHEMA``: the
tour's fields, the schema and the weights), which ``tour_from_dict``
reads by the package's one checked reader (``environment._from_json``)
as a ``_TourFile``: the schema is required, the ids must be JSON
integers, the totals JSON numbers and the weights an ``ObjectiveWeights``
object, and an unknown or missing key is refused, each naming its key.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from dataclasses import dataclass, fields
from functools import reduce
from operator import add, attrgetter
from typing import Iterator, Sequence

import numpy as np

from .environment import Hotspot, Instance, Point, _record_from_dict
from .errors import ConfigurationError, ConsistencyError

TOUR_SCHEMA = "uavplan.tour.v1"

# Strict-improvement threshold for local search, in objective units.
_IMPROVE_EPS = 1e-12
_TIE_EPS = 1e-12
# 2-opt accepts an exchange that shortens the tour by more than 1e-9 m, or
# by more than this times the construction length L where that is larger.
# Both ends of every leg lie on the construction's closed tour, so a leg
# is at most L / 2, and a delta of four legs is off by rounding by at most
# about 3 * eps * L / 2: below the threshold, so a phantom gain cannot
# undo an exchange and cycle. The threshold stays 1e-9 up to L = 280 km.
_ROUNDING = 16 * sys.float_info.epsilon
# Tours of n hotspots are searched in chunks of rows whose (n + 2)^2 legs
# tables hold at most this many entries (128 KB), whatever the batch size.
_BATCH_ENTRIES = 1 << 14


@dataclass(frozen=True)
class ObjectiveWeights:
    """Trade-off weights; alpha + beta = 1. Scales divide cost/profit."""

    weight_alpha: float = 0.9
    weight_beta: float = 0.1
    cost_scale: float = 1.0
    profit_scale: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.weight_alpha <= 1.0 and 0.0 <= self.weight_beta <= 1.0):
            raise ConfigurationError("weights must lie in [0, 1]")
        if abs(self.weight_alpha + self.weight_beta - 1.0) > 1e-9:
            raise ConfigurationError("weights must sum to 1")
        if self.cost_scale <= 0 or self.profit_scale <= 0:
            raise ConfigurationError("scales must be positive")


@dataclass(frozen=True)
class Tour:
    """A closed depot tour: visited ids in order plus cached totals. No id
    repeats and every total is finite."""

    order: tuple[int, ...]
    total_cost_m: float
    total_profit_bps: float
    objective: float

    def __post_init__(self) -> None:
        if len(set(self.order)) != len(self.order):
            raise ConsistencyError(f"{self} visits a hotspot twice")
        if not all(map(math.isfinite, (self.total_cost_m, self.total_profit_bps,
                                       self.objective))):
            raise ConsistencyError(f"{self} has a non-finite total")


def objective_value(cost_m: float, profit_bps: float, w: ObjectiveWeights) -> float:
    return (w.weight_alpha * cost_m / w.cost_scale
            - w.weight_beta * profit_bps / w.profit_scale)


def make_tour(order, inst: Instance, w: ObjectiveWeights) -> Tour:
    """Build a Tour with recomputed totals: the closed length depot ->
    order... -> depot in meters, its legs summed in visiting order, and the
    profit summed in id order, so equal for any two orders of one visited
    set. Validates membership: each id is looked up once, and the first
    unknown one is refused."""
    order = tuple(order)
    by_id = {h.id: h for h in inst.hotspots}
    here = depot = inst.depot_m
    cost = 0.0
    for i in order:
        h = by_id.get(i)
        if h is None:
            raise ConsistencyError(f"tour references unknown hotspot {i}")
        # edge_cost inlined
        cost += math.dist(here, h.center_m)
        here = h.center_m
    if order:
        cost += math.dist(here, depot)
    profit = reduce(add, [by_id[i].profit_bps for i in sorted(order)], 0.0)
    return Tour(order=order, total_cost_m=cost, total_profit_bps=profit,
                objective=objective_value(cost, profit, w))


def _table(hotspots: Sequence[Hotspot], depot: Point) -> np.ndarray:
    """The (n+1)x(n+1) matrix of ``edge_cost`` values between
    ``hotspots``, ascending by id, with the depot last. It is one float64
    array, filled in place: row ``a``'s entries past the diagonal, one
    ``math.dist`` per pair, are written into row ``a`` and column ``a``,
    as a leg has one value in either direction."""
    pts = [h.center_m for h in hotspots] + [depot]
    dist = np.zeros((len(pts), len(pts)))
    for a, here in enumerate(pts):
        # edge_cost inlined
        dist[a, a + 1:] = [math.dist(here, there) for there in pts[a + 1:]]
        dist[a + 1:, a] = dist[a, a + 1:]
    return dist


def _constructions(table: np.ndarray, rows: np.ndarray
                   ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The nearest-neighbor constructions of ``rows`` (an (m, n) int array
    of table indices, each row ascending) over ``table`` (``_table``), one
    chunk at a time, at most about ``_BATCH_ENTRIES`` table entries per
    tour array. A chunk is its rows' positions in ``rows``, their
    constructions as rows of table indices and their cost scales.

    A scale is the construction's closed length, summed in visiting order
    as ``make_tour`` sums it; 1.0 where not positive. A length that is not
    finite is refused, for the chunk's first such row: no search can
    compare tours of such an instance.
    """
    m, n = rows.shape
    step = max(1, _BATCH_ENTRIES // (n + 2) ** 2)
    for start in range(0, m, step):
        chunk = rows[start:start + step]
        with np.errstate(over="ignore", invalid="ignore"):
            order, length = _nearest_neighbor(table, chunk)
        bad = np.flatnonzero(~np.isfinite(length))
        if bad.size:
            raise ConsistencyError(
                f"a tour of this instance is {length[bad[0]]} m long; its "
                "depot and hotspot coordinates must keep tour lengths "
                "finite")
        yield (np.arange(start, start + len(chunk)), order,
               np.where(length > 0, length, 1.0))


def _nearest_neighbor(table: np.ndarray,
                      remaining: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy full tours from the depot, one per row of ``remaining`` (table
    indices, ascending), and their closed lengths; distance ties go to the
    lower id."""
    m, n = remaining.shape
    rows = np.arange(m)
    pos = np.full(m, len(table) - 1)
    order = np.empty((m, n), dtype=np.intp)
    length = np.zeros(m)
    for step in range(n):
        legs = table[pos[:, None], remaining]
        # argmin keeps the first of equal keys and each row of remaining
        # stays ascending, so a tie goes to the lower index, i.e. the lower id
        k = legs.argmin(axis=1)
        pos = order[:, step] = remaining[rows, k]
        length += legs[rows, k]
        remaining = remaining[np.arange(n - step) != k[:, None]].reshape(
            m, n - step - 1)
    length += table[pos, -1]
    return order, length


def _stops(scales: np.ndarray) -> np.ndarray:
    """Each row's 2-opt acceptance threshold: an exchange counts when it
    shortens the tour by more than the rounding bound that its
    construction length gives (``_ROUNDING``)."""
    return -np.maximum(1e-9, _ROUNDING * scales)


def _two_opt(table: np.ndarray, order: np.ndarray, w: ObjectiveWeights,
             stop: np.ndarray) -> np.ndarray:
    """Best-improvement 2-opt on every row of ``order`` (tours of table
    indices) until no exchange shortens it by more than ``-stop``.

    Reversing an inner segment leaves the visited set (hence profit)
    unchanged, so an exchange improves the objective iff it shortens the
    tour and alpha > 0; deltas are therefore evaluated on cost alone. A
    pass computes the delta of every exchange (i, j), i < j, of every
    row, in scan order, and each row picks its exchange by ``_picks``,
    with ties going to the lexicographically smaller reversed order.
    """
    m, n = order.shape
    if n < 2 or m == 0 or w.weight_alpha == 0.0:
        return order
    order = order.copy()
    places = np.arange(n)
    # the exchanges (i, j), i < j, in scan order
    # (np.triu_indices would touch about 0.2 MB more of numpy's code)
    i, j = np.nonzero(places[:, None] < places)
    # flat positions in the (n + 2)^2 legs table of a tour with the depot
    # at both ends: delta = d(a, c) + d(b, d) - d(a, b) - d(c, d), where
    # a, b are tour places i, i + 1 and c, d places j + 1, j + 2
    width = n + 2
    ac, bd = i * width + j + 1, (i + 1) * width + j + 2
    ab, cd = i * width + i + 1, (j + 1) * width + j + 2

    def reversal(lo, hi):
        # a tour's places with places lo..hi reversed
        return np.where((places >= lo) & (places <= hi), lo + hi - places,
                        places)

    rows = np.arange(m)
    while rows.size:
        tours = order[rows]
        ext = _closed(table, tours)
        legs = table[ext[:, :, None], ext[:, None, :]].reshape(rows.size, -1)
        delta = legs[:, ac] + legs[:, bd] - legs[:, ab] - legs[:, cd]
        pick, move = _picks(delta, stop[rows], lambda t, k: tours[t][
            reversal(i[k], j[k])].tolist())
        rows, pick = rows[move], pick[move]
        order[rows] = order[rows[:, None], reversal(i[pick][:, None],
                                                    j[pick][:, None])]
    return order


def _closed(table: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The rows of ``order`` with the depot, the table's last index, at
    both ends."""
    ext = np.full((len(order), order.shape[1] + 2), len(table) - 1)
    ext[:, 1:-1] = order
    return ext


def _picks(values: np.ndarray, below, result) -> tuple[np.ndarray, np.ndarray]:
    """Each row's choice among its ``values``, in scan order, against its
    threshold ``below``: (the chosen position, whether it is taken).

    A row takes its first minimum if that lies below the threshold. A row
    whose minimum is NaN, or that would take a minimum with another value
    within 2 * ``_TIE_EPS`` of it, takes the sequential rule instead: from
    0.0, a value more than ``_TIE_EPS`` below the best so far replaces it,
    and one within ``_TIE_EPS`` of it replaces it, keeping the best value,
    only where ``result(row, position)``, the order that the choice
    leaves, is lexicographically smaller; the best is taken if below the
    threshold. Where no other value is that close, the rule too picks the
    first minimum.
    """
    pick = values.argmin(axis=1)
    low = values[np.arange(len(values)), pick]
    close = (np.abs(values - low[:, None]) <= 2 * _TIE_EPS).sum(axis=1) > 1
    for t in np.flatnonzero(np.isnan(low) | ((low < below) & close)).tolist():
        best, anchor = None, 0.0
        for k, value in enumerate(values[t].tolist()):
            if value < anchor - _TIE_EPS:
                best, anchor = k, value
            elif (best is not None and abs(value - anchor) <= _TIE_EPS
                  and result(t, k) < result(t, best)):
                best = k
        # no choice has a value that any threshold admits
        pick[t], low[t] = (0, math.inf) if best is None else (best, anchor)
    return pick, low < below


def _selection_pass(table: np.ndarray, profits: np.ndarray, order: np.ndarray,
                    w: ObjectiveWeights, stop: np.ndarray
                    ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Greedily drop vertices whose removal strictly improves the objective,
    on every row of ``order``; returns the final tours in blocks, one per
    round that rows leave: (their positions in ``order``, their tours).

    Each accepted removal trades the forfeited profit against the saved
    detour; the reduced tour is re-optimized with 2-opt (``stop`` as
    there) before the next round, so every row of a round, and so of a
    block, has one length. Each row of a round picks its removal by
    ``_picks``, as ``_two_opt`` picks its exchange, with ties going to the
    lexicographically smaller reduced order. Idempotent once no removal
    helps.
    """
    blocks = []
    rows = np.arange(len(order))
    while True:
        size = order.shape[1]
        if not size:
            blocks.append((rows, order))
            break
        ext = _closed(table, order)
        legs = table[ext[:, :-1], ext[:, 1:]]
        detour = legs[:, :-1] + legs[:, 1:] - table[ext[:, :-2], ext[:, 2:]]
        gain = (-w.weight_alpha * detour / w.cost_scale
                + w.weight_beta * profits[order] / w.profit_scale)
        pick, drop = _picks(gain, -_IMPROVE_EPS, lambda t, k: order[t][
            np.arange(size) != k].tolist())
        if not drop.all():
            blocks.append((rows[~drop], order[~drop]))
        rows, pick, order = rows[drop], pick[drop], order[drop]
        if not rows.size:
            break
        order = order[np.arange(size) != pick[:, None]].reshape(rows.size,
                                                               size - 1)
        order = _two_opt(table, order, w, stop[rows])
    return blocks


def _row_sums(values: np.ndarray) -> np.ndarray:
    """Each row of the float64 array ``values`` summed left to right from
    0.0. That is the package's one rule for a float total: on a Python
    sequence it is ``reduce(add, xs, 0.0)``, and never builtin ``sum()``,
    which compensates float sums from Python 3.12 on, nor numpy's
    pairwise ``np.sum``. ``add.accumulate`` adds each row in order, and
    the + 0.0 makes a sum of -0.0s, which a sum from 0.0 never is, 0.0.
    ``values`` is overwritten with its running sums (every caller hands it
    a temporary)."""
    if not values.shape[1]:
        return np.zeros(len(values))
    return np.add.accumulate(values, axis=1, out=values)[:, -1] + 0.0


def _check_block(at: np.ndarray, final: np.ndarray, ordered: np.ndarray,
                 ids: np.ndarray, cost: np.ndarray, profit: np.ndarray,
                 objective: np.ndarray) -> None:
    """``Tour``'s checks on a block of demonstrations, whose positions in
    the batch are ``at``: no tour of ``final`` (rows of table indices;
    ``ordered`` holds each sorted) visits a hotspot twice, and every total
    is finite. The first demonstration that fails is named, with its order
    of ``ids``."""
    repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    # the objective is finite only where the cost and the profit are: a
    # product, quotient or difference with an infinity or a NaN never is
    for bad, what in ((repeats, "visits a hotspot twice"),
                      (~np.isfinite(objective), "has a non-finite total")):
        if bad.any():
            r = int(bad.argmax())
            raise ConsistencyError(
                f"demonstration {at[r]}, order {ids[final[r]].tolist()}, "
                f"{what}: cost_m {cost[r].item()!r}, profit_bps "
                f"{profit[r].item()!r}, objective {objective[r].item()!r}")


@dataclass(frozen=True)
class Demonstrations:
    """``demonstrate``'s solves of a batch of rows, as columns: row k's
    tour order (a tuple of its hotspots' ids, Python ints, the stored
    word's form), its totals ``cost_m``, ``profit_bps`` and ``objective``
    (``make_tour``'s, bit for bit), and its cost scale for Q-learning.
    Each float column is an ``array("d")``, whose items read as Python
    floats."""

    orders: list[tuple[int, ...]]
    cost_m: array
    profit_bps: array
    objective: array
    cost_scale: array


def demonstrate(hotspots: Sequence[Hotspot], depot: Point, rows: np.ndarray,
                w: ObjectiveWeights) -> Demonstrations:
    """``solve``'s tour of each row of ``rows``, an (m, n) int array, with
    its totals and cost scale, as columns. A row is an instance over the
    pool ``hotspots`` (ascending by id) from ``depot``: its hotspots'
    indices, ascending. The rows are
    solved from the pool's one table (``_table``) and one batched
    construction per chunk: the scale is the nearest-neighbor
    construction's length (1.0 where it is not positive), taken before
    2-opt reorders it, which also bounds the rounding of 2-opt's deltas
    (``_stops``). The totals are ``make_tour``'s, summed from the table
    block by block, and each block is checked as a ``Tour`` is (see the
    module docstring)."""
    orders: list = [None] * len(rows)
    cost, profit, objective, scale = np.zeros((4, len(rows)))
    table = _table(hotspots, depot)
    ids = np.array([h.id for h in hotspots])
    profits = np.array([h.profit_bps for h in hotspots])
    for part, order, scales in _constructions(table, rows):
        stop = _stops(scales)
        scale[part] = scales
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = _selection_pass(
                table, profits, _two_opt(table, order, w, stop), w, stop)
            for leave, final in blocks:
                at = part[leave]
                if final.shape[1] > 1:
                    # a closed tour and its reverse cost the same; keep
                    # the lexicographically smaller reading. With no index
                    # repeated (``_check_block``), the two differ first at
                    # the first place, which holds the other's last
                    final = np.where((final[:, -1] < final[:, 0])[:, None],
                                     final[:, ::-1], final)
                ordered = np.sort(final, axis=1)
                # make_tour's totals from the table: the legs in visiting
                # order (the depot's diagonal, 0.0, for the empty tour),
                # the profits in index (that is, id) order
                ext = _closed(table, final)
                length = _row_sums(table[ext[:, :-1], ext[:, 1:]])
                gained = _row_sums(profits[ordered])
                value = objective_value(length, gained, w)
                _check_block(at, final, ordered, ids, length, gained, value)
                cost[at], profit[at], objective[at] = length, gained, value
                for k, word in zip(at.tolist(), ids[final].tolist()):
                    orders[k] = tuple(word)
    return Demonstrations(orders, *(array("d", c.tobytes()) for c in
                                    (cost, profit, objective, scale)))


def solve(inst: Instance, w: ObjectiveWeights) -> Tour:
    """Construction, 2-opt, then the vertex-selection pass; deterministic
    (``demonstrate``'s one-row case, as the one ``Tour`` it makes)."""
    hotspots = sorted(inst.hotspots, key=attrgetter("id"))
    rows = np.arange(len(hotspots))[None]
    solved = demonstrate(hotspots, inst.depot_m, rows, w)
    return Tour(solved.orders[0], solved.cost_m[0], solved.profit_bps[0],
                solved.objective[0])


def brute_force(inst: Instance, w: ObjectiveWeights) -> Tour:
    """Global optimum by exhaustion over all vertex subsets and orders.

    Refuses instances above 10 hotspots. Reversed orders are skipped
    (equal cost by symmetry); the lexicographically smaller reading of
    each pair is the one evaluated, which also resolves ties.
    """
    n = len(inst.hotspots)
    if n > 10:
        raise ConfigurationError("brute force limited to 10 hotspots")
    hotspots = sorted(inst.hotspots, key=attrgetter("id"))
    dist = _table(hotspots, inst.depot_m).tolist()
    profits = [h.profit_bps for h in hotspots]

    best_obj = 0.0
    best_order: tuple[int, ...] = ()
    alpha_scaled = w.weight_alpha / w.cost_scale
    beta_scaled = w.weight_beta / w.profit_scale
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            profit_term = beta_scaled * reduce(
                add, (profits[i] for i in subset), 0.0)
            for perm in itertools.permutations(subset):
                # reversed orders have equal cost; keep the lex-smaller one
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
    return make_tour([hotspots[k].id for k in best_order], inst, w)


@dataclass(frozen=True)
class _TourFile(Tour):
    """A ``uavplan.tour.v1`` object but its schema: the tour's fields and
    the weights that scored it."""

    weights: ObjectiveWeights


def tour_from_dict(d: dict) -> Tour:
    """Read a ``uavplan.tour.v1`` object, its schema required, by the one
    checked reader (``_TourFile``)."""
    read = _record_from_dict(_TourFile, TOUR_SCHEMA, "tour", d, required=True)
    return Tour(*(getattr(read, f.name) for f in fields(Tour)))
