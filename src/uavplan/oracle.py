"""Offline tour optimizer: profit-aware TSP solved by construction + 2-Opt.

The objective minimized is  alpha * cost / cost_scale - beta * profit /
profit_scale  over closed depot tours that may skip vertices. With the
default unit scales, cost is raw meters and profit raw bits/s; at the
default weights (0.9 / 0.1) the profit term dominates by orders of
magnitude, so skipping stays inactive and the optimizer degenerates to
cost-minimal orderings over all hotspots. ``instance_scales`` gives the
instance-relative scales under which the trade-off bites.

Ties anywhere are broken toward the lexicographically smallest id
sequence so that downstream dictionaries stay stable.

The search runs in index space. Each call builds one ``_Geometry`` from
its instance: the ids in ascending order, their profits, and the
(n+1)x(n+1) matrix of ``edge_cost`` values with the depot at index n.
Construction, 2-opt and the selection pass then work on lists of indices
and read every leg from the matrix, and ``solve`` builds (and validates)
a ``Tour`` once, at the end. Index order is id order, so the tie rules
compare the same sequences as on ids; the matrix holds the same
``math.hypot`` values and sums are taken in the same order, so every tour
is bit for bit what the same search gives on coordinates
(tests/test_oracle_equivalence.py keeps that search as the reference).
The pipeline calls only ``solve``; tests/oracle_oracles.py wraps each step
on its own (construction, 2-opt, selection) as a ``Tour`` -> ``Tour``
function for the tests.

The geometry lives for one call and is never cached on ``Instance``. A
cached geometry and id map on every instance raised the peak resident
memory of a 20,000-demonstration run from 99.9 to 142.0 MB (62.7 to
74.8 MB on 5,000 demonstrations with 30-50 hotspot test instances); built
per call, it is garbage as soon as the call returns (99.6 and 62.8 MB).

A demonstration is stored by ``harness`` as its order alone, under one
weights header, and a reused demonstration is rebuilt as
``make_tour(order, instance, weights)``, the call ``solve`` ends with, so
its totals are computed on one path. Each evaluated test tour is a
self-contained ``uavplan.tour.v1`` object (``tour_to_dict``: order, totals
and weights), which ``tour_from_dict`` reads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from operator import attrgetter

from .environment import Instance, edge_cost
from .errors import ConfigurationError, ConsistencyError

# Strict-improvement threshold for local search, in objective units.
_IMPROVE_EPS = 1e-12
_TIE_EPS = 1e-12


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

    def __len__(self) -> int:
        return len(self.order)


def _closed_length(pts: list, depot) -> float:
    if not pts:
        return 0.0
    total = edge_cost(depot, pts[0])
    for a, b in zip(pts, pts[1:]):
        total += edge_cost(a, b)
    return total + edge_cost(pts[-1], depot)


def objective_value(cost_m: float, profit_bps: float, w: ObjectiveWeights) -> float:
    return (w.weight_alpha * cost_m / w.cost_scale
            - w.weight_beta * profit_bps / w.profit_scale)


def make_tour(order, inst: Instance, w: ObjectiveWeights) -> Tour:
    """Build a Tour with recomputed totals: the closed length depot ->
    order... -> depot in meters, and the profit summed in id order, so
    equal for any two orders of one visited set. Validates membership."""
    order = tuple(order)
    by_id = {h.id: h for h in inst.hotspots}
    for i in order:
        if i not in by_id:
            raise ConsistencyError(f"tour references unknown hotspot {i}")
    cost = _closed_length([by_id[i].center_m for i in order], inst.depot_m)
    profit = sum(by_id[i].profit_bps for i in sorted(order))
    return Tour(order=order, total_cost_m=cost, total_profit_bps=profit,
                objective=objective_value(cost, profit, w))


def instance_scales(inst: Instance) -> tuple[float, float]:
    """The full nearest-neighbor tour length and the total profit of
    ``inst``, each 1.0 where it is not positive.

    The length is summed over ``_Geometry.dist`` in ``_closed_length``'s
    order, so it equals the ``total_cost_m`` of the construction's tour
    bit for bit without building the ``Tour``
    (``nearest_neighbor_construct`` in tests/oracle_oracles.py). Scaling
    cost and profit by these makes both objective terms order one
    (``relative_weights`` there).
    """
    g = _Geometry(inst)
    dist, pos = g.dist, g.depot
    length = 0.0
    for k in _nearest_neighbor(g):
        length += dist[pos][k]
        pos = k
    length += dist[pos][g.depot]
    total_profit = sum(h.profit_bps for h in inst.hotspots)
    return (length if length > 0 else 1.0,
            total_profit if total_profit > 0 else 1.0)


class _Geometry:
    """Index-space view of one instance, built per call (see module doc).

    Index k < n is the k-th smallest id, index n is the depot, and
    ``dist[a][b]`` is ``edge_cost`` between the two points.
    """

    __slots__ = ("ids", "profits", "dist", "depot")

    def __init__(self, inst: Instance) -> None:
        hotspots = sorted(inst.hotspots, key=attrgetter("id"))
        self.ids = [h.id for h in hotspots]
        self.profits = [h.profit_bps for h in hotspots]
        pts = [h.center_m for h in hotspots] + [inst.depot_m]
        n = self.depot = len(hotspots)
        dist = [[0.0] * (n + 1) for _ in range(n + 1)]
        for a in range(n):
            xa, ya = pts[a]
            row = dist[a]
            for b in range(a + 1, n + 1):
                # edge_cost inlined; hypot(-x, -y) == hypot(x, y) exactly,
                # so one value serves both directions
                row[b] = dist[b][a] = math.hypot(xa - pts[b][0], ya - pts[b][1])
        self.dist = dist

    def tour(self, order: list[int], inst: Instance, w: ObjectiveWeights) -> Tour:
        return make_tour([self.ids[k] for k in order], inst, w)


def _nearest_neighbor(g: _Geometry) -> list[int]:
    """Greedy full tour from the depot; distance ties go to the lower id."""
    remaining = list(range(g.depot))
    pos = g.depot
    order: list[int] = []
    while remaining:
        # remaining stays ascending and min keeps the first of equal keys,
        # so a distance tie goes to the lower index, i.e. the lower id
        best = min(remaining, key=g.dist[pos].__getitem__)
        order.append(best)
        remaining.remove(best)
        pos = best
    return order


def _two_opt(order: list[int], g: _Geometry, w: ObjectiveWeights) -> list[int]:
    """Best-improvement 2-opt until no exchange strictly lowers the objective.

    Reversing an inner segment leaves the visited set (hence profit)
    unchanged, so an exchange improves the objective iff it shortens the
    tour and alpha > 0; deltas are therefore evaluated on cost alone.
    """
    if len(order) < 2 or w.weight_alpha == 0.0:
        return order
    dist = g.dist
    n = len(order)
    while True:
        ext = [g.depot] + order + [g.depot]  # ext[k + 1] is order[k]
        best_delta = 0.0
        best_move: tuple[int, int] | None = None
        for i in range(n - 1):
            a, b = ext[i], ext[i + 1]
            row_a, row_b = dist[a], dist[b]
            d_ab = row_a[b]
            for j in range(i + 1, n):
                c, d = ext[j + 1], ext[j + 2]
                delta = row_a[c] + row_b[d] - d_ab - dist[c][d]
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
        if best_move is None or best_delta >= -1e-9:
            return order
        i, j = best_move
        order[i:j + 1] = order[i:j + 1][::-1]


def _selection_pass(order: list[int], g: _Geometry,
                    w: ObjectiveWeights) -> list[int]:
    """Greedily drop vertices whose removal strictly improves the objective.

    Each accepted removal trades the forfeited profit against the saved
    detour; the reduced tour is re-optimized with 2-opt before the next
    round. Idempotent once no removal helps.
    """
    dist, depot, profits = g.dist, g.depot, g.profits
    while order:
        best_gain = 0.0
        best_after: list[int] | None = None
        last = len(order) - 1
        for k, v in enumerate(order):
            p = depot if k == 0 else order[k - 1]
            q = depot if k == last else order[k + 1]
            detour = dist[p][v] + dist[v][q] - dist[p][q]
            gain = (-w.weight_alpha * detour / w.cost_scale
                    + w.weight_beta * profits[v] / w.profit_scale)
            if gain < best_gain - _TIE_EPS:
                best_gain = gain
                best_after = order[:k] + order[k + 1:]
            elif (best_after is not None and abs(gain - best_gain) <= _TIE_EPS
                  and order[:k] + order[k + 1:] < best_after):
                best_after = order[:k] + order[k + 1:]
        if best_after is None or best_gain >= -_IMPROVE_EPS:
            break
        order = _two_opt(best_after, g, w)
    return order


def _canonical_orientation(order):
    # A closed tour and its reverse have identical cost; keep the
    # lexicographically smaller reading.
    rev = order[::-1]
    return rev if rev < order else order


def solve(inst: Instance, w: ObjectiveWeights) -> Tour:
    """Construction, 2-opt, then the vertex-selection pass; deterministic."""
    g = _Geometry(inst)
    order = _selection_pass(_two_opt(_nearest_neighbor(g), g, w), g, w)
    return g.tour(_canonical_orientation(order), inst, w)


def brute_force(inst: Instance, w: ObjectiveWeights) -> Tour:
    """Global optimum by exhaustion over all vertex subsets and orders.

    Refuses instances above 10 hotspots. Reversed orders are skipped
    (equal cost by symmetry); the lexicographically smaller reading of
    each pair is the one evaluated, which also resolves ties.
    """
    n = len(inst.hotspots)
    if n > 10:
        raise ConfigurationError("brute force limited to 10 hotspots")
    g = _Geometry(inst)
    dist, profits = g.dist, g.profits

    best_obj = 0.0
    best_order: tuple[int, ...] = ()
    alpha_scaled = w.weight_alpha / w.cost_scale
    beta_scaled = w.weight_beta / w.profit_scale
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            profit_term = beta_scaled * sum(profits[i] for i in subset)
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
    return g.tour(list(best_order), inst, w)


def tour_to_dict(t: Tour, w: ObjectiveWeights) -> dict:
    """A self-contained ``uavplan.tour.v1`` object: the order, the totals,
    the schema and the weights."""
    return {"schema": "uavplan.tour.v1", "order": list(t.order),
            "total_cost_m": t.total_cost_m,
            "total_profit_bps": t.total_profit_bps, "objective": t.objective,
            "weights": asdict(w)}


def tour_from_dict(d: dict) -> Tour:
    """Read a ``uavplan.tour.v1`` object."""
    return Tour(order=tuple(int(i) for i in d["order"]),
                total_cost_m=float(d["total_cost_m"]),
                total_profit_bps=float(d["total_profit_bps"]),
                objective=float(d["objective"]))
