"""Offline tour optimizer: profit-aware TSP solved by construction + 2-Opt.

The objective minimized is  alpha * cost / cost_scale - beta * profit /
profit_scale  over closed depot tours that may skip vertices. With the
default unit scales, cost is raw meters and profit raw bits/s; at the
default weights (0.9 / 0.1) the profit term dominates by orders of
magnitude, so skipping stays inactive and the optimizer degenerates to
cost-minimal orderings over all hotspots. relative_weights() switches to
instance-relative scales for experiments where the trade-off should bite.

Ties anywhere are broken toward the lexicographically smallest id
sequence so that downstream dictionaries stay stable.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, replace

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
    """A closed depot tour: visited ids in order plus cached totals."""

    order: tuple[int, ...]
    total_cost_m: float
    total_profit_bps: float
    objective: float

    @property
    def visited(self) -> frozenset[int]:
        return frozenset(self.order)

    def __len__(self) -> int:
        return len(self.order)


def tour_length(order: tuple[int, ...] | list[int], inst: Instance) -> float:
    """Closed length depot -> order... -> depot in meters."""
    if not order:
        return 0.0
    pts = [inst.hotspot(i).center_m for i in order]
    total = edge_cost(inst.depot_m, pts[0])
    for a, b in zip(pts, pts[1:]):
        total += edge_cost(a, b)
    return total + edge_cost(pts[-1], inst.depot_m)


def objective_value(cost_m: float, profit_bps: float, w: ObjectiveWeights) -> float:
    return (w.weight_alpha * cost_m / w.cost_scale
            - w.weight_beta * profit_bps / w.profit_scale)


def make_tour(order, inst: Instance, w: ObjectiveWeights) -> Tour:
    """Build a Tour with recomputed totals; validates membership."""
    order = tuple(order)
    known = set(inst.ids)
    for i in order:
        if i not in known:
            raise ConsistencyError(f"tour references unknown hotspot {i}")
    if len(set(order)) != len(order):
        raise ConsistencyError("tour visits a hotspot twice")
    cost = tour_length(order, inst)
    profit = sum(inst.hotspot(i).profit_bps for i in sorted(order))
    return Tour(order=order, total_cost_m=cost, total_profit_bps=profit,
                objective=objective_value(cost, profit, w))


def objective(t: Tour, w: ObjectiveWeights, inst: Instance) -> float:
    """Objective of a tour against an instance (recomputed from geometry)."""
    return make_tour(t.order, inst, w).objective


def relative_weights(w: ObjectiveWeights, inst: Instance) -> ObjectiveWeights:
    """Same weights with instance-relative scales.

    Cost is scaled by the full-tour nearest-neighbor length and profit by
    the instance's total profit, making both terms order one.
    """
    nn = nearest_neighbor_construct(inst)
    cost_scale = nn.total_cost_m if nn.total_cost_m > 0 else 1.0
    total_profit = sum(h.profit_bps for h in inst.hotspots)
    profit_scale = total_profit if total_profit > 0 else 1.0
    return replace(w, cost_scale=cost_scale, profit_scale=profit_scale)


def nearest_neighbor_construct(inst: Instance) -> Tour:
    """Greedy full tour from the depot; distance ties go to the lower id."""
    w = ObjectiveWeights()  # totals only; objective refreshed by callers
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


def _canonical_orientation(order: tuple[int, ...]) -> tuple[int, ...]:
    # A closed tour and its reverse have identical cost; keep the
    # lexicographically smaller reading.
    rev = order[::-1]
    return rev if rev < order else order


def two_opt(t: Tour, w: ObjectiveWeights, inst: Instance) -> Tour:
    """Best-improvement 2-opt until no exchange strictly lowers the objective.

    Reversing an inner segment leaves the visited set (hence profit)
    unchanged, so an exchange improves the objective iff it shortens the
    tour and alpha > 0; deltas are therefore evaluated on cost alone.
    """
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
        best_move: tuple[int, int] | None = None
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


def selection_pass(t: Tour, w: ObjectiveWeights, inst: Instance) -> Tour:
    """Greedily drop vertices whose removal strictly improves the objective.

    Each accepted removal trades the forfeited profit against the saved
    detour; the reduced tour is re-optimized with 2-opt before the next
    round. Idempotent once no removal helps.
    """
    current = t
    while len(current.order) > 0:
        order = list(current.order)
        pts = {i: inst.hotspot(i).center_m for i in order}
        best_gain = 0.0
        best_after: list[int] | None = None
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
        current = two_opt(make_tour(best_after, inst, w), w, inst)
    return current


def solve(inst: Instance, w: ObjectiveWeights) -> Tour:
    """Construction, 2-opt, then the vertex-selection pass; deterministic."""
    t = nearest_neighbor_construct(inst)
    t = make_tour(t.order, inst, w)
    t = two_opt(t, w, inst)
    t = selection_pass(t, w, inst)
    return make_tour(_canonical_orientation(t.order), inst, w)


def brute_force(inst: Instance, w: ObjectiveWeights) -> Tour:
    """Global optimum by exhaustion over all vertex subsets and orders.

    Refuses instances above 10 hotspots. Reversed orders are skipped
    (equal cost by symmetry); the lexicographically smaller reading of
    each pair is the one evaluated, which also resolves ties.
    """
    ids = sorted(inst.ids)
    n = len(ids)
    if n > 10:
        raise ConfigurationError("brute force limited to 10 hotspots")
    pts = [inst.hotspot(i).center_m for i in ids]
    profits = [inst.hotspot(i).profit_bps for i in ids]
    # index n stands for the depot; id order and index order agree, so
    # lexicographic comparisons on index tuples match those on ids
    dist = [[0.0] * (n + 1) for _ in range(n + 1)]
    for a in range(n):
        dist[n][a] = dist[a][n] = edge_cost(inst.depot_m, pts[a])
        for b in range(a + 1, n):
            dist[a][b] = dist[b][a] = edge_cost(pts[a], pts[b])

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
    return make_tour(tuple(ids[i] for i in best_order), inst, w)


def tour_to_dict(t: Tour, w: ObjectiveWeights) -> dict:
    return {
        "schema": "uavplan.tour.v1",
        "order": list(t.order),
        "total_cost_m": t.total_cost_m,
        "total_profit_bps": t.total_profit_bps,
        "objective": t.objective,
        "weights": asdict(w),
    }


def tour_from_dict(d: dict) -> Tour:
    return Tour(order=tuple(int(i) for i in d["order"]),
                total_cost_m=float(d["total_cost_m"]),
                total_profit_bps=float(d["total_profit_bps"]),
                objective=float(d["objective"]))
