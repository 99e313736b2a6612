"""Test-side oracles for the offline optimizer: its steps one at a time.

``oracle.demonstrate`` runs construction, 2-opt and the selection pass as
array operations over the rows of a batch, on one table of distances per
run of instances (``_tables``), and builds each ``Tour`` once, at the
end. The functions here expose each step on its own for one instance,
``Tour`` in and ``Tour`` out, as thin adapters over the same private
steps, so that the tests can pin each step's behaviour and compare it
with the coordinate-based reference in test_oracle_equivalence.py:

- ``nearest_neighbor_construct``, ``two_opt`` and ``selection_pass``;
- ``indices`` maps a tour's ids to table indices, as a one-row batch;
- ``instance_scales`` gives an instance's cost and profit scales, and
  ``relative_weights`` are the given weights with them;
- ``tied_exchange`` and ``tied_removal`` are the sequential rules that
  2-opt and the selection pass each kept apart before both took
  ``oracle._picks``, kept as its references;
- ``reference_tour_from_dict`` is the tour reader as it was written
  before ``tour_from_dict`` took the one checked reader: a cast per key,
  so that it takes string, bool and fractional ids, string totals, any
  schema and unknown keys. The tests hold the checked reader to it on
  well-formed tours and show where it accepted damage.
"""

from dataclasses import replace

import numpy as np

from uavplan.environment import Hotspot, Instance
from uavplan.errors import ConsistencyError
from uavplan.oracle import (ObjectiveWeights, Tour, _constructions,
                            _nearest_neighbor, _selection_pass, _stops,
                            _tables, _two_opt, make_tour)
from uavplan.ql import _profit_scale

_IMPROVE_EPS = 1e-12
_TIE_EPS = 1e-12


def indices(hotspots: list[Hotspot], order) -> np.ndarray:
    index = {h.id: k for k, h in enumerate(hotspots)}
    try:
        return np.array([[index[i] for i in order]], dtype=np.intp)
    except KeyError as e:
        raise ConsistencyError(f"unknown hotspot id {e.args[0]}") from None


def instance_scales(inst: Instance) -> tuple[float, float]:
    """The full nearest-neighbor tour length and the total profit of
    ``inst``, each 1.0 where it is not positive.

    The length is the construction's, as ``demonstrate`` gives it with each
    demonstration; it equals the ``total_cost_m`` of
    ``nearest_neighbor_construct``'s tour bit for bit without building the
    ``Tour``. Scaling cost and profit by these makes both objective terms
    order one (``relative_weights``).
    """
    [(run, hotspots, table)] = _tables([inst])
    [(_, _, length)] = _constructions(run, hotspots, table)
    return float(length[0]), _profit_scale(inst)


def relative_weights(w: ObjectiveWeights, inst: Instance) -> ObjectiveWeights:
    """Same weights with instance-relative scales.

    Cost is scaled by the full-tour nearest-neighbor length and profit by
    the instance's total profit, making both terms order one.
    """
    cost_scale, profit_scale = instance_scales(inst)
    return replace(w, cost_scale=cost_scale, profit_scale=profit_scale)


def _geometry(inst: Instance):
    """The instance's hotspots by id, its table as an array, and its
    2-opt threshold as a one-row batch."""
    [(_, hotspots, table)] = _tables([inst])
    return hotspots, table, _stops(np.array([instance_scales(inst)[0]]))


def _tour(hotspots, order, inst: Instance, w: ObjectiveWeights) -> Tour:
    return make_tour([hotspots[k].id for k in order], inst, w)


def nearest_neighbor_construct(inst: Instance) -> Tour:
    """Greedy full tour from the depot; distance ties go to the lower id."""
    [(_, hotspots, table)] = _tables([inst])
    order, _ = _nearest_neighbor(table, np.arange(len(hotspots))[None, :])
    # totals only; objective refreshed by callers
    return _tour(hotspots, order[0].tolist(), inst, ObjectiveWeights())


def two_opt(t: Tour, w: ObjectiveWeights, inst: Instance) -> Tour:
    """Best-improvement 2-opt until no exchange strictly lowers the objective."""
    hotspots, table, stop = _geometry(inst)
    order = _two_opt(table, indices(hotspots, t.order), w, stop)
    return _tour(hotspots, order[0].tolist(), inst, w)


def selection_pass(t: Tour, w: ObjectiveWeights, inst: Instance) -> Tour:
    """Greedily drop vertices whose removal strictly improves the objective.
    Idempotent once no removal helps; then ``t`` itself is returned."""
    hotspots, table, stop = _geometry(inst)
    profits = np.array([h.profit_bps for h in hotspots])
    after = _selection_pass(table, profits, indices(hotspots, t.order), w,
                            stop)[0]
    return t if len(after) == len(t.order) else _tour(hotspots, after, inst, w)


def tied_exchange(order: list[int], deltas: list[float],
                  pairs: list[tuple[int, int]]) -> tuple[int | None, float]:
    """The sequential rule of one 2-opt pass over a row's deltas, in scan
    order: (the chosen exchange's position in ``pairs`` or None, its
    delta). A delta within ``_TIE_EPS`` of the best so far goes to the
    lexicographically smaller resulting order."""
    best_delta = 0.0
    best: int | None = None
    for k, ((i, j), delta) in enumerate(zip(pairs, deltas)):
        if delta < best_delta - _TIE_EPS:
            best_delta, best = delta, k
        elif best is not None and abs(delta - best_delta) <= _TIE_EPS:
            bi, bj = pairs[best]
            cand = order[:i] + order[i:j + 1][::-1] + order[j + 1:]
            cur = order[:bi] + order[bi:bj + 1][::-1] + order[bj + 1:]
            if cand < cur:
                best = k
    return best, best_delta


def tied_removal(order: list[int], gains: list[float]) -> int | None:
    """The sequential rule of one selection round over a row's gains: the
    position to drop, or None. A gain within ``_TIE_EPS`` of the best so
    far goes to the lexicographically smaller reduced order."""
    best_gain = 0.0
    best: int | None = None
    best_after: list[int] = []
    for k, gain in enumerate(gains):
        after = order[:k] + order[k + 1:]
        if gain < best_gain - _TIE_EPS:
            best_gain, best, best_after = gain, k, after
        elif (best is not None and abs(gain - best_gain) <= _TIE_EPS
              and after < best_after):
            best, best_after = k, after
    return best if best is not None and best_gain < -_IMPROVE_EPS else None


def reference_tour_from_dict(d: dict) -> Tour:
    """Read a ``uavplan.tour.v1`` object, casting each key."""
    return Tour(order=tuple(int(i) for i in d["order"]),
                total_cost_m=float(d["total_cost_m"]),
                total_profit_bps=float(d["total_profit_bps"]),
                objective=float(d["objective"]))
