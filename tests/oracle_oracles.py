"""Test-side oracles for the offline optimizer: its steps one at a time.

``oracle.solve`` runs construction, 2-opt and the selection pass on index
lists over one ``_Geometry`` and builds a ``Tour`` once, at the end. The
functions here expose each step on its own, ``Tour`` in and ``Tour`` out,
as thin adapters over the same private steps, so that the tests can pin
each step's behaviour and compare it with the coordinate-based reference
in test_oracle_equivalence.py:

- ``nearest_neighbor_construct``, ``two_opt`` and ``selection_pass``;
- ``indices`` maps a tour's ids to geometry indices;
- ``relative_weights`` are the given weights with ``instance_scales``.
"""

from dataclasses import replace

from uavplan.environment import Instance
from uavplan.errors import ConsistencyError
from uavplan.oracle import (ObjectiveWeights, Tour, _Geometry, _nearest_neighbor,
                            _selection_pass, _two_opt, instance_scales)


def indices(g: _Geometry, order) -> list[int]:
    index = {i: k for k, i in enumerate(g.ids)}
    try:
        return [index[i] for i in order]
    except KeyError as e:
        raise ConsistencyError(f"unknown hotspot id {e.args[0]}") from None


def relative_weights(w: ObjectiveWeights, inst: Instance) -> ObjectiveWeights:
    """Same weights with instance-relative scales.

    Cost is scaled by the full-tour nearest-neighbor length and profit by
    the instance's total profit, making both terms order one.
    """
    cost_scale, profit_scale = instance_scales(inst)
    return replace(w, cost_scale=cost_scale, profit_scale=profit_scale)


def nearest_neighbor_construct(inst: Instance) -> Tour:
    """Greedy full tour from the depot; distance ties go to the lower id."""
    g = _Geometry(inst)
    # totals only; objective refreshed by callers
    return g.tour(_nearest_neighbor(g), inst, ObjectiveWeights())


def two_opt(t: Tour, w: ObjectiveWeights, inst: Instance) -> Tour:
    """Best-improvement 2-opt until no exchange strictly lowers the objective."""
    g = _Geometry(inst)
    scale = instance_scales(inst)[0]
    return g.tour(_two_opt(indices(g, t.order), g, w, scale), inst, w)


def selection_pass(t: Tour, w: ObjectiveWeights, inst: Instance) -> Tour:
    """Greedily drop vertices whose removal strictly improves the objective.
    Idempotent once no removal helps; then ``t`` itself is returned."""
    g = _Geometry(inst)
    order = indices(g, t.order)
    after = _selection_pass(order, g, w, instance_scales(inst)[0])
    return t if len(after) == len(order) else g.tour(after, inst, w)
