"""Test-side oracles for the harness's JSON form: hand-made writers.

``harness`` writes every record of dataclasses as their fields, through
one encoder rule (``_canonical_json``). The functions here write the
same records field by field, as the package once did, for the tests to
check the encoder's bytes against:

- ``hotspot_to_dict`` and ``pool_to_dict``: a pool's hotspots, as
  ``pools.json`` holds them after its record;
- ``instance_to_dict``: a self-contained ``uavplan.instance.v1`` object,
  as ``instances/`` holds it;
- ``tour_to_dict``: a self-contained ``uavplan.tour.v1`` object, with the
  weights it was scored with, as ``tours/`` holds it.
"""

from dataclasses import asdict
from typing import Sequence

from uavplan.environment import Hotspot, Instance
from uavplan.oracle import ObjectiveWeights, Tour


def hotspot_to_dict(h: Hotspot) -> dict:
    return {"id": h.id, "center_m": list(h.center_m), "num_users": h.num_users,
            "profit_bps": h.profit_bps}


def pool_to_dict(pool: Sequence[Hotspot]) -> dict:
    return {"schema": "uavplan.pool.v2",
            "hotspots": [hotspot_to_dict(h) for h in pool]}


def instance_to_dict(inst: Instance) -> dict:
    return {
        "schema": "uavplan.instance.v1",
        "seed": inst.seed,
        "depot_m": list(inst.depot_m),
        "mission": asdict(inst.mission),
        "channel": asdict(inst.channel),
        "hotspots": [hotspot_to_dict(h) for h in inst.hotspots],
    }


def tour_to_dict(t: Tour, w: ObjectiveWeights) -> dict:
    return {"schema": "uavplan.tour.v1", "order": list(t.order),
            "total_cost_m": t.total_cost_m,
            "total_profit_bps": t.total_profit_bps, "objective": t.objective,
            "weights": asdict(w)}
