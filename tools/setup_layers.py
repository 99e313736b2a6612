"""Time the set-up layers of a commit and of the working tree, side by side.

    python3 tools/setup_layers.py REF [--rounds N]

exports REF's ``src/`` into a temporary directory (``export_src`` of
``tools/same_outputs.py``), then runs N rounds (default 5) of two
fresh processes, one on REF's source and one on the working tree's, in
alternating order (REF first in even rounds). Each process builds the
benchmark's train-large shape (``WORKLOADS["train-large"].config(3011, 0,
out)`` of ``perfbench/workloads.py``, which is read, not edited: 20,000
training instances of 5 of 50 hotspots) and times, once each, with
``time.perf_counter``:

- ``sample_instances``: the training instances;
- ``demonstrate``: the oracle's demonstrations and cost scales;
- ``learn``: the world model;
- ``train_q``: the Q-table;
- ``export_ids``: ``stage_training_instances`` writing
  ``training_instances.jsonl`` into a new directory, with the sampling
  replaced by the instances already drawn, so that only the export counts;
- ``export_orders``: ``stage_oracle`` writing ``oracle_tours.jsonl`` the
  same way, with the demonstrations already solved;
- ``export_model``: ``stage_world`` writing ``world_model.json`` the same
  way, with ``learn`` replaced by the model already learned.

Each process also reads its peak resident memory (``ru_maxrss``) right
after each layer, before any output is digested; every layer's output
stays alive to the end, so a reading is the high-water mark of the layers
so far. Prints one line per layer, ``LAYER  ref MEDIAN [Q1, Q3]  tree
MEDIAN [Q1, Q3]  ref MB  tree MB``, times in milliseconds and the median
peak in MB, and exits 0 when each layer's output (the drawn ids, the
tours with their float bits, the model's and the Q-table's JSON, the
three files' bytes) has one sha256 over every process of both sides, 1
when any differs, and 2 when REF cannot be exported. Standard library
only, besides the package it runs.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# tools/same_outputs.py, loaded by path: it exports REF's src/ (export_src)
# and loads a file as a module (load_module)
_spec = importlib.util.spec_from_file_location(
    "same_outputs", ROOT / "tools" / "same_outputs.py")
_same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_same_outputs)
LAYERS = ("sample_instances", "demonstrate", "learn", "train_q",
          "export_ids", "export_orders", "export_model")


def _digest(value) -> str:
    return hashlib.sha256(value if isinstance(value, bytes)
                          else repr(value).encode()).hexdigest()


def _child(out: Path) -> dict:
    """Each layer's (seconds, peak MB after it, output digest) on the
    train-large shape, run on the ``uavplan`` that ``sys.path`` finds."""
    from unittest import mock

    from uavplan import harness
    from uavplan.environment import sample_instances, sample_pool
    from uavplan.oracle import demonstrate
    from uavplan.ql import qtable_to_dict, train_q
    from uavplan.world_model import learn, model_to_dict

    workloads = _same_outputs.load_module(ROOT / "perfbench" / "workloads.py")
    cfg = harness.config_from_dict(
        workloads.WORKLOADS["train-large"].config(3011, 0, str(out)))
    testing = sample_pool(cfg.pool_seed, cfg.testing_pool_size,
                          cfg.mean_users, cfg.mission, cfg.channel)
    training = testing[:cfg.training_pool_size]
    result = {}

    def timed(layer, fn, *args):
        start = time.perf_counter()
        value = fn(*args)
        result[layer] = [time.perf_counter() - start, resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024]
        return value

    seeds = range(cfg.train_seed_base, cfg.train_seed_base + cfg.m_training)
    instances = timed("sample_instances", sample_instances, seeds, training,
                      cfg.train_instance_size, cfg.depot, cfg.channel,
                      cfg.mission)
    solved = timed("demonstrate", demonstrate, instances, cfg.weights)
    tours = [t for t, _ in solved]
    scales = [s for _, s in solved]
    wm = timed("learn", learn, tours, training, cfg.noise, cfg.mission)
    q = timed("train_q", train_q, list(zip(instances, tours)), scales,
              cfg.ql, cfg.weights, cfg.ql_train_seed)
    out.mkdir()
    with mock.patch.object(harness, "sample_instances",
                           lambda *args: instances):
        timed("export_ids", harness.stage_training_instances, cfg, training,
              out)
    with mock.patch.object(harness, "demonstrate", lambda batch, w: solved):
        timed("export_orders", harness.stage_oracle, cfg, instances, out)
    with mock.patch.object(harness, "learn", lambda *args: wm):
        timed("export_model", harness.stage_world, cfg, tours, training, out)
    for layer, value in (
            ("sample_instances", [i.ids for i in instances]),
            ("demonstrate", [(t.order, repr(t.total_cost_m),
                              repr(t.total_profit_bps), repr(t.objective),
                              repr(s)) for t, s in solved]),
            ("learn", json.dumps(model_to_dict(wm))),
            ("train_q", json.dumps(qtable_to_dict(q))),
            ("export_ids", (out / "training_instances.jsonl").read_bytes()),
            ("export_orders", (out / "oracle_tours.jsonl").read_bytes()),
            ("export_model", (out / "world_model.json").read_bytes())):
        result[layer].append(_digest(value))
    return result


def _run(src: Path, out: Path) -> dict:
    """One child process on the package under ``src``."""
    done = subprocess.run(
        [sys.executable, __file__, "--child", str(out)], capture_output=True,
        text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)})
    return json.loads(done.stdout)


def _spread(seconds: list[float]) -> str:
    ms = [s * 1e3 for s in seconds]
    q1, _, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else ms * 3
    return f"{statistics.median(ms):8.1f} [{q1:.1f}, {q3:.1f}]"


def setup_layers(ref: str, rounds: int) -> int:
    times = {side: {layer: [] for layer in LAYERS} for side in ("ref", "tree")}
    peaks = {side: {layer: [] for layer in LAYERS} for side in ("ref", "tree")}
    digests = {layer: set() for layer in LAYERS}
    with tempfile.TemporaryDirectory(prefix="setup_layers_") as tmp:
        tmp = Path(tmp)
        if (ref_src := _same_outputs.export_src(ref, tmp / "ref")) is None:
            return 2
        sources = {"ref": ref_src, "tree": ROOT / "src"}
        for r in range(rounds):
            for side in (("ref", "tree") if r % 2 == 0 else ("tree", "ref")):
                for layer, (seconds, peak, digest) in _run(
                        sources[side], tmp / f"out-{side}-{r}").items():
                    times[side][layer].append(seconds)
                    peaks[side][layer].append(peak)
                    digests[layer].add(digest)
    differ = [layer for layer in LAYERS if len(digests[layer]) > 1]
    print(f"{'layer (ms)':16} {'ref median [q1, q3]':>28} "
          f"{'tree median [q1, q3]':>28} {'ref MB':>8} {'tree MB':>8}")
    for layer in LAYERS:
        print(f"{layer:16} {_spread(times['ref'][layer]):>28} "
              f"{_spread(times['tree'][layer]):>28}"
              f" {statistics.median(peaks['ref'][layer]):8.2f}"
              f" {statistics.median(peaks['tree'][layer]):8.2f}"
              f"{'  outputs differ' if layer in differ else ''}")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--child":
        print(json.dumps(_child(Path(argv[1]))))
        return 0
    if (len(argv) == 3 and argv[1] == "--rounds" and argv[2].isdigit()
            and int(argv[2]) > 0):
        return setup_layers(argv[0], int(argv[2]))
    if len(argv) == 1:
        return setup_layers(argv[0], 5)
    print("usage: setup_layers.py REF [--rounds N]", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
