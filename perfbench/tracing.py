"""Spans and counters recorded around uavplan's functions from outside it.

The program under test is not edited. Instead, ``install`` replaces each
public function of the seven layer modules with a wrapper, under every
name a caller looks it up by (``harness.solve`` as well as
``oracle.solve``), and ``uninstall`` puts the originals back.

Two depths exist:

* ``stages``: only the seven ``harness.stage_*`` functions get spans.
  This is the untraced run; nothing below stage level is wrapped.
* ``full``: every public function gets a span (name, start, end, parent),
  except the per-leg and per-edge helpers in ``COUNT_ONLY``, which are
  only counted so that the wrapper cost stays out of the inner loops.

Spans stay in memory in flat arrays and are written out once, after the
pipeline returns. Full depth is only used with workers=1, so every span
is recorded in the pipeline process itself.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Iterable, Sequence

LAYERS = ("environment", "oracle", "world_model", "planner", "ql", "harness",
          "cli")

# Called once per leg, edge, user or row: counted, never timed.
COUNT_ONLY = frozenset({
    "environment.edge_cost", "environment.los_probability",
    "environment.channel_gain", "environment.hotspot_sum_rate",
    "environment.hotspot_to_dict", "environment.hotspot_from_dict",
    "oracle.objective_value", "planner.kalman_predict",
    "planner.predict_observation", "harness.completion_time_from",
    "harness.test_instance_id", "harness.test_instance_seed",
    "harness.iter_test_instances",
})

STAGES = ("stage_pools", "stage_training_instances", "stage_oracle",
          "stage_world", "stage_ql", "stage_eval", "stage_report")


def _candidates(rec: "Recorder", args: dict, result) -> None:
    rec.counts["planner.insert_best.candidates"] += len(result.candidates)


def _bound_evals(rec: "Recorder", args: dict, result) -> None:
    rec.counts["planner.select_reference.bound_evals"] += (
        len(args["candidates"]) * len(args["wm"].words))


def _words(rec: "Recorder", args: dict, result) -> None:
    rec.counts["world_model.words"] += len(result.words)


def _eval_inputs(rec: "Recorder", args: dict, result) -> None:
    # kept so the task size can be measured after the pipeline has ended
    rec.eval_args = args


# name -> hook(recorder, bound arguments, result), run after the span closes
HOOKS: dict[str, Callable] = {
    "planner.insert_best": _candidates,
    "planner.select_reference": _bound_evals,
    "world_model.learn": _words,
    "harness.stage_eval": _eval_inputs,
}


class Recorder:
    """Flat in-memory span store plus named counters."""

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.eval_args: dict | None = None

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(self.clock())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()

    def spans(self) -> list[tuple[str, float, float, int]]:
        """(name, start, end, parent index or -1) in opening order."""
        names = self.names
        return [(names[n], s, e, p) for n, s, e, p
                in zip(self.name, self.start, self.end, self.parent)]


def self_times(spans: Sequence[tuple[str, float, float, int]]) -> dict[str, dict]:
    """Per span name: calls, inclusive time and self time.

    Self time is a span's duration minus the durations of its child spans
    (they run one after another inside it). Inclusive time counts only the
    outermost span of a name on any path, so recursion is not counted twice.
    Parents must come before their children, as they do in opening order.
    """
    child_s = [0.0] * len(spans)
    for _, s, e, p in spans:
        if p >= 0:
            child_s[p] += e - s
    out: dict[str, dict] = {}
    ctx: list[frozenset] = []            # names open on each span's path
    interned: dict[tuple, frozenset] = {}
    for i, (name, s, e, p) in enumerate(spans):
        above = ctx[p] if p >= 0 else frozenset()
        here = interned.get((above, name))
        if here is None:
            here = interned[(above, name)] = above | {name}
        ctx.append(here)
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (e - s) - child_s[i]
        if name not in above:
            entry["total_s"] += e - s
    return out


def layer_self_times(per_name: dict[str, dict]) -> dict[str, float]:
    """Self time summed per layer module (the part of a name before the dot)."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, st in per_name.items():
        layer = name.split(".", 1)[0]
        if layer in out:
            out[layer] += st["self_s"]
    return out


# --- installing the wrappers -------------------------------------------------

def _timed(rec: Recorder, name: str, fn: Callable) -> Callable:
    hook = HOOKS.get(name)
    sig = inspect.signature(fn) if hook else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            hook(rec, sig.bind(*args, **kwargs).arguments, result)
        return result

    return wrapper


def _counted(rec: Recorder, key: str, fn: Callable) -> Callable:
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _public_functions(mod) -> Iterable[tuple[str, Callable]]:
    for attr, value in vars(mod).items():
        if (inspect.isfunction(value) and value.__module__ == mod.__name__
                and not attr.startswith("_")):
            yield attr, value


def install(rec: Recorder, depth: str) -> list:
    """Wrap uavplan's functions at ``depth`` ("stages" or "full"); returns
    the undo list for ``uninstall``."""
    if depth not in ("stages", "full"):
        raise ValueError(f"unknown trace depth {depth!r}")
    import uavplan.cli  # noqa: F401  (imports every layer module)
    from uavplan import environment, planner

    replace: dict[int, Callable] = {}    # id(original) -> wrapper
    for layer in LAYERS:
        for attr, fn in _public_functions(sys.modules[f"uavplan.{layer}"]):
            name = f"{layer}.{attr}"
            if depth == "stages":
                if layer == "harness" and attr in STAGES:
                    replace[id(fn)] = _timed(rec, name, fn)
            elif name in COUNT_ONLY:
                replace[id(fn)] = _counted(rec, name, fn)
            else:
                replace[id(fn)] = _timed(rec, name, fn)

    undo: list = []
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "uavplan" or n.startswith("uavplan."))]
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            wrapper = replace.get(id(value))
            if wrapper is not None and inspect.isfunction(value):
                undo.append((mod, attr, value))
                setattr(mod, attr, wrapper)

    if depth == "full":
        for owner, attr, key in (
                (environment.Instance, "hotspot", "environment.Instance.hotspot.calls"),
                (planner.GaussianBelief, "__post_init__",
                 "planner.GaussianBelief.constructed")):
            fn = vars(owner)[attr]
            undo.append((owner, attr, fn))
            setattr(owner, attr, _counted(rec, key, fn))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)
