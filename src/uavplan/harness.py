"""Experiment pipeline: pools, demonstrations, models, evaluation, report.

The stages run in one order, written once in ``_stages``; every entry
point runs a prefix of it (``run_pipeline``). Every artifact is a pure
function of the experiment config; rerunning a stage with the same
config reproduces its files byte for byte. Wall clock measurements go
to a separate timings file so the metrics CSV stays deterministic. Files
are written atomically (write then rename). This module alone writes,
rebuilds and checks artifacts, and it alone spreads work over worker
processes (``_map``).

A stage's record is the config values it is computed from: one table,
``_READS``, gives each stage its upstream stages and the config keys it
reads itself, and ``_record`` joins the keys along the chain, upstream
keys first (a verifying trace in the sense of Mokhov, Mitchell & Peyton
Jones, *Build systems a la carte*, ICFP 2018, that holds the values
themselves). Every file a stage leaves follows one of two rules, and a
file that breaks its rule stops the run with a configuration error that
names the file and what differs (for a record, the key and both values)
and says to delete it and run again:

- an export is computed on every run, because that costs little more
  than reading it back would, and its file is checked (``_export``):
  written when absent, one JSON object per line, and when present, byte
  for byte what this run writes. Its first line holds its record.

  - ``pools.json`` (``uavplan.pool.v2``): the schema and the pools
    record (``pool_seed``, ``mean_users``, ``mission``, ``channel``),
    then the sampled hotspots;
  - ``training_instances.jsonl`` (``uavplan.instances.v4``): a header,
    the schema and the record (``training_pool_size``,
    ``train_instance_size``, ``train_seed_base`` and ``m_training``,
    which alone determine the ids), then per line k the ``{"ids"}`` of
    the instance drawn with seed ``train_seed_base + k`` (seeded in
    bulk), which takes this run's pool, depot, channel and mission;
  - ``oracle_tours.jsonl`` (``uavplan.tours.v5``): a header, the schema
    and the oracle record (the pools and training instances records plus
    ``depot_m`` and ``weights``), then per line k the ``{"order"}`` of
    the tour that solves training instance k;
  - ``world_model.json`` (``uavplan.world_model.v3``): what ``learn``
    makes of the demonstrations and the training pool; its schema and
    noise config are its record.

- a cache is computed only when its file is absent, and is otherwise
  read back, so its file must hold this run's record:

  - ``qtable.json`` (``uavplan.qtable.v3``): the schema and the ql
    record, the oracle record plus ``ql`` and ``ql_train_seed``; the
    demonstrations it is trained on are a function of the oracle record
    and are checked as an export;
  - ``metrics.csv`` and the eval's other outputs (``tours/``,
    ``traces/``, ``instances/``), which the report is made from: their
    record is ``config.json``, the whole config, which must hold the
    eval's record, every key but ``output_dir`` and ``workers``;
    ``metrics.csv`` must then hold the rows (method, instance id, size)
    that this config's eval writes, in order.

The oracle stage solves the training instances in one batch per worker
(``oracle.demonstrate``), which also gives each instance's cost scale for
Q-learning; the stage hands the scales to the Q-learning stage.

Every artifact is encoded by one ``json.JSONEncoder`` (``_canonical_json``).

The frozen dataclasses under ``ExperimentConfig`` are the only description
of the config: its JSON form is their ``asdict``, and reading one back
takes every default from them and rejects any key they do not declare,
any value whose JSON type does not fit the key's declared type (a NaN
or infinite number fits none), and any value that a dataclass's own
check refuses, such as a channel or an altitude whose rates overflow
float arithmetic.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import math
import os
import statistics
import time
from array import array
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import (Callable, Iterable, Sequence, TypeVar, get_args, get_origin,
                    get_type_hints)

import json

from .environment import (POOL_SCHEMA, ChannelParams, Hotspot, Instance,
                          MissionConfig, channel_gain, instance_from_dict,
                          instance_to_dict, pool_to_dict, sample_instances,
                          sample_pool)
from .errors import ConfigurationError
from .oracle import (ObjectiveWeights, Tour, demonstrate, make_tour, solve,
                     tour_from_dict, tour_to_dict)
from .planner import PlannerConfig, levenshtein, plan_mission, plan_to_dict
from .ql import (QTABLE_SCHEMA, QTable, QTrainConfig, construct_word,
                 qtable_from_dict, qtable_to_dict, train_q)
from .world_model import NoiseConfig, Word, WorldModel, learn, model_to_dict

METRICS_SCHEMA = "uavplan.metrics.v1"
METRICS_COLUMNS = ["method", "instance_id", "n_hotspots", "total_sum_rate_bps",
                   "completion_time_s", "tour_length_m", "similarity_to_oracle"]
METHODS = ("oracle", "ain", "mql")
INSTANCES_SCHEMA = "uavplan.instances.v4"
TOURS_SCHEMA = "uavplan.tours.v5"

T = TypeVar("T")


@dataclass(frozen=True)
class ExperimentConfig:
    channel: ChannelParams = field(default_factory=ChannelParams)
    mission: MissionConfig = field(default_factory=MissionConfig)
    # the one objective: oracle, AIn tours and Q-learning all score with it
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    ql: QTrainConfig = field(default_factory=QTrainConfig)
    pool_seed: int = 20240501
    testing_pool_size: int = 100
    training_pool_size: int = 50
    mean_users: float = 5.0
    depot_m: tuple[float, float] | None = None   # defaults to area center
    m_training: int = 5000
    train_instance_size: int = 5
    train_seed_base: int = 1_000_000
    test_sizes: tuple[int, ...] = (5, 10, 20, 30, 40, 50)
    seeds_per_size: int = 5
    test_seed_base: int = 9_000_000
    ql_train_seed: int = 777
    output_dir: str = "out"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.training_pool_size > self.testing_pool_size:
            raise ConfigurationError("training pool cannot exceed testing pool")
        if self.m_training < 1 or self.seeds_per_size < 1:
            raise ConfigurationError("need at least one example per stage")
        if self.train_instance_size < 2:
            raise ConfigurationError("training instances need >= 2 hotspots")
        for name in ("pool_seed", "train_seed_base", "test_seed_base",
                     "ql_train_seed"):
            if getattr(self, name) < 0:
                raise ConfigurationError(
                    f"{name} must be >= 0, not {getattr(self, name)}")
        if not self.test_sizes:
            raise ConfigurationError("test_sizes must name at least one size")
        if len(set(self.test_sizes)) != len(self.test_sizes):
            raise ConfigurationError(f"test_sizes {list(self.test_sizes)} "
                                     "names a size twice")
        if any(s < 1 for s in self.test_sizes):
            raise ConfigurationError("test sizes must be >= 1")
        # sample_instances refuses these too, but only once earlier stages
        # have run and written their artifacts
        for size in self.test_sizes:
            if size > self.testing_pool_size:
                raise ConfigurationError(
                    f"test size {size} exceeds testing_pool_size "
                    f"{self.testing_pool_size}")
        if self.train_instance_size > self.training_pool_size:
            raise ConfigurationError(
                f"train_instance_size {self.train_instance_size} exceeds "
                f"training_pool_size {self.training_pool_size}")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.depot_m is not None and len(self.depot_m) != 2:
            raise ConfigurationError("depot_m must be [x, y] or null")
        try:
            # pool profits are rates at the hover distance, the altitude
            channel_gain(self.mission.uav_altitude_m, 1.0, self.channel)
        except OverflowError:
            raise ConfigurationError(
                f"config mission.uav_altitude_m {self.mission.uav_altitude_m} "
                "to the power channel.path_loss_exponent "
                f"{self.channel.path_loss_exponent} overflows float "
                "arithmetic") from None

    @property
    def depot(self) -> tuple[float, float]:
        if self.depot_m is not None:
            return self.depot_m
        half = self.mission.area_side_m / 2.0
        return (half, half)


@dataclass(frozen=True)
class MetricsRecord:
    method: str
    instance_id: str
    n_hotspots: int
    total_sum_rate_bps: float
    completion_time_s: float
    tour_length_m: float
    similarity_to_oracle: float
    wall_clock_s: float


def completion_time_from(length_m: float, n_visited: int,
                         mission: MissionConfig) -> float:
    return length_m / mission.uav_speed_m_per_s + mission.dwell_time_s * n_visited


def completion_time(t: Tour, mission: MissionConfig) -> float:
    """Travel time of the full closed tour plus per-hotspot dwell."""
    return completion_time_from(t.total_cost_m, len(t.order), mission)


def word_similarity(w1: Word, w2: Word) -> float:
    """1 - edit_distance / max length; 1.0 for two empty words."""
    longest = max(len(w1), len(w2))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(w1, w2) / longest


# --- config (de)serialization ------------------------------------------------

CONFIG_SCHEMA = "uavplan.config.v1"


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {"schema": CONFIG_SCHEMA, **asdict(cfg)}


def _fits(value, hint) -> bool:
    """Whether the JSON value ``value`` fits the declared type ``hint``: an
    int takes an integer and a float any finite number (neither takes a
    bool), a tuple a list (or tuple) of fitting items, and a union what
    one of its members takes."""
    args = get_args(hint)
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return len(value) == len(args) and all(map(_fits, value, args))
    if args:
        return any(_fits(value, member) for member in args)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, int) or (isinstance(value, float)
                                          and math.isfinite(value))
    return isinstance(value, hint)


def _dataclass_from_dict(cls, d, prefix: str = ""):
    """Build dataclass ``cls`` from the keys present in ``d``; defaults come
    from the dataclass. Nested dataclass fields recurse, JSON lists become
    tuples (the config's sequences are tuples), and a key that is not a
    field, or whose value does not fit the field's type (``_fits``), is an
    error naming its dotted path; a value that a nested dataclass's own
    check rejects is an error naming that dataclass's section."""
    if not isinstance(d, dict):
        raise ConfigurationError(f"config {prefix.rstrip('.') or 'root'} "
                                 "must be a JSON object")
    hints = get_type_hints(cls)
    names = {f.name for f in fields(cls)}
    kwargs = {}
    for key, value in d.items():
        if key not in names:
            raise ConfigurationError(f"unknown config key {prefix}{key}")
        hint = hints[key]
        if is_dataclass(hint):
            value = _dataclass_from_dict(hint, value, f"{prefix}{key}.")
        elif not _fits(value, hint):
            raise ConfigurationError(
                f"config key {prefix}{key} must be of type "
                f"{str(hint) if get_args(hint) else hint.__name__}, "
                f"not {_excerpt(value)}")
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ConfigurationError as e:
        if not prefix:
            raise
        raise ConfigurationError(f"config {prefix.rstrip('.')}: {e}") from None


def config_from_dict(d: dict) -> ExperimentConfig:
    d = dict(d)
    schema = d.pop("schema", CONFIG_SCHEMA)
    if schema != CONFIG_SCHEMA:
        raise ConfigurationError(f"unsupported config schema {schema!r}")
    return _dataclass_from_dict(ExperimentConfig, d)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        with open(path) as f:
            return config_from_dict(json.load(f))
    except (OSError, ValueError, TypeError, KeyError, RecursionError) as e:
        raise ConfigurationError(f"cannot load config {path}: {e}") from e


# --- atomic artifact IO -------------------------------------------------------

# The one JSON encoding of every artifact: sorted keys, no spaces. One
# encoder serves every call (json.dumps with these options builds a new one
# per call).
_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _excerpt(obj, limit: int = 100) -> str:
    """``obj`` in canonical JSON, cut to ``limit`` characters."""
    text = _canonical_json(obj)
    return text if len(text) <= limit else text[:limit - 3] + "..."


@contextmanager
def _replacing(path: Path):
    """A text file to write that replaces ``path`` only once it is
    complete (write then rename)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as f:
        yield f
    os.replace(tmp, path)


def write_text_atomic(path: Path, text: str) -> None:
    with _replacing(path) as f:
        f.write(text)


def write_json_atomic(path: Path, obj: dict) -> None:
    write_text_atomic(path, _canonical_json(obj) + "\n")


def write_jsonl_atomic(path: Path, objs: Iterable[dict]) -> None:
    """One object per line, each written as soon as it is encoded. Pass a
    generator: then neither all the objects nor all the lines are held at
    once."""
    with _replacing(path) as f:
        for o in objs:
            f.write(_canonical_json(o) + "\n")


def read_json(path: Path) -> dict:
    """Parse one JSON artifact; unreadable or corrupt input is a
    configuration error that names the file."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError,
            RecursionError) as e:
        raise ConfigurationError(f"cannot read artifact {path}: {e}") from e


def _read_csv(path: Path) -> list[dict]:
    """Rows of a CSV artifact keyed by its header; ``#`` lines are skipped."""
    try:
        with open(path) as f:
            return list(csv.DictReader(ln for ln in f if not ln.startswith("#")))
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise ConfigurationError(f"cannot read artifact {path}: {e}") from e


def load_artifact(path: Path, from_dict: Callable[[dict], T],
                  want: dict | None = None) -> T | list[T]:
    """Read an artifact and build what it holds: a list with one object per
    row of a ``.csv`` file, else one object from the JSON file, which must
    record ``want`` (see ``_check_header``). Unreadable or corrupt input
    and a wrong shape (a missing key, a short list, a wrong type or an
    invalid value, or contents that contradict each other) are
    configuration errors that name the file."""
    is_csv = path.suffix == ".csv"
    data = _read_csv(path) if is_csv else read_json(path)
    if not is_csv:
        _check_header(path, data, want or {})
    try:
        if is_csv:
            return [from_dict(rec) for rec in data]
        return from_dict(data)
    except (AttributeError, LookupError, TypeError, ValueError,
            OverflowError) as e:
        raise ConfigurationError(
            f"malformed artifact {path}: {type(e).__name__}: {e}") from e


_REGENERATE = "delete it and run again to regenerate it"


def _check_header(path: Path, recorded: dict, want: dict) -> None:
    """A reused artifact must record what this run would compute it from:
    each key of the JSON object ``want``, in ``want``'s order; a key that
    ``recorded`` lacks counts as null. ``recorded`` must be a JSON object.
    A mismatch is a configuration error naming the file, the key and both
    values, or, for the key ``schema``, both schemas."""
    if not isinstance(recorded, dict):
        raise ConfigurationError(f"{path} holds {_excerpt(recorded)}, not a "
                                 f"JSON object; {_REGENERATE}")
    for key, value in want.items():
        found = recorded.get(key)
        if found == value:
            continue
        if key == "schema":
            raise ConfigurationError(
                f"{path} has schema {found!r}, not {value!r} (an older "
                f"format or not this artifact); {_REGENERATE}")
        raise ConfigurationError(
            f"{path} was computed with {key} {_canonical_json(found)}, but "
            f"this run has {key} {_canonical_json(value)}; {_REGENERATE}")


def _export(path: Path, objs: Iterable[dict], record: dict) -> None:
    """A file that this run recomputes: ``objs``, one per line as
    ``write_jsonl_atomic`` writes them, whose first line records
    ``record``. Written when absent; when present, it must hold exactly
    these bytes. Lines are compared as bytes and parsed only where they
    differ: a first line that does not record ``record`` is named as
    ``_check_header`` names it; another number of lines, by both counts;
    any other line, by its number and the first field that differs
    (``_first_difference``, in the key order of the object this run
    writes) with both values, and a field of a world model's words also
    with the fingerprints (sha256) of both word lists."""
    if not path.exists():
        write_jsonl_atomic(path, objs)
        return
    objs = iter(objs)
    try:
        with open(path, "rb") as f:
            for n, (have, obj) in enumerate(itertools.zip_longest(f, objs),
                                            start=1):
                if (obj is not None
                        and have == (_canonical_json(obj) + "\n").encode()):
                    continue
                if have is None or obj is None:
                    held = n - 1 + (have is not None) + sum(1 for _ in f)
                    count = n - 1 + (obj is not None) + sum(1 for _ in objs)
                    raise ConfigurationError(
                        f"{path} holds {held} lines, but this run writes "
                        f"{count}; {_REGENERATE}")
                try:
                    recorded = json.loads(have)
                except (ValueError, RecursionError) as e:
                    raise ConfigurationError(
                        f"cannot read artifact {path}, line {n}: {e}") from e
                if n == 1:
                    _check_header(path, recorded, record)
                found = _first_difference(recorded, obj)
                if found is None:
                    raise ConfigurationError(
                        f"{path} line {n} holds the values this run writes "
                        f"in another encoding; {_REGENERATE}")
                key, was, now = found
                note = ""
                if key.split(".")[0] == "words":
                    note = " (word list fingerprints {} and {})".format(*(
                        hashlib.sha256(_canonical_json(d.get("words"))
                                       .encode()).hexdigest()
                        for d in (recorded, obj)))
                raise ConfigurationError(
                    f"{path} line {n} holds {key + ' ' if key else ''}"
                    f"{_excerpt(was)}, but this run writes {_excerpt(now)}"
                    f"{note}; {_REGENERATE}")
    except OSError as e:
        raise ConfigurationError(f"cannot read artifact {path}: {e}") from e


# --- worker pool --------------------------------------------------------------

# Set once in each worker process by its pool initializer: the function a
# ``_map`` runs and the arguments every task shares, so that they are sent
# once per worker rather than per task.
_job: tuple[Callable, tuple] | None = None


def _init_worker(fn: Callable, shared: tuple) -> None:
    global _job
    _job = (fn, shared)


def _run_task(task: tuple):
    fn, shared = _job
    return fn(*task, *shared)


def _map(fn: Callable[..., T], tasks: Iterable[tuple], shared: tuple,
         workers: int, chunksize: int) -> list[T]:
    """``fn(*task, *shared)`` for each task, in order. With more than one
    worker the calls run in a process pool, handed out ``chunksize`` tasks
    at a time."""
    if workers <= 1:
        return [fn(*task, *shared) for task in tasks]
    # imported here: it loads multiprocessing, which workers=1 never uses
    import concurrent.futures
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker,
            initargs=(fn, shared)) as pool:
        return list(pool.map(_run_task, tasks, chunksize=chunksize))


# --- pipeline stages ----------------------------------------------------------

# What each stage reads: the stages it is computed from, and the config
# keys it reads itself. Every reuse record is derived from it (``_record``).
_READS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "pools": ((), ("pool_seed", "mean_users", "mission", "channel")),
    # the ids depend on nothing else; an instance takes this run's pool,
    # depot, channel and mission
    "training_instances": ((), ("training_pool_size", "train_instance_size",
                                "train_seed_base", "m_training")),
    "oracle": (("pools", "training_instances"), ("depot_m", "weights")),
    "world": (("oracle",), ("noise",)),
    "ql": (("oracle",), ("ql", "ql_train_seed")),
    "eval": (("world", "ql"), ("testing_pool_size", "planner", "test_sizes",
                               "seeds_per_size", "test_seed_base")),
}


def _record(cfg: ExperimentConfig, stage: str) -> dict:
    """The config values ``stage`` is computed from, in JSON form: the keys
    that ``_READS`` gives it and every stage upstream of it, each once,
    upstream keys first."""
    upstream, own = _READS[stage]
    record = {}
    for name in upstream:
        record.update(_record(cfg, name))
    config = json.loads(_canonical_json(asdict(cfg)))
    return {**record, **{key: config[key] for key in own}}


def stage_pools(cfg: ExperimentConfig,
                out: Path) -> tuple[list[Hotspot], list[Hotspot]]:
    """Testing pool, with the training pool as its leading prefix so that
    trained letters keep their identity at test time. The pool is sampled
    on every run, and ``pools.json``, its record and then its hotspots, is
    its export (``_export``)."""
    testing = sample_pool(cfg.pool_seed, cfg.testing_pool_size,
                          cfg.mean_users, cfg.mission, cfg.channel)
    record = {"schema": POOL_SCHEMA, **_record(cfg, "pools")}
    _export(out / "pools.json", [{**record, **pool_to_dict(testing)}], record)
    return testing, testing[:cfg.training_pool_size]


def stage_training_instances(cfg: ExperimentConfig, training_pool,
                             out: Path) -> list[Instance]:
    """Training instance k is drawn with seed ``train_seed_base + k`` from
    the training pool, on every run. ``training_instances.jsonl``, a
    header and then each instance's ids, is their export (``_export``)."""
    seeds = range(cfg.train_seed_base, cfg.train_seed_base + cfg.m_training)
    instances = sample_instances(seeds, training_pool, cfg.train_instance_size,
                                 cfg.depot, cfg.channel, cfg.mission)
    header = {"schema": INSTANCES_SCHEMA, **_record(cfg, "training_instances")}
    _export(out / "training_instances.jsonl", itertools.chain(
        [header], ({"ids": list(i.ids)} for i in instances)), header)
    return instances


def stage_oracle(cfg: ExperimentConfig, instances: Sequence[Instance],
                 out: Path) -> tuple[list[Tour], array]:
    """Demonstration k solves training instance k, and comes with that
    instance's cost scale for Q-learning; the instances are solved on
    every run, in one batch per worker (``demonstrate``). Returns the
    tours and the scales. ``oracle_tours.jsonl``, a header and then each
    demonstration's order, is their export (``_export``)."""
    size = -(-len(instances) // cfg.workers)
    solved = [d for batch in _map(
        demonstrate, ((instances[k:k + size],)
                      for k in range(0, len(instances), size)),
        (cfg.weights,), cfg.workers, chunksize=1) for d in batch]
    tours = [t for t, _ in solved]
    header = {"schema": TOURS_SCHEMA, **_record(cfg, "oracle")}
    _export(out / "oracle_tours.jsonl", itertools.chain(
        [header], ({"order": list(t.order)} for t in tours)), header)
    return tours, array("d", [scale for _, scale in solved])


def _first_difference(recorded, current, key: str = ""):
    """(dotted key, recorded value, current value) at the first leaf where
    two JSON values differ, or None when they are equal. Dicts are visited
    in ``current``'s key order, then the keys only ``recorded`` has; lists
    of one length are visited item by item, and lists of two lengths
    differ at their own key."""
    if recorded == current:
        return None
    pairs = ()
    if isinstance(recorded, dict) and isinstance(current, dict):
        pairs = ((k, recorded.get(k), current.get(k))
                 for k in [*current, *(k for k in recorded if k not in current)])
    elif (isinstance(recorded, list) and isinstance(current, list)
          and len(recorded) == len(current)):
        pairs = zip(itertools.count(), recorded, current)
    for k, r, c in pairs:
        found = _first_difference(r, c, f"{key}.{k}" if key else str(k))
        if found is not None:
            return found
    return key, recorded, current


def stage_world(cfg: ExperimentConfig, tours: Sequence[Tour], training_pool,
                out: Path) -> WorldModel:
    """The model ``learn`` makes of the demonstrations and the training
    pool, learned on every run. ``world_model.json`` is its export
    (``_export``), whose schema and noise config are its record."""
    wm = learn(tours, training_pool, cfg.noise, cfg.mission)
    current = model_to_dict(wm)
    _export(out / "world_model.json", [current],
            {key: current[key] for key in ("schema", "noise_config")})
    return wm


def stage_ql(cfg: ExperimentConfig, instances: Sequence[Instance],
             tours: Sequence[Tour], cost_scales: Sequence[float],
             out: Path) -> QTable:
    """The Q-table ``train_q`` makes of the demonstrations and their cost
    scales. Its file also holds its record, which a reused file must
    hold: the demonstrations are a function of it."""
    path = out / "qtable.json"
    record = {"schema": QTABLE_SCHEMA, **_record(cfg, "ql")}
    if path.exists():
        return load_artifact(path, qtable_from_dict, record)
    q = train_q(list(zip(instances, tours)), cost_scales, cfg.ql, cfg.weights,
                cfg.ql_train_seed)
    write_json_atomic(path, {**record, **qtable_to_dict(q)})
    return q


def test_instance_id(size: int, k: int) -> str:
    return f"s{size:03d}k{k:03d}"


def test_instance_seed(cfg: ExperimentConfig, size: int, k: int) -> int:
    return cfg.test_seed_base + size * 1000 + k


def iter_test_instances(cfg: ExperimentConfig, testing_pool):
    """(id, instance) of every test instance, in eval order; the instances
    of one size are sampled together."""
    for size in cfg.test_sizes:
        seeds = [test_instance_seed(cfg, size, k)
                 for k in range(cfg.seeds_per_size)]
        for k, inst in enumerate(sample_instances(
                seeds, testing_pool, size, cfg.depot, cfg.channel,
                cfg.mission)):
            yield test_instance_id(size, k), inst


def _evaluate_one(iid: str, inst: Instance, wm: WorldModel, qtable: QTable,
                  cfg: ExperimentConfig):
    rows: list[MetricsRecord] = []
    artifacts: dict[str, dict] = {}

    t0 = time.perf_counter()
    oracle_tour = solve(inst, cfg.weights)
    oracle_wall = time.perf_counter() - t0
    oracle_word = Word(oracle_tour.order)

    t0 = time.perf_counter()
    plan = plan_mission(inst, wm, cfg.planner, cfg.weights)
    ain_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    mql_seed = inst.seed + 17
    mql_word = construct_word(qtable, plan.reference, inst, mql_seed, cfg.ql)
    mql_wall = time.perf_counter() - t0
    mql_tour = make_tour(mql_word.letters, inst, cfg.weights)

    for method, tour, word, wall in (
            ("oracle", oracle_tour, oracle_word, oracle_wall),
            ("ain", plan.tour, plan.final_word, ain_wall),
            ("mql", mql_tour, mql_word, mql_wall)):
        rows.append(MetricsRecord(
            method=method,
            instance_id=iid,
            n_hotspots=len(inst.hotspots),
            total_sum_rate_bps=tour.total_profit_bps,
            completion_time_s=completion_time(tour, inst.mission),
            tour_length_m=tour.total_cost_m,
            similarity_to_oracle=word_similarity(word, oracle_word),
            wall_clock_s=wall,
        ))
        artifacts[f"tours/{iid}_{method}.json"] = tour_to_dict(tour, cfg.weights)
    artifacts[f"instances/{iid}.json"] = instance_to_dict(inst)
    artifacts[f"traces/{iid}_ain.json"] = plan_to_dict(plan)
    return rows, artifacts


def stage_eval(cfg: ExperimentConfig, testing_pool, wm: WorldModel,
               qtable: QTable, out: Path) -> list[MetricsRecord]:
    """Run the three methods on every test instance. ``config.json``, this
    run's config, is written just before its outputs; a reused
    ``metrics.csv`` needs one that holds the eval's record, and must hold
    the rows this config's eval writes: each test instance's method, id
    and size, in eval order."""
    path = out / "metrics.csv"
    if path.exists():
        config_path = out / "config.json"
        if not config_path.exists():
            raise ConfigurationError(
                f"{path} has no {config_path} to record the config it was "
                f"computed with; {_REGENERATE}")
        _check_header(path, load_artifact(config_path, dict),
                      {"schema": CONFIG_SCHEMA, **_record(cfg, "eval")})
        rows = read_metrics(path)
        want = [(method, test_instance_id(size, k), size)
                for size in cfg.test_sizes for k in range(cfg.seeds_per_size)
                for method in METHODS]
        for n, (have, need) in enumerate(itertools.zip_longest(
                [(r.method, r.instance_id, r.n_hotspots) for r in rows], want),
                start=1):
            if have != need:
                raise ConfigurationError(
                    f"{path} row {n} holds {_excerpt(have)}, but this run's "
                    f"eval writes {_excerpt(need)} there; {_REGENERATE}")
        return rows
    results = _map(_evaluate_one, iter_test_instances(cfg, testing_pool),
                   (wm, qtable, cfg), cfg.workers, chunksize=1)
    write_json_atomic(out / "config.json", config_to_dict(cfg))
    rows: list[MetricsRecord] = []
    for task_rows, artifacts in results:
        rows.extend(task_rows)
        for rel, obj in artifacts.items():
            write_json_atomic(out / rel, obj)

    records = [asdict(r) for r in rows]
    _write_csv_records(out / "timings.csv",
                       ["method", "instance_id", "wall_clock_s"], records)
    _write_csv_records(path, METRICS_COLUMNS, records,
                       f"# schema: {METRICS_SCHEMA}\n")
    return rows


def _metrics_record(rec: dict) -> MetricsRecord:
    return MetricsRecord(
        method=rec["method"], instance_id=rec["instance_id"],
        n_hotspots=int(rec["n_hotspots"]),
        total_sum_rate_bps=float(rec["total_sum_rate_bps"]),
        completion_time_s=float(rec["completion_time_s"]),
        tour_length_m=float(rec["tour_length_m"]),
        similarity_to_oracle=float(rec["similarity_to_oracle"]),
        wall_clock_s=0.0,
    )


def read_metrics(path: Path) -> list[MetricsRecord]:
    return load_artifact(path, _metrics_record)


def _mean_ci(values: Sequence[float]) -> tuple[float, float]:
    mean = statistics.fmean(values)
    if len(values) < 2:
        return mean, 0.0
    half = 1.96 * statistics.stdev(values) / math.sqrt(len(values))
    return mean, half


def summarize(rows: Sequence[MetricsRecord]) -> list[dict]:
    """Per (size, method) means with normal-approximation 95% intervals."""
    sizes = sorted({r.n_hotspots for r in rows})
    out = []
    for size in sizes:
        for method in METHODS:
            sel = [r for r in rows
                   if r.n_hotspots == size and r.method == method]
            if not sel:
                continue
            rate_m, rate_h = _mean_ci([r.total_sum_rate_bps for r in sel])
            time_m, time_h = _mean_ci([r.completion_time_s for r in sel])
            len_m, len_h = _mean_ci([r.tour_length_m for r in sel])
            sim_m, sim_h = _mean_ci([r.similarity_to_oracle for r in sel])
            out.append({
                "n_hotspots": size, "method": method, "n_instances": len(sel),
                "sum_rate_mean_bps": rate_m, "sum_rate_ci_bps": rate_h,
                "completion_mean_s": time_m, "completion_ci_s": time_h,
                "length_mean_m": len_m, "length_ci_m": len_h,
                "similarity_mean": sim_m, "similarity_ci": sim_h,
            })
    return out


def completion_ratios(rows: Sequence[MetricsRecord]) -> list[dict]:
    """Mean completion time of each method relative to the oracle, per size."""
    sizes = sorted({r.n_hotspots for r in rows})
    out = []
    for size in sizes:
        base = [r.completion_time_s for r in rows
                if r.n_hotspots == size and r.method == "oracle"]
        if not base:
            continue
        base_mean = statistics.fmean(base)
        entry = {"n_hotspots": size}
        for method in ("ain", "mql"):
            sel = [r.completion_time_s for r in rows
                   if r.n_hotspots == size and r.method == method]
            entry[f"{method}_over_oracle"] = (
                statistics.fmean(sel) / base_mean if sel and base_mean > 0
                else float("nan"))
        out.append(entry)
    return out


def _write_csv_records(path: Path, columns: Sequence[str],
                       records: Iterable[dict], preamble: str = "") -> None:
    """``preamble``, then a header of ``columns`` and one row per record
    (keys not in ``columns`` are left out); floats are written as their
    ``repr``."""
    buf = io.StringIO()
    buf.write(preamble)
    writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    for rec in records:
        writer.writerow({k: (repr(v) if isinstance(v, float) else v)
                         for k, v in rec.items()})
    write_text_atomic(path, buf.getvalue())


def stage_report(cfg: ExperimentConfig, out: Path) -> None:
    rows = read_metrics(out / "metrics.csv")
    if not rows:
        raise ConfigurationError("metrics.csv is empty; run eval first")
    for name, records in (("summary.csv", summarize(rows)),
                          ("ratios.csv", completion_ratios(rows))):
        _write_csv_records(out / name, list(records[0]), records)

    # polyline per tour: depot, ordered hotspot centers, depot; an
    # instance's rows are consecutive, so its file is read once
    for iid, group in itertools.groupby(rows, lambda r: r.instance_id):
        inst = load_artifact(out / f"instances/{iid}.json", instance_from_dict)
        centers = {h.id: h.center_m for h in inst.hotspots}
        for r in group:
            tour_path = out / f"tours/{iid}_{r.method}.json"
            tour = load_artifact(tour_path, tour_from_dict)
            try:
                visited = [centers[i] for i in tour.order]
            except KeyError as e:
                raise ConfigurationError(
                    f"malformed artifact {tour_path}: "
                    f"unknown hotspot id {e.args[0]}") from None
            pts = [inst.depot_m] + visited + [inst.depot_m]
            _write_csv_records(out / f"trajectories/{iid}_{r.method}.csv",
                               ["x_m", "y_m"],
                               [{"x_m": x, "y_m": y} for x, y in pts])


def _stages(cfg: ExperimentConfig, out: Path):
    """The pipeline: run each stage in order, yielding its name and what
    it returned (the report yields the eval's metrics rows)."""
    testing_pool, training_pool = stage_pools(cfg, out)
    yield "pools", (testing_pool, training_pool)
    instances = stage_training_instances(cfg, training_pool, out)
    yield "training_instances", instances
    tours, cost_scales = stage_oracle(cfg, instances, out)
    yield "oracle", tours
    wm = stage_world(cfg, tours, training_pool, out)
    yield "world", wm
    qtable = stage_ql(cfg, instances, tours, cost_scales, out)
    yield "ql", qtable
    rows = stage_eval(cfg, testing_pool, wm, qtable, out)
    yield "eval", rows
    stage_report(cfg, out)
    yield "report", rows


def run_pipeline(cfg: ExperimentConfig, last: str = "report"):
    """Run the stages of ``_stages`` in order, reusing existing artifacts,
    and stop after the one named ``last``; returns what that stage
    yields."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, result in _stages(cfg, out):
        if name == last:
            return result
    raise ValueError(f"no pipeline stage named {last!r}")
