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
themselves). Every stage computes on every run, and every file it leaves
is an export (``_export``): written when absent, one line per JSON object
or CSV line, and when present, byte for byte what this run writes. A file
that differs stops the run with a configuration error that names the file
and what differs (a record's key and both values, another line count, or
the first differing line) and says to delete it and run again. The files
whose first line holds a record:

- ``pools.json`` (``uavplan.pool.v2``): the schema and the pools record
  (``pool_seed``, ``mean_users``, ``mission``, ``channel``), then the
  sampled hotspots;
- ``training_instances.jsonl`` (``uavplan.instances.v4``): a header, the
  schema and the record (``training_pool_size``, ``train_instance_size``,
  ``train_seed_base`` and ``m_training``, which alone determine the ids),
  then per line k the ``{"ids"}`` of the instance drawn with seed
  ``train_seed_base + k`` (seeded in bulk), which takes this run's pool,
  depot, channel and mission;
- ``oracle_tours.jsonl`` (``uavplan.tours.v5``): a header, the schema and
  the oracle record (the pools and training instances records plus
  ``depot_m`` and ``weights``), then per line k the ``{"order"}`` of the
  tour that solves training instance k;
- ``world_model.json`` (``uavplan.world_model.v3``): what ``learn`` makes
  of the demonstrations and the training pool; its schema and noise
  config are its record;
- ``qtable.json`` (``uavplan.qtable.v3``): the schema, the ql record (the
  oracle record plus ``ql`` and ``ql_train_seed``) and the Q-table.

The eval's outputs (``tours/``, ``traces/``, ``instances/`` and
``metrics.csv``) and the report's (``summary.csv``, ``ratios.csv`` and
``trajectories/``) are exports too; the report is made from the eval's
results in memory and reads no file. Two files are rewritten on every
run instead: ``timings.csv`` (wall clock, telemetry) and ``config.json``,
the whole config. A present ``config.json`` must first hold the eval's
record, every key but ``output_dir`` and ``workers``, so that a run with
other eval keys names the key before any output is compared.

The oracle stage solves the training instances in one batch per worker
(``oracle.demonstrate``), which also gives each instance's cost scale for
Q-learning; the stage hands the scales to the Q-learning stage.

Every JSON line is encoded by one ``json.JSONEncoder`` (``_canonical_json``).

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
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import (Callable, Iterable, Sequence, TypeVar, get_args, get_origin,
                    get_type_hints)

import json

from .environment import (POOL_SCHEMA, ChannelParams, Hotspot, Instance,
                          MissionConfig, channel_gain, instance_to_dict,
                          pool_to_dict, sample_instances, sample_pool)
from .errors import ConfigurationError
from .oracle import (ObjectiveWeights, Tour, demonstrate, make_tour, solve,
                     tour_to_dict)
from .planner import PlannerConfig, levenshtein, plan_mission, plan_to_dict
from .ql import (QTABLE_SCHEMA, QTable, QTrainConfig, construct_word,
                 qtable_to_dict, train_q)
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
        if self.seeds_per_size > 1000:
            # test_instance_seed gives sizes s and s + 1 the same seeds
            raise ConfigurationError(
                f"seeds_per_size {self.seeds_per_size} exceeds 1000, past "
                "which test instances of two sizes share seeds")
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


def _cut(text: str, limit: int = 100) -> str:
    return text if len(text) <= limit else text[:limit - 3] + "..."


def _excerpt(obj) -> str:
    """``obj`` in canonical JSON, cut to 100 characters."""
    return _cut(_canonical_json(obj))


def _line(item) -> str:
    """A file line without its end: a str as it is (a CSV line), any other
    value in canonical JSON."""
    return item if isinstance(item, str) else _canonical_json(item)


def write_jsonl_atomic(path: Path, lines: Iterable) -> None:
    """One ``_line`` per item, each written as soon as it is encoded, to a
    file that replaces ``path`` only once it is complete (write then
    rename). Pass a generator: then neither all the items nor all the
    lines are held at once."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as f:
        for item in lines:
            f.write(_line(item) + "\n")
    os.replace(tmp, path)


def write_json_atomic(path: Path, obj: dict) -> None:
    write_jsonl_atomic(path, [obj])


def read_json(path: Path) -> dict:
    """Parse one JSON artifact; unreadable or corrupt input is a
    configuration error that names the file."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError,
            RecursionError) as e:
        raise ConfigurationError(f"cannot read artifact {path}: {e}") from e


def load_artifact(path: Path, from_dict: Callable[[dict], T]) -> T:
    """Read a JSON object artifact and build what it holds. Unreadable or
    corrupt input and a wrong shape (not an object, a missing key, a short
    list, a wrong type or an invalid value, or contents that contradict
    each other) are configuration errors that name the file."""
    data = read_json(path)
    _check_header(path, data, {})
    try:
        return from_dict(data)
    except (AttributeError, LookupError, TypeError, ValueError,
            OverflowError) as e:
        raise ConfigurationError(
            f"malformed artifact {path}: {type(e).__name__}: {e}") from e


_REGENERATE = "delete it and run again to regenerate it"


def _check_header(path: Path, recorded: dict, want: dict,
                  remedy: str = _REGENERATE) -> None:
    """A kept artifact must record what this run computes it from: each
    key of the JSON object ``want``, in ``want``'s order; a key that
    ``recorded`` lacks counts as null. ``recorded`` must be a JSON object.
    A mismatch is a configuration error naming the file, the key and both
    values, or, for the key ``schema``, both schemas, and then ``remedy``."""
    if not isinstance(recorded, dict):
        raise ConfigurationError(f"{path} holds {_excerpt(recorded)}, not a "
                                 f"JSON object; {remedy}")
    for key, value in want.items():
        found = recorded.get(key)
        if found == value:
            continue
        if key == "schema":
            raise ConfigurationError(
                f"{path} has schema {found!r}, not {value!r} (an older "
                f"format or not this artifact); {remedy}")
        raise ConfigurationError(
            f"{path} was computed with {key} {_canonical_json(found)}, but "
            f"this run has {key} {_canonical_json(value)}; {remedy}")


def _export(path: Path, lines: Iterable, record: dict | None = None) -> None:
    """A file that this run recomputes: ``lines``, one per line as
    ``write_jsonl_atomic`` writes them, each a JSON object or a CSV line;
    a JSON file's first line records ``record``. Written when absent; when
    present, it must hold exactly these bytes. Lines are compared as bytes
    and parsed only where they differ: a first line that does not record
    ``record`` is named as ``_check_header`` names it; another number of
    lines, by both counts; any other line, by its number and, for a CSV
    line, both lines cut to 100 characters, for a JSON line, the first
    field that differs (``_first_difference``, in the key order of the
    object this run writes) with both values, and a field of a world
    model's words also with the fingerprints (sha256) of both word
    lists."""
    if not path.exists():
        write_jsonl_atomic(path, lines)
        return
    lines = iter(lines)
    try:
        with open(path, "rb") as f:
            for n, (have, item) in enumerate(itertools.zip_longest(f, lines),
                                             start=1):
                if item is not None and have == (_line(item) + "\n").encode():
                    continue
                if have is None or item is None:
                    held = n - 1 + (have is not None) + sum(1 for _ in f)
                    count = n - 1 + (item is not None) + sum(1 for _ in lines)
                    raise ConfigurationError(
                        f"{path} holds {held} lines, but this run writes "
                        f"{count}; {_REGENERATE}")
                if isinstance(item, str):
                    was = have.decode(errors="replace").rstrip("\r\n")
                    if was != item:
                        raise ConfigurationError(
                            f"{path} line {n} holds {_cut(was)}, but this "
                            f"run writes {_cut(item)}; {_REGENERATE}")
                    found = None
                else:
                    try:
                        recorded = json.loads(have)
                    except (ValueError, RecursionError) as e:
                        raise ConfigurationError(
                            f"cannot read artifact {path}, line {n}: {e}"
                        ) from e
                    if n == 1:
                        _check_header(path, recorded, record or {})
                    found = _first_difference(recorded, item)
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
                        for d in (recorded, item)))
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
# keys it reads itself. Every record is derived from it (``_record``).
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
    scales, trained on every run. ``qtable.json``, one line that holds its
    record and the table, is its export (``_export``)."""
    q = train_q(list(zip(instances, tours)), cost_scales, cfg.ql, cfg.weights,
                cfg.ql_train_seed)
    record = {"schema": QTABLE_SCHEMA, **_record(cfg, "ql")}
    _export(out / "qtable.json", [{**record, **qtable_to_dict(q)}], record)
    return q


def test_instance_id(size: int, k: int) -> str:
    return f"s{size:03d}k{k:03d}"


def test_instance_seed(cfg: ExperimentConfig, size: int, k: int) -> int:
    """Distinct for every test instance while ``k`` < 1000 (the config
    allows at most 1000 ``seeds_per_size``)."""
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
    """The three methods on one test instance: its metrics rows, the JSON
    files that record it, and per row the tour's polyline (depot, hotspot
    centers in visiting order, depot)."""
    rows: list[MetricsRecord] = []
    artifacts: dict[str, dict] = {}
    polylines = []

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

    centers = {h.id: h.center_m for h in inst.hotspots}
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
        polylines.append([inst.depot_m, *(centers[i] for i in tour.order),
                          inst.depot_m])
    artifacts[f"instances/{iid}.json"] = instance_to_dict(inst)
    artifacts[f"traces/{iid}_ain.json"] = plan_to_dict(plan)
    return rows, artifacts, polylines


def stage_eval(cfg: ExperimentConfig, testing_pool, wm: WorldModel,
               qtable: QTable, out: Path) -> tuple[list[MetricsRecord], list]:
    """Run the three methods on every test instance. Returns the metrics
    rows and, per row, its tour's polyline, for the report. A present
    ``config.json`` must hold the eval's record; each instance's files and
    ``metrics.csv`` are exports (``_export``), and ``timings.csv`` and
    then ``config.json``, this run's config, are rewritten."""
    config_path = out / "config.json"
    metrics_path = out / "metrics.csv"
    if config_path.exists():
        _check_header(config_path, read_json(config_path),
                      {"schema": CONFIG_SCHEMA, **_record(cfg, "eval")},
                      f"it records the config of the eval outputs, such as "
                      f"{metrics_path}: delete it and them and run again")
    results = _map(_evaluate_one, iter_test_instances(cfg, testing_pool),
                   (wm, qtable, cfg), cfg.workers, chunksize=1)
    rows: list[MetricsRecord] = []
    polylines = []
    for task_rows, artifacts, task_polylines in results:
        rows.extend(task_rows)
        polylines.extend(task_polylines)
        for rel, obj in artifacts.items():
            _export(out / rel, [obj])

    records = [asdict(r) for r in rows]
    _export(metrics_path, [f"# schema: {METRICS_SCHEMA}",
                           *_csv_lines(METRICS_COLUMNS, records)])
    write_jsonl_atomic(out / "timings.csv", _csv_lines(
        ["method", "instance_id", "wall_clock_s"], records))
    write_json_atomic(config_path, config_to_dict(cfg))
    return rows, polylines


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


def _csv_lines(columns: Sequence[str], records: Iterable[dict]) -> list[str]:
    """A header of ``columns`` and one line per record (keys not in
    ``columns`` are left out); floats are written as their ``repr``."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    for rec in records:
        writer.writerow({k: (repr(v) if isinstance(v, float) else v)
                         for k, v in rec.items()})
    return buf.getvalue().splitlines()


def stage_report(rows: Sequence[MetricsRecord], polylines: Sequence,
                 out: Path) -> None:
    """Summaries, completion-time ratios and one trajectory file per tour,
    made from the eval's rows and polylines in memory; each file is an
    export (``_export``)."""
    for name, records in (("summary.csv", summarize(rows)),
                          ("ratios.csv", completion_ratios(rows))):
        _export(out / name, _csv_lines(list(records[0]), records))
    for r, points in zip(rows, polylines):
        _export(out / f"trajectories/{r.instance_id}_{r.method}.csv",
                _csv_lines(["x_m", "y_m"],
                           [{"x_m": x, "y_m": y} for x, y in points]))


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
    rows, polylines = stage_eval(cfg, testing_pool, wm, qtable, out)
    yield "eval", rows
    stage_report(rows, polylines, out)
    yield "report", rows


def run_pipeline(cfg: ExperimentConfig, last: str = "report"):
    """Run the stages of ``_stages`` in order, checking the artifacts that
    exist, and stop after the one named ``last``; returns what that stage
    yields."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, result in _stages(cfg, out):
        if name == last:
            return result
    raise ValueError(f"no pipeline stage named {last!r}")
