"""Experiment pipeline: pools, demonstrations, models, evaluation, report.

The stages run in one order, written once in ``_stages``; every entry
point runs a prefix of it (``run_pipeline``). Every artifact is a pure
function of the experiment config; rerunning a stage with the same
config reproduces its files byte for byte. Wall clock measurements go
to a separate timings file so the metrics CSV stays deterministic. Files
are written atomically (write then rename). This module alone writes,
rebuilds and checks artifacts, and it alone spreads work over worker
processes: the eval's test instances (``_map``).

A stage's record is the config values it is computed from: one table,
``_READS``, gives each stage its upstream stages and the config keys it
reads itself, and ``_record`` joins the keys along the chain, upstream
keys first (a verifying trace in the sense of Mokhov, Mitchell & Peyton
Jones, *Build systems a la carte*, ICFP 2018, that holds the values
themselves). Every stage computes on every run, and every file it leaves
but ``timings.csv`` is an export (``_export``): written when absent, one
line per JSON object or CSV line, and when present, byte for byte what
this run writes. A file that differs stops the run with a configuration
error that names the file and what differs (another line count, or the
first differing line and, in a JSON line, the first differing key path
with both values, ``_first_difference``) and says to delete it and run
again. The files whose first line holds a record, ahead of what is
computed from it, so that another config value is named at its key:

- ``pools.json`` (``uavplan.pool.v2``): the schema and the pools record
  (``pool_seed``, ``mean_users``, ``mission``, ``channel``), then the
  sampled hotspots;
- ``training_instances.jsonl`` (``uavplan.instances.v4``): a header, the
  schema and the record (``training_pool_size``, ``train_instance_size``,
  ``train_seed_base`` and ``m_training``, which alone determine the ids),
  then per line k the ``{"ids"}`` of the instance drawn with seed
  ``train_seed_base + k`` (drawn in one batch), ascending, which takes this
  run's pool and depot;
- ``oracle_tours.jsonl`` (``uavplan.tours.v5``): a header, the schema and
  the oracle record (the pools and training instances records plus
  ``depot_m`` and ``weights``), then per line k the ``{"order"}`` of the
  tour that solves training instance k;
- ``world_model.json`` (``uavplan.world_model.v4``): what ``learn`` makes
  of the demonstrations and the training pool, its noise config too;
- ``qtable.json`` (``uavplan.qtable.v3``): the schema, the ql record (the
  oracle record plus ``ql`` and ``ql_train_seed``) and the Q-table;
- ``config.json`` (``uavplan.config.v1``): the schema and the eval record,
  every config key but ``output_dir`` and ``workers``. When present it is
  checked before any eval output, so that a run with other eval keys
  names the key first; when absent it is written after every eval output
  has been written or checked, so that a refused run leaves none.

The eval makes one record per test instance (``_Evaluation``): the
instance, each method's tour and metrics row, and the AIn plan's trace.
Its outputs (``tours/``, ``traces/``, ``instances/`` and ``metrics.csv``)
and the report's (``summary.csv``, ``ratios.csv`` and ``trajectories/``)
are exports too, each named and made from these records; the report reads
no file: ``completion_ratios`` divides the completion-time means of
``summarize``'s records. Only ``timings.csv`` (wall clock, telemetry) is
rewritten on every run. A CSV line is its fields joined by commas
(``_csv_lines``); no value the pipeline writes holds a comma, a quote or
a line break, so none is quoted.

A metrics row's ``similarity_to_oracle`` is 1 minus the edit distance of
the method's word to the oracle's over the longer length, by the
planner's chain dynamic program (``word_similarity``): words never
repeat a letter, and on such words that program is exact.

``run_pipeline`` makes the output directory, and the subdirectories that
the stages it runs write into, before the first stage, so that a path it
cannot write is refused before any work.

The training set keeps the form it is drawn in, one pool, one depot and
one C-contiguous (m, k) int64 array of rows: a training instance is a
row, its hotspots' ascending indices in the training pool
(``environment._sample_rows``), and no ``Instance`` is built for one,
nor a list kept. The oracle stage solves the rows in one batched call in
this process (``oracle.demonstrate``), which returns the demonstrations
as one record of columns (``oracle.Demonstrations``), with no ``Tour``
per row: the world stage reads its orders and costs (``learn``), and the
Q-learning stage, which trains on the same rows (``ql.train_q``), its
objectives and each instance's cost scale. Every set-up stage runs in
this process: ``workers`` spreads only the eval's test instances over
worker processes (``_map``).

Every JSON line is encoded by one ``json.JSONEncoder`` (``_canonical_json``,
kept with the package's JSON codec in ``environment``), whose one rule for
records is that a dataclass's JSON form is its fields:
the config, a record's config values, the pool's hotspots, each test
instance (``uavplan.instance.v1``: its fields and the schema) and each
test tour (``uavplan.tour.v1``: its fields, the schema and the weights)
are written by it, with no writer of their own, and so is
``world_model.json``'s one line, ``model_to_dict``'s object, whose
stored words (the model's letter tuples) and counts the encoder takes
whole; a present one that differs is named at its first differing key in
that object's order: the schema, then the words. The exceptions are the
lists that grow with the training set: each ``{"ids"}`` line of
``training_instances.jsonl`` and ``{"order"}`` line of
``oracle_tours.jsonl`` is formatted by ``_ids_line``, which gives the
encoder's bytes for a list of Python ints from their ``str``s, each pool
id's ``str`` made once per file. A test holds it to the encoder.

The training rows and their demonstrations' record are freed once
Q-learning has run: no later stage reads them, and the eval runs without
them in memory.

The frozen dataclasses under ``ExperimentConfig`` are the only description
of the config. Every JSON object the package reads back is read by one
checked reader (``environment._record_from_dict``, over ``_from_json``):
the config (``config_from_dict``), an instance given to ``uavplan plan``
(``instance_from_dict``), a world model given to it
(``world_model.model_from_dict``) and an evaluated tour
(``oracle.tour_from_dict``). It checks the schema (which a config and an
instance may omit, and a tour and a world model must hold), takes every
default from the dataclasses and rejects any key they do not declare,
any declared key without a default that is missing, any value whose
JSON type does not fit the key's declared type (a NaN or infinite number
fits none, and an integer for a number key is read as that float, unless
no float holds it), and any value that a dataclass's own check refuses,
such as a channel or an altitude whose rates overflow float arithmetic,
or a mission under which the longest tour of the largest test or
training size may have no finite completion time (``_check_tour_time``,
which ``uavplan plan`` applies to its instance); each names the dotted
key. The command-line overrides are merged into the config file's object
before it is read (``load_config``).
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

import json

from .environment import (ChannelParams, Hotspot, Instance, MissionConfig,
                          Point, _canonical_json, _cut, _excerpt, _fields,
                          _quoting_json, _record_from_dict, _sample_rows,
                          channel_gain, sample_instances, sample_pool)
from .errors import ConfigurationError, NumericError
from .oracle import (TOUR_SCHEMA, Demonstrations, ObjectiveWeights, Tour,
                     demonstrate, make_tour, solve)
from .planner import (PlannerConfig, _chain_distance, plan_mission,
                      plan_to_dict)
from .ql import QTable, QTrainConfig, construct_word, qtable_to_dict, train_q
from .world_model import NoiseConfig, Word, WorldModel, learn, model_to_dict

# after the package's modules: a process that compiles them (with no
# bytecode cache) peaks 0.3 MB higher when numpy is resident while
# environment.py compiles
import numpy as np

METRICS_SCHEMA = "uavplan.metrics.v1"
METRICS_COLUMNS = ["method", "instance_id", "n_hotspots", "total_sum_rate_bps",
                   "completion_time_s", "tour_length_m", "similarity_to_oracle"]
METHODS = ("oracle", "ain", "mql")
POOL_SCHEMA = "uavplan.pool.v2"
INSTANCES_SCHEMA = "uavplan.instances.v4"
TOURS_SCHEMA = "uavplan.tours.v5"
INSTANCE_SCHEMA = "uavplan.instance.v1"

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
        side = self.mission.area_side_m
        _check_tour_time(self.mission, self.depot,
                         [(0.0, 0.0), (0.0, side), (side, 0.0), (side, side)],
                         max(*self.test_sizes, self.train_instance_size),
                         f"config mission.area_side_m {side!r}")

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


def _check_tour_time(mission: MissionConfig, depot: Point,
                     points: Sequence[Point], n: int, where: str) -> None:
    """Refuse a mission under which a tour of ``n`` hotspots among
    ``points`` (the area's corners, or an instance's hotspots) from
    ``depot`` may have no finite completion time. Such a tour has n + 1
    legs, the two at the depot each at most as long as the farthest point
    from it, the others at most the widest pair of points, and dwells n
    times. Legs are bounded in seconds, each divided by the speed before
    they are summed, so that a tour whose length in metres overflows, or
    is NaN (a NaN depot, which only the Python API can give), is left to
    the oracle, which refuses it."""
    speed = mission.uav_speed_m_per_s
    far = max(math.dist(depot, p) for p in points) / speed
    wide = max(math.dist(p, q) for p in points for q in points) / speed
    if math.isinf(2 * far + (n - 1) * wide + n * mission.dwell_time_s):
        raise ConfigurationError(
            f"{where}: a tour of {n} hotspots has no finite completion "
            f"time at mission.dwell_time_s {mission.dwell_time_s!r} and "
            f"mission.uav_speed_m_per_s {speed!r}")


def completion_time(t: Tour, mission: MissionConfig) -> float:
    """Travel time of the full closed tour plus per-hotspot dwell."""
    return completion_time_from(t.total_cost_m, len(t.order), mission)


def word_similarity(w1: Word, w2: Word) -> float:
    """1 - edit_distance / max length; 1.0 for two empty words. Words are
    repeat-free, so the distance is the planner's ``_chain_distance``."""
    longest = max(len(w1), len(w2))
    if longest == 0:
        return 1.0
    pos = {letter: i for i, letter in enumerate(w1.letters)}
    return 1.0 - _chain_distance(pos, len(w1), w2.letters) / longest


# --- config (de)serialization ------------------------------------------------

CONFIG_SCHEMA = "uavplan.config.v1"


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {"schema": CONFIG_SCHEMA, **asdict(cfg)}


def config_from_dict(d: dict) -> ExperimentConfig:
    return _record_from_dict(ExperimentConfig, CONFIG_SCHEMA, "config", d)


def instance_from_dict(d: dict) -> Instance:
    """A ``uavplan.instance.v1`` object, as ``stage_eval`` writes it."""
    return _record_from_dict(Instance, INSTANCE_SCHEMA, "instance", d)


def load_config(path: str | Path | None,
                overrides: dict | None = None) -> ExperimentConfig:
    """The config of the JSON object in the file ``path`` (of ``{}``
    without one) with ``overrides`` in place of its keys, where an
    override that is an object replaces only the keys it holds of its
    section. The merged object is read once (``config_from_dict``), so
    that an override stands in for the file value it replaces in every
    check. With a file, any error is a configuration error naming it."""
    try:
        d = {}
        if path:
            with open(path) as f:
                d = json.load(f)
        if isinstance(d, dict):
            d = {**d, **{key: {**d.get(key, {}), **value}
                         if isinstance(value, dict) else value
                         for key, value in (overrides or {}).items()}}
        return config_from_dict(d)
    except (OSError, ValueError, TypeError, KeyError, RecursionError) as e:
        if not path:
            raise
        raise ConfigurationError(f"cannot load config {path}: {e}") from e


# --- atomic artifact IO -------------------------------------------------------

def _encoded(item, where: Path | str,
             encode: Callable[..., str] = _canonical_json) -> str:
    """``encode(item)``, by an encoder that refuses NaN and the infinities:
    a value that JSON cannot hold is a numeric error that names ``where``
    the JSON was to go."""
    try:
        return encode(item)
    except ValueError as e:
        raise NumericError(f"cannot write {where}: a value is not finite "
                           f"({e})") from None


def _line(item, path: Path) -> str:
    """A line of the file ``path`` without its end: a str as it is (a CSV
    line, or a JSON line already encoded), any other value in canonical
    JSON (``_encoded``)."""
    return item if isinstance(item, str) else _encoded(item, path)


def _ids_line(key: str, texts: Iterable[str]) -> str:
    """``_canonical_json({key: ids})`` for a list of Python ints given as
    their ``str``s, ``texts``, at a fraction of its cost: the encoder
    writes an int as its ``str``. The lines of ``training_instances.jsonl``
    and ``oracle_tours.jsonl``, which format each pool id's ``str`` once
    and join the ids of every line through it."""
    return '{"%s":[%s]}' % (key, ",".join(texts))


def write_jsonl_atomic(path: Path, lines: Iterable) -> None:
    """One ``_line`` per item, each written as soon as it is encoded, to a
    file that replaces ``path`` only once it is complete (write then
    rename). Pass a generator: then neither all the items nor all the
    lines are held at once. A write that fails leaves no temporary file;
    an OS error is a configuration error that names the file and the OS
    error, and a value JSON cannot hold a numeric error (``_line``)."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w") as f:
            for item in lines:
                f.write(_line(item, path) + "\n")
        os.replace(tmp, path)
    except BaseException as e:
        # a write that failed leaves its temporary file behind
        with contextlib.suppress(OSError):
            tmp.unlink()
        if isinstance(e, OSError):
            raise ConfigurationError(f"cannot write {path}: {e}") from e
        raise


_REGENERATE = "delete it and run again to regenerate it"


def load_artifact(path: Path, from_dict: Callable[[dict], T]) -> T:
    """Read a JSON object artifact and build what it holds. Unreadable or
    corrupt input and a wrong shape (not an object, a missing key, a short
    list, a wrong type or an invalid value, or contents that contradict
    each other) are configuration errors that name the file."""
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError,
            RecursionError) as e:
        raise ConfigurationError(f"cannot read artifact {path}: {e}") from e
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path} holds {_excerpt(data)}, not a JSON "
                                 f"object; {_REGENERATE}")
    try:
        return from_dict(data)
    except (LookupError, ValueError, OverflowError) as e:
        raise ConfigurationError(
            f"malformed artifact {path}: {type(e).__name__}: {e}") from e


def _export(path: Path, lines: Iterable, remedy: str = _REGENERATE) -> None:
    """A file that this run recomputes: ``lines``, one per line as
    ``write_jsonl_atomic`` writes them, each a JSON object or a CSV line.
    Written when absent; when present, it must hold exactly these bytes.
    Lines are compared as bytes and parsed only where they differ: another
    number of lines is named by both counts; any other line by its number
    and, for a CSV line, both lines cut to 100 characters, for a JSON line
    (an object, or a str that begins with ``{``),
    the first field that differs (``_first_difference``, over the JSON
    form of the object this run writes, in its key order: a header's
    record keys, upstream keys first, and a dataclass's fields in their
    order) with both values, and a field of a world model's words
    also with the fingerprints (sha256) of both word lists, each encoded
    with NaN and the infinities quoted as they are (``_quoting_json``), as
    a hand-edited file may hold them. Each message ends with ``remedy``."""
    if not path.exists():
        write_jsonl_atomic(path, lines)
        return
    lines = iter(lines)
    try:
        with open(path, "rb") as f:
            for n, (have, item) in enumerate(itertools.zip_longest(f, lines),
                                             start=1):
                if item is not None and have == (_line(item, path)
                                                 + "\n").encode():
                    continue
                if have is None or item is None:
                    held = n - 1 + (have is not None) + sum(1 for _ in f)
                    count = n - 1 + (item is not None) + sum(1 for _ in lines)
                    raise ConfigurationError(
                        f"{path} holds {held} lines, but this run writes "
                        f"{count}; {remedy}")
                if isinstance(item, str) and not item.startswith("{"):
                    was = have.decode(errors="replace").rstrip("\r\n")
                    if was != item:
                        raise ConfigurationError(
                            f"{path} line {n} holds {_cut(was)}, but this "
                            f"run writes {_cut(item)}; {remedy}")
                    found = None
                else:
                    try:
                        recorded = json.loads(have)
                    except (ValueError, RecursionError) as e:
                        raise ConfigurationError(
                            f"cannot read artifact {path}, line {n}: {e}"
                        ) from e
                    # this run's value in its JSON form, keys in its order
                    item = json.loads(item if isinstance(item, str) else
                                      json.dumps(item, default=_fields))
                    found = _first_difference(recorded, item)
                if found is None:
                    raise ConfigurationError(
                        f"{path} line {n} holds the values this run writes "
                        f"in another encoding; {remedy}")
                key, was, now = found
                note = ""
                if key.split(".")[0] == "words":
                    # imported here: OpenSSL's hashes, about 3 MB resident,
                    # serve this message alone
                    import hashlib
                    note = " (word list fingerprints {} and {})".format(*(
                        hashlib.sha256(_quoting_json(d.get("words"))
                                       .encode()).hexdigest()
                        for d in (recorded, item)))
                raise ConfigurationError(
                    f"{path} line {n} holds {key + ' ' if key else ''}"
                    f"{_excerpt(was)}, but this run writes {_excerpt(now)}"
                    f"{note}; {remedy}")
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
         workers: int) -> list[T]:
    """``fn(*task, *shared)`` for each task, in order. With more than one
    worker the calls run in a process pool, handed out one task at a time;
    the eval is its one caller (``stage_eval``)."""
    if workers <= 1:
        return [fn(*task, *shared) for task in tasks]
    # imported here: it loads multiprocessing, which workers=1 never uses
    import concurrent.futures
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker,
            initargs=(fn, shared)) as pool:
        return list(pool.map(_run_task, tasks))


# --- pipeline stages ----------------------------------------------------------

# What each stage reads, in pipeline order: the stages it is computed from,
# and the config keys it reads itself. Every record is derived from it
# (``_record``).
_READS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "pools": ((), ("pool_seed", "mean_users", "mission", "channel")),
    # the ids depend on nothing else; a row takes this run's pool and depot
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
    upstream keys first. A NaN or an infinity that a config built through
    the Python API holds is kept, for the stage that reads it to refuse."""
    upstream, own = _READS[stage]
    record = {}
    for name in upstream:
        record.update(_record(cfg, name))
    config = json.loads(_quoting_json(cfg))
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
    _export(out / "pools.json", [{**record, "hotspots": testing}])
    return testing, testing[:cfg.training_pool_size]


def stage_training_instances(cfg: ExperimentConfig, training_pool,
                             out: Path) -> np.ndarray:
    """Training instance k is drawn with seed ``train_seed_base + k`` from
    the training pool, on every run, as row k of one (``m_training``,
    ``train_instance_size``) int64 array: its hotspots' indices in the
    pool, ascending (``_sample_rows``). Returns the array.
    ``training_instances.jsonl``, a header and then each instance's ids, is
    their export (``_export``)."""
    seeds = range(cfg.train_seed_base, cfg.train_seed_base + cfg.m_training)
    rows = _sample_rows(seeds, len(training_pool), cfg.train_instance_size)
    texts = [str(h.id) for h in training_pool]
    header = {"schema": INSTANCES_SCHEMA, **_record(cfg, "training_instances")}
    _export(out / "training_instances.jsonl", itertools.chain(
        [header], (_ids_line("ids", map(texts.__getitem__, row.tolist()))
                   for row in rows)))
    return rows


def stage_oracle(cfg: ExperimentConfig, training_pool, rows: np.ndarray,
                 out: Path) -> Demonstrations:
    """Demonstration k solves training instance k, the row ``rows[k]``
    over the training pool from the config's depot, and comes with that
    instance's cost scale for Q-learning; the rows are solved on every
    run, in one batched call in this process (``demonstrate``), whatever
    ``workers`` is. Returns the demonstrations' record, as columns.
    ``oracle_tours.jsonl``, a header and then each demonstration's order,
    is their export (``_export``)."""
    demos = demonstrate(training_pool, cfg.depot, rows, cfg.weights)
    text = {h.id: str(h.id) for h in training_pool}
    header = {"schema": TOURS_SCHEMA, **_record(cfg, "oracle")}
    _export(out / "oracle_tours.jsonl", itertools.chain(
        [header], (_ids_line("order", map(text.__getitem__, order))
                   for order in demos.orders)))
    return demos


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


def stage_world(cfg: ExperimentConfig, demos: Demonstrations, training_pool,
                out: Path) -> WorldModel:
    """The model ``learn`` makes of the demonstrations and the training
    pool, learned on every run. ``world_model.json`` is its export
    (``_export``)."""
    wm = learn(demos, training_pool, cfg.noise, cfg.mission)
    _export(out / "world_model.json", [model_to_dict(wm)])
    return wm


def stage_ql(cfg: ExperimentConfig, training_pool, rows: np.ndarray,
             demos: Demonstrations, out: Path) -> QTable:
    """The Q-table ``train_q`` makes of the training rows and their
    demonstrations' objectives and cost scales, trained on every run.
    ``qtable.json``, one line that holds its record and the table, is its
    export (``_export``)."""
    q = train_q(training_pool, cfg.depot, rows, demos.objective,
                demos.cost_scale, cfg.ql, cfg.weights, cfg.ql_train_seed)
    _export(out / "qtable.json", [{**_record(cfg, "ql"), **qtable_to_dict(q)}])
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


@dataclass(frozen=True)
class _Evaluation:
    """The three methods on one test instance: the instance, each method's
    tour and metrics row in ``METHODS`` order, and the AIn plan's trace
    (``plan_to_dict``). Plain data, so that a worker sends it back cheaply;
    a method's word is its tour's order."""
    instance_id: str
    instance: Instance
    tours: tuple[Tour, ...]
    rows: tuple[MetricsRecord, ...]
    trace: dict


def _evaluate_one(iid: str, inst: Instance, wm: WorldModel, qtable: QTable,
                  cfg: ExperimentConfig) -> _Evaluation:
    """The three methods on one test instance. A method's wall time spans
    the making of its tour: the oracle's ``solve``, AIn's ``plan_mission``,
    and MQL's ``construct_word`` and then ``make_tour``."""
    t0 = time.perf_counter()
    oracle_tour = solve(inst, cfg.weights)
    t1 = time.perf_counter()
    plan = plan_mission(inst, wm, cfg.planner, cfg.weights)
    t2 = time.perf_counter()
    mql_word = construct_word(qtable, plan.reference, inst, inst.seed + 17,
                              cfg.ql)
    mql_tour = make_tour(mql_word.letters, inst, cfg.weights)
    t3 = time.perf_counter()

    tours = (oracle_tour, plan.tour, mql_tour)
    oracle_word = Word(oracle_tour.order)
    rows = tuple(MetricsRecord(
        method=method,
        instance_id=iid,
        n_hotspots=len(inst.hotspots),
        total_sum_rate_bps=tour.total_profit_bps,
        completion_time_s=completion_time(tour, inst.mission),
        tour_length_m=tour.total_cost_m,
        similarity_to_oracle=word_similarity(Word(tour.order), oracle_word),
        wall_clock_s=wall,
    ) for method, tour, wall in zip(METHODS, tours,
                                    (t1 - t0, t2 - t1, t3 - t2)))
    return _Evaluation(iid, inst, tours, rows, plan_to_dict(plan))


def stage_eval(cfg: ExperimentConfig, testing_pool, wm: WorldModel,
               qtable: QTable, out: Path) -> list[_Evaluation]:
    """Run the three methods on every test instance and return one record
    per instance (``_Evaluation``), for the report. Each record gives its
    instance's files, named here and in this order: its tours in
    ``METHODS`` order, the instance, then the AIn trace. They,
    ``metrics.csv`` and ``config.json`` (the eval's config record) are
    exports (``_export``), and ``timings.csv`` is rewritten. A present
    ``config.json`` is checked before any output, and an absent one is
    written last, so that a refused run leaves none."""
    config_path = out / "config.json"
    metrics_path = out / "metrics.csv"
    config = [{"schema": CONFIG_SCHEMA, **_record(cfg, "eval")}]
    remedy = (f"it records the config of the eval outputs, such as "
              f"{metrics_path}: delete it and them and run again")
    config_present = config_path.exists()
    if config_present:
        _export(config_path, config, remedy)
    evaluations = _map(_evaluate_one, iter_test_instances(cfg, testing_pool),
                       (wm, qtable, cfg), cfg.workers)
    for e in evaluations:
        for method, tour in zip(METHODS, e.tours):
            _export(out / f"tours/{e.instance_id}_{method}.json",
                    [{"schema": TOUR_SCHEMA, **vars(tour),
                      "weights": cfg.weights}])
        _export(out / f"instances/{e.instance_id}.json",
                [{"schema": INSTANCE_SCHEMA, **vars(e.instance)}])
        _export(out / f"traces/{e.instance_id}_ain.json", [e.trace])

    records = [asdict(r) for e in evaluations for r in e.rows]
    _export(metrics_path, [f"# schema: {METRICS_SCHEMA}",
                           *_csv_lines(METRICS_COLUMNS, records)])
    write_jsonl_atomic(out / "timings.csv", _csv_lines(
        ["method", "instance_id", "wall_clock_s"], records))
    if not config_present:
        _export(config_path, config, remedy)
    return evaluations


def _mean_ci(values: Sequence[float]) -> tuple[float, float]:
    mean = statistics.fmean(values)
    if len(values) < 2:
        return mean, 0.0
    half = 1.96 * statistics.stdev(values) / math.sqrt(len(values))
    return mean, half


def summarize(rows: Sequence[MetricsRecord]) -> list[dict]:
    """Per (size, method) means with normal-approximation 95% intervals,
    by size and then in ``METHODS`` order; the rows are grouped in one
    pass, keeping their order."""
    groups: dict[int, dict[str, list[MetricsRecord]]] = {}
    for r in rows:
        groups.setdefault(r.n_hotspots, {}).setdefault(r.method, []).append(r)
    out = []
    for size in sorted(groups):
        for method in METHODS:
            sel = groups[size].get(method)
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


def completion_ratios(summary: Sequence[dict]) -> list[dict]:
    """Mean completion time of each method relative to the oracle, per size
    that has oracle rows, from ``summarize``'s records; nan where the method
    has no rows or the oracle's mean is not positive."""
    means = {(s["n_hotspots"], s["method"]): s["completion_mean_s"]
             for s in summary}
    nan = float("nan")
    return [{"n_hotspots": size,
             **{f"{other}_over_oracle": means.get((size, other), nan) / base
                if base > 0 else nan for other in ("ain", "mql")}}
            for (size, method), base in means.items() if method == "oracle"]


def _csv_lines(columns: Sequence[str], records: Iterable[dict]) -> list[str]:
    """A header of ``columns`` and one line per record (keys not in
    ``columns`` are left out), fields joined by commas: a float as its
    ``repr``, any other value as its ``str``. No value the pipeline writes
    holds a comma, a quote or a line break, so no field needs quoting."""
    return [",".join(columns), *(",".join(
        repr(v) if isinstance(v, float) else str(v)
        for v in (rec[c] for c in columns)) for rec in records)]


def stage_report(evaluations: Sequence[_Evaluation], out: Path) -> None:
    """Summaries, completion-time ratios and one trajectory file per tour
    (depot, the visited hotspots' centers in order, depot), made from the
    eval's records in memory; each file is an export (``_export``)."""
    summary = summarize([r for e in evaluations for r in e.rows])
    for name, records in (("summary.csv", summary),
                          ("ratios.csv", completion_ratios(summary))):
        _export(out / name, _csv_lines(list(records[0]), records))
    for e in evaluations:
        depot = e.instance.depot_m
        centers = {h.id: h.center_m for h in e.instance.hotspots}
        for method, tour in zip(METHODS, e.tours):
            _export(out / f"trajectories/{e.instance_id}_{method}.csv",
                    _csv_lines(["x_m", "y_m"], [
                        {"x_m": x, "y_m": y} for x, y
                        in (depot, *(centers[i] for i in tour.order), depot)]))


def _stages(cfg: ExperimentConfig, out: Path):
    """The pipeline: run each stage in order, yielding its name and what
    it returned; the eval and the report yield the metrics rows of the
    eval's records."""
    testing_pool, training_pool = stage_pools(cfg, out)
    yield "pools", (testing_pool, training_pool)
    training_rows = stage_training_instances(cfg, training_pool, out)
    yield "training_instances", training_rows
    demos = stage_oracle(cfg, training_pool, training_rows, out)
    yield "oracle", demos
    wm = stage_world(cfg, demos, training_pool, out)
    yield "world", wm
    qtable = stage_ql(cfg, training_pool, training_rows, demos, out)
    # no later stage reads the training set: free it before the eval
    del training_rows, demos
    yield "ql", qtable
    evaluations = stage_eval(cfg, testing_pool, wm, qtable, out)
    rows = [r for e in evaluations for r in e.rows]
    yield "eval", rows
    stage_report(evaluations, out)
    yield "report", rows


# The names ``_stages`` yields, in order: every stage with a record, then
# the report, which reads no config key.
_STAGE_NAMES = (*_READS, "report")
# The subdirectories of the output directory that a run up to a stage
# writes into: the eval's, and with the report also the report's.
_EVAL_DIRECTORIES = ("instances", "traces", "tours")
_DIRECTORIES = {"eval": _EVAL_DIRECTORIES,
                "report": (*_EVAL_DIRECTORIES, "trajectories")}


def run_pipeline(cfg: ExperimentConfig, last: str = "report"):
    """Run the stages of ``_stages`` in order, checking the artifacts that
    exist, and stop after the one named ``last``; returns what that stage
    yields. An unknown ``last`` is refused before anything is made. The
    output directory, and the subdirectories that the stages up to
    ``last`` write into, are made before the first stage, so that one that
    cannot be made stops the run before any work."""
    if last not in _STAGE_NAMES:
        raise ValueError(f"no pipeline stage named {last!r}")
    out = path = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for path in (out / name for name in _DIRECTORIES.get(last, ())):
            path.mkdir(exist_ok=True)
    except OSError as e:
        raise ConfigurationError(f"cannot write {path}: {e}") from e
    for name, result in _stages(cfg, out):
        if name == last:
            return result
