"""Experiment pipeline: pools, demonstrations, models, evaluation, report.

The stages run in one order, written once in ``_stages``; every entry
point runs a prefix of it (``run_pipeline``). Every artifact is a pure
function of the experiment config; rerunning a stage with the same
config reproduces its files byte for byte. Wall clock measurements go
to a separate timings file so the metrics CSV stays deterministic. Files
are written atomically (write then rename) and a stage is skipped when
its artifact already exists. A reused artifact must match the record of
what it was computed from, or the run stops with a configuration error
naming the file and both values. The records are:

- the pool's seed, user mean, mission, channel and size;
- the training instances' header;
- the weights of the demonstrations, and the instances they solved;
- the demonstrations and noise config behind the world model, whose
  letter statistics and training means must also be what ``learn``
  derives from those demonstrations and the training pool;
- the weights, demonstrations and Q-learning config behind the Q-table;
- ``config.json``, the whole config behind ``metrics.csv`` and the
  eval's other outputs (``tours/``, ``traces/``, ``instances/``), which
  the report is made from.

``output_dir`` and ``workers`` are never part of such a check.

The training instances and their demonstrations are JSON-lines files
with a header: the first line holds the schema and what every record
shares, and each following line holds one record. A record holds only
what nothing else determines; the rest is rebuilt from the header, the
record's place in the file and the upstream artifacts.

- ``training_instances.jsonl`` (``uavplan.instances.v3``): the header
  records ``channel``, ``mission``, ``depot_m``, ``training_pool_size``,
  ``train_instance_size``, ``train_seed_base`` and ``m_training``; record
  k is ``{"ids"}``, rebuilt against the training pool of ``pools.json``
  with seed ``train_seed_base + k``.
- ``oracle_tours.jsonl`` (``uavplan.tours.v4``): the header records the
  ``weights`` and what the solved instances were drawn from: the
  training instances' header plus the pool's ``pool_seed`` and
  ``mean_users``; record k is a tour's ``{"order"}``, rebuilt as
  ``make_tour(order, instance k, weights)``, the call ``solve`` ends
  with, so a reused demonstration equals the solved one bit for bit.

A file with another schema (such as an older one-object-per-line file),
a header that differs from the config, a record count other than the
run's, a training record with other than ``train_instance_size`` ids, an
id not in the pool, or a demonstration naming a hotspot that its
instance lacks or visiting one twice is a configuration error naming the
file and the line. A record's ``ids`` are not checked against what
its seed would sample: that means resampling every training instance,
which costs more than reloading the file (0.5-0.6 s against 0.19 s for
20,000 instances on a 2-CPU host).

The frozen dataclasses under ``ExperimentConfig`` are the only description
of the config: its JSON form is their ``asdict``, and reading one back
takes every default from them and rejects any key they do not declare.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar, get_type_hints

import json

from .environment import (ChannelParams, Hotspot, Instance, MissionConfig,
                          instance_from_dict, instance_from_record,
                          instance_record, instance_to_dict, pool_from_dict,
                          pool_to_dict, sample_instance, sample_pool)
from .errors import ConfigurationError
from .oracle import (ObjectiveWeights, Tour, make_tour, solve, tour_from_dict,
                     tour_record, tour_to_dict)
from .planner import PlannerConfig, levenshtein, plan_mission, plan_to_dict
from .ql import (QTable, QTrainConfig, construct_word, qtable_from_dict,
                 qtable_to_dict, train_q, training_fingerprint)
from .world_model import (NoiseConfig, Word, WorldModel, demonstration_fingerprint,
                          learn, model_from_dict, model_to_dict, word_from_tour)

METRICS_SCHEMA = "uavplan.metrics.v1"
METRICS_COLUMNS = ["method", "instance_id", "n_hotspots", "total_sum_rate_bps",
                   "completion_time_s", "tour_length_m", "similarity_to_oracle"]
METHODS = ("oracle", "ain", "mql")
INSTANCES_SCHEMA = "uavplan.instances.v3"
TOURS_SCHEMA = "uavplan.tours.v4"

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
        if any(s < 1 for s in self.test_sizes):
            raise ConfigurationError("test sizes must be >= 1")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.depot_m is not None and len(self.depot_m) != 2:
            raise ConfigurationError("depot_m must be [x, y] or null")

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


def _dataclass_from_dict(cls, d, prefix: str = ""):
    """Build dataclass ``cls`` from the keys present in ``d``; defaults come
    from the dataclass. Nested dataclass fields recurse, JSON lists become
    tuples (the config's sequences are tuples), and a key that is not a
    field is an error naming its dotted path."""
    if not isinstance(d, dict):
        raise ConfigurationError(f"config {prefix.rstrip('.') or 'root'} "
                                 "must be a JSON object")
    hints = get_type_hints(cls)
    names = {f.name for f in fields(cls)}
    kwargs = {}
    for key, value in d.items():
        if key not in names:
            raise ConfigurationError(f"unknown config key {prefix}{key}")
        if is_dataclass(hints[key]):
            value = _dataclass_from_dict(hints[key], value, f"{prefix}{key}.")
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


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
    except (OSError, ValueError, TypeError, KeyError) as e:
        raise ConfigurationError(f"cannot load config {path}: {e}") from e


# --- atomic artifact IO -------------------------------------------------------

def _canonical_json(obj) -> str:
    """The one JSON encoding of every artifact: sorted keys, no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigurationError(f"cannot read artifact {path}: {e}") from e


def read_jsonl(path: Path) -> list[dict]:
    """Parse a JSON-lines artifact, one object per line; errors as in
    ``read_json``, with the line number."""
    try:
        with open(path) as f:
            lines = list(f)
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigurationError(f"cannot read artifact {path}: {e}") from e
    out = []
    for n, line in enumerate(lines, start=1):
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError as e:
            raise ConfigurationError(
                f"cannot read artifact {path}, line {n}: {e}") from e
    return out


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
    except (AttributeError, LookupError, TypeError, ValueError) as e:
        raise ConfigurationError(
            f"malformed artifact {path}: {type(e).__name__}: {e}") from e


def _check_recorded(path: Path, what: str, recorded, current) -> None:
    """A reused artifact must record what this run would compute it from;
    a mismatch is a configuration error naming the file and both values."""
    if recorded != current:
        raise ConfigurationError(
            f"{path} was computed with {what} {_canonical_json(recorded)}, "
            f"but this run has {what} {_canonical_json(current)}; "
            "remove it or use another output_dir")


def _check_header(path: Path, recorded: dict, want: dict) -> None:
    """``_check_recorded`` for each key of ``want``, in JSON form (so a
    tuple equals the list it is written as); a key that ``recorded`` lacks
    counts as null."""
    for key, value in json.loads(_canonical_json(want)).items():
        _check_recorded(path, key, recorded.get(key), value)


def load_headed_jsonl(path: Path, schema: str, want: dict, count: int,
                      from_record: Callable[[int, dict], T]) -> list[T]:
    """Read a JSON-lines artifact with a header and build its records.

    The first line must hold ``schema`` and record ``want`` (see
    ``_check_header``), and ``count`` records must follow. Record k
    (counted from 0) is built with ``from_record(k, record)``. Another
    schema, a header that differs from ``want``, another record count and
    a malformed record are configuration errors that name the file, and
    for a record the line."""
    lines = read_jsonl(path)
    header = lines[0] if lines else None
    found = header.get("schema") if isinstance(header, dict) else None
    if found != schema:
        raise ConfigurationError(
            f"{path} has schema {found!r}, not {schema!r} (an older format "
            "or not this artifact); delete it and run again to regenerate it")
    _check_header(path, header, want)
    records = lines[1:]
    if len(records) != count:
        raise ConfigurationError(
            f"{path} holds {len(records)} records after its header, but this "
            f"run needs {count}; remove it or use another output_dir")
    built = []
    for k, rec in enumerate(records):
        try:
            built.append(from_record(k, rec))
        except (LookupError, TypeError, ValueError) as e:
            raise ConfigurationError(
                f"malformed artifact {path}, line {k + 2}: "
                f"{type(e).__name__}: {e}") from e
    return built


# --- pipeline stages ----------------------------------------------------------

def stage_pools(cfg: ExperimentConfig,
                out: Path) -> tuple[list[Hotspot], list[Hotspot]]:
    """Testing pool, with the training pool as its leading prefix so that
    trained letters keep their identity at test time."""
    path = out / "pools.json"
    if path.exists():
        testing = load_artifact(path, pool_from_dict, {
            "seed": cfg.pool_seed, "mean_users": cfg.mean_users,
            "mission": asdict(cfg.mission), "channel": asdict(cfg.channel)})
        _check_recorded(path, "hotspot count", len(testing),
                        cfg.testing_pool_size)
    else:
        testing = sample_pool(cfg.pool_seed, cfg.testing_pool_size,
                              cfg.mean_users, cfg.mission, cfg.channel)
        write_json_atomic(path, pool_to_dict(testing, cfg.pool_seed,
                                             cfg.mean_users, cfg.mission,
                                             cfg.channel))
    return testing, testing[:cfg.training_pool_size]


def _instances_header(cfg: ExperimentConfig) -> dict:
    """What every training instance is drawn from besides its seed."""
    return {"channel": asdict(cfg.channel),
            "mission": asdict(cfg.mission),
            "depot_m": list(cfg.depot),
            "training_pool_size": cfg.training_pool_size,
            "train_instance_size": cfg.train_instance_size,
            "train_seed_base": cfg.train_seed_base,
            "m_training": cfg.m_training}


def stage_training_instances(cfg: ExperimentConfig, training_pool,
                             out: Path) -> list[Instance]:
    """Training instance k is drawn with seed ``train_seed_base + k`` from
    the training pool; reused, each is rebuilt from its ids and that
    seed."""
    path = out / "training_instances.jsonl"
    header = _instances_header(cfg)
    if path.exists():
        by_id = {h.id: h for h in training_pool}
        size = cfg.train_instance_size

        def from_record(k: int, d: dict) -> Instance:
            if len(d["ids"]) != size:
                raise ConfigurationError(
                    f"record holds {len(d['ids'])} hotspot ids, but "
                    f"train_instance_size is {size}")
            return instance_from_record(d, cfg.train_seed_base + k, by_id,
                                        cfg.depot, cfg.channel, cfg.mission)

        return load_headed_jsonl(path, INSTANCES_SCHEMA, header,
                                 cfg.m_training, from_record)
    instances = [
        sample_instance(cfg.train_seed_base + k, training_pool,
                        cfg.train_instance_size, cfg.depot, cfg.channel,
                        cfg.mission)
        for k in range(cfg.m_training)
    ]
    write_jsonl_atomic(path, itertools.chain(
        [{"schema": INSTANCES_SCHEMA, **header}],
        (instance_record(i) for i in instances)))
    return instances


def _solve_one(args) -> Tour:
    inst, weights = args
    return solve(inst, weights)


def stage_oracle(cfg: ExperimentConfig, instances: Sequence[Instance],
                 out: Path) -> list[Tour]:
    """Demonstration k solves training instance k; reused, it is rebuilt
    from its order as ``solve`` builds it."""
    path = out / "oracle_tours.jsonl"
    header = {"weights": asdict(cfg.weights), **_instances_header(cfg),
              "pool_seed": cfg.pool_seed, "mean_users": cfg.mean_users}
    if path.exists():
        return load_headed_jsonl(
            path, TOURS_SCHEMA, header, len(instances),
            lambda k, d: make_tour(d["order"], instances[k], cfg.weights))
    if cfg.workers > 1:
        # imported here: it loads multiprocessing, which workers=1 never uses
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            tours = list(pool.map(_solve_one,
                                  ((i, cfg.weights) for i in instances),
                                  chunksize=64))
    else:
        tours = [solve(i, cfg.weights) for i in instances]
    write_jsonl_atomic(path, itertools.chain(
        [{"schema": TOURS_SCHEMA, **header}], (tour_record(t) for t in tours)))
    return tours


def _first_difference(recorded, current, key: str = ""):
    """(dotted key, recorded value, current value) at the first leaf where
    two JSON values differ, keys in ``recorded``'s order; None when they
    are equal."""
    if isinstance(recorded, dict) and isinstance(current, dict):
        for k in [*recorded, *(k for k in current if k not in recorded)]:
            found = _first_difference(recorded.get(k), current.get(k),
                                      f"{key}.{k}" if key else k)
            if found is not None:
                return found
        return None
    return None if recorded == current else (key, recorded, current)


def stage_world(cfg: ExperimentConfig, tours: Sequence[Tour], training_pool,
                out: Path) -> WorldModel:
    """The model ``learn`` makes of the demonstrations and the training
    pool. A reused one must record this run's noise config and the
    demonstrations' fingerprint, and then hold every source ``learn``
    derives (letter statistics and training means); the first field that
    differs is named."""
    path = out / "world_model.json"
    if path.exists():
        wm = load_artifact(path, model_from_dict,
                           {"noise_config": asdict(cfg.noise)})
        _check_recorded(path, "demonstration fingerprint", wm.fingerprint,
                        demonstration_fingerprint(tours))
        found = _first_difference(
            model_to_dict(wm),
            model_to_dict(learn(tours, training_pool, cfg.noise, cfg.mission)))
        if found is not None:
            key, recorded, current = found
            raise ConfigurationError(
                f"{path} holds {key} {_canonical_json(recorded)}, but the "
                "demonstrations and the training pool give "
                f"{_canonical_json(current)}; remove it or use another "
                "output_dir")
        return wm
    wm = learn(tours, training_pool, cfg.noise, cfg.mission)
    write_json_atomic(path, model_to_dict(wm))
    return wm


def stage_ql(cfg: ExperimentConfig, instances: Sequence[Instance],
             tours: Sequence[Tour], out: Path) -> QTable:
    path = out / "qtable.json"
    training = list(zip(instances, tours))
    if path.exists():
        q = load_artifact(path, qtable_from_dict, {
            "weights": asdict(cfg.weights), "config": asdict(cfg.ql)})
        _check_recorded(path, "training fingerprint", q.fingerprint,
                        training_fingerprint(training))
        return q
    q = train_q(training, cfg.ql, cfg.weights, cfg.ql_train_seed)
    write_json_atomic(path, qtable_to_dict(q, cfg.ql, cfg.weights))
    return q


def test_instance_id(size: int, k: int) -> str:
    return f"s{size:03d}k{k:03d}"


def test_instance_seed(cfg: ExperimentConfig, size: int, k: int) -> int:
    return cfg.test_seed_base + size * 1000 + k


def iter_test_instances(cfg: ExperimentConfig, testing_pool):
    for size in cfg.test_sizes:
        for k in range(cfg.seeds_per_size):
            iid = test_instance_id(size, k)
            inst = sample_instance(test_instance_seed(cfg, size, k),
                                   testing_pool, size, cfg.depot,
                                   cfg.channel, cfg.mission)
            yield iid, inst


def _evaluate_one(iid: str, inst: Instance, wm: WorldModel, qtable: QTable,
                  cfg: ExperimentConfig):
    rows: list[MetricsRecord] = []
    artifacts: dict[str, dict] = {}

    t0 = time.perf_counter()
    oracle_tour = solve(inst, cfg.weights)
    oracle_wall = time.perf_counter() - t0
    oracle_word = word_from_tour(oracle_tour)

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


# Set once in each eval worker process by its pool initializer, so the world
# model, Q-table and config are sent once per worker rather than per task.
_worker_shared: tuple[WorldModel, QTable, ExperimentConfig] | None = None


def _init_eval_worker(wm: WorldModel, qtable: QTable,
                      cfg: ExperimentConfig) -> None:
    global _worker_shared
    _worker_shared = (wm, qtable, cfg)


def _evaluate_in_worker(task: tuple[str, Instance]):
    return _evaluate_one(*task, *_worker_shared)


def stage_eval(cfg: ExperimentConfig, testing_pool, wm: WorldModel,
               qtable: QTable, out: Path) -> list[MetricsRecord]:
    """Run the three methods on every test instance. Its record is
    ``config.json``, this run's config, written just before its outputs;
    a reused ``metrics.csv`` needs one that equals this run's config in
    every key but ``output_dir`` and ``workers``."""
    path = out / "metrics.csv"
    record = config_to_dict(cfg)
    if path.exists():
        config_path = out / "config.json"
        if not config_path.exists():
            raise ConfigurationError(
                f"{path} has no {config_path} to record the config it was "
                "computed with; remove it or use another output_dir")
        _check_header(path, load_artifact(config_path, dict),
                      {key: value for key, value in record.items()
                       if key not in ("output_dir", "workers")})
        return read_metrics(path)
    tasks = list(iter_test_instances(cfg, testing_pool))
    if cfg.workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.workers,
                                 initializer=_init_eval_worker,
                                 initargs=(wm, qtable, cfg)) as pool:
            results = list(pool.map(_evaluate_in_worker, tasks, chunksize=1))
    else:
        results = [_evaluate_one(iid, inst, wm, qtable, cfg)
                   for iid, inst in tasks]

    write_json_atomic(out / "config.json", record)
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
    tours = stage_oracle(cfg, instances, out)
    yield "oracle", tours
    wm = stage_world(cfg, tours, training_pool, out)
    yield "world", wm
    qtable = stage_ql(cfg, instances, tours, out)
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
