import builtins
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import pickle
import re
import shutil
import statistics
import subprocess
import sys
import warnings
import weakref
from array import array
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavplan.cli import STAGE_COMMANDS
from uavplan.cli import main as cli_main
from uavplan.environment import (ChannelParams, Instance, MissionConfig,
                                 sample_instances, sample_pool)
from uavplan import harness, oracle, ql, world_model
from uavplan.errors import ConfigurationError, ConsistencyError, NumericError
from uavplan.harness import (_READS, _STAGE_NAMES, INSTANCE_SCHEMA,
                             POOL_SCHEMA, TOUR_SCHEMA, ExperimentConfig,
                             MetricsRecord, _evaluate_one,
                             _canonical_json, _csv_lines, _first_difference,
                             _ids_line,
                             _record, completion_ratios, completion_time,
                             completion_time_from, config_from_dict,
                             config_to_dict, instance_from_dict,
                             iter_test_instances, load_artifact, load_config,
                             run_pipeline,
                             stage_oracle, stage_pools, stage_training_instances,
                             summarize, word_similarity, write_jsonl_atomic)
from uavplan.oracle import (ObjectiveWeights, Tour, demonstrate, make_tour,
                            solve, tour_from_dict)
from uavplan.planner import PlannerConfig, levenshtein
from uavplan.ql import QTrainConfig
from uavplan.world_model import NoiseConfig, Word

from harness_oracles import instance_to_dict, pool_to_dict, tour_to_dict
from oracle_oracles import instance_scales
from planner_oracles import expand_v1, expand_v2
from world_model_oracles import as_v3

PINNED = Path(__file__).parent / "data" / "small_run_sha256.json"


def small_config(out, **kw):
    defaults = dict(m_training=30, seeds_per_size=2, test_sizes=(5, 7),
                    ql=QTrainConfig(episodes=400), output_dir=str(out))
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def _row_instances(cfg, training_pool, rows) -> list[Instance]:
    """Training instance k, the row ``rows[k]`` over the training pool, as
    the ``Instance`` that ``sample_instances`` draws for it."""
    return [Instance(hotspots=tuple(training_pool[v] for v in row),
                     depot_m=cfg.depot, channel=cfg.channel,
                     mission=cfg.mission, seed=cfg.train_seed_base + k)
            for k, row in enumerate(rows)]


class TestMetricsPrimitives:
    def test_completion_time_arithmetic(self, make_instance):
        mission = MissionConfig(uav_speed_m_per_s=20.0, dwell_time_s=0.0)
        inst = make_instance([(500.0, 0.0)], depot=(0.0, 0.0))
        t = make_tour([1], inst, ObjectiveWeights())
        assert completion_time(t, mission) == pytest.approx(1000.0 / 20.0)

    def test_empty_tour_zero_time(self, make_instance, mission):
        inst = make_instance([(500.0, 0.0)])
        t = make_tour([], inst, ObjectiveWeights())
        assert completion_time(t, mission) == 0.0

    def test_additive_under_concatenation(self):
        mission = MissionConfig(uav_speed_m_per_s=15.0, dwell_time_s=3.0)
        rng = np.random.default_rng(2)
        for _ in range(100):
            l1, l2 = rng.uniform(0, 5000, size=2)
            n1, n2 = (int(x) for x in rng.integers(0, 20, size=2))
            whole = completion_time_from(l1 + l2, n1 + n2, mission)
            parts = (completion_time_from(l1, n1, mission)
                     + completion_time_from(l2, n2, mission))
            assert whole == pytest.approx(parts, rel=1e-12)

    def test_sum_rate_empty(self, make_instance):
        inst = make_instance([(10.0, 0.0)])
        t = make_tour([], inst, ObjectiveWeights())
        assert t.total_profit_bps == 0.0

    def test_sum_rate_order_independent(self, make_instance):
        inst = make_instance([(10.0, 0.0), (20.0, 0.0), (30.0, 0.0)],
                             profits=[1.0, 2.0, 4.0])
        a = make_tour([1, 2, 3], inst, ObjectiveWeights())
        b = make_tour([3, 1, 2], inst, ObjectiveWeights())
        assert a.total_profit_bps == b.total_profit_bps == 7.0

    def test_similarity_identity_and_symmetry(self):
        w1 = Word.from_letters([1, 2, 3, 4])
        w2 = Word.from_letters([1, 3, 2, 4])
        assert word_similarity(w1, w1) == 1.0
        assert word_similarity(w1, w2) == word_similarity(w2, w1)
        # two substitutions out of four letters
        assert word_similarity(w1, w2) == pytest.approx(0.5)

    def test_similarity_empty_words(self):
        e = Word.from_letters([])
        assert word_similarity(e, e) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 60).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, n - 1), max_size=30, unique=True),
        st.lists(st.integers(0, n - 1), max_size=30, unique=True))))
    def test_similarity_is_one_minus_relative_edit_distance(self, pair):
        """On repeat-free words, empty ones too, the similarity is the one
        the full edit distance table gives."""
        w1, w2 = (Word.from_letters(w) for w in pair)
        longest = max(len(w1), len(w2))
        expected = 1.0 - levenshtein(w1, w2) / longest if longest else 1.0
        assert word_similarity(w1, w2) == expected


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = small_config(tmp_path / "o", workers=2, mean_users=3.5,
                           depot_m=(111.0, 222.0))
        back = config_from_dict(config_to_dict(cfg))
        assert back == cfg

    def test_load_from_file(self, tmp_path):
        cfg = small_config(tmp_path / "o")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config_to_dict(cfg)))
        assert load_config(p) == cfg

    def test_bad_file_is_config_error(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        from uavplan.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            load_config(p)

    def test_depot_defaults_to_area_center(self):
        cfg = ExperimentConfig()
        assert cfg.depot == (1000.0, 1000.0)

    def test_test_instances_have_distinct_seeds(self):
        """At the largest ``seeds_per_size`` the config allows, 1000, the
        test instances of consecutive sizes still have distinct seeds."""
        # imported here: pytest would collect a test_* name at module level
        from uavplan.harness import test_instance_seed
        cfg = ExperimentConfig(test_sizes=(5, 6), seeds_per_size=1000)
        seeds = {test_instance_seed(cfg, size, k) for size in cfg.test_sizes
                 for k in range(cfg.seeds_per_size)}
        assert len(seeds) == 2000


class TestPipeline:
    def test_smoke_run_produces_artifacts(self, tmp_path):
        cfg = small_config(tmp_path / "run")
        rows = run_pipeline(cfg)
        out = Path(cfg.output_dir)
        for name in ("pools.json", "training_instances.jsonl",
                     "oracle_tours.jsonl", "world_model.json", "qtable.json",
                     "metrics.csv", "timings.csv", "summary.csv", "ratios.csv"):
            assert (out / name).exists(), name
        assert len(rows) == 3 * 2 * 2  # methods x seeds x sizes
        assert all(0.0 <= r.similarity_to_oracle <= 1.0 for r in rows)
        # trajectory polylines exported for every row
        assert len(list((out / "trajectories").glob("*.csv"))) == len(rows)

    def test_oracle_rows_have_similarity_one(self, tmp_path):
        cfg = small_config(tmp_path / "run")
        rows = run_pipeline(cfg)
        assert all(r.similarity_to_oracle == 1.0
                   for r in rows if r.method == "oracle")

    def test_sum_rate_identity_when_all_visited(self, tmp_path):
        cfg = small_config(tmp_path / "run")
        rows = run_pipeline(cfg)
        by_instance = {}
        for r in rows:
            by_instance.setdefault(r.instance_id, {})[r.method] = r
        for group in by_instance.values():
            assert group["ain"].total_sum_rate_bps == \
                group["oracle"].total_sum_rate_bps

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_a = small_config(tmp_path / "a")
        cfg_b = small_config(tmp_path / "b")
        run_pipeline(cfg_a)
        run_pipeline(cfg_b)
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b

    def test_rerun_rewrites_a_deleted_metrics_csv(self, tmp_path):
        cfg = small_config(tmp_path / "run")
        run_pipeline(cfg)
        first = (tmp_path / "run" / "metrics.csv").read_bytes()
        # delete the eval output, keep the rest: the rerun writes it again
        (tmp_path / "run" / "metrics.csv").unlink()
        run_pipeline(cfg)
        assert (tmp_path / "run" / "metrics.csv").read_bytes() == first

    def test_rerun_builds_the_world_model_once(self, tmp_path, monkeypatch):
        """A rerun over an unchanged directory builds the world model once,
        in ``learn``, and keeps the bytes of world_model.json."""
        cfg = small_config(tmp_path / "run", test_sizes=(5,), seeds_per_size=1)
        run_pipeline(cfg)
        path = tmp_path / "run" / "world_model.json"
        before = path.read_bytes()
        built = []
        build = world_model._build

        def counted(*args):
            built.append(1)
            return build(*args)
        monkeypatch.setattr(world_model, "_build", counted)
        run_pipeline(cfg)
        assert len(built) == 1
        assert path.read_bytes() == before

    def test_metrics_round_trip(self, tmp_path):
        cfg = small_config(tmp_path / "run")
        rows = run_pipeline(cfg)
        loaded = _read_metrics(Path(cfg.output_dir) / "metrics.csv")
        assert len(loaded) == len(rows)
        for a, b in zip(loaded, rows):
            assert a["method"] == b.method and a["instance_id"] == b.instance_id
            assert float(a["completion_time_s"]) == b.completion_time_s

    def test_artifacts_record_the_weights_they_are_scored_with(self, tmp_path):
        weights = ObjectiveWeights(weight_alpha=0.5, weight_beta=0.5)
        cfg = small_config(tmp_path / "run", weights=weights)
        rows = run_pipeline(cfg)
        out = Path(cfg.output_dir)
        for r in rows:
            inst = instance_from_dict(json.loads(
                (out / f"instances/{r.instance_id}.json").read_text()))
            tour = json.loads(
                (out / f"tours/{r.instance_id}_{r.method}.json").read_text())
            assert tour["weights"] == asdict(weights)
            assert tour["objective"] == make_tour(tour["order"], inst,
                                                  weights).objective
        qtable = json.loads((out / "qtable.json").read_text())
        assert qtable["weights"] == asdict(weights)

    def test_parallel_workers_match_serial(self, tmp_path):
        """Every artifact but timings.csv has the same bytes at workers 1
        and 2."""
        serial = small_config(tmp_path / "s", workers=1)
        parallel = small_config(tmp_path / "p", workers=2)
        run_pipeline(serial)
        run_pipeline(parallel)
        a = _artifact_bytes(tmp_path / "s")
        b = _artifact_bytes(tmp_path / "p")
        assert a == b

    def test_evaluation_record_is_plain_data(self, tmp_path):
        """What a worker sends back for one test instance pickles to an
        equal record and holds no numpy array at any depth, so that no
        ``PlanResult`` and none of its numpy context crosses the process
        boundary at workers 2."""
        cfg = small_config(tmp_path / "run")
        testing_pool, _ = run_pipeline(cfg, "pools")
        wm, qtable = run_pipeline(cfg, "world"), run_pipeline(cfg, "ql")
        iid, inst = next(iter_test_instances(cfg, testing_pool))
        record = _evaluate_one(iid, inst, wm, qtable, cfg)
        assert pickle.loads(pickle.dumps(record)) == record

        def values(x):
            yield x
            if is_dataclass(x):
                x = [getattr(x, f.name) for f in fields(x)]
            elif isinstance(x, dict):
                x = [*x, *x.values()]
            if isinstance(x, (list, tuple)):
                for item in x:
                    yield from values(item)

        found = list(values(record))
        assert record.trace in found and record.rows[0] in found
        assert not any(isinstance(v, np.ndarray) for v in found)

    def test_same_bytes_with_cpu_dispatch_off(self, tmp_path):
        """The pipeline run in a process with every SIMD feature numpy
        dispatches on this host turned off, and OpenBLAS on its generic
        Nehalem kernels, writes every artifact but timings.csv with the
        bytes of a run in this process: neither numpy's ``exp`` (MQL's
        softmax) nor the BLAS under the surprise terms changes a byte."""
        from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                                   __cpu_features__)
        dispatched = " ".join(f for f in __cpu_dispatch__
                              if __cpu_features__.get(f))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(
            small_config(tmp_path / "off"))))
        script = ("import sys\n"
                  "from numpy._core._multiarray_umath import "
                  "__cpu_features__ as on\n"
                  "from uavplan.cli import main\n"
                  "active = [f for f in sys.argv[1].split() if on[f]]\n"
                  "assert not active, active\n"
                  "sys.exit(main(['pipeline', '--config', sys.argv[2]]))\n")
        src = Path(__file__).parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-c", script, dispatched, str(cfg_path)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(src),
                 "NPY_DISABLE_CPU_FEATURES": dispatched,
                 "OPENBLAS_CORETYPE": "Nehalem"})
        assert result.returncode == 0, result.stderr[-2000:]
        run_pipeline(small_config(tmp_path / "on"))
        assert _artifact_bytes(tmp_path / "off") == _artifact_bytes(
            tmp_path / "on")

    def test_a_run_loads_no_numpy_random_and_no_openssl(self, tmp_path):
        """A workers-1 pipeline and then ``uavplan plan``, in a process of
        their own, import neither ``numpy.random`` (the stream makes its
        own PCG64) nor ``hashlib``, its OpenSSL module or ``secrets``
        (``numpy.random`` loads them): together about 6 MB resident that
        no step of a run needs."""
        out = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(
            small_config(out, workers=1))))
        script = ("import json, sys\n"
                  "from uavplan.cli import main\n"
                  "cfg, out = sys.argv[1:]\n"
                  "assert main(['pipeline', '--config', cfg]) == 0\n"
                  "assert main(['plan', '--config', cfg, '--instance',\n"
                  "             out + '/instances/s005k000.json', '--model',\n"
                  "             out + '/world_model.json', '--trace',\n"
                  "             out + '/trace.json']) == 0\n"
                  "print(json.dumps(sorted(\n"
                  "    m for m in ('numpy.random', 'hashlib', '_hashlib',\n"
                  "                'secrets') if m in sys.modules)))\n")
        src = Path(__file__).parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-c", script, str(cfg_path), str(out)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 0, result.stderr[-2000:]
        assert json.loads(result.stdout.splitlines()[-1]) == []

    def test_one_hotspot_test_instances(self, tmp_path):
        """Test instances of one hotspot are allowed: every method visits
        it, so the three rows of each instance have similarity 1.0."""
        cfg = small_config(tmp_path / "one", test_sizes=(1,),
                           seeds_per_size=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 0
        rows = _read_metrics(tmp_path / "one" / "metrics.csv")
        assert sorted(r["method"] for r in rows) == ["ain", "mql", "oracle"]
        assert all(float(r["similarity_to_oracle"]) == 1.0 for r in rows)

    def test_a_fresh_run_reads_nothing_back(self, tmp_path, monkeypatch):
        """A run on an empty directory opens no file under it for reading:
        every stage, the report too, works from what it computed."""
        out = (tmp_path / "fresh").resolve()
        read = []
        real_open = io.open

        def spy(file, mode="r", *args, **kwargs):
            if (("r" in mode or "+" in mode)
                    and isinstance(file, (str, os.PathLike))
                    and Path(file).resolve().is_relative_to(out)):
                read.append(os.fspath(file))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        monkeypatch.setattr(io, "open", spy)
        run_pipeline(small_config(out))
        monkeypatch.undo()
        assert read == []
        assert (out / "summary.csv").exists()


class TestFirstDifference:
    """``_first_difference`` names the first leaf where two JSON values
    differ by its dotted key, with both values."""

    def test_equal_values_give_none(self):
        value = {"a": [1, {"b": [2.5, None]}], "c": "x"}
        assert _first_difference(value, json.loads(json.dumps(value))) is None

    def test_nested_dict_and_list_path(self):
        recorded = {"words": [{"letters": [1, 2], "count": 3},
                              {"letters": [4, 5], "count": 1}]}
        current = {"words": [{"letters": [1, 2], "count": 3},
                             {"letters": [4, 6], "count": 1}]}
        assert _first_difference(recorded, current) == \
            ("words.1.letters.1", 5, 6)

    def test_keys_in_current_order(self):
        recorded = {"b": 1, "a": 1}
        current = {"a": 2, "b": 2}
        assert _first_difference(recorded, current) == ("a", 1, 2)

    def test_lists_of_unequal_length_at_their_own_key(self):
        assert _first_difference({"a": {"l": [1, 2]}},
                                 {"a": {"l": [1, 2, 3]}}) == \
            ("a.l", [1, 2], [1, 2, 3])

    def test_key_only_in_recorded(self):
        assert _first_difference({"a": 1, "extra": {"x": 0}}, {"a": 1}) == \
            ("extra", {"x": 0}, None)

    def test_key_only_in_current(self):
        assert _first_difference({"a": 1}, {"a": 1, "new": [0]}) == \
            ("new", None, [0])


def _old_json(obj) -> str:
    """The canonical encoding of plain JSON values, without the encoder's
    dataclass rule."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class TestRecordEncoding:
    """A record of dataclasses is written as their fields by the one
    encoder rule: the bytes are those of the hand-made writers that it
    replaced (harness_oracles.py), and ``instance_from_dict`` reads every
    instance back."""

    MISSIONS = (MissionConfig(),
                MissionConfig(uav_altitude_m=120.0, uav_speed_m_per_s=15.0,
                              dwell_time_s=2.5, area_side_m=1500.0),
                MissionConfig(uav_altitude_m=350.0, uav_speed_m_per_s=7.25,
                              dwell_time_s=30.0, area_side_m=333.3))
    WEIGHTS = (ObjectiveWeights(),
               ObjectiveWeights(weight_alpha=0.5, weight_beta=0.5,
                                cost_scale=1234.5, profit_scale=1.0e6))

    @settings(max_examples=40, deadline=None)
    @given(mission=st.sampled_from(MISSIONS), weights=st.sampled_from(WEIGHTS),
           pool_seed=st.integers(0, 2**40), size=st.integers(1, 50),
           seeds=st.lists(st.integers(0, 2**40), min_size=1, max_size=3,
                          unique=True),
           depot=st.one_of(st.none(), st.tuples(
               st.floats(-1e4, 1e4, allow_subnormal=False),
               st.floats(-1e4, 1e4, allow_subnormal=False))))
    def test_records_encode_as_the_hand_made_writers(
            self, chan, mission, weights, pool_seed, size, seeds, depot):
        pool = sample_pool(pool_seed, 50, 5.0, mission, chan)
        if depot is None:
            half = mission.area_side_m / 2.0
            depot = (half, half)
        assert (_canonical_json({"schema": POOL_SCHEMA, "hotspots": pool})
                == _old_json(pool_to_dict(pool)))
        for inst in sample_instances(seeds, pool, size, depot, chan, mission):
            text = _canonical_json({"schema": INSTANCE_SCHEMA, **vars(inst)})
            assert text == _old_json(instance_to_dict(inst))
            assert instance_from_dict(json.loads(text)) == inst
            tour = solve(inst, weights)
            assert (_canonical_json({"schema": TOUR_SCHEMA, **vars(tour),
                                     "weights": weights})
                    == _old_json(tour_to_dict(tour, weights)))

    def test_only_dataclasses_are_encoded_as_their_fields(self):
        assert _canonical_json({"w": ObjectiveWeights()}) == _old_json(
            {"w": asdict(ObjectiveWeights())})
        with pytest.raises(TypeError, match="type set is not JSON"):
            _canonical_json({"ids": {1, 2}})


class TestReport:
    def test_summary_matches_recomputation(self, tmp_path):
        cfg = small_config(tmp_path / "run")
        rows = run_pipeline(cfg)
        for rec in summarize(rows):
            sel = [r.completion_time_s for r in rows
                   if r.n_hotspots == rec["n_hotspots"]
                   and r.method == rec["method"]]
            assert rec["completion_mean_s"] == pytest.approx(
                float(np.mean(sel)), rel=1e-12)
            assert rec["n_instances"] == len(sel)

    @staticmethod
    def rowwise_ratios(rows):
        """The ratios computed from the rows themselves, filtering them per
        (size, method): the definition ``completion_ratios`` replaces."""
        out = []
        for size in sorted({r.n_hotspots for r in rows}):
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
                    statistics.fmean(sel) / base_mean
                    if sel and base_mean > 0 else float("nan"))
            out.append(entry)
        return out

    def test_ratios_from_the_summary_match_the_rows(self):
        """Same keys, same order and the same bits (nan for nan) as the
        row-based ratios: with sizes out of order, a size whose oracle
        takes no time, a size with no ain rows, and one with no oracle."""
        rng = np.random.default_rng(5)
        rows = []
        for size, methods, zero in ((7, ("oracle", "ain", "mql"), False),
                                    (3, ("oracle", "ain", "mql"), True),
                                    (5, ("mql", "oracle"), False),
                                    (9, ("ain", "mql"), False)):
            for k in range(3):
                for method in methods:
                    time_s = 0.0 if zero and method == "oracle" else float(
                        rng.uniform(10.0, 900.0))
                    rows.append(MetricsRecord(method, f"s{size}k{k}", size,
                                              1.0, time_s, 1.0, 1.0, 0.0))
        got = completion_ratios(summarize(rows))
        want = self.rowwise_ratios(rows)
        assert [list(g) for g in got] == [list(w) for w in want]
        assert [{k: repr(v) for k, v in g.items()} for g in got] == \
            [{k: repr(v) for k, v in w.items()} for w in want]
        assert [g["n_hotspots"] for g in got] == [3, 5, 7]
        assert math.isnan(got[0]["ain_over_oracle"])
        assert math.isnan(got[1]["ain_over_oracle"])

    def test_ratios_of_a_run_match_the_rows(self, tmp_path):
        rows = run_pipeline(small_config(tmp_path / "run"), "eval")
        assert completion_ratios(summarize(rows)) == self.rowwise_ratios(rows)

    @staticmethod
    def dictwriter_lines(columns, records):
        """The lines as ``csv.DictWriter`` writes them: the writer that
        ``_csv_lines`` replaces."""
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        for rec in records:
            writer.writerow({k: (repr(v) if isinstance(v, float) else v)
                             for k, v in rec.items()})
        return buf.getvalue().splitlines()

    def test_csv_lines_match_the_csv_module(self):
        columns = ["method", "n", "x_m", "y_m"]
        records = [
            {"method": "ain", "n": 5, "x_m": float("nan"),
             "y_m": float("inf"), "extra": "a,b"},
            {"method": "oracle", "n": -3, "x_m": -0.0, "y_m": 1e-05,
             "extra": 1.5},
            {"y_m": -float("inf"), "x_m": 1234567.25, "n": 0,
             "method": "s005k000"}]
        lines = _csv_lines(columns, records)
        assert lines == self.dictwriter_lines(columns, records)
        assert lines[1:3] == ["ain,5,nan,inf", "oracle,-3,-0.0,1e-05"]

    def test_single_record_has_zero_ci(self, tmp_path):
        cfg = small_config(tmp_path / "run", seeds_per_size=1, test_sizes=(5,))
        rows = run_pipeline(cfg)
        for rec in summarize(rows):
            assert rec["n_instances"] == 1
            assert rec["completion_ci_s"] == 0.0

    def test_trajectory_polyline_closes_at_depot(self, tmp_path):
        """Every trajectory file, one per metrics row, is its tour's
        polyline rebuilt from the instance and tour files: the depot, the
        visited hotspots' centers in order and the depot again, each
        coordinate a float's ``repr``."""
        cfg = small_config(tmp_path / "run")
        rows = run_pipeline(cfg)
        out = Path(cfg.output_dir)
        paths = sorted((out / "trajectories").glob("*.csv"))
        assert [p.name for p in paths] == sorted(
            f"{r.instance_id}_{r.method}.csv" for r in rows)
        for path in paths:
            iid, method = path.stem.split("_")
            inst = json.loads((out / f"instances/{iid}.json").read_text())
            order = json.loads(
                (out / f"tours/{iid}_{method}.json").read_text())["order"]
            centers = {h["id"]: h["center_m"] for h in inst["hotspots"]}
            depot = inst["depot_m"]
            points = [depot, *(centers[i] for i in order), depot]
            assert path.read_text().splitlines() == [
                "x_m,y_m", *(f"{x!r},{y!r}" for x, y in points)]


def _read_metrics(path: Path) -> list[dict]:
    """The rows of a metrics.csv, keyed by its header line."""
    with path.open() as f:
        return list(csv.DictReader(ln for ln in f if not ln.startswith("#")))


def _write_lines(path: Path, objs) -> None:
    """Write ``objs`` one per line as the pipeline encodes them, so that a
    damaged export differs only where the damage is."""
    path.write_text("".join(_canonical_json(o) + "\n" for o in objs))


class TestHeadedJsonl:
    """The header-plus-records files: training instances as pool ids
    (uavplan.instances.v4, seeded by their place in the file) and
    demonstrations as tour orders under one header that records the
    weights (uavplan.tours.v5)."""

    def test_write_jsonl_atomic_bytes_equal_joined_lines(self, tmp_path):
        objs = [{"schema": "x", "b": [1.5, -0.0, 1e-300], "a": None},
                {"ids": [3, 1, 2], "seed": 10 ** 12}, {"s": "\u00e9\n\"q\""},
                {}]
        path = tmp_path / "f.jsonl"
        write_jsonl_atomic(path, (o for o in objs))
        joined = "".join(_canonical_json(o) + "\n" for o in objs)
        assert path.read_bytes() == joined.encode()
        assert not (tmp_path / "f.jsonl.tmp").exists()
        write_jsonl_atomic(path, iter(()))
        assert path.read_bytes() == b""

    def test_a_write_that_succeeds_removes_nothing(self, tmp_path,
                                                   monkeypatch):
        """The rename moves the temporary file away, so only a write that
        fails removes it: a successful write calls no ``unlink``."""
        unlinked = []
        monkeypatch.setattr(Path, "unlink",
                            lambda self, *args: unlinked.append(self))
        write_jsonl_atomic(tmp_path / "f.jsonl", iter([{"a": 1}]))
        assert unlinked == []
        assert list(tmp_path.iterdir()) == [tmp_path / "f.jsonl"]

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["ids", "order"]),
           st.lists(st.one_of(st.integers(-2 ** 70, 2 ** 70),
                              st.integers(2 ** 63 - 2, 2 ** 64 + 2),
                              st.integers(-100, 100)), max_size=60))
    def test_id_lines_are_the_encoders(self, key, ids):
        """The id-list lines of ``training_instances.jsonl`` and
        ``oracle_tours.jsonl`` are formatted, not encoded: for lists of
        Python ints, empty, negative and past 2**63 too, given as their
        ``str``s, the bytes are the encoder's, as a tuple, a list or an
        iterator."""
        want = _canonical_json({key: ids})
        texts = list(map(str, ids))
        assert _ids_line(key, texts) == want
        assert _ids_line(key, tuple(texts)) == want
        assert _ids_line(key, map(str, ids)) == want

    def test_round_trip_gives_the_sampled_instances_and_solved_tours(
            self, tmp_path):
        """A rerun samples and solves again, and checks both files: it
        gives the same rows, tours and scales."""
        cfg = small_config(tmp_path / "rt", m_training=40,
                           depot_m=(150.0, 1750.0),
                           weights=ObjectiveWeights(0.5, 0.5))
        out = Path(cfg.output_dir)
        out.mkdir()
        _, training = stage_pools(cfg, out)
        sampled = stage_training_instances(cfg, training, out)
        solved = stage_oracle(cfg, training, sampled, out)
        assert solved.cost_scale == array("d", [
            instance_scales(i)[0]
            for i in _row_instances(cfg, training, sampled)])
        loaded = stage_training_instances(cfg, training, out)
        assert loaded.tolist() == sampled.tolist()
        assert stage_oracle(cfg, training, loaded, out) == solved
        # one header line, then one record per instance or tour
        for name in ("training_instances.jsonl", "oracle_tours.jsonl"):
            assert len((out / name).read_text().splitlines()) == 41

    def test_oracle_runs_in_one_process_at_any_worker_count(
            self, tmp_path, monkeypatch):
        """At workers 2 the demonstrations are solved in this process, in
        one batched call, and open no process pool: they give the tours
        and scales of workers 1, and ``oracle_tours.jsonl`` keeps its
        bytes."""
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("stage_oracle opened a process pool")

        def counted(hotspots, depot, rows, w):
            calls.append(len(rows))
            return demonstrate(hotspots, depot, rows, w)

        serial = small_config(tmp_path / "s", m_training=40)
        parallel = small_config(tmp_path / "p", m_training=40, workers=2)
        results = {}
        for cfg in (serial, parallel):
            out = Path(cfg.output_dir)
            out.mkdir()
            _, training = stage_pools(cfg, out)
            rows = stage_training_instances(cfg, training, out)
            calls = []
            with monkeypatch.context() as m:
                m.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
                m.setattr(harness, "demonstrate", counted)
                results[cfg.workers] = stage_oracle(cfg, training, rows, out)
            assert calls == [40]
        assert results[2] == results[1]
        assert ((tmp_path / "p" / "oracle_tours.jsonl").read_bytes()
                == (tmp_path / "s" / "oracle_tours.jsonl").read_bytes())

    def test_training_set_is_freed_before_the_eval(self, tmp_path,
                                                   monkeypatch):
        """No stage after Q-learning reads the training rows or their
        demonstrations: when the eval starts, the rows, the
        demonstrations' record and its objective column, which Q-learning
        read, are gone."""
        refs, alive = {}, []
        real = {name: getattr(harness, name) for name in (
            "stage_training_instances", "stage_oracle", "stage_eval")}

        def instances(*args):
            got = real["stage_training_instances"](*args)
            refs["rows"] = weakref.ref(got)
            return got

        def oracle(*args):
            demos = real["stage_oracle"](*args)
            refs["record"] = weakref.ref(demos)
            refs["objective"] = weakref.ref(demos.objective)
            return demos

        def evaluate(*args):
            alive.extend(name for name, ref in refs.items() if ref())
            return real["stage_eval"](*args)

        monkeypatch.setattr(harness, "stage_training_instances", instances)
        monkeypatch.setattr(harness, "stage_oracle", oracle)
        monkeypatch.setattr(harness, "stage_eval", evaluate)
        run_pipeline(small_config(tmp_path / "o", test_sizes=(5,),
                                  seeds_per_size=1), "eval")
        assert sorted(refs) == ["objective", "record", "rows"] and alive == []

    def test_no_word_object_is_built_for_the_world_model(self, tmp_path,
                                                         monkeypatch):
        """A stored word is its letter tuple: a run up to the world model,
        and reading its ``world_model.json`` back, build no ``Word``, and
        both models hold the same tuples of Python ints."""
        built = []
        real = Word.__post_init__

        def counted(word):
            built.append(word)
            real(word)

        learned = []

        def learn(*args):
            learned.append(world_model.learn(*args))
            return learned[-1]

        monkeypatch.setattr(Word, "__post_init__", counted)
        monkeypatch.setattr(harness, "learn", learn)
        cfg = small_config(tmp_path / "w")
        run_pipeline(cfg, "world")
        read = world_model.model_from_dict(json.loads(
            (tmp_path / "w" / "world_model.json").read_text()))
        assert built == []
        assert read.words == learned[0].words
        for wm in (learned[0], read):
            assert all(type(w) is tuple and set(map(type, w)) == {int}
                       for w in wm.words)

    def test_no_instance_is_built_for_the_training_set(self, tmp_path,
                                                       monkeypatch):
        """The training set stays rows from the draw to Q-learning: a run
        up to the Q-learning stage builds no ``Instance``, with the
        training rows drawn stream by stream or by the draw kernel."""
        built = []
        real = Instance.__post_init__

        def counted(inst):
            built.append(inst)
            real(inst)

        monkeypatch.setattr(Instance, "__post_init__", counted)
        for m_training in (10, 40):
            run_pipeline(small_config(tmp_path / str(m_training),
                                      m_training=m_training), "ql")
        assert built == []

    def test_no_tour_is_built_for_the_demonstrations(self, tmp_path,
                                                     monkeypatch):
        """The demonstrations stay columns from the oracle to Q-learning: a
        run up to the Q-learning stage builds no ``Tour``, with the
        training rows drawn stream by stream or by the draw kernel."""
        built = []
        real = Tour.__post_init__

        def counted(tour):
            built.append(tour)
            real(tour)

        monkeypatch.setattr(Tour, "__post_init__", counted)
        for m_training in (10, 40):
            run_pipeline(small_config(tmp_path / str(m_training),
                                      m_training=m_training), "ql")
        assert built == []
        # the counter counts: the eval's one solve per instance builds one
        run_pipeline(small_config(tmp_path / "eval", test_sizes=(5,),
                                  seeds_per_size=1), "eval")
        assert built

    def test_oracle_and_q_learning_read_one_table_each(self, tmp_path,
                                                       monkeypatch):
        """The pool's table of legs has one builder, ``oracle._table``: a
        run up to the Q-learning stage builds it twice, for ``demonstrate``
        and for ``train_q``, each time over the training pool from the
        config's depot."""
        calls, pools = [], []
        real_table, real_pools = oracle._table, harness.stage_pools

        def table(hotspots, depot):
            calls.append((list(hotspots), depot))
            return real_table(hotspots, depot)

        def stage_pools(*args):
            pools.append(real_pools(*args))
            return pools[-1]

        monkeypatch.setattr(oracle, "_table", table)
        # ql reads the builder by name; a ql with no such name builds no
        # table through it, and the count below shows that
        monkeypatch.setattr(ql, "_table", table, raising=False)
        monkeypatch.setattr(harness, "stage_pools", stage_pools)
        cfg = small_config(tmp_path / "o")
        run_pipeline(cfg, "ql")
        training = pools[0][1]
        assert len(training) == cfg.training_pool_size
        assert calls == [(training, cfg.depot)] * 2

    @pytest.mark.parametrize("m_training", [
        pytest.param(5_000, id="default"),
        pytest.param(20_000, id="train-large")])
    def test_rows_rebuild_the_sampled_instances(self, tmp_path, m_training):
        """Each training row over the training pool, from the config's
        depot, is the ``Instance`` that ``sample_instances`` draws with its
        seed."""
        cfg = small_config(tmp_path, m_training=m_training)
        _, training = stage_pools(cfg, tmp_path)
        rows = stage_training_instances(cfg, training, tmp_path)
        assert _row_instances(cfg, training, rows) == sample_instances(
            range(cfg.train_seed_base, cfg.train_seed_base + m_training),
            training, cfg.train_instance_size, cfg.depot, cfg.channel,
            cfg.mission)

    def test_artifacts_match_pinned_bytes(self, tmp_path, monkeypatch):
        """Every artifact but timings.csv has its pinned bytes. The eval's
        outputs were pinned from a run of the one-object-per-line format
        and have kept their bytes since. Traces were pinned as
        ``uavplan.plan.v1``, so each trace is hashed as ``expand_v2`` and
        then ``expand_v1`` rebuild it; world_model.json was pinned as
        ``uavplan.world_model.v3``, so it is hashed as ``as_v3`` rebuilds
        it, and the two header-plus-records files
        are pinned as ``uavplan.instances.v4`` and ``uavplan.tours.v5``, and
        pools.json and qtable.json as ``uavplan.pool.v2`` and
        ``uavplan.qtable.v3``."""
        monkeypatch.chdir(tmp_path)
        run_pipeline(small_config("run"))
        want = json.loads(PINNED.read_text())
        out = tmp_path / "run"
        have = {p.relative_to(out).as_posix():
                hashlib.sha256(p.read_bytes()).hexdigest()
                for p in out.rglob("*") if p.is_file()}
        del have["timings.csv"]
        for path in (out / "traces").glob("*.json"):
            v1 = _canonical_json(
                expand_v1(expand_v2(json.loads(path.read_text())))) + "\n"
            have[f"traces/{path.name}"] = hashlib.sha256(v1.encode()).hexdigest()
        v3 = _canonical_json(as_v3(json.loads(
            (out / "world_model.json").read_text()))) + "\n"
        have["world_model.json"] = hashlib.sha256(v3.encode()).hexdigest()
        assert have == want

    def test_reused_files_give_the_same_downstream_bytes(self, tmp_path):
        """Rebuilt from checked instances and demonstrations, the models
        and metrics keep their bytes; so does every eval output when the
        eval runs on the rebuilt demonstrations and the world model
        learned from them, which equals the reused world_model.json."""
        cfg = small_config(tmp_path / "run")
        run_pipeline(cfg)
        out = Path(cfg.output_dir)
        names = ("world_model.json", "qtable.json", "metrics.csv")
        first = {n: (out / n).read_bytes() for n in names}
        for n in names:
            (out / n).unlink()
        run_pipeline(cfg)
        assert {n: (out / n).read_bytes() for n in names} == first

        every = _artifact_bytes(out)
        for name in ("qtable.json", "metrics.csv", "config.json",
                     "summary.csv", "ratios.csv"):
            (out / name).unlink()
        for name in ("tours", "traces", "instances", "trajectories"):
            shutil.rmtree(out / name)
        run_pipeline(cfg)
        assert _artifact_bytes(out) == every


def _as_v1_instances(cfg, out):
    _, training = stage_pools(cfg, out)
    _write_lines(out / "training_instances.jsonl",
                 (instance_to_dict(i) for i in _row_instances(
                     cfg, training, stage_training_instances(cfg, training,
                                                             out))))


def _as_v1_tours(cfg, out):
    _, training = stage_pools(cfg, out)
    demos = stage_oracle(
        cfg, training, stage_training_instances(cfg, training, out), out)
    _write_lines(out / "oracle_tours.jsonl", (
        tour_to_dict(Tour(*t), cfg.weights) for t in zip(
            demos.orders, demos.cost_m, demos.profit_bps, demos.objective)))


def _edit_lines(name, edit):
    def apply(cfg, out):
        path = out / name
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        edit(lines)
        _write_lines(path, lines)
    return apply


def _foreign_id(lines):
    """Replace the first id of the third demonstration with a training pool
    id that the demonstration does not visit; at the default weights a
    demonstration visits its whole instance, so the id is not in it."""
    order = lines[3]["order"]
    order[0] = next(i for i in range(1, 51) if i not in order)


def _cut_ids(lines):
    """Cut the third training record to three of its five ids."""
    del lines[3]["ids"][3:]


def _cut_ids_without_tours(cfg, out):
    """``_cut_ids``, with the demonstrations deleted, so that the run would
    solve the cut instance afresh."""
    _edit_lines("training_instances.jsonl", _cut_ids)(cfg, out)
    (out / "oracle_tours.jsonl").unlink()


def _as_v3_world_model(obj):
    """The world model as an older ``uavplan.world_model.v3`` file, which
    stored each word as an object of its letters and its count."""
    v3 = as_v3(obj)
    obj.clear()
    obj.update(v3)


def _as_v1_world_model(obj):
    """The world model as an older ``uavplan.world_model.v1`` file, which
    also stored each letter's profit variance."""
    _as_v3_world_model(obj)
    obj["schema"] = "uavplan.world_model.v1"
    for stats in obj["letters"].values():
        stats["var_profit"] = 0.0


def _first_letter(obj):
    return next(iter(obj["letters"].values()))


def _letter_center_as_strings(obj):
    """The first letter's center as JSON strings, which ``float`` parses."""
    stats = _first_letter(obj)
    stats["center_m"] = [str(v) for v in stats["center_m"]]


def _letter_key_not_decimal(obj):
    """The first letter's key written as `` 7`` for ``7``, which ``int``
    reads."""
    key = next(iter(obj["letters"]))
    obj["letters"] = {(f" {k}" if k == key else k): v
                      for k, v in obj["letters"].items()}


def _drop_used_letter(obj):
    """Drop the statistics of the first stored word's first letter."""
    del obj["letters"][str(obj["words"][0][0])]


def _swap_word_letters(obj):
    """Swap the first two letters of the first stored word: still a valid
    model, but not the one the demonstrations give."""
    letters = obj["words"][0]
    letters[0], letters[1] = letters[1], letters[0]


def _add_word(at, letters, count):
    """An edit that inserts a stored word with its count at index ``at``
    (at the end for None)."""
    def edit(obj):
        k = len(obj["words"]) if at is None else at
        obj["words"].insert(k, letters(obj) if callable(letters) else letters)
        obj["word_counts"].insert(k, count)
    return edit


def _scale_sources(obj):
    """Every letter's mean profit times 3 and the mean leg time times 5:
    still a valid model of the demonstrated words, but not with the
    statistics the demonstrations and the training pool give."""
    for stats in obj["letters"].values():
        stats["mean_profit_bps"] *= 3
    obj["mean_leg_time_s"] *= 5


def _artifact_bytes(out: Path) -> dict[str, bytes]:
    """Every file under ``out`` but timings.csv, by relative path."""
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in out.rglob("*")
            if p.is_file() and p.name != "timings.csv"}


class TestCli:
    def test_stage_commands_in_order(self, tmp_path, monkeypatch):
        """The stage commands one after another leave the directory that
        ``pipeline`` leaves, byte for byte but for timings.csv."""
        cfg = small_config("cli")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        base = ["--config", str(cfg_path)]
        for side in ("stages", "whole"):
            (tmp_path / side).mkdir()
        monkeypatch.chdir(tmp_path / "stages")
        for cmd in ("gen-pool", "gen-instances", "solve-oracle",
                    "train-world", "train-ql", "eval", "report"):
            assert cli_main([cmd] + base) == 0, cmd
        assert (tmp_path / "stages" / "cli" / "summary.csv").exists()
        monkeypatch.chdir(tmp_path / "whole")
        assert cli_main(["pipeline"] + base) == 0
        stages = _artifact_bytes(tmp_path / "stages" / "cli")
        assert stages == _artifact_bytes(tmp_path / "whole" / "cli")
        assert "config.json" in stages

    def test_unknown_stage_is_refused_before_any_work(self, tmp_path):
        """A stage name the pipeline does not have is refused before the
        output directory is written; the CLI's commands name only stages
        it has."""
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(ValueError, match="no pipeline stage named 'reports'"):
            run_pipeline(small_config(out), "reports")
        assert list(out.iterdir()) == []
        assert ({stage for stage, _, _ in STAGE_COMMANDS.values()}
                == set(_STAGE_NAMES))

    def test_report_on_an_empty_directory_runs_every_stage(
            self, tmp_path, monkeypatch):
        """Every stage computes from an empty directory: ``report`` there
        exits 0 and leaves the bytes that ``pipeline`` leaves, but for
        timings.csv."""
        cfg = small_config("cli2")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        for command in ("report", "pipeline"):
            (tmp_path / command).mkdir()
            monkeypatch.chdir(tmp_path / command)
            assert cli_main([command, "--config", str(cfg_path)]) == 0
        assert (_artifact_bytes(tmp_path / "report" / "cli2")
                == _artifact_bytes(tmp_path / "pipeline" / "cli2"))

    @pytest.mark.parametrize("text,named,command", [
        pytest.param("{oops", "broken.json", ["gen-pool"], id="broken-json"),
        pytest.param('{"m_trainng": 7}', "m_trainng", ["gen-pool"],
                     id="m_trainng"),
        pytest.param('{"planner": {"n_word": 3}}', "planner.n_word",
                     ["gen-pool"], id="planner.n_word"),
        pytest.param('{"mission": {"time_slot_s": 1.0}}',
                     "mission.time_slot_s", ["gen-pool"],
                     id="mission.time_slot_s"),
        pytest.param('{"depot_m": []}', "depot_m", ["gen-pool"], id="depot_m"),
        pytest.param('{"planner": {"rng_seed": -1}}', "rng_seed", ["gen-pool"],
                     id="planner.rng_seed"),
        pytest.param('{"pool_seed": -3}', "pool_seed", ["gen-pool"],
                     id="pool_seed"),
        pytest.param("{}", "rng_seed",
                     ["plan", "--instance", "i.json", "--model", "m.json",
                      "--seed", "-1"], id="plan--seed"),
        pytest.param('{"m_training": 20.5}', "m_training", ["gen-pool"],
                     id="m_training"),
        pytest.param('{"seeds_per_size": 1.0}', "seeds_per_size",
                     ["gen-pool"], id="seeds_per_size"),
        pytest.param('{"seeds_per_size": 1001}', "seeds_per_size 1001",
                     ["gen-pool"], id="seeds_per_size-1001"),
        pytest.param("{}", "seeds_per_size 1001",
                     ["gen-pool", "--seeds-per-size", "1001"],
                     id="--seeds-per-size-1001"),
        pytest.param('{"ql": {"episodes": 10.5}}', "ql.episodes",
                     ["gen-pool"], id="ql.episodes"),
        pytest.param('{"planner": {"n_words": 2.5}}', "planner.n_words",
                     ["gen-pool"], id="planner.n_words"),
        pytest.param('{"workers": 1.5}', "workers", ["gen-pool"],
                     id="workers"),
        pytest.param('{"workers": true}', "workers", ["gen-pool"],
                     id="workers-bool"),
        pytest.param('{"test_sizes": [5, 7.0]}', "test_sizes", ["gen-pool"],
                     id="test_sizes-float"),
        pytest.param('{"test_sizes": []}', "test_sizes", ["gen-pool"],
                     id="test_sizes-empty"),
        pytest.param('{"test_sizes": [5, 5]}', "test_sizes", ["gen-pool"],
                     id="test_sizes-repeated"),
        pytest.param('{"mission": {"uav_speed_m_per_s": -1}}',
                     "config mission: speed", ["gen-pool"],
                     id="mission-speed-negative"),
        pytest.param('{"mission": {"uav_speed_m_per_s": 1e-170}}',
                     "config mission: speed must be positive with a positive "
                     "square, not 1e-170", ["gen-pool"],
                     id="mission-speed-underflow"),
        pytest.param('{"noise": {"process_scale": 0}}', "config noise: noise",
                     ["gen-pool"], id="noise-process-scale-zero"),
        pytest.param('{"ql": {"learning_rate": 2}}', "config ql: learning",
                     ["gen-pool"], id="ql-learning-rate-2"),
        pytest.param('{"m_training": 30, "seeds_per_size": 1, '
                     '"test_sizes": [5], "ql": {"epsilon_start": 2.5}}',
                     "config ql: epsilon_start must be in [0, 1], not 2.5",
                     ["pipeline"], id="ql-epsilon-start-2.5"),
        pytest.param('{"m_training": 30, "seeds_per_size": 1, '
                     '"test_sizes": [5], "ql": {"epsilon_start": -0.5}}',
                     "config ql: epsilon_start must be in [0, 1], not -0.5",
                     ["pipeline"], id="ql-epsilon-start-negative"),
        pytest.param('{"m_training": 30, "seeds_per_size": 1, '
                     '"test_sizes": [5], "ql": {"epsilon_end": 1.5}}',
                     "config ql: epsilon_end must be in [0, 1], not 1.5",
                     ["pipeline"], id="ql-epsilon-end-1.5"),
        pytest.param('{"weights": {"weight_alpha": 0.5}}',
                     "config weights: weights", ["gen-pool"],
                     id="weights-not-summing-to-1"),
        pytest.param('{"channel": {"carrier_frequency_hz": -1}}',
                     "config channel: carrier", ["gen-pool"],
                     id="channel-frequency-negative"),
        pytest.param('{"channel": {"noise_power_dbm": 5000}}',
                     "config channel: one of noise_power_dbm 5000", ["gen-pool"],
                     id="channel-noise-power-overflow"),
        pytest.param('{"channel": {"mu_los_db": 4000, "mu_nlos_db": 5000}}',
                     "config channel: one of", ["gen-pool"],
                     id="channel-attenuation-overflow"),
        pytest.param('{"channel": {"carrier_frequency_hz": 1e300}}',
                     "config channel: one of", ["gen-pool"],
                     id="channel-frequency-overflow"),
        pytest.param('{"channel": {"los_sigmoid_b": -100}}',
                     "config channel: one of", ["gen-pool"],
                     id="channel-los-sigmoid-overflow"),
        pytest.param('{"channel": {"los_sigmoid_a": -1.0, '
                     '"los_sigmoid_b": 0.0}}',
                     "config channel: los_sigmoid_a must be >= 0, not -1.0",
                     ["gen-pool"], id="channel-los-sigmoid-a-negative"),
        pytest.param('{"channel": {"los_sigmoid_a": -2.0}}',
                     "config channel: los_sigmoid_a must be >= 0, not -2.0",
                     ["gen-pool"], id="channel-los-sigmoid-a-above-1"),
        pytest.param('{"mean_users": 800}', "mean_users 800.0 is too large",
                     ["gen-pool"], id="mean_users-underflow"),
        pytest.param('{"channel": {"path_loss_exponent": 200}}',
                     "channel.path_loss_exponent 200", ["gen-pool"],
                     id="channel-path-loss-exponent-overflow"),
        pytest.param('{"mission": {"uav_altitude_m": 1e300}}',
                     "config mission.uav_altitude_m 1e+300", ["gen-pool"],
                     id="mission-altitude-overflow"),
        pytest.param('{"noise": {"process_scale": 1e300}}',
                     "config noise: the process noise, process_scale 1e+300",
                     ["pipeline", "--m-training", "20", "--test-sizes", "5",
                      "--seeds-per-size", "1"],
                     id="noise-process-scale-overflow"),
        pytest.param('{"noise": {"process_scale": 1e307}}',
                     "config noise: the process noise, process_scale 1e+307",
                     ["pipeline", "--m-training", "20", "--test-sizes", "5",
                      "--seeds-per-size", "1"],
                     id="noise-process-scale-product-overflow"),
        pytest.param('{"noise": {"measurement_ratio": 1e300}}',
                     "that times measurement_ratio 1e+300, overflows float "
                     "arithmetic",
                     ["pipeline", "--m-training", "20", "--test-sizes", "5",
                      "--seeds-per-size", "1"],
                     id="noise-measurement-ratio-overflow"),
        pytest.param('{"noise": {"process_scale": 1e-300}}',
                     "config noise: the process noise, process_scale 1e-300",
                     ["pipeline", "--m-training", "20", "--test-sizes", "5",
                      "--seeds-per-size", "1"],
                     id="noise-process-scale-underflow"),
        pytest.param('{"noise": {"measurement_ratio": 1e-320}}',
                     "that times measurement_ratio 1e-320, underflows below "
                     "the smallest normal float",
                     ["pipeline", "--m-training", "20", "--test-sizes", "5",
                      "--seeds-per-size", "1"],
                     id="noise-measurement-ratio-subnormal"),
        pytest.param('{"m_training": 30, "seeds_per_size": 1, '
                     '"test_sizes": [5], "mission": {"dwell_time_s": 1e308}}',
                     "a tour of 5 hotspots has no finite completion time at "
                     "mission.dwell_time_s 1e+308", ["pipeline"],
                     id="mission-dwell-overflow"),
        pytest.param('{"mission": {"area_side_m": 1e306, '
                     '"uav_speed_m_per_s": 0.01}}',
                     "config mission.area_side_m 1e+306: a tour of 50 "
                     "hotspots has no finite completion time", ["pipeline"],
                     id="mission-legs-overflow"),
        pytest.param('{"mission": {"area_side_m": 1' + "0" * 400 + '}}',
                     "config key mission.area_side_m must be of type float, "
                     "not 1000", ["gen-pool"],
                     id="mission.area_side_m-401-digits"),
        pytest.param('{"mean_users": NaN}', "config key mean_users ",
                     ["gen-pool"], id="mean_users-nan"),
        pytest.param('{"mission": {"dwell_time_s": NaN}}',
                     "config key mission.dwell_time_s ", ["pipeline"],
                     id="mission.dwell_time_s-nan"),
        pytest.param('{"noise": {"process_scale": NaN}}',
                     "config key noise.process_scale ",
                     ["pipeline", "--m-training", "20", "--test-sizes", "5",
                      "--seeds-per-size", "1"],
                     id="noise.process_scale-nan"),
        *(pytest.param('{"m_training": 30, "ql": {"%s": 1e308}}' % key,
                       f"config ql: {key} 1e+308 over temperature 0.2 is not "
                       "finite", ["pipeline"], id=f"ql.{key}-over-temperature")
          for key in ("terminal_bonus", "reference_bonus"))])
    def test_bad_config_exits_2(self, tmp_path, monkeypatch, capsys, text,
                                named, command):
        """A corrupt config, one with a key the dataclasses do not declare,
        a value of another JSON type than the key's (a float or a bool for
        an integer) or an invalid value, such as a negative seed or a test
        size named twice, exits 2 naming the file or the key, and a value
        that a section's own check rejects names the section; so does an
        invalid ``plan`` override, before any artifact is read. A value
        that overflows float arithmetic names its section, or, for the
        noise, which scales the learned means, when the world model is
        learned: a process noise or a measurement noise that is not finite,
        or that underflows below the smallest normal float, names both
        noise values, and prints no RuntimeWarning. A ``ql`` bonus that
        over the temperature is not finite, which would overflow MQL's
        softmax, is refused at load, naming the bonus. A mean user
        count past which exp(-mean_users) is not a
        normal float, so that the Poisson draws go wrong, is refused as the
        pool is drawn, naming it. A NaN (which ``json`` reads), and a
        mission under which the longest tour may have no finite completion
        time, are refused at load, naming the key, before any stage writes
        an artifact. No refused config writes a trace."""
        monkeypatch.chdir(tmp_path)
        p = tmp_path / "broken.json"
        p.write_text(text)
        assert cli_main(command + ["--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert named in err and "RuntimeWarning" not in err
        assert not list(tmp_path.glob("out/traces/*"))
        if "NaN" in text or "no finite completion time" in named:
            assert not (tmp_path / "out").exists()

    def test_deeply_nested_config_exits_2(self, tmp_path, capsys):
        """A config nested deeper than the parser can follow exits 2
        naming the file, not with a RecursionError."""
        p = tmp_path / "nested.json"
        p.write_text("[" * 100_000)
        assert cli_main(["gen-pool", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot load config {p}")

    @pytest.mark.parametrize("artifact", ["pools.json", "qtable.json"])
    def test_deeply_nested_artifact_exits_2(self, tmp_path, capsys, artifact):
        """A kept artifact nested deeper than the parser can follow exits 2
        naming the file: each is an export, whose differing line is
        parsed."""
        cfg = small_config(tmp_path / "n", test_sizes=(5,), seeds_per_size=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 0
        path = tmp_path / "n" / artifact
        path.write_text("[" * 100_000)
        capsys.readouterr()
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot read artifact "
                              f"{path}"), err

    @pytest.mark.parametrize("config,flags,named", [
        pytest.param('{"test_sizes": [500]}', [],
                     "test size 500 exceeds testing_pool_size 100",
                     id="test_sizes"),
        pytest.param("{}", ["--test-sizes", "5", "500"],
                     "test size 500 exceeds testing_pool_size 100",
                     id="--test-sizes"),
        pytest.param('{"train_instance_size": 51}', [],
                     "train_instance_size 51 exceeds training_pool_size 50",
                     id="train_instance_size")])
    def test_impossible_pool_size_exits_2_before_any_stage(
            self, tmp_path, capsys, config, flags, named):
        """A test size or training instance size larger than its pool is
        refused with the config, before any stage writes an artifact."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config)
        out = tmp_path / "out"
        out.mkdir()
        assert cli_main(["pipeline", "--config", str(cfg_path), "--out",
                         str(out), *flags]) == 2
        assert named in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("config", [
        pytest.param('{"test_sizes": [500]}', id="test_sizes"),
        pytest.param('{"mission": {"dwell_time_s": 1e307}}',
                     id="mission.dwell_time_s")])
    def test_override_stands_in_for_the_file_value(self, tmp_path, capsys,
                                                   config):
        """The command-line overrides are merged into the config file's
        object, which is read once: an override replaces a file value that
        the config's checks would refuse (a test size past the pool; a
        dwell under which a tour of the default largest size, 50, has no
        finite completion time, though one of 5 has)."""
        p = tmp_path / "d.json"
        p.write_text(config)
        assert cli_main(["show-config", "--config", str(p),
                         "--test-sizes", "5"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["test_sizes"] == [5]
        assert shown["mission"]["dwell_time_s"] == json.loads(config).get(
            "mission", {}).get("dwell_time_s", 0.0)

    def test_integer_for_a_float_key_writes_the_float(self, tmp_path):
        """``"mean_users": 5`` is read as 5.0: a run over the output of a
        run with ``5.0`` exits 0, so config.json and pools.json, like every
        other export, hold the same bytes."""
        for name, mean in (("int", "5"), ("float", "5.0")):
            (tmp_path / f"{name}.json").write_text(
                '{"m_training": 20, "test_sizes": [5], "seeds_per_size": 1, '
                f'"ql": {{"episodes": 50}}, "mean_users": {mean}}}')
        out = str(tmp_path / "out")
        for name in ("float", "int"):
            assert cli_main(["pipeline", "--config",
                             str(tmp_path / f"{name}.json"), "--out", out]) == 0
        assert json.loads((tmp_path / "out" / "config.json").read_text())[
            "mean_users"] == 5.0

    def test_show_config_round_trips(self, tmp_path, capsys):
        assert cli_main(["show-config"]) == 0
        printed = capsys.readouterr().out
        p = tmp_path / "cfg.json"
        p.write_text(printed)
        assert cli_main(["show-config", "--config", str(p)]) == 0
        assert capsys.readouterr().out == printed

    @pytest.mark.parametrize("artifact,edit", [
        pytest.param("world_model.json", None, id="world_model.json"),
        pytest.param("training_instances.jsonl", None,
                     id="training_instances.jsonl"),
        pytest.param("oracle_tours.jsonl", None, id="oracle_tours.jsonl"),
        pytest.param("world_model.json", lambda obj: obj.pop("words"),
                     id="world_model.json-missing-words"),
        pytest.param("qtable.json", lambda obj: obj.pop("values"),
                     id="qtable.json-missing-values"),
        pytest.param("tours/s005k000_ain.json",
                     lambda obj: obj["order"].__setitem__(0, 999),
                     id="tour-unknown-hotspot"),
        pytest.param("pools.json", lambda obj: obj["hotspots"][0][
            "center_m"].__setitem__(0, float("nan")), id="pools.json-center-nan"),
        pytest.param("qtable.json", lambda obj: obj["values"][0].__setitem__(
            2, float("nan")), id="qtable.json-value-nan"),
        pytest.param("pools.json", lambda obj: obj["hotspots"][0].__setitem__(
            "profit_bps", -1), id="pools.json-profit-negative"),
        pytest.param("instances/s005k000.json",
                     lambda obj: obj["mission"].__setitem__(
                         "uav_speed_m_per_s", -1),
                     id="instance-speed-negative"),
        pytest.param("instances/s005k000.json",
                     lambda obj: obj.__setitem__("hotspots", []),
                     id="instance-without-hotspots"),
        pytest.param("pools.json", [1, 2], id="pools.json-array"),
        pytest.param("qtable.json", [1, 2], id="qtable.json-array"),
        pytest.param("world_model.json", [1, 2], id="world_model.json-array")])
    def test_truncated_artifact_exits_2(self, tmp_path, capsys, artifact,
                                        edit):
        """A truncated artifact, valid JSON with a key missing, a tour
        naming a hotspot its instance lacks, a NaN hotspot center or
        Q-value, a value its dataclass rejects (a negative profit or
        speed, an instance without hotspots), or a JSON array in place of
        the object (``edit`` is then the array) exits 2 with a message
        naming the file."""
        cfg = small_config(tmp_path / "cli5", test_sizes=(5,), seeds_per_size=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 0
        path = tmp_path / "cli5" / artifact
        if edit is None:
            data = path.read_bytes()
            path.write_bytes(data[:len(data) // 2])
        elif isinstance(edit, list):
            path.write_text(json.dumps(edit))
        else:
            obj = json.loads(path.read_text())
            edit(obj)
            path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and str(path) in err

    @pytest.mark.parametrize("artifact,recomputed", [
        pytest.param("oracle_tours.jsonl", None, id="oracle_tours.jsonl"),
        pytest.param("qtable.json", "oracle_tours.jsonl", id="qtable.json")])
    def test_reused_artifact_with_other_weights_exits_2(
            self, tmp_path, capsys, artifact, recomputed):
        """Re-running in the same directory with other weights must not
        reuse demonstrations or a Q-table computed with the old ones: exit 2
        naming the file and both weight sets."""
        cfg = small_config(tmp_path / "w", test_sizes=(5,), seeds_per_size=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 0
        other = replace(cfg, weights=ObjectiveWeights(0.5, 0.5))
        cfg_path.write_text(json.dumps(config_to_dict(other)))
        if recomputed is not None:
            (tmp_path / "w" / recomputed).unlink()
        capsys.readouterr()
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert str(tmp_path / "w" / artifact) in err
        assert "line 1 holds weights.weight_alpha 0.9, but this run writes 0.5" \
            in err

    @pytest.mark.parametrize("artifact,named", [
        pytest.param("world_model.json", "fingerprint", id="world_model.json"),
        pytest.param("qtable.json", "train_seed_base", id="qtable.json")])
    def test_reused_artifact_from_other_demonstrations_exits_2(
            self, tmp_path, capsys, artifact, named):
        """A world model or Q-table learned from another run's
        demonstrations (another train_seed_base) must not be reused: exit 2
        naming the file and, for the world model, both word list
        fingerprints, for the Q-table the key."""
        cfg = small_config(tmp_path / "w", test_sizes=(5,), seeds_per_size=1)
        other = replace(cfg, output_dir=str(tmp_path / "o"),
                        train_seed_base=cfg.train_seed_base + 5000)
        run_pipeline(other)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 0
        (tmp_path / "w" / artifact).write_bytes(
            (tmp_path / "o" / artifact).read_bytes())
        capsys.readouterr()
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert str(tmp_path / "w" / artifact) in err
        assert named in err

    def test_reused_qtable_with_other_ql_config_exits_2(self, tmp_path, capsys):
        cfg = small_config(tmp_path / "w", test_sizes=(5,), seeds_per_size=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 0
        other = replace(cfg, ql=replace(cfg.ql, episodes=cfg.ql.episodes + 1))
        cfg_path.write_text(json.dumps(config_to_dict(other)))
        capsys.readouterr()
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert str(tmp_path / "w" / "qtable.json") in err
        assert "line 1 holds ql.episodes 400, but this run writes 401" in err

    @pytest.mark.parametrize("artifact,damage,named", [
        pytest.param("training_instances.jsonl", _as_v1_instances,
                     "delete it", id="instances-v1"),
        pytest.param("oracle_tours.jsonl", _as_v1_tours, "delete it",
                     id="tours-v1"),
        pytest.param("training_instances.jsonl", _edit_lines(
            "training_instances.jsonl",
            lambda lines: lines[3]["ids"].__setitem__(0, 999)),
            "999", id="instances-id-not-in-pool"),
        pytest.param("training_instances.jsonl", _edit_lines(
            "training_instances.jsonl", lambda lines: lines.pop()),
            "holds 30 lines, but this run writes 31",
            id="instances-cut-at-line"),
        pytest.param("training_instances.jsonl", _edit_lines(
            "training_instances.jsonl", _cut_ids),
            "line 4 holds", id="instances-too-few-ids"),
        pytest.param("training_instances.jsonl", _cut_ids_without_tours,
                     "line 4 holds", id="instances-too-few-ids-without-tours"),
        pytest.param("oracle_tours.jsonl", _edit_lines(
            "oracle_tours.jsonl", lambda lines: lines.pop()),
            "holds 30 lines, but this run writes 31", id="tours-cut-at-line"),
        pytest.param("oracle_tours.jsonl", _edit_lines(
            "oracle_tours.jsonl", lambda lines: lines[0].__setitem__(
                "weights", asdict(ObjectiveWeights(0.5, 0.5)))),
            "line 1 holds weights.weight_alpha 0.5, but this run writes 0.9",
            id="tours-header-other-weights"),
        pytest.param("oracle_tours.jsonl", _edit_lines(
            "oracle_tours.jsonl", lambda lines: lines[3]["order"].append(
                lines[3]["order"][0])),
            "line 4 holds order ", id="tours-repeated-id"),
        pytest.param("oracle_tours.jsonl", _edit_lines(
            "oracle_tours.jsonl", _foreign_id),
            "line 4 holds order.0 ", id="tours-foreign-id")])
    def test_bad_headed_jsonl_exits_2(self, tmp_path, capsys, artifact,
                                      damage, named):
        """An older one-object-per-line file, an id not in the training
        pool, a training record with too few ids (with its demonstration
        or without), a file cut at a line boundary, a header recording other
        weights, a tour visiting a hotspot twice and a tour naming a pool
        hotspot that its instance lacks each exit 2 naming the file."""
        cfg = small_config(tmp_path / "h", test_sizes=(5,), seeds_per_size=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 0
        damage(cfg, tmp_path / "h")
        capsys.readouterr()
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert str(tmp_path / "h" / artifact) in err and named in err

    def test_training_ids_changed_within_the_pool_exit_2(self, tmp_path,
                                                          capsys):
        """A training record whose ids were changed to other ids of the
        training pool is refused, naming its line, although every other
        artifact was deleted, so that the run would solve the changed
        instance afresh."""
        cfg = small_config(tmp_path / "h", test_sizes=(5,), seeds_per_size=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 0
        out = tmp_path / "h"

        def other_ids(lines):
            ids = lines[3]["ids"]
            lines[3]["ids"] = [i for i in range(1, cfg.training_pool_size + 1)
                               if i not in ids][:len(ids)]

        _edit_lines("training_instances.jsonl", other_ids)(cfg, out)
        for p in out.iterdir():
            if p.is_dir():
                shutil.rmtree(p)
            elif p.name != "training_instances.jsonl":
                p.unlink()
        capsys.readouterr()
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: "
                              f"{out / 'training_instances.jsonl'} line 4 holds ")

    @staticmethod
    def _damaged_run_exit(tmp_path, capsys, artifact, edit, command):
        """Run a 30-demonstration pipeline, apply ``edit`` to the JSON of
        ``artifact``, then run ``command`` (``pipeline`` again, or ``plan``
        on one test instance with the run's world model); returns the
        exit code and stderr."""
        cfg = small_config(tmp_path / "d", test_sizes=(5,), seeds_per_size=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 0
        out = tmp_path / "d"
        obj = json.loads((out / artifact).read_text())
        edit(obj)
        (out / artifact).write_text(json.dumps(obj))
        capsys.readouterr()
        if command == "pipeline":
            argv = ["pipeline", "--config", str(cfg_path)]
        else:
            argv = ["plan", "--config", str(cfg_path),
                    "--instance", str(out / "instances" / "s005k000.json"),
                    "--model", str(out / "world_model.json"),
                    "--trace", str(tmp_path / "trace.json")]
        return cli_main(argv), capsys.readouterr().err

    @pytest.mark.parametrize("artifact,command,named", [
        pytest.param("pools.json", "pipeline", "hotspots.0.center_m ",
                     id="pools.json"),
        pytest.param("instances/s005k000.json", "plan",
                     "instance key hotspots.0.center_m ", id="instance")])
    def test_short_list_in_artifact_exits_2(self, tmp_path, capsys, artifact,
                                            command, named):
        """A hotspot whose center has one coordinate exits 2 naming the
        file and the field, in a reused pool and in an instance given to
        ``plan``."""
        code, err = self._damaged_run_exit(
            tmp_path, capsys, artifact,
            lambda obj: obj["hotspots"][0]["center_m"].pop(), command)
        assert code == 2
        assert err.startswith("configuration error:")
        assert str(tmp_path / "d" / artifact) in err and named in err

    @pytest.mark.parametrize("edit,named", [
        pytest.param(lambda obj: obj["hotspots"][0].__setitem__("id", 6.5),
                     "instance key hotspots.0.id must be of type int, not 6.5",
                     id="id-6.5"),
        pytest.param(lambda obj: obj["hotspots"][1].__setitem__(
            "center_m", ["12.5", "40"]), "instance key hotspots.1.center_m.0 "
            'must be of type float, not "12.5"', id="center-strings"),
        pytest.param(lambda obj: obj["mission"].__setitem__("dwell_time_s",
                                                            True),
                     "instance key mission.dwell_time_s must be of type "
                     "float, not true", id="dwell-bool"),
        pytest.param(lambda obj: obj.__setitem__("color", "red"),
                     "unknown instance key color", id="unknown-key"),
        pytest.param(lambda obj: obj.__setitem__("schema", "uavplan.tour.v1"),
                     "unsupported instance schema 'uavplan.tour.v1'",
                     id="other-schema"),
        pytest.param(lambda obj: obj.pop("hotspots"),
                     "instance key hotspots is missing", id="missing-key")])
    def test_instance_of_another_shape_exits_2(self, tmp_path, capsys, edit,
                                               named):
        """An instance given to ``plan`` is read by the config's checked
        reader: a value of another JSON type than its field's, a key that
        is not a field, another schema and a missing field exit 2 naming
        the file and the dotted key."""
        artifact = "instances/s005k000.json"
        code, err = self._damaged_run_exit(tmp_path, capsys, artifact, edit,
                                           "plan")
        assert code == 2
        assert err.startswith("configuration error:")
        assert str(tmp_path / "d" / artifact) in err and named in err, err

    @pytest.mark.parametrize("speed", [
        pytest.param(-1, id="instance-speed-negative"),
        pytest.param(1e-170, id="instance-speed-underflow"),
        pytest.param(1e-320, id="instance-speed-subnormal")])
    def test_speed_without_a_positive_square_exits_2(self, tmp_path, capsys,
                                                     speed):
        """An instance given to ``plan`` whose speed is negative, or so
        small that its square underflows to 0 (the planner divides by it),
        exits 2 naming the file and the speed."""
        artifact = "instances/s005k000.json"
        code, err = self._damaged_run_exit(
            tmp_path, capsys, artifact,
            lambda obj: obj["mission"].__setitem__("uav_speed_m_per_s", speed),
            "plan")
        assert code == 2
        assert err.startswith("configuration error:")
        assert str(tmp_path / "d" / artifact) in err
        assert f"positive square, not {speed!r}" in err

    @pytest.mark.parametrize("edit,command,named", [
        pytest.param(lambda obj: obj["word_counts"].__setitem__(0, 0),
                     "pipeline", "holds word_counts.0 0,", id="word-count-zero"),
        pytest.param(lambda obj: obj["words"][0].__setitem__(0, 999),
                     "plan", "[999]", id="word-letter-not-in-vocabulary"),
        pytest.param(lambda obj: obj.__setitem__("mean_leg_time_s",
                                                 float("nan")),
                     "plan", "world model key mean_leg_time_s must be of type "
                     "float, not NaN", id="mean-leg-time-nan"),
        pytest.param(lambda obj: obj["noise_config"].__setitem__(
            "measurement_ratio", -5.0), "plan", "noise scales",
            id="measurement-ratio-negative"),
        pytest.param(lambda obj: obj["noise_config"].__setitem__(
            "process_scale", -1.0), "plan", "noise scales",
            id="process-scale-negative"),
        pytest.param(lambda obj: obj.__setitem__("schema", "uavplan.plan.v1"),
                     "plan", "'uavplan.plan.v1'", id="other-schema"),
        pytest.param(_as_v1_world_model, "pipeline", "delete it",
                     id="world-model-v1"),
        pytest.param(_as_v3_world_model, "pipeline", "delete it",
                     id="world-model-v3"),
        pytest.param(_as_v3_world_model, "plan",
                     "unsupported world model schema 'uavplan.world_model.v3'",
                     id="world-model-v3-plan"),
        pytest.param(lambda obj: obj["word_counts"].__setitem__(0, -5),
                     "plan", "count -5", id="word-count-negative"),
        pytest.param(lambda obj: _first_letter(obj).__setitem__(
            "mean_profit_bps", float("nan")), "plan",
            ".mean_profit_bps must be of type float, not NaN",
            id="letter-profit-nan"),
        pytest.param(_drop_used_letter, "plan", "no statistics",
                     id="letter-dropped"),
        pytest.param(_swap_word_letters, "pipeline", "fingerprint",
                     id="word-letters-swapped"),
        pytest.param(_scale_sources, "pipeline", ".mean_profit_bps ",
                     id="letter-profits-and-leg-time-scaled"),
        pytest.param(lambda obj: obj.__setitem__(
            "mean_leg_time_s", 5 * obj["mean_leg_time_s"]), "pipeline",
            "holds mean_leg_time_s ", id="mean-leg-time-scaled"),
        pytest.param(lambda obj: obj["word_counts"].__setitem__(1, 1.5),
                     "plan", "world model key word_counts.1 must be of type "
                     "int, not 1.5", id="word-count-fractional"),
        pytest.param(lambda obj: obj["words"][2].__setitem__(
            1, obj["words"][2][1] + 0.25), "plan",
            "world model key words.2.1 must be of type int, not ",
            id="word-letter-fractional"),
        pytest.param(lambda obj: obj["word_counts"].pop(), "plan",
                     " stored words but ", id="word-count-missing"),
        pytest.param(lambda obj: obj["word_counts"].append(1), "plan",
                     " word counts; each stored word has one count",
                     id="word-count-extra"),
        pytest.param(_letter_center_as_strings, "plan",
                     '.center_m.0 must be of type float, not "',
                     id="letter-center-strings"),
        pytest.param(lambda obj: _first_letter(obj)["center_m"].append(7),
                     "plan", ".center_m must be of type tuple[float, float], "
                     "not [", id="letter-center-three"),
        pytest.param(lambda obj: _first_letter(obj).__setitem__(
            "center_m", [True, 5.0]), "plan",
            ".center_m.0 must be of type float, not true",
            id="letter-center-bool"),
        pytest.param(lambda obj: _first_letter(obj).__setitem__(
            "mean_profit_bps", str(_first_letter(obj)["mean_profit_bps"])),
            "plan", '.mean_profit_bps must be of type float, not "',
            id="letter-profit-string"),
        pytest.param(_letter_key_not_decimal, "plan",
                     "world model key letters must be of type dict[int, ",
                     id="letter-key-not-decimal"),
        pytest.param(_add_word(None, [], 1), "plan",
            "has letters [] and count 1; a stored word has at least two "
            "letters", id="word-empty"),
        pytest.param(_add_word(0, lambda obj: obj["words"][0][:1], 1),
            "plan", "word 0 has letters [", id="word-one-letter"),
        pytest.param(lambda obj: obj["noise_config"].__setitem__(
            "measurement_ratio", 1e300), "plan",
            "that times measurement_ratio 1e+300, overflows",
            id="measurement-ratio-overflow"),
        pytest.param(lambda obj: obj["noise_config"].__setitem__(
            "process_scale", 1e307), "plan",
            "config noise: the process noise, process_scale 1e+307",
            id="process-scale-product-overflow"),
        pytest.param(lambda obj: obj["noise_config"].__setitem__(
            "process_scale", 1e-300), "plan",
            "config noise: the process noise, process_scale 1e-300",
            id="process-scale-underflow"),
        pytest.param(lambda obj: obj["noise_config"].__setitem__(
            "measurement_ratio", 1e-320), "plan",
            "that times measurement_ratio 1e-320, underflows",
            id="measurement-ratio-subnormal"),
        pytest.param(lambda obj: obj["letters"].__setitem__(
            "9999", {"center_m": [1.0, 2.0], "mean_profit_bps": 3.0}),
            "plan", "and letters [9999] that no stored word holds have "
            "statistics", id="letter-in-no-word"),
        pytest.param(lambda obj: obj["words"].__setitem__(3, [5, 5, 7]), "plan",
            "word 3 [5, 5, 7]: repeated letter in word",
            id="word-letter-repeated")])
    def test_inconsistent_world_model_exits_2(self, tmp_path, capsys, edit,
                                              command, named):
        """A world model file holds only sources (letter statistics, words
        with counts, two means and the noise config). One whose sources
        are impossible exits 2 naming the file and the fault: a word count
        below 1, a word count or letter that is not a JSON integer, a
        letter key that is not the ``str`` of an int, a letter center
        that is not two JSON numbers, a NaN mean, a NaN mean profit or a
        mean profit that is not a JSON number (each named by its dotted
        key and declared type, such as ``word_counts.1``, ``words.2.1`` or
        ``letters.7.center_m``), one count more or fewer than the stored
        words (named by both lengths), a stored word of fewer than two letters
        or one that repeats a letter (each named by its index and
        letters), a stored word naming a letter without statistics, the
        statistics of a letter that no stored word holds (named by the
        letter), a noise scale that is not positive, a noise
        config whose process or measurement noise is not finite (named
        by both noise values, with no RuntimeWarning), one in another
        schema, an older world model (``v1``, or ``v3`` with one object per
        word) reused by a pipeline re-run or given to ``plan``, or another
        artifact given to ``plan``. Reused by a
        pipeline re-run, one whose words are not the demonstrations' exits
        2 naming the fingerprint, and one whose letter statistics or
        training means are not what the demonstrations and the training
        pool give exits 2 naming the first field that differs."""
        code, err = self._damaged_run_exit(tmp_path, capsys,
                                           "world_model.json", edit, command)
        assert code == 2
        assert err.startswith("configuration error:")
        assert str(tmp_path / "d" / "world_model.json") in err and named in err
        assert "RuntimeWarning" not in err
        assert not (tmp_path / "trace.json").exists()

    @pytest.mark.parametrize("count,named", [
        pytest.param("1e400", "world model key word_counts.0 must be of type "
                     "int, not Infinity", id="1e400"),
        pytest.param("1" + "0" * 400, "OverflowError", id="10**400")])
    def test_world_model_with_overflowing_count_exits_2(self, tmp_path,
                                                        capsys, count, named):
        """A stored word count too large for a float, written as a float
        literal (read as infinity, which is no integer) or as an integer
        (which overflows float arithmetic), exits 2 naming the model given
        to ``plan`` and the fault."""
        cfg = small_config(tmp_path / "d", test_sizes=(5,), seeds_per_size=1)
        run_pipeline(cfg)
        model = tmp_path / "d" / "world_model.json"
        obj = json.loads(model.read_text())
        obj["word_counts"][0] = "COUNT"
        model.write_text(json.dumps(obj).replace('"COUNT"', count))
        capsys.readouterr()
        assert cli_main(["plan", "--model", str(model), "--instance",
                         str(tmp_path / "d" / "instances" / "s005k000.json"),
                         "--trace", str(tmp_path / "trace.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert str(model) in err and named in err

    def test_world_model_with_counts_of_2_53_in_total_exits_2(self, tmp_path,
                                                             capsys):
        """Stored word counts that add up to 2**53 or more, each an integer
        a float holds, exit 2 naming the model given to ``plan``,
        ``word_counts`` and the bound below which their float tallies are
        exact."""
        cfg = small_config(tmp_path / "d", test_sizes=(5,), seeds_per_size=1)
        run_pipeline(cfg)
        model = tmp_path / "d" / "world_model.json"
        obj = json.loads(model.read_text())
        obj["word_counts"][0] = 2 ** 53 - sum(obj["word_counts"][1:])
        model.write_text(json.dumps(obj))
        capsys.readouterr()
        assert cli_main(["plan", "--model", str(model), "--instance",
                         str(tmp_path / "d" / "instances" / "s005k000.json"),
                         "--trace", str(tmp_path / "trace.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert str(model) in err
        assert ("word_counts add up to 9007199254740992; a model's word "
                "counts add up to less than 2**53") in err
        assert not (tmp_path / "trace.json").exists()

    @pytest.mark.parametrize("edit,named", [
        pytest.param(lambda obj: obj.update(
            mean_leg_time_s=str(obj["mean_leg_time_s"]),
            mean_profit_bps=str(obj["mean_profit_bps"])),
            'world model key mean_leg_time_s must be of type float, not "',
            id="means-strings"),
        pytest.param(lambda obj: obj["noise_config"].update(
            process_scale=True), "world model key noise_config.process_scale "
            "must be of type float, not true", id="process-scale-bool"),
        pytest.param(lambda obj: obj.update(color="red"),
                     "unknown world model key color", id="unknown-key"),
        pytest.param(lambda obj: obj["letters"]["1"].update(start_count=0),
                     "unknown world model key letters.1.start_count",
                     id="letter-start-count"),
        pytest.param(lambda obj: obj.pop("mean_leg_time_s"),
                     "world model key mean_leg_time_s is missing",
                     id="missing-key"),
        pytest.param(lambda obj: obj.pop("schema"),
                     "unsupported world model schema None",
                     id="missing-schema"),
        pytest.param(_as_v1_world_model, "unsupported world model schema "
                     "'uavplan.world_model.v1'", id="world-model-v1"),
        pytest.param(_as_v3_world_model, "unsupported world model schema "
                     "'uavplan.world_model.v3'", id="world-model-v3")])
    def test_world_model_of_another_shape_exits_2(self, tmp_path, capsys,
                                                  finished_run, edit, named):
        """A world model given to ``plan`` is read by the one checked
        reader: a value of another JSON type than its key's, a key that is
        not a field (such as a letter's start count, which the model
        derives from the words, so that a file never holds derived
        state), a missing key, a missing
        schema and an older schema (named as README names it) exit 2
        naming the file and the dotted key or the schema, and no trace is
        written."""
        out = Path(finished_run.output_dir)
        obj = json.loads((out / "world_model.json").read_text())
        edit(obj)
        model = tmp_path / "world_model.json"
        model.write_text(json.dumps(obj))
        trace = tmp_path / "trace.json"
        capsys.readouterr()
        assert cli_main(["plan", "--instance",
                         str(out / "instances" / "s005k000.json"),
                         "--model", str(model), "--trace", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: malformed artifact "
                              f"{model}: ConfigurationError: {named}"), err
        assert not trace.exists()

    @pytest.mark.parametrize("edit,named", [
        pytest.param(lambda obj: obj["order"].__setitem__(0, "3"),
                     'tour key order.0 must be of type int, not "3"',
                     id="order-string"),
        pytest.param(lambda obj: obj["order"].__setitem__(1, True),
                     "tour key order.1 must be of type int, not true",
                     id="order-bool"),
        pytest.param(lambda obj: obj["order"].__setitem__(2, 2.9),
                     "tour key order.2 must be of type int, not 2.9",
                     id="order-fraction"),
        pytest.param(lambda obj: obj.update(
            total_cost_m=str(obj["total_cost_m"]),
            total_profit_bps=str(obj["total_profit_bps"])),
            'tour key total_cost_m must be of type float, not "',
            id="totals-strings"),
        pytest.param(lambda obj: obj.update(extra=1), "unknown tour key extra",
                     id="unknown-key"),
        pytest.param(lambda obj: obj.update(schema=INSTANCE_SCHEMA),
                     f"unsupported tour schema {INSTANCE_SCHEMA!r}",
                     id="other-schema"),
        pytest.param(lambda obj: obj.pop("schema"),
                     "unsupported tour schema None", id="missing-schema"),
        pytest.param(lambda obj: obj.pop("weights"),
                     "tour key weights is missing", id="missing-weights")])
    def test_tour_of_another_shape_is_refused(self, tmp_path, finished_run,
                                              edit, named):
        """An evaluated tour read back as the CLI reads its artifacts
        (``load_artifact``), by the reader that C6 reads AIn's tours with
        (``tour_from_dict``): a value of another JSON type than its key's,
        a key that is not a field, another or no schema and missing
        weights are refused naming the file and the dotted key."""
        out = Path(finished_run.output_dir)
        obj = json.loads((out / "tours" / "s005k000_ain.json").read_text())
        edit(obj)
        path = tmp_path / "tour.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ConfigurationError) as e:
            load_artifact(path, tour_from_dict)
        assert str(e.value).startswith(f"malformed artifact {path}: "
                                       f"ConfigurationError: {named}")

    def test_weights_that_skip_every_hotspot_exit_2(self, tmp_path, capsys):
        """At weights 1.0/0.0 the oracle visits no hotspot, so there are no
        words to learn from: exit 2 with the reason, not a traceback,
        naming the first demonstration and its order."""
        cfg = small_config(tmp_path / "k", test_sizes=(5,), seeds_per_size=1,
                           weights=ObjectiveWeights(1.0, 0.0))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: DegenerateWordError: demonstration 0, order []: a word "
            "needs at least two visited vertices; the oracle keeps a hotspot "
            "only where its profit pays for its detour under the config's "
            "weights"), err

    COORDINATE_SCALES = [
        pytest.param('{"mission": {"area_side_m": 1e8}, '
                     '"weights": {"cost_scale": 1e8}}', 0,
                     "pipeline complete", id="area-1e8"),
        pytest.param('{"mission": {"area_side_m": 1e15}}', 2,
                     "DegenerateWordError", id="area-1e15-skips-every-hotspot"),
        pytest.param('{"depot_m": [1e308, 0]}', 2,
                     "ConsistencyError: a tour of this instance is inf m",
                     id="depot-1e308")]
    SMALL_RUN = ["--m-training", "20", "--test-sizes", "5",
                 "--seeds-per-size", "1"]

    def test_a_bonus_refused_at_load_writes_nothing(self, tmp_path,
                                                    monkeypatch, capsys):
        """A ``ql`` bonus that over the temperature is not finite stops the
        pipeline before any stage writes a file."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(
            '{"m_training": 30, "ql": {"terminal_bonus": 1e308}}')
        assert cli_main(["pipeline", "--config", "cfg.json"]) == 2
        assert "ql: terminal_bonus" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    @pytest.mark.parametrize("key", ["terminal_bonus", "reference_bonus"])
    def test_a_huge_mql_bonus_exits_3(self, tmp_path, key):
        """Bonuses of 3.5e307 (``key``) and 1e307 (the other) pass the load
        check, as each over the temperature 0.2 is finite (at most 1.75e308),
        and a 30-demo pipeline with a bonus of 3.5e307 alone completes;
        together, a learned Q-value that the terminal bonus trains plus the
        reference bonus, over the temperature, overflows MQL's softmax. The
        pipeline exits 3 with one ``numeric error:`` line naming the
        temperature and both bonuses, and prints no traceback and no numpy
        warning. Run in a process of its own, so that stderr is what a user
        sees."""
        bonus = {"terminal_bonus": 1e307, "reference_bonus": 1e307,
                 key: 3.5e307}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"m_training": 30, "ql": bonus}))
        src = Path(__file__).parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-m", "uavplan.cli", "pipeline", "--config",
             str(cfg_path), "--out", str(tmp_path / "out"), "--test-sizes",
             "5", "--seeds-per-size", "1"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 3, result.stderr[-2000:]
        err = result.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "numeric error: MQL's softmax row is not finite"), err
        for named in (f"ql.{key} 3.5e+307", "ql.terminal_bonus",
                      "ql.reference_bonus", "ql.temperature 0.2"):
            assert named in err[0]
        assert "Traceback" not in result.stderr
        assert "RuntimeWarning" not in result.stderr

    @pytest.mark.parametrize("config,code,named", COORDINATE_SCALES)
    def test_oracle_ends_at_any_coordinate_scale(self, tmp_path, config,
                                                 code, named):
        """The oracle's 2-opt stops on a rounding-level gain at any
        coordinate scale: a 1e8 m area, where rounding once made it undo
        and redo an exchange forever, finishes, and so does a 1e15 m one,
        whose tours skip every hotspot at the default weights; a depot
        whose tours are infinitely long is refused. Run in a process of
        its own, so that a search that never ends fails the test."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config)
        src = Path(__file__).parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-m", "uavplan.cli", "pipeline", "--config",
             str(cfg_path), "--out", str(tmp_path / "out"), *self.SMALL_RUN],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == code, result.stderr[-2000:]
        assert named in result.stdout + result.stderr

    @pytest.mark.parametrize("config,code,named", COORDINATE_SCALES)
    def test_oracle_at_any_coordinate_scale_warns_nothing(
            self, tmp_path, capsys, config, code, named):
        """The same runs in this process, with every warning an error: the
        oracle's array arithmetic overflows or meets NaN as Python floats
        do, silently, and the runs end as they do in a process of their
        own, where a numpy warning would only be printed."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["pipeline", "--config", str(cfg_path), "--out",
                             str(tmp_path / "out"), *self.SMALL_RUN]) == code
        captured = capsys.readouterr()
        assert named in captured.out + captured.err

    def test_nan_depot_through_the_api_ends(self, tmp_path):
        """A config file cannot hold a NaN depot (its NaN is refused at
        load), but ``ExperimentConfig`` can: the oracle refuses the depot
        when it solves the first demonstration. Run in a process of its
        own, so that a search that never ends fails the test."""
        script = ("import math, sys\n"
                  "from uavplan.harness import ExperimentConfig, run_pipeline\n"
                  "run_pipeline(ExperimentConfig(\n"
                  "    depot_m=(math.nan, 0.0), m_training=20, test_sizes=(5,),\n"
                  "    seeds_per_size=1, output_dir=sys.argv[1]))\n")
        src = Path(__file__).parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 1, result.stderr[-2000:]
        assert ("ConsistencyError: a tour of this instance is nan m"
                in result.stderr.splitlines()[-1])

    def test_nan_depot_through_the_api_warns_nothing(self, tmp_path):
        """The same run in this process, with every warning an error."""
        cfg = ExperimentConfig(depot_m=(math.nan, 0.0), m_training=20,
                               test_sizes=(5,), seeds_per_size=1,
                               output_dir=str(tmp_path / "out"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConsistencyError,
                               match="^a tour of this instance is nan m"):
                run_pipeline(cfg)

    def test_reused_pool_with_other_hotspots_exits_2(self, tmp_path, capsys):
        """A reused pools.json must equal the pool its seed samples, not
        only record the seed and config: a testing-pool hotspot with
        another center and profit exits 2 naming the file and the first
        field that differs, although metrics.csv is deleted, so that eval
        would run on the damaged pool."""
        cfg = small_config(tmp_path / "p", test_sizes=(5,), seeds_per_size=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 0
        path = tmp_path / "p" / "pools.json"
        obj = json.loads(path.read_text())
        spot = obj["hotspots"][54]
        assert spot["id"] == 55 > cfg.training_pool_size
        spot["profit_bps"] *= 2
        spot["center_m"][0] += 10.0
        path.write_text(json.dumps(obj))
        (tmp_path / "p" / "metrics.csv").unlink()
        capsys.readouterr()
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert str(path) in err and "hotspots.54.center_m.0" in err

    def test_world_model_with_another_word_count_exits_2(self, tmp_path,
                                                         capsys):
        """A reused world model with one stored word more than the
        demonstrations give differs at ``words`` itself: the message names
        that key, cuts both word lists short and gives their fingerprints."""
        code, err = self._damaged_run_exit(
            tmp_path, capsys, "world_model.json",
            _add_word(None, [1, 2], 1), "pipeline")
        assert code == 2
        assert "holds words [" in err and "...," in err
        assert len(re.findall(r"\b[0-9a-f]{64}\b", err)) == 2
        assert len(err) < 600

    @pytest.mark.parametrize("bad,text", [(math.nan, "NaN"),
                                          (-math.inf, "-Infinity")],
                             ids=["nan", "-inf"])
    def test_world_model_with_a_non_finite_letter_exits_2(self, tmp_path,
                                                          capsys, bad, text):
        """A reused world model with NaN or an infinity, which JSON cannot
        hold, in place of a stored word's first letter exits 2, not with a
        traceback: the message names the file, the letter's key with the
        number quoted as it is, and the fingerprints of both word lists."""
        code, err = self._damaged_run_exit(
            tmp_path, capsys, "world_model.json",
            lambda obj: obj["words"][0].__setitem__(0, bad), "pipeline")
        assert code == 2
        assert err.startswith(f"configuration error: "
                              f"{tmp_path / 'd' / 'world_model.json'} line 1 "
                              f"holds words.0.0 {text}, but this run writes "), err
        assert len(re.findall(r"\b[0-9a-f]{64}\b", err)) == 2

    @pytest.mark.parametrize("change,artifact,recorded,current", [
        pytest.param({"noise": NoiseConfig(process_scale=0.2)},
                     "world_model.json",
                     "line 1 holds noise_config.process_scale 0.02",
                     "but this run writes 0.2", id="noise.process_scale"),
        pytest.param({"m_training": 60}, "training_instances.jsonl",
                     "line 1 holds m_training 30", "but this run writes 60",
                     id="m_training"),
        pytest.param({"pool_seed": 7}, "pools.json",
                     "line 1 holds pool_seed 20240501",
                     "but this run writes 7", id="pool_seed"),
        pytest.param({"planner": PlannerConfig(n_words=3, rng_seed=9)},
                     "metrics.csv", "line 1 holds planner.n_words 10",
                     "but this run writes 3", id="planner")])
    def test_reused_artifact_from_other_config_exits_2(
            self, tmp_path, capsys, change, artifact, recorded, current):
        """Re-running a 30-demonstration directory with another noise
        config, more demonstrations, another pool seed or other planner
        settings must not reuse the world model, training instances, pools
        or metrics: exit 2 naming the file and both values."""
        cfg = small_config(tmp_path / "c", test_sizes=(5,), seeds_per_size=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 0
        cfg_path.write_text(json.dumps(config_to_dict(replace(cfg, **change))))
        capsys.readouterr()
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert str(tmp_path / "c" / artifact) in err
        assert recorded in err and current in err

    @pytest.mark.parametrize("change,deleted,key", [
        pytest.param(lambda cfg: {"train_seed_base":
                                  cfg.train_seed_base + 5000},
                     ("training_instances.jsonl", "qtable.json"),
                     "train_seed_base", id="train_seed_base"),
        pytest.param(lambda cfg: {"pool_seed": 7}, ("pools.json",),
                     "pool_seed", id="pool_seed")])
    def test_reused_tours_for_other_instances_exits_2(
            self, tmp_path, capsys, change, deleted, key):
        """Demonstrations solved for other training instances must not be
        reused: with the instances (or the pool they are drawn from)
        deleted and their seed changed, the re-run exits 2 naming
        oracle_tours.jsonl and the key."""
        cfg = small_config(tmp_path / "t", test_sizes=(5,), seeds_per_size=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 0
        for name in deleted:
            (tmp_path / "t" / name).unlink()
        cfg_path.write_text(json.dumps(config_to_dict(
            replace(cfg, **change(cfg)))))
        capsys.readouterr()
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert str(tmp_path / "t" / "oracle_tours.jsonl") in err
        assert f"line 1 holds {key} " in err

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda lines: lines[:-2], id="last-two-rows-deleted"),
        pytest.param(lambda lines: lines[:3] + [
            lines[3].replace("ain,s005k000,5,", "ain,s005k000,6,")] + lines[4:],
            id="n_hotspots")])
    def test_reused_metrics_with_other_rows_exits_2(self, tmp_path, capsys,
                                                     edit):
        """A kept metrics.csv must hold the lines this config's eval
        writes: with the last two of its three rows deleted, the re-run
        exits 2 naming the file and both line counts; with the ain row's
        n_hotspots changed from 5 to 6, naming line 4 with both lines."""
        cfg = small_config(tmp_path / "m", test_sizes=(5,), seeds_per_size=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 0
        path = tmp_path / "m" / "metrics.csv"
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) == 5 and lines[3].startswith("ain,s005k000,5,")
        path.write_text("".join(edit(lines)))
        capsys.readouterr()
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        if len(edit(lines)) == 3:
            assert f"{path} holds 3 lines, but this run writes 5" in err
        else:
            assert f"{path} line 4 holds ain,s005k000,6," in err
            assert "but this run writes ain,s005k000,5," in err

    def test_refused_run_leaves_config_json(self, tmp_path, capsys):
        """config.json is the eval's record, written after its outputs: a
        re-run that exits 2 leaves it as it was; ``report`` with other
        planner settings exits 2 naming config.json, metrics.csv, the key
        and both values before it writes anything; and a metrics.csv without
        config.json is checked as an export, so the re-run exits 0 and
        writes config.json again."""
        cfg = small_config(tmp_path / "r", test_sizes=(5,), seeds_per_size=1)
        out = tmp_path / "r"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 0
        recorded = (out / "config.json").read_bytes()
        cfg_path.write_text(json.dumps(config_to_dict(
            replace(cfg, weights=ObjectiveWeights(0.5, 0.5)))))
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 2
        assert (out / "config.json").read_bytes() == recorded

        cfg_path.write_text(json.dumps(config_to_dict(
            replace(cfg, planner=PlannerConfig(n_words=3)))))
        (out / "summary.csv").unlink()
        capsys.readouterr()
        assert cli_main(["report", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {out / 'config.json'} "
                              "line 1 holds planner.n_words 10, but this run "
                              "writes 3")
        assert str(out / "metrics.csv") in err
        assert not (out / "summary.csv").exists()
        assert (out / "config.json").read_bytes() == recorded

        (out / "config.json").unlink()
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 0
        assert (out / "config.json").read_bytes() == recorded

    def test_moved_directory_with_other_workers_keeps_its_bytes(self,
                                                                 tmp_path):
        """output_dir and workers are in no check: a finished run moved
        elsewhere and re-run at workers=2 exits 0 and keeps the bytes of
        every file but timings.csv."""
        cfg = small_config(tmp_path / "a", test_sizes=(5,), seeds_per_size=1)
        run_pipeline(cfg)
        shutil.copytree(tmp_path / "a", tmp_path / "b")
        moved = replace(cfg, output_dir=str(tmp_path / "b"), workers=2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(moved)))
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 0
        kept, moved_files = (_artifact_bytes(tmp_path / d) for d in "ab")
        assert moved_files == kept

    def test_plan_command_scores_with_the_config_weights(self, tmp_path):
        weights = ObjectiveWeights(weight_alpha=0.5, weight_beta=0.5)
        cfg = small_config(tmp_path / "pw", weights=weights,
                           test_sizes=(7,), seeds_per_size=1)
        run_pipeline(cfg)
        out = Path(cfg.output_dir)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        inst_path = out / "instances" / "s007k000.json"
        trace = tmp_path / "trace.json"
        assert cli_main(["plan", "--instance", str(inst_path),
                         "--model", str(out / "world_model.json"),
                         "--config", str(cfg_path),
                         "--trace", str(trace)]) == 0
        tour = json.loads(trace.read_text())["tour"]
        inst = instance_from_dict(json.loads(inst_path.read_text()))
        assert tour["objective"] == make_tour(tour["order"], inst,
                                              weights).objective
        assert tour["objective"] != make_tour(tour["order"], inst,
                                              ObjectiveWeights()).objective
        # the run's own AIn trace for this instance (same planner config)
        assert trace.read_bytes() == (out / "traces/s007k000_ain.json").read_bytes()

    def test_plan_command(self, tmp_path):
        cfg = small_config(tmp_path / "cli3")
        run_pipeline(cfg)
        out = Path(cfg.output_dir)
        inst = next(iter(sorted((out / "instances").glob("*.json"))))
        trace = tmp_path / "trace.json"
        rc = cli_main(["plan", "--instance", str(inst),
                       "--model", str(out / "world_model.json"),
                       "--trace", str(trace)])
        assert rc == 0 and trace.exists()
        data = json.loads(trace.read_text())
        assert data["schema"] == "uavplan.plan.v3"

    def test_plan_command_without_trace_prints_only_json(self, tmp_path,
                                                         capsys):
        """Without --trace the trace is stdout's only content, a v3 trace
        that expands to v2, and the summary line goes to stderr."""
        cfg = small_config(tmp_path / "so", test_sizes=(7,), seeds_per_size=1)
        run_pipeline(cfg)
        out = Path(cfg.output_dir)
        capsys.readouterr()
        assert cli_main(["plan", "--instance",
                         str(out / "instances" / "s007k000.json"),
                         "--model", str(out / "world_model.json")]) == 0
        captured = capsys.readouterr()
        trace = json.loads(captured.out)
        assert trace["schema"] == "uavplan.plan.v3"
        assert expand_v2(trace)["schema"] == "uavplan.plan.v2"
        assert trace == json.loads(
            (out / "traces/s007k000_ain.json").read_text())
        assert captured.err.startswith("word: [")

    def test_pipeline_command(self, tmp_path):
        cfg = small_config(tmp_path / "cli4")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(cfg)))
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "cli4" / "metrics.csv").exists()


# One changed value per config key but output_dir and workers.
_CHANGED = {
    "channel": ChannelParams(mu_los_db=2.0),
    "mission": MissionConfig(uav_altitude_m=220.0),
    "weights": ObjectiveWeights(0.5, 0.5),
    "noise": NoiseConfig(process_scale=0.2),
    "planner": PlannerConfig(n_words=3),
    "ql": QTrainConfig(episodes=401),
    "pool_seed": 7,
    "testing_pool_size": 120,
    "training_pool_size": 40,
    "mean_users": 3.5,
    "depot_m": (150.0, 1750.0),
    "m_training": 40,
    "train_instance_size": 6,
    "train_seed_base": 1_005_000,
    "test_sizes": (5, 7),
    "seeds_per_size": 2,
    "test_seed_base": 9_000_001,
    "ql_train_seed": 778,
}
_RECORDED_KEYS = [f.name for f in fields(ExperimentConfig)
                  if f.name not in ("output_dir", "workers")]
# the artifacts a rerun reuses (or checks), in stage order, with the stage
# whose record each holds
_CACHED = (("pools.json", "pools"),
           ("training_instances.jsonl", "training_instances"),
           ("oracle_tours.jsonl", "oracle"), ("world_model.json", "world"),
           ("qtable.json", "ql"))
# what a rerun writes afresh once it is deleted
_EVAL_OUTPUTS = ("metrics.csv", "config.json", "timings.csv", "summary.csv",
                 "ratios.csv", "tours", "traces", "instances", "trajectories")


def _delete(out: Path, names) -> None:
    for name in names:
        path = out / name
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A finished 30-demonstration run with one test instance."""
    cfg = small_config(tmp_path_factory.mktemp("finished") / "out",
                       test_sizes=(5,), seeds_per_size=1)
    run_pipeline(cfg)
    return cfg


def _rerun(tmp_path, capsys, finished, changed, keep):
    """Copy the finished run, delete every artifact but ``keep``, and run
    the pipeline on the copy with the config ``changed``; returns the
    copy's path, the exit code and stderr."""
    out = tmp_path / "rerun"
    shutil.copytree(finished.output_dir, out)
    _delete(out, [p.name for p in out.iterdir() if p.name not in keep])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_dict(
        replace(changed, output_dir=str(out)))))
    capsys.readouterr()
    code = cli_main(["pipeline", "--config", str(cfg_path)])
    return out, code, capsys.readouterr().err


class TestReuseRecords:
    """Every reuse record is derived from one table of what each stage
    reads (``_READS``): a stage's record is its own keys and those of
    every stage upstream of it."""

    def test_every_config_key_is_read_by_exactly_one_stage(self):
        own = [key for _, keys in _READS.values() for key in keys]
        assert len(own) == len(set(own))
        assert set(own) == set(_RECORDED_KEYS)

    def test_records_hold_upstream_keys_first(self):
        cfg = ExperimentConfig()
        assert list(_record(cfg, "eval")) == [
            "pool_seed", "mean_users", "mission", "channel",
            "training_pool_size", "train_instance_size", "train_seed_base",
            "m_training", "depot_m", "weights", "noise", "ql",
            "ql_train_seed", "testing_pool_size", "planner", "test_sizes",
            "seeds_per_size", "test_seed_base"]
        assert _record(cfg, "eval") == {
            key: value for key, value in json.loads(_canonical_json(
                config_to_dict(cfg))).items()
            if key not in ("schema", "output_dir", "workers")}

    @pytest.mark.parametrize("key", _RECORDED_KEYS)
    def test_changed_key_is_refused_or_recomputed(
            self, tmp_path, capsys, finished_run, key):
        """With every cached artifact kept and the eval outputs deleted, a
        run with ``key`` changed exits 2 naming the first kept artifact
        whose record holds the key (pools.json holds the testing pool
        whole, so also its size), or leaves a fresh run's bytes."""
        changed = replace(finished_run, **{key: _CHANGED[key]})
        out, code, err = _rerun(tmp_path, capsys, finished_run, changed,
                                keep=[name for name, _ in _CACHED])
        named = next((name for name, stage in _CACHED
                      if key in _record(changed, stage)
                      or (name, key) == ("pools.json", "testing_pool_size")),
                     None)
        if named is not None:
            assert code == 2, err
            assert err.startswith(f"configuration error: {out / named} "), err
            return
        assert code == 0, err
        fresh = replace(changed, output_dir=str(tmp_path / "fresh"))
        run_pipeline(fresh)
        rerun, made = _artifact_bytes(out), _artifact_bytes(tmp_path / "fresh")
        assert rerun == made

    def test_qtable_from_another_ql_train_seed_exits_2(self, tmp_path, capsys,
                                                       finished_run):
        """The Q-table records the seed it was trained with: with metrics.csv
        and config.json deleted, a run with another ql_train_seed exits 2
        naming qtable.json and both seeds."""
        out, code, err = _rerun(
            tmp_path, capsys, finished_run,
            replace(finished_run, ql_train_seed=778),
            keep=[name for name, _ in _CACHED])
        assert code == 2
        assert err.startswith(f"configuration error: {out / 'qtable.json'} ")
        assert "line 1 holds ql_train_seed 777, but this run writes 778" in err

    @pytest.mark.parametrize("key,change,recorded", [
        pytest.param("mean_users", 3.5,
                     "mean_users 5.0, but this run writes 3.5", id="mean_users"),
        pytest.param("channel", ChannelParams(mu_los_db=2.0),
                     "channel.mu_los_db 3.0, but this run writes 2.0",
                     id="channel.mu_los_db"),
        pytest.param("mission", MissionConfig(uav_altitude_m=220.0),
                     "mission.uav_altitude_m 200.0, but this run writes 220.0",
                     id="mission.uav_altitude_m")])
    def test_qtable_kept_alone_for_other_profits_exits_2(
            self, tmp_path, capsys, finished_run, key, change, recorded):
        """The Q-table records what the pool's profits are computed from,
        not only the demonstrations' seeds and orders: kept alone, with a
        key changed that changes hotspot profits, it exits 2 naming
        qtable.json and the key."""
        out, code, err = _rerun(tmp_path, capsys, finished_run,
                                replace(finished_run, **{key: change}),
                                keep=["qtable.json"])
        assert code == 2
        assert err.startswith(
            f"configuration error: {out / 'qtable.json'} line 1 holds "
            f"{key}"), err
        assert recorded in err


def _bump_leaf(lines):
    lines[0]["hotspots"][3]["num_users"] += 1


def _swap_first_visits(lines):
    """Swap the first two hotspots of the third demonstration: still a
    valid tour of its instance, but not the one the oracle solves."""
    order = lines[3]["order"]
    order[0], order[1] = order[1], order[0]


@pytest.mark.parametrize("name,edit,line,leaf", [
    pytest.param("pools.json", _bump_leaf, 1, "hotspots.3.num_users",
                 id="pools.json"),
    pytest.param("training_instances.jsonl",
                 lambda lines: lines[3]["ids"].__setitem__(0, 999), 4,
                 "ids.0", id="training_instances.jsonl"),
    pytest.param("world_model.json", lambda lines: lines[0].__setitem__(
        "mean_leg_time_s", 2 * lines[0]["mean_leg_time_s"]), 1,
        "mean_leg_time_s", id="world_model.json"),
    pytest.param("oracle_tours.jsonl", _swap_first_visits, 4, "order.0",
                 id="oracle_tours.jsonl"),
    pytest.param("qtable.json", lambda lines: lines[0]["values"][0].__setitem__(
        2, 2 * lines[0]["values"][0][2] + 1), 1, "values.0.2",
        id="qtable.json"),
    pytest.param("instances/s005k000.json",
                 lambda lines: lines[0]["hotspots"][2]["center_m"].__setitem__(
                     1, lines[0]["hotspots"][2]["center_m"][1] + 1.0), 1,
                 "hotspots.2.center_m.1", id="instances"),
    pytest.param("tours/s005k000_ain.json",
                 lambda lines: lines[0]["weights"].__setitem__("cost_scale",
                                                               2.0), 1,
                 "weights.cost_scale", id="tours")])
def test_exports_hold_exactly_what_the_run_writes(
        tmp_path, capsys, finished_run, name, edit, line, leaf):
    """The files a run recomputes are checked by one rule: an untouched
    rerun exits 0 and keeps the bytes; one changed leaf exits 2 naming
    its line and field path, inside the hotspots and instances that are
    written as their dataclasses' fields too; a file cut short by a line exits 2 naming
    both line counts; and the same values encoded by ``json.dumps`` exit
    2 naming the first line, because the file is compared as bytes."""
    out = tmp_path / "run"
    shutil.copytree(finished_run.output_dir, out)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_dict(
        replace(finished_run, output_dir=str(out)))))
    path = out / name
    written = path.read_bytes()
    objs = [json.loads(ln) for ln in written.splitlines()]

    def rerun(damaged: str):
        path.write_text(damaged)
        capsys.readouterr()
        code = cli_main(["pipeline", "--config", str(cfg_path)])
        return code, capsys.readouterr().err

    assert rerun(written.decode()) == (0, "")
    assert path.read_bytes() == written

    changed = [json.loads(ln) for ln in written.splitlines()]
    edit(changed)
    code, err = rerun("".join(_canonical_json(o) + "\n" for o in changed))
    assert code == 2
    assert err.startswith(
        f"configuration error: {path} line {line} holds {leaf} "), err

    code, err = rerun("".join(_canonical_json(o) + "\n" for o in objs[:-1]))
    assert code == 2
    assert (f"{path} holds {len(objs) - 1} lines, but this run writes "
            f"{len(objs)}") in err, err

    code, err = rerun("".join(json.dumps(o) + "\n" for o in objs))
    assert code == 2
    assert err.startswith(f"configuration error: {path} line 1 "), err


def test_demonstrations_in_other_valid_orders_exit_2(tmp_path, capsys,
                                                     finished_run):
    """Every demonstration read backwards is still a valid tour of its
    instance, but not the one the oracle solves. With the world model, the
    Q-table, metrics.csv and config.json deleted, so that every later
    stage would learn from the edited tours, the rerun exits 2 naming
    oracle_tours.jsonl and the first demonstration's line."""
    out = tmp_path / "run"
    shutil.copytree(finished_run.output_dir, out)
    path = out / "oracle_tours.jsonl"
    lines = [json.loads(ln) for ln in path.read_text().splitlines()]
    for line in lines[1:]:
        line["order"].reverse()
    _write_lines(path, lines)
    _delete(out, ("world_model.json", "qtable.json", "metrics.csv",
                  "config.json"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_dict(
        replace(finished_run, output_dir=str(out)))))
    capsys.readouterr()
    assert cli_main(["pipeline", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {path} line 2 holds "
                          "order.0 "), err


def test_every_schema_is_documented():
    """Every ``uavplan.*.vN`` schema that the package writes or reads is
    named in README.md."""
    root = Path(__file__).parent.parent
    pattern = re.compile(r"uavplan\.[a-z_]+\.v[0-9]+")
    schemas = {m for path in (root / "src" / "uavplan").glob("*.py")
               for m in pattern.findall(path.read_text())}
    assert "uavplan.world_model.v4" in schemas
    readme = set(pattern.findall((root / "README.md").read_text()))
    assert schemas - readme == set()


def _copy_run(finished: ExperimentConfig, tmp_path: Path):
    """A copy of a finished run, and a config file for it."""
    out = tmp_path / "run"
    shutil.copytree(finished.output_dir, out)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_dict(
        replace(finished, output_dir=str(out)))))
    return out, cfg_path


# every file a finished run with one test instance leaves but timings.csv,
# which each run rewrites
_EXPORTS = ("pools.json", "training_instances.jsonl", "oracle_tours.jsonl",
            "world_model.json", "qtable.json", "metrics.csv", "config.json",
            "summary.csv",
            "ratios.csv", "instances/s005k000.json",
            "traces/s005k000_ain.json",
            *(f"{d}/s005k000_{m}.{ext}" for m in ("oracle", "ain", "mql")
              for d, ext in (("tours", "json"), ("trajectories", "csv"))))


@pytest.mark.parametrize("name", _EXPORTS)
def test_every_file_but_two_is_checked(tmp_path, capsys, finished_run, name):
    """Every file of a finished run but timings.csv is an export: with its
    middle digit changed, the rerun exits 2 naming it. (The name dates
    from when config.json was rewritten on every run too; it is kept so
    that the ids of the existing cases stay.)"""
    out, cfg_path = _copy_run(finished_run, tmp_path)
    assert set(_artifact_bytes(out)) == set(_EXPORTS)
    path = out / name
    data = bytearray(path.read_bytes())
    digits = [i for i, b in enumerate(data) if chr(b).isdigit()]
    at = digits[len(digits) // 2]
    data[at] = ord(str((int(chr(data[at])) + 1) % 10))
    path.write_bytes(bytes(data))
    capsys.readouterr()
    assert cli_main(["pipeline", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {path} "), err


@pytest.fixture(scope="module")
def probe_run(tmp_path_factory):
    """A finished 30-demonstration run with two test instances of each of
    sizes 5 and 10."""
    cfg = small_config(tmp_path_factory.mktemp("probe") / "out",
                       test_sizes=(5, 10), seeds_per_size=2)
    run_pipeline(cfg)
    return cfg


@pytest.mark.parametrize("deleted", ["traces", "instances/s010k001.json"])
def test_deleted_eval_outputs_are_written_again(tmp_path, capsys, probe_run,
                                                deleted):
    """With every trace, or one test instance, deleted, the rerun exits 0
    and writes them again with their bytes."""
    out, cfg_path = _copy_run(probe_run, tmp_path)
    every = _artifact_bytes(out)
    _delete(out, [deleted])
    assert cli_main(["pipeline", "--config", str(cfg_path)]) == 0
    assert _artifact_bytes(out) == every


def test_edited_eval_tour_exits_2(tmp_path, capsys, probe_run):
    """An AIn tour read backwards, with its total_cost_m set to 1.0, is a
    tour the run does not write: the rerun exits 2 naming the file."""
    out, cfg_path = _copy_run(probe_run, tmp_path)
    path = out / "tours" / "s005k000_ain.json"
    tour = json.loads(path.read_text())
    tour["order"].reverse()
    tour["total_cost_m"] = 1.0
    _write_lines(path, [tour])
    capsys.readouterr()
    assert cli_main(["pipeline", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {path} line 1 holds "
                          "order.0 "), err


def test_config_json_from_before_the_eval_record_exits_2(tmp_path, capsys,
                                                         finished_run):
    """A config.json that holds the whole config, output_dir and workers
    too, as runs wrote it before it became the eval's record, exits 2
    naming the file and output_dir; with it deleted, the rerun exits 0
    and every file keeps its bytes."""
    out, cfg_path = _copy_run(finished_run, tmp_path)
    path = out / "config.json"
    path.write_text(_canonical_json(config_to_dict(finished_run)) + "\n")
    capsys.readouterr()
    assert cli_main(["pipeline", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {path} line 1 holds "
                          "output_dir "), err
    path.unlink()
    assert cli_main(["pipeline", "--config", str(cfg_path)]) == 0
    assert _artifact_bytes(out) == _artifact_bytes(Path(finished_run.output_dir))


def test_refused_run_without_config_json_writes_none(tmp_path, capsys,
                                                     finished_run):
    """config.json is written last: with it deleted, a rerun with other
    planner settings exits 2 at an eval output and leaves no config.json
    that claims the outputs it refused."""
    out, cfg_path = _copy_run(finished_run, tmp_path)
    (out / "config.json").unlink()
    cfg_path.write_text(json.dumps(config_to_dict(replace(
        finished_run, output_dir=str(out), planner=PlannerConfig(n_words=3)))))
    capsys.readouterr()
    assert cli_main(["pipeline", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {out}"), err
    assert not (out / "config.json").exists()


def test_present_config_json_is_compared_once(tmp_path, monkeypatch,
                                              finished_run):
    """A rerun over a finished directory compares its config.json once,
    before any eval output; the file is written last only when absent."""
    out, cfg_path = _copy_run(finished_run, tmp_path)
    seen = []
    export = harness._export
    monkeypatch.setattr(harness, "_export", lambda path, *args: (
        seen.append(path.name), export(path, *args))[1])
    assert cli_main(["pipeline", "--config", str(cfg_path)]) == 0
    assert seen.count("config.json") == 1
    assert seen.index("config.json") < seen.index("metrics.csv")


@pytest.mark.parametrize("trace", [True, False], ids=["trace", "stdout"])
def test_plan_with_a_dwell_that_overflows_exits_2(tmp_path, capsys,
                                                  finished_run, trace):
    """An instance whose dwell time gives its longest tour no finite
    completion time exits 2 naming the mission key, before planning: no
    trace file, nothing on stdout."""
    out = Path(finished_run.output_dir)
    inst = json.loads((out / "instances" / "s005k000.json").read_text())
    inst["mission"]["dwell_time_s"] = 1e308
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    trace_path = tmp_path / "trace.json"
    capsys.readouterr()
    assert cli_main(["plan", "--instance", str(path), "--model",
                     str(out / "world_model.json"),
                     *(["--trace", str(trace_path)] if trace else [])]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"configuration error: instance {path}: "
                                   "a tour of 5 hotspots has no finite "
                                   "completion time at mission.dwell_time_s "
                                   "1e+308"), captured.err
    assert captured.out == "" and not trace_path.exists()


def test_plan_command_with_a_json_array_exits_2(tmp_path, capsys,
                                                finished_run):
    out = Path(finished_run.output_dir)
    model = tmp_path / "model.json"
    model.write_text("[1, 2]")
    capsys.readouterr()
    assert cli_main(["plan", "--instance",
                     str(out / "instances" / "s005k000.json"),
                     "--model", str(model)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {model} holds [1,2], not a "
                          "JSON object"), err


def test_gen_pool_makes_no_subdirectory(tmp_path):
    """Only the eval and the report write into subdirectories, so a run
    up to the pools makes none of them."""
    out = tmp_path / "run"
    assert cli_main(["gen-pool", "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["pools.json"]


def _out_is_a_file(tmp_path, finished):
    path = tmp_path / "file"
    path.write_text("")
    return ["gen-pool", "--out", str(path)], path, []


def _tours_is_a_file(tmp_path, finished):
    out = tmp_path / "run"
    out.mkdir()
    (out / "tours").write_text("")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_dict(
        replace(finished, output_dir=str(out)))))
    # refused before the first stage: no set-up artifact is written
    return ["pipeline", "--config", str(cfg_path)], out / "tours", [
        out / name for name in ("pools.json", "training_instances.jsonl",
                                "oracle_tours.jsonl", "world_model.json",
                                "qtable.json")]


def _trace_is_a_directory(tmp_path, finished):
    out = Path(finished.output_dir)
    path = tmp_path / "trace"
    path.mkdir()
    return ["plan", "--instance", str(out / "instances" / "s005k000.json"),
            "--model", str(out / "world_model.json"), "--trace", str(path)], \
        path, []


@pytest.mark.parametrize("setup", [
    pytest.param(_out_is_a_file, id="gen-pool-out-is-a-file"),
    pytest.param(_tours_is_a_file, id="pipeline-tours-is-a-file"),
    pytest.param(_trace_is_a_directory, id="plan-trace-is-a-directory")])
def test_failed_write_exits_2(tmp_path, capsys, finished_run, setup):
    """An output directory that is a file, a file in a directory that is
    a file, and a trace path that is a directory each exit 2 naming the
    path, with no traceback, and leave no temporary file. A directory
    that the pipeline cannot make is found before any stage runs."""
    argv, path, unwritten = setup(tmp_path, finished_run)
    capsys.readouterr()
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot write ") and \
        str(path) in err, err
    assert [p for p in unwritten if p.exists()] == []
    assert list(tmp_path.rglob("*.tmp")) == []


@pytest.mark.parametrize("trace", [True, False], ids=["trace-file", "stdout"])
def test_plan_with_a_non_finite_trace_exits_3(tmp_path, capsys, finished_run,
                                              trace):
    """A world model whose letters each hold a mean profit of 1e308 is
    finite, but the steps' target means sum past the largest float. The
    trace cannot be JSON, so ``plan`` exits 3 naming where it would have
    gone, and writes nothing there: no trace file and no temporary file,
    or nothing on stdout."""
    out = Path(finished_run.output_dir)
    obj = json.loads((out / "world_model.json").read_text())
    for stats in obj["letters"].values():
        stats["mean_profit_bps"] = 1e308
    model = tmp_path / "model.json"
    model.write_text(json.dumps(obj))
    path = tmp_path / "trace.json"
    argv = ["plan", "--instance", str(out / "instances" / "s005k000.json"),
            "--model", str(model)] + (["--trace", str(path)] if trace else [])
    capsys.readouterr()
    assert cli_main(argv) == 3
    captured = capsys.readouterr()
    where = str(path) if trace else "the plan trace to stdout"
    assert captured.err.startswith(f"numeric error: cannot write {where}: "
                                   "a value is not finite"), captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == [model]


def test_a_value_json_cannot_hold_is_a_numeric_error(tmp_path):
    """Every artifact is encoded with NaN and the infinities refused: a
    write names the file and leaves neither it nor a temporary file, and
    a file checked against such a value names it too."""
    path = tmp_path / "f.jsonl"
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NumericError, match=f"^cannot write "
                           f"{re.escape(str(path))}: a value is not finite"):
            write_jsonl_atomic(path, iter([{"a": 1.0}, {"b": [bad]}]))
        assert list(tmp_path.iterdir()) == []
    path.write_text('{"b":[1.0]}\n')
    with pytest.raises(NumericError, match="^cannot write "):
        harness._export(path, [{"b": [math.nan]}])
    assert path.read_text() == '{"b":[1.0]}\n'


@pytest.mark.parametrize("shape", ["c6-c8", "plan-large", "train-large",
                                   "profit-drops"])
def test_world_model_of_each_shape_round_trips(tmp_path, shape):
    """``world_model.json`` of the C6-C8 config, of both benchmark
    workload shapes and of the shape whose oracle drops hotspots (the
    configs ``tools/same_outputs.py`` runs) holds the JSON form of the
    object ``model_to_dict`` gives of the model ``model_from_dict`` reads
    from it (a stored word is a tuple there, a list here): every model
    ``plan --model`` accepts is written back as it was read."""
    spec = importlib.util.spec_from_file_location(
        "same_outputs", Path(__file__).parent.parent / "tools" / "same_outputs.py")
    same = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same)
    config = {**same.default_configs()[shape], "output_dir": str(tmp_path)}
    run_pipeline(config_from_dict(config), "world")
    obj = json.loads((tmp_path / "world_model.json").read_text())
    back = world_model.model_to_dict(world_model.model_from_dict(obj))
    assert json.loads(_canonical_json(back)) == obj
