"""Tests of the benchmark's own code: span arithmetic, the tail rule, the
checks, the workload definitions and a tiny-scale run of each workload.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
from pathlib import Path

import pytest

import checks
import run
import tracing
from workloads import SEEDED_FIELDS, WORKLOADS, derive_seed

ROOT = Path(__file__).resolve().parents[2]


# --- span arithmetic -----------------------------------------------------------

def by_name(spans):
    return tracing.self_times(spans)


def test_self_time_two_opt_inside_selection_pass():
    spans = [
        ("oracle.solve", 0.0, 10.0, -1),                 # 0
        ("oracle.nearest_neighbor_construct", 0.5, 1.5, 0),
        ("oracle.two_opt", 2.0, 4.0, 0),                 # 2
        ("oracle.make_tour", 3.0, 3.5, 2),
        ("oracle.selection_pass", 5.0, 9.0, 0),          # 4
        ("oracle.two_opt", 6.0, 7.0, 4),                 # 5
        ("oracle.make_tour", 6.25, 6.5, 5),
    ]
    st = by_name(spans)
    assert st["oracle.solve"]["self_s"] == pytest.approx(10 - 1 - 2 - 4)
    assert st["oracle.selection_pass"]["self_s"] == pytest.approx(4 - 1)
    # two_opt: (2 - 0.5) at top level plus (1 - 0.25) inside selection_pass
    assert st["oracle.two_opt"]["self_s"] == pytest.approx(1.5 + 0.75)
    assert st["oracle.two_opt"]["total_s"] == pytest.approx(3.0)
    assert st["oracle.two_opt"]["calls"] == 2
    # self times partition the root span
    assert sum(v["self_s"] for v in st.values()) == pytest.approx(10.0)


def test_recursion_counts_inclusive_time_once():
    spans = [("planner.rollout", 0.0, 4.0, -1), ("planner.rollout", 1.0, 3.0, 0)]
    st = by_name(spans)
    assert st["planner.rollout"]["total_s"] == pytest.approx(4.0)
    assert st["planner.rollout"]["self_s"] == pytest.approx(4.0)
    assert st["planner.rollout"]["calls"] == 2


def test_layer_self_times_sum_by_module():
    st = by_name([("harness.stage_oracle", 0.0, 3.0, -1),
                  ("oracle.solve", 1.0, 2.0, 0)])
    layers = tracing.layer_self_times(st)
    assert layers["harness"] == pytest.approx(2.0)
    assert layers["oracle"] == pytest.approx(1.0)
    assert set(layers) == set(tracing.LAYERS)


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_recorder_records_parents_in_opening_order():
    rec = tracing.Recorder(clock=fake_clock([0.0, 1.0, 2.0, 3.0, 4.0, 10.0]))
    root = rec.open("harness.stage_oracle")
    solve = rec.open("oracle.solve")
    rec.close(solve)
    nn = rec.open("oracle.nearest_neighbor_construct")
    rec.close(nn)
    rec.close(root)
    assert rec.spans() == [("harness.stage_oracle", 0.0, 10.0, -1),
                           ("oracle.solve", 1.0, 2.0, 0),
                           ("oracle.nearest_neighbor_construct", 3.0, 4.0, 0)]
    assert rec.stack == []
    st = tracing.self_times(rec.spans())
    assert st["harness.stage_oracle"]["self_s"] == pytest.approx(8.0)


def test_install_wraps_every_lookup_name_and_uninstall_restores():
    from uavplan import harness, oracle, planner
    originals = (oracle.solve, harness.solve, planner.GaussianBelief.__post_init__)
    rec = tracing.Recorder()
    undo = tracing.install(rec, "full")
    try:
        assert oracle.solve is harness.solve is not originals[0]
        assert oracle.solve.__wrapped__ is originals[0]
        planner.GaussianBelief.zero()
        assert rec.counts["planner.GaussianBelief.constructed"] == 1
    finally:
        tracing.uninstall(undo)
    assert (oracle.solve, harness.solve,
            planner.GaussianBelief.__post_init__) == originals
    undo = tracing.install(rec, "stages")
    try:
        assert oracle.solve is originals[0]
        assert harness.stage_eval is not harness.stage_eval.__wrapped__
    finally:
        tracing.uninstall(undo)


# --- tail percentile -------------------------------------------------------------

def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(100, 0, -1))
    pct, value = run.tail_percentile(samples)
    assert (pct, value) == (90.0, 90)
    assert sum(s > value for s in samples) == 10


def test_tail_percentile_smallest_sample_count():
    pct, value = run.tail_percentile(range(11))
    assert value == 0 and pct == pytest.approx(100 / 11)


@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_percentile_refuses_ten_or_fewer(n):
    with pytest.raises(ValueError):
        run.tail_percentile(range(n))


def test_tail_percentile_skips_ties():
    samples = [1.0] * 5 + [2.0] * 10 + [3.0] * 5
    pct, value = run.tail_percentile(samples)
    assert value == 1.0 and pct == 25.0
    with pytest.raises(ValueError):
        run.tail_percentile([1.0] * 30)


# --- workloads and BENCHMARK.json ----------------------------------------------

def test_config_is_a_function_of_the_seed():
    wl = WORKLOADS["plan-large"]
    assert wl.config(5, 0, "o") == wl.config(5, 0, "o")
    a, b = wl.config(5, 0, "o"), wl.config(6, 0, "o")
    for f in ("pool_seed", "train_seed_base", "test_seed_base", "ql_train_seed"):
        assert a[f] != b[f]
    assert a["planner"]["rng_seed"] != b["planner"]["rng_seed"]
    assert len({derive_seed(5, f) for f in SEEDED_FIELDS}) == len(SEEDED_FIELDS)
    # each repetition of a run gets its own inputs
    assert wl.config(5, 1, "o")["pool_seed"] != a["pool_seed"]


def test_repetitions_follow_seconds_not_host_speed():
    wl = WORKLOADS["train-large"]
    assert wl.reps(0) == 1
    assert wl.reps(3 * wl.rep_s) == 3


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        n: w.why for n, w in WORKLOADS.items()}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


# --- checks on a real (tiny) pipeline output ------------------------------------

@pytest.fixture(scope="module")
def tiny_out(tmp_path_factory):
    from uavplan import cli
    out = tmp_path_factory.mktemp("tiny") / "out"
    out.mkdir()
    cfg = WORKLOADS["plan-large"].tiny().config(4, 0, str(out))
    assert checks.absent_artifacts_failures(out) == []
    cfg_path = out.parent / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["pipeline", "--config", str(cfg_path)]) == 0
    return out, cfg


def test_checks_pass_on_a_clean_run(tiny_out):
    out, cfg = tiny_out
    rc = checks.check_run(out, cfg)
    assert rc.failed == 0, (rc.run_failures, rc.instance_failures)
    assert rc.instances == 12 and len(rc.ain_ms) == 12
    assert len(rc.ain_similarity) == 12
    assert all(rc.completion_s[m] > 0 for m in checks.METHODS)
    assert checks.absent_artifacts_failures(out)   # no longer empty


def test_checks_catch_a_row_that_does_not_recompute(tiny_out, tmp_path):
    out, cfg = tiny_out
    bad = tmp_path / "out"
    shutil.copytree(out, bad)
    text = (bad / "metrics.csv").read_text().splitlines()
    cells = text[3].split(",")
    cells[5] = repr(float(cells[5]) + 1.0)          # tour_length_m of one row
    text[3] = ",".join(cells)
    (bad / "metrics.csv").write_text("\n".join(text) + "\n")
    rc = checks.check_run(bad, cfg)
    assert list(rc.instance_failures) == [cells[1]]


def test_checks_catch_a_word_that_is_not_a_permutation(tiny_out, tmp_path):
    out, cfg = tiny_out
    bad = tmp_path / "out"
    shutil.copytree(out, bad)
    iid = checks.instance_ids(cfg)[0]
    path = bad / f"tours/{iid}_mql.json"
    tour = json.loads(path.read_text())
    tour["order"] = tour["order"][:-1]
    path.write_text(json.dumps(tour))
    rc = checks.check_run(bad, cfg)
    assert any("permutation" in w for w in rc.instance_failures[iid])


def test_checks_catch_a_missing_artifact(tiny_out, tmp_path):
    out, cfg = tiny_out
    bad = tmp_path / "out"
    shutil.copytree(out, bad)
    (bad / "summary.csv").unlink()
    assert checks.check_run(bad, cfg).run_failures


# --- tiny-scale smoke run of every workload definition --------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_runs_clean(name, tmp_path):
    wl = WORKLOADS[name].tiny()
    cpus = os.sched_getaffinity(0)
    res = run.measure(wl, 2, 0, False, tmp_path / "work")
    assert os.sched_getaffinity(0) == cpus
    assert res["failed"] == 0, (res["run_failures"], res["instance_failures"])
    assert set(res["metrics"]) == {m for m, _, _ in run.END_TO_END}
    assert all(math.isfinite(v) and v > 0 for v in res["metrics"].values())
    assert res["tail"]["samples"] == wl.instances
    assert all(r["probe_s"] > 0 for r in res["per_rep_raw"])


def test_tiny_traced_run_reports_every_layer(tmp_path):
    wl = WORKLOADS["plan-large"].tiny()
    res = run.measure(wl, 2, 0, True, tmp_path / "work")
    assert res["failed"] == 0, (res["run_failures"], res["instance_failures"])
    m = res["metrics"]
    assert set(m) == {n for n, _, _ in run.PER_LAYER}
    for layer in tracing.LAYERS:
        assert m[f"layer.{layer}.self_s"] > 0
    assert m["planner.insert_best.calls"] > 0
    assert m["planner.GaussianBelief.constructed"] > 0
    assert m["planner.select_reference.bound_evals"] > 0
    assert m["world_model.words"] > 0
    assert m["harness.w2.task_bytes"] > 0 and m["harness.w2.stage_eval.s"] > 0
    # untraced, traced and workers=2 runs of the same inputs
    assert len(set(res["metrics_csv_sha256"])) == 1
