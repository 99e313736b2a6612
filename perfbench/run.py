"""uavplan benchmark: cold `uavplan pipeline` runs on seeded workloads.

Run from the root of a source checkout (no install or build needed):

    python3 perfbench/run.py --workload plan-large --seed 1 --seconds 40 --trace 0

Each repetition starts a fresh interpreter (child.py) that runs the
pipeline into a new empty output directory; the outputs are then checked
(checks.py) and removed.

``--trace 0`` makes round(``--seconds`` / the workload's ``rep_s``)
repetitions, each on its own seeded inputs (workloads.py), with spans at
stage level only, and reports the end-to-end metrics. So a run measures
for about ``--seconds`` at the reference host speed, and its inputs never
depend on how fast the host is. ``--trace 1`` runs the first
repetition's inputs three times: that way, fully traced (tracing.py),
and at workers=2. It reports the per-layer metrics, the tracing overhead
and the process-pool dispatch cost, and checks that all three write the
same metrics.csv bytes.

Timings are scaled to a reference host speed. CPU speed on a shared host
drifts by tens of percent within minutes, which would swamp any change
to the program, so a fixed pure-Python probe (``probe_s``) is timed right
before and right after every workers=1 pipeline process, on the one CPU
that this process and the pipeline are pinned to, and each of the
repetition's timings is reported as raw seconds x PROBE_REF_S / (mean of
the two probe times). The raw timings and the probe times are kept in
the results file. (A probe running beside the pipeline on the other CPU
is no use: the two CPUs slow each other down.)

The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it repeat the
metrics for people, with provenance. Everything, per repetition, is also
written to .perfbench/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

STATE = ROOT / ".perfbench"
TAIL_BEYOND = 10
PROBE_REF_S = 0.05      # probe time that defines the reference host speed

# name, unit, better; bounds live in BENCHMARK.json
END_TO_END = (
    ("pipeline_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("eval_s", "s", "lower"),
    ("ain_plan_ms_p50", "ms", "lower"),
    ("ain_plan_ms_tail", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ain_over_oracle_time", "ratio", "lower"),
    ("mql_over_oracle_time", "ratio", "lower"),
)

SPAN_TOTALS = ("planner.select_reference", "planner.insert_best",
               "planner.generate_words", "planner.plan_mission", "oracle.solve",
               "oracle.nearest_neighbor_construct", "environment.sample_instance",
               "world_model.learn", "ql.train_q", "ql.construct_word")
SPAN_SELF = ("oracle.two_opt", "oracle.selection_pass")
SPAN_CALLS = ("planner.insert_best", "oracle.two_opt")
COUNTS = ("planner.select_reference.bound_evals",
          "planner.GaussianBelief.constructed",
          "environment.Instance.hotspot.calls", "world_model.words")

PER_LAYER = (
    [(f"{n}.s", "s", "lower") for n in SPAN_TOTALS]
    + [(f"{n}.self_s", "s", "lower") for n in SPAN_SELF]
    + [(f"{n}.calls", "count", "lower") for n in SPAN_CALLS]
    + [(n, "count", "lower") for n in COUNTS]
    + [("planner.insert_best.candidates", "count", "lower")]
    + [(f"harness.{s}.s", "s", "lower") for s in tracing.STAGES]
    + [("harness.eval_overhead_s", "s", "lower"),
       ("harness.w2.stage_eval.s", "s", "lower"),
       ("harness.w2.eval_overhead_s", "s", "lower"),
       ("harness.w2.task_bytes", "bytes", "lower"),
       ("harness.artifact_files", "count", "lower"),
       ("harness.artifact_bytes", "bytes", "lower"),
       ("cli.import_s", "s", "lower")]
    + [(f"layer.{l}.self_s", "s", "lower") for l in tracing.LAYERS]
    + [("trace.overhead_s", "s", "lower"),
       ("trace.overhead_ratio", "ratio", "lower"),
       ("quality.ain_similarity", "ratio", "higher")]
)


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed check)."""


def tail_percentile(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ``beyond``
    samples strictly above it. Refuses samples too few to have one."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"{n} samples cannot have {beyond} beyond a percentile")
    k = n - beyond - 1
    while k >= 0 and ordered[k] == ordered[k + 1]:
        k -= 1
    if k < 0:
        raise ValueError(f"no value has {beyond} samples above it")
    return 100.0 * (k + 1) / n, ordered[k]


def _probe_work() -> float:
    # the pipeline's staple operations: float geometry in a tight loop, and
    # many small dicts built, sorted and put through JSON, which also
    # exercises the allocator and the caches as the pipeline's artifact
    # handling does
    pts = [((i * 7919) % 1000 / 10.0, (i * 104729) % 1000 / 10.0) for i in range(64)]
    total = 0.0
    for _ in range(20):
        for a in pts:
            for b in pts:
                total += math.hypot(a[0] - b[0], a[1] - b[1])
    rows = [{"id": i, "center_m": [i * 0.5, i * 0.25], "users": i % 97}
            for i in range(12000)]
    rows.sort(key=lambda r: (r["users"], -r["id"]))
    total += len(json.loads(json.dumps(rows[:3000])))
    return total


def probe_s() -> float:
    """Current host speed: median wall time of nine fixed probe chunks."""
    times = []
    for _ in range(9):
        t0 = time.perf_counter()
        _probe_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Rep:
    """One repetition: a cold pipeline process and the checks on its output."""

    depth: str
    workers: int
    t_spawn: float
    t_exit: float
    child: dict
    check: checks.RunCheck
    per_name: dict | None = None
    probe_s: float | None = None    # mean of the probes before and after

    @property
    def pipeline_s(self) -> float:
        return self.t_exit - self.t_spawn

    @property
    def main_s(self) -> float:
        """Spawn to pipeline return: excludes writing the trace out."""
        return self.child["t_main_end"] - self.t_spawn

    @property
    def setup_s(self) -> float:
        return self.child["stages"]["stage_eval"][0] - self.t_spawn

    def stage_s(self, stage: str) -> float:
        start, end = self.child["stages"][stage]
        return end - start

    @property
    def peak_rss_mb(self) -> float:
        return self.child["peak_rss_self_mb"] + self.child["peak_rss_children_mb"]

    @property
    def scale(self) -> float:
        """Factor from raw seconds to seconds at the reference host speed."""
        return PROBE_REF_S / self.probe_s

    def eval_overhead_s(self, workers: int) -> float:
        """stage_eval minus the per-task work (timings.csv) per worker."""
        return self.stage_s("stage_eval") - self.check.task_work_s / workers


def run_rep(wl: Workload, seed: int, rep: int, work: Path, depth: str,
            keep_trace: Path | None = None, probe: bool = True) -> Rep:
    """Repetition ``rep``'s inputs through one cold pipeline process,
    with the host-speed probe timed right before and right after it."""
    rep_dir = work / f"{depth}-w{wl.workers}-{rep}"
    out = rep_dir / "out"
    out.mkdir(parents=True)
    cfg = wl.config(seed, rep, str(out))
    cfg_path, result_path = rep_dir / "config.json", rep_dir / "result.json"
    cfg_path.write_text(json.dumps(cfg, sort_keys=True))
    before = checks.absent_artifacts_failures(out)

    probes = [probe_s()] if probe else []
    t_spawn = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(cfg_path),
                           str(result_path), depth],
                          cwd=ROOT, capture_output=True, text=True)
    t_exit = time.monotonic()
    if probe:
        probes.append(probe_s())
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"pipeline exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    child = json.loads(result_path.read_text())
    check = checks.check_run(out, cfg)
    check.run_failures[:0] = before
    rep = Rep(depth, wl.workers, t_spawn, t_exit, child, check,
              probe_s=statistics.fmean(probes) if probes else None)
    trace = child.pop("trace", None)
    if trace is not None:
        rep.per_name = tracing.self_times([tuple(s) for s in trace["spans"]])
        rep.child["counts"] = trace["counts"]
        if keep_trace is not None:
            keep_trace.write_text(json.dumps(trace))
    shutil.rmtree(rep_dir)
    return rep


def _median(values) -> float:
    return statistics.median(list(values))


def end_to_end(reps: list[Rep]) -> tuple[dict, dict]:
    """Timings are medians over the repetitions; AIn latencies and the
    quality ratios pool every repetition's instances."""
    ain_ms = [ms * r.scale for r in reps for ms in r.check.ain_ms]
    pct, tail = tail_percentile(ain_ms)
    completion = {m: sum(r.check.completion_s[m] for r in reps) for m in checks.METHODS}
    values = {
        "pipeline_s": _median(r.pipeline_s * r.scale for r in reps),
        "setup_s": _median(r.setup_s * r.scale for r in reps),
        "eval_s": _median(r.stage_s("stage_eval") * r.scale for r in reps),
        "ain_plan_ms_p50": _median(ain_ms),
        "ain_plan_ms_tail": tail,
        "peak_rss_mb": _median(r.peak_rss_mb for r in reps),
        "ain_over_oracle_time": completion["ain"] / completion["oracle"],
        "mql_over_oracle_time": completion["mql"] / completion["oracle"],
    }
    return values, {"percentile": pct, "samples": len(ain_ms)}


def per_layer(t: Rep, u: Rep, w2: Rep) -> dict:
    """Per-layer figures from the traced repetition ``t``; those the
    untraced repetition ``u`` of the same inputs also measures (stage
    spans, import, artifacts) come from ``u``, and the process-pool
    dispatch from ``w2``, the same inputs at workers=2. Times are scaled."""
    def span(name, key):
        return t.per_name.get(name, {}).get(key, 0)

    counts = t.child["counts"]
    values = {}
    for n in SPAN_TOTALS:
        values[f"{n}.s"] = span(n, "total_s") * t.scale
    for n in SPAN_SELF:
        values[f"{n}.self_s"] = span(n, "self_s") * t.scale
    for n in SPAN_CALLS:
        values[f"{n}.calls"] = span(n, "calls")
    for n in COUNTS:
        values[n] = counts.get(n, 0)
    values["planner.insert_best.candidates"] = (
        counts.get("planner.insert_best.candidates", 0)
        / max(span("planner.insert_best", "calls"), 1))
    for s in tracing.STAGES:
        values[f"harness.{s}.s"] = u.stage_s(s) * u.scale
    values["harness.eval_overhead_s"] = u.eval_overhead_s(1) * u.scale
    values["harness.w2.stage_eval.s"] = w2.stage_s("stage_eval") * w2.scale
    values["harness.w2.eval_overhead_s"] = w2.eval_overhead_s(2) * w2.scale
    values["harness.w2.task_bytes"] = w2.child["task_bytes"]
    values["harness.artifact_files"] = u.check.artifact_files
    values["harness.artifact_bytes"] = u.check.artifact_bytes
    values["cli.import_s"] = u.child["import_s"] * u.scale
    for layer, self_s in tracing.layer_self_times(t.per_name).items():
        values[f"layer.{layer}.self_s"] = self_s * t.scale
    base = u.main_s * u.scale
    values["trace.overhead_s"] = t.main_s * t.scale - base
    values["trace.overhead_ratio"] = values["trace.overhead_s"] / base
    values["quality.ain_similarity"] = _mean_similarity([u])
    return values


def _mean_similarity(reps: list[Rep]) -> float:
    """Mean AIn similarity to the oracle word. Deterministic per seed, but
    across seeds it spreads by up to a quarter (size-5 words allow six
    values; on 30-50 hotspots it is near 0.1), too wide for a bound, so it
    is reported unbounded; the completion-time ratios carry the quality
    bound."""
    sims = [x for r in reps for x in r.check.ain_similarity]
    return sum(sims) / len(sims)


def run_level_failures(same_inputs: list[Rep]) -> list[str]:
    """Runs of the same inputs (traced or not, any worker count) must
    write the same metrics.csv bytes."""
    shas = {r.check.metrics_sha256 for r in same_inputs}
    if len(shas) > 1:
        return [f"metrics.csv differs between runs of the same inputs: "
                f"{sorted(shas)}"]
    return []


def provenance() -> dict:
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    git = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        git = proc.stdout.strip() if proc.returncode == 0 else None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": git, "src_sha256": digest.hexdigest(),
            "host": platform.machine()}


def measure(wl: Workload, seed: int, seconds: float, trace: bool,
            work: Path) -> dict:
    STATE.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})       # the pipeline inherits it
    try:
        if trace:
            reps = [run_rep(wl, seed, 0, work, "stages"),
                    run_rep(wl, seed, 0, work, "full", STATE / f"spans-{wl.name}.json")]
            os.sched_setaffinity(0, cpus)
            # the workers=2 run needs both CPUs, so it cannot be probed on
            # one; it borrows the probe of the untraced run of its inputs
            reps.append(run_rep(replace(wl, workers=2), seed, 0, work, "stages",
                                probe=False))
            reps[2].probe_s = reps[0].probe_s
            run_failures = run_level_failures(reps)
        else:
            reps = [run_rep(wl, seed, k, work, "stages") for k in range(wl.reps(seconds))]
            run_failures = []
    finally:
        os.sched_setaffinity(0, cpus)
    for r in reps:
        run_failures += r.check.run_failures
    attempted = sum(r.check.instances for r in reps)
    failed = sum(len(r.check.instance_failures) for r in reps) + len(run_failures)
    result = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "configs": [wl.config(seed, k, "<fresh per repetition>")
                    for k in range(1 if trace else wl.reps(seconds))],
        "reps": len(reps), "attempted": attempted, "failed": failed,
        "failed_fraction": failed / attempted,
        "run_failures": run_failures,
        "instance_failures": {iid: why for r in reps
                              for iid, why in r.check.instance_failures.items()},
        "metrics_csv_sha256": [r.check.metrics_sha256 for r in reps],
        "numpy": reps[0].child["numpy"],
        "provenance": provenance(),
        "probe_ref_s": PROBE_REF_S,
        "per_rep_raw": [{"depth": r.depth, "workers": r.workers,
                         "probe_s": r.probe_s, "scale": r.scale,
                         "pipeline_s": r.pipeline_s, "main_s": r.main_s,
                         "setup_s": r.setup_s,
                         "stages_s": {s: r.stage_s(s) for s in tracing.STAGES},
                         "peak_rss_mb": r.peak_rss_mb,
                         "import_s": r.child["import_s"]} for r in reps],
    }
    if trace:
        untraced, traced, w2 = reps
        result["metrics"] = per_layer(traced, untraced, w2)
        result["layer_self_s"] = tracing.layer_self_times(traced.per_name)
        result["spans"] = traced.per_name
    else:
        result["metrics"], result["tail"] = end_to_end(reps)
        result["ain_similarity"] = _mean_similarity(reps)
    return result


def report(result: dict, table) -> dict:
    units = {name: unit for name, unit, _ in table}
    print(f"workload {result['workload']} seed {result['seed']} trace "
          f"{result['trace']}: {result['reps']} repetitions")
    for name, value in result["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"  {'failed_fraction':40s} {result['failed_fraction']:14.6g} "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    if "ain_similarity" in result:
        print(f"  {'ain_similarity':40s} {result['ain_similarity']:14.6g} ratio (unbounded)")
    if "tail" in result:
        t = result["tail"]
        print(f"  ain_plan_ms_tail is p{t['percentile']:.1f} of N={t['samples']} "
              f"(all repetitions pooled)")
    for why in result["run_failures"]:
        print(f"  FAILED: {why}")
    for iid, why in list(result["instance_failures"].items())[:10]:
        print(f"  FAILED {iid}: {'; '.join(why)}")
    for k, sha in enumerate(result["metrics_csv_sha256"]):
        print(f"  metrics.csv sha256 {sha} (repetition {k})")
    probes = [r["probe_s"] for r in result["per_rep_raw"]]
    print(f"  host speed: probe {statistics.median(probes) * 1e3:.1f} ms "
          f"against {PROBE_REF_S * 1e3:.0f} ms at reference speed")
    prov = result["provenance"]
    print(f"  provenance: nproc={prov['nproc']} python={prov['python']} "
          f"numpy={result['numpy']} git={prov['git_sha']} "
          f"src_sha256={prov['src_sha256'][:16]}")
    if "layer_self_s" in result:
        print("  layer self time (unscaled s): " + " ".join(
            f"{k}={v:.3f}" for k, v in result["layer_self_s"].items()))
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit, _ in table},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run length at the reference host speed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "uavplan" / "cli.py").is_file():
        print(f"no uavplan sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = STATE / "work" / f"{wl.name}-{args.seed}-{args.trace}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        result = measure(wl, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True))
    line = report(result, PER_LAYER if args.trace else END_TO_END)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
