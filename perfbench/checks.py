"""Correctness checks on one pipeline output directory.

Nothing here imports uavplan: every metrics.csv value is recomputed from
the instance and tour artifacts with the benchmark's own arithmetic, so a
change to the program cannot also change what it is checked against.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

METHODS = ("oracle", "ain", "mql")
REL_TOL = 1e-9

# Files each stage writes once per pipeline; per-instance files are added
# by ``expected_artifacts``.
STAGE_FILES = {
    "run_pipeline": ("config.json",),
    "stage_pools": ("pools.json",),
    "stage_training_instances": ("training_instances.jsonl",),
    "stage_oracle": ("oracle_tours.jsonl",),
    "stage_world": ("world_model.json",),
    "stage_ql": ("qtable.json",),
    "stage_eval": ("metrics.csv", "timings.csv"),
    "stage_report": ("summary.csv", "ratios.csv"),
}


def instance_ids(cfg: dict) -> list[str]:
    return [f"s{size:03d}k{k:03d}" for size in cfg["test_sizes"]
            for k in range(cfg["seeds_per_size"])]


def expected_artifacts(cfg: dict) -> list[str]:
    files = [f for names in STAGE_FILES.values() for f in names]
    for iid in instance_ids(cfg):
        files.append(f"instances/{iid}.json")
        files.append(f"traces/{iid}_ain.json")
        for m in METHODS:
            files.append(f"tours/{iid}_{m}.json")
            files.append(f"trajectories/{iid}_{m}.csv")
    return files


def absent_artifacts_failures(out: Path) -> list[str]:
    """Before a run: the output directory is empty, so no stage can reuse
    an artifact (every stage skips its work when its file exists)."""
    if any(out.iterdir()):
        return [f"{out} is not empty before the run"]
    return []


def levenshtein(a, b) -> int:
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def tour_length(order, centers: dict, depot) -> float:
    pts = [depot] + [centers[i] for i in order] + [depot]
    if not order:
        return 0.0
    return sum(math.hypot(p[0] - q[0], p[1] - q[1]) for p, q in zip(pts, pts[1:]))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


@dataclass
class RunCheck:
    """What one pipeline run produced and every check that failed on it."""

    instances: int = 0
    instance_failures: dict[str, list[str]] = field(default_factory=dict)
    run_failures: list[str] = field(default_factory=list)
    metrics_sha256: str = ""
    ain_ms: list[float] = field(default_factory=list)
    task_work_s: float = 0.0        # timings.csv: oracle + ain + mql, all instances
    completion_s: dict[str, float] = field(default_factory=dict)   # per method
    ain_similarity: list[float] = field(default_factory=list)
    artifact_files: int = 0
    artifact_bytes: int = 0

    @property
    def failed(self) -> int:
        return len(self.instance_failures) + len(self.run_failures)

    def fail(self, iid: str, why: str) -> None:
        self.instance_failures.setdefault(iid, []).append(why)


def _read_csv(path: Path) -> list[dict]:
    with open(path) as f:
        return list(csv.DictReader(ln for ln in f if not ln.startswith("#")))


def check_run(out: Path, cfg: dict) -> RunCheck:
    """Check one finished run; never raises on bad output, records it."""
    rc = RunCheck()
    ids = instance_ids(cfg)
    rc.instances = len(ids)
    missing = [rel for rel in expected_artifacts(cfg) if not (out / rel).is_file()]
    if missing:
        rc.run_failures.append(f"{len(missing)} artifacts missing after the "
                               f"run, e.g. {missing[0]}")
        return rc

    files = [p for p in out.rglob("*") if p.is_file()]
    rc.artifact_files = len(files)
    rc.artifact_bytes = sum(p.stat().st_size for p in files)
    metrics_bytes = (out / "metrics.csv").read_bytes()
    rc.metrics_sha256 = hashlib.sha256(metrics_bytes).hexdigest()

    rows = {(r["method"], r["instance_id"]): r for r in _read_csv(out / "metrics.csv")}
    if len(rows) != len(METHODS) * len(ids):
        rc.run_failures.append(f"metrics.csv has {len(rows)} distinct rows, "
                               f"expected {len(METHODS) * len(ids)}")
    wall = {(r["method"], r["instance_id"]): float(r["wall_clock_s"])
            for r in _read_csv(out / "timings.csv")}
    rc.task_work_s = sum(wall.values())

    completion = rc.completion_s = {m: 0.0 for m in METHODS}
    for iid in ids:
        inst = json.loads((out / f"instances/{iid}.json").read_text())
        centers = {h["id"]: tuple(h["center_m"]) for h in inst["hotspots"]}
        profits = {h["id"]: h["profit_bps"] for h in inst["hotspots"]}
        depot = tuple(inst["depot_m"])
        speed = inst["mission"]["uav_speed_m_per_s"]
        dwell = inst["mission"]["dwell_time_s"]
        orders = {m: tuple(json.loads((out / f"tours/{iid}_{m}.json").read_text())["order"])
                  for m in METHODS}
        for m in ("ain", "mql"):
            if sorted(orders[m]) != sorted(centers):
                rc.fail(iid, f"{m} word is not a permutation of the instance ids")
        trace = json.loads((out / f"traces/{iid}_ain.json").read_text())
        if tuple(trace["final_word"]) != orders["ain"]:
            rc.fail(iid, "ain trace final_word differs from the ain tour")
        if ("ain", iid) not in wall:
            rc.fail(iid, "no ain timing in timings.csv")
        else:
            rc.ain_ms.append(wall[("ain", iid)] * 1e3)
        for m in METHODS:
            row = rows.get((m, iid))
            if row is None:
                rc.fail(iid, f"no {m} row in metrics.csv")
                continue
            order = orders[m]
            if not set(order) <= set(centers):
                rc.fail(iid, f"{m} tour visits hotspots outside the instance")
                continue
            length = tour_length(order, centers, depot)
            expect = {
                "n_hotspots": float(len(centers)),
                "total_sum_rate_bps": sum(profits[i] for i in sorted(order)),
                "completion_time_s": length / speed + dwell * len(order),
                "tour_length_m": length,
                "similarity_to_oracle": 1.0 - levenshtein(order, orders["oracle"])
                / max(len(order), len(orders["oracle"]), 1),
            }
            for col, value in expect.items():
                if not _close(float(row[col]), value):
                    rc.fail(iid, f"{m} {col} {row[col]} does not recompute ({value!r})")
            completion[m] += float(row["completion_time_s"])
            if m == "ain":
                rc.ain_similarity.append(float(row["similarity_to_oracle"]))
    return rc
