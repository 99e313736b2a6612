"""One cold `uavplan pipeline` in a fresh interpreter, with its measurements.

run.py starts this script once per repetition:

    python3 perfbench/child.py CONFIG RESULT DEPTH

It imports the CLI (timing the import), wraps uavplan's functions at the
given depth (``stages`` or ``full``, see tracing.py), calls the same
``main`` the ``uavplan`` console script calls, and writes RESULT: the
exit code, monotonic-clock stamps, stage spans, peak memory, the bytes a
worker pool was sent and, at full depth, every span and counter.
"""

from __future__ import annotations

import json
import pickle
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402


def task_bytes(eval_args: dict) -> int:
    """Bytes the eval pool pickles to its workers: one (iid, instance,
    world model, Q-table, config) tuple per test instance. The shared part
    is pickled once and the per-instance part per task, so the total is
    within a few bytes per task of the real one. 0 when no pool is used."""
    from uavplan import harness
    cfg = eval_args["cfg"]
    if cfg.workers <= 1:
        return 0
    shared = len(pickle.dumps((eval_args["wm"], eval_args["qtable"], cfg)))
    return sum(shared + len(pickle.dumps((iid, inst))) for iid, inst
               in harness.iter_test_instances(cfg, eval_args["testing_pool"]))


def main(argv: list[str]) -> int:
    config, result_path, depth = argv
    t0 = time.monotonic()
    from uavplan import cli
    import numpy
    import_s = time.monotonic() - t0

    rec = tracing.Recorder()
    undo = tracing.install(rec, depth)
    code = cli.main(["pipeline", "--config", config])
    t_main_end = time.monotonic()
    tracing.uninstall(undo)

    stages = {rec.names[n].split(".", 1)[1]: (s, e)
              for n, s, e in zip(rec.name, rec.start, rec.end)
              if rec.names[n].startswith("harness.stage_")}
    kb = 1024.0
    result = {
        "exit_code": code,
        "t_main_end": t_main_end,
        "import_s": import_s,
        "stages": stages,
        "peak_rss_self_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / kb,
        "peak_rss_children_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / kb,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "task_bytes": task_bytes(rec.eval_args) if rec.eval_args else 0,
    }
    if depth == "full":
        result["trace"] = {"spans": rec.spans(), "counts": dict(rec.counts)}
    with open(result_path, "w") as f:
        json.dump(result, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
