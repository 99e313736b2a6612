"""Check that the working tree's pipeline writes the files a commit's does.

    python3 tools/same_outputs.py REF

exports REF's ``src/`` with ``git archive`` into a temporary directory,
then runs ``uavplan pipeline``, each run in a fresh process, on three
configs: the acceptance suite's full-scale config (C6-C8: 5000
demonstrations, 30 test instances of each size 5-50) and the shapes of
the benchmark's two workloads (``WORKLOADS[name].config(3011, 0, out)``
of ``perfbench/workloads.py``, which is read, not edited). Each config
runs at workers 1 and 2, once on REF's source and once on the working
tree's, and each pair of output directories is compared as
``tools/compare_outputs.py`` compares them, ``timings.csv`` left out.
Then the working tree reruns each config at workers 1 over REF's
finished directory, which checks every file there against what it
computes (the pipeline's compare path) and exits 0 only when each holds
exactly the bytes it writes.

Prints one line per pair (``NAME workers W: N files equal`` or ``N files
differ``, each difference on a line of its own below it) and one per
rerun (``NAME rerun over ref: exit 0`` or ``run failed``, the end of its
stderr below it), and exits 0 when every pair holds the same files with
the same bytes and every rerun exits 0, 1 when any differs or a run
fails, and 2 when REF cannot be exported. The temporary
directories are removed. Standard library only, besides the package it
runs.
"""

from __future__ import annotations

import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKERS = (1, 2)


def _module(path: Path):
    """The module of the Python file ``path``, loaded by path (and listed
    in ``sys.modules``, where a dataclass looks up its module)."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def default_configs() -> dict[str, dict]:
    """The C6-C8 config and the two workload shapes, by name; each run
    sets its own output directory and worker count."""
    workloads = _module(ROOT / "perfbench" / "workloads.py").WORKLOADS
    return {"c6-c8": {"m_training": 5000, "test_sizes": [5, 10, 20, 30, 40, 50],
                      "seeds_per_size": 30},
            **{name: w.config(3011, 0, "out")
               for name, w in workloads.items()}}


def _pipeline(src: Path, config: Path, out: Path, workers: int) -> str | None:
    """Run ``uavplan pipeline`` from the source tree ``src``; None on
    success, else the end of its stderr."""
    result = subprocess.run(
        [sys.executable, "-m", "uavplan.cli", "pipeline", "--config",
         str(config), "--out", str(out), "--workers", str(workers)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    if result.returncode == 0:
        return None
    return f"exit {result.returncode}: {result.stderr.strip()[-500:]}"


def same_outputs(ref: str, configs: dict[str, dict]) -> int:
    """Run every config at workers 1 and 2 on REF's ``src/`` and the
    working tree's, then the working tree's at workers 1 over REF's
    workers 1 directory; print one line per pair and per rerun, and
    return the exit code."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive",
                              "--format=tar", ref, "src"], capture_output=True)
    if archive.returncode != 0:
        print(f"cannot export {ref}: "
              f"{archive.stderr.decode(errors='replace').strip()}",
              file=sys.stderr)
        return 2
    compare = _module(ROOT / "tools" / "compare_outputs.py")
    code = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "ref", filter="data")
        sources = {"ref": tmp / "ref" / "src", "tree": ROOT / "src"}
        for name, config in configs.items():
            config_path = tmp / f"{name}.json"
            config_path.write_text(json.dumps(config))
            for w in WORKERS:
                outs = {side: tmp / f"{name}-w{w}-{side}" for side in sources}
                failed = [f"{side} {error}" for side, src in sources.items()
                          if (error := _pipeline(src, config_path, outs[side],
                                                 w)) is not None]
                if failed:
                    lines, summary = failed, "run failed"
                else:
                    da, db = (compare.digests(outs[side]) for side in sources)
                    lines = compare.differences(da, db)
                    summary = (f"{len(lines)} files differ" if lines
                               else f"{len(da)} files equal")
                print(f"{name} workers {w}: {summary}")
                for line in lines:
                    print(f"  {line}")
                if lines:
                    code = 1
            error = _pipeline(sources["tree"], config_path,
                              tmp / f"{name}-w1-ref", 1)
            print(f"{name} rerun over ref: "
                  f"{'exit 0' if error is None else 'run failed'}")
            if error is not None:
                print(f"  tree {error}")
                code = 1
    return code


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: same_outputs.py REF (a commit)", file=sys.stderr)
        return 2
    return same_outputs(argv[0], default_configs())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
