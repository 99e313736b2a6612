"""Time the set-up stages of a commit and of the working tree, side by side.

    python3 tools/setup_layers.py REF [--rounds N] [--workload NAME]
                                  [--training-pool N] [--seeds-per-size N]
                                  [--through {ql,report}]

exports REF's ``src/`` into a temporary directory (``export_src`` of
``tools/same_outputs.py``) and copies the working tree's ``src/``, its
``__pycache__`` directories left out, into the same directory, so that
both sides run from a snapshot laid out alike (run from the checkout
itself, the tree's side of an A/A read a set-up stage's median peak up
to 0.33 MB above REF's), then runs N rounds (default 5) of two sides,
one on REF's source and one on the working tree's, in alternating order
(REF first in even rounds). A side is two fresh
processes: the set-up's, then the model read's (``world_read``). The
set-up's process is given the config of the shape of the benchmark's
workload NAME (``WORKLOADS[NAME].config(3011, 0, out)`` of
``perfbench/workloads.py``, which this process reads, not edits):
``train-large`` by default, 20,000 training instances of 5 of 50
hotspots, or ``plan-large``, 5,000 of them. ``--training-pool N`` sets
both pool sizes of that shape to N (``training_pool_size`` and
``testing_pool_size``), so that the set-up runs over a pool of N
hotspots; an N below the shape's largest test size exits 2 with the
usage message. ``--seeds-per-size N`` sets the shape's
``seeds_per_size`` to N (an N below 1 exits 2 with the usage message).
It runs the pipeline's stages in order, as ``harness._stages`` yields
them, into a new directory, stopping after the last set-up stage,
Q-learning, or with ``--through report`` after the eval and the report,
whose subdirectories it makes first, as ``run_pipeline`` makes them
(``harness._DIRECTORIES``). Each process
first pins itself to one CPU, the lowest it may run on
(``os.sched_setaffinity``), as perfbench pins its pipeline, so that the
two sides run alike with no ``taskset``. Each stage is timed
with ``time.perf_counter`` from the previous yield to its own:

- ``imports``: ``from uavplan import harness``, in the set-up's process
  before its first stage; its peak is the floor the set-up starts from,
  so each later stage's peak less this one is the set-up's own memory;
- ``pools``: the pools and ``pools.json``;
- ``training_instances``: the training instances and
  ``training_instances.jsonl``;
- ``oracle``: the demonstrations and ``oracle_tours.jsonl``;
- ``world``: the world model and ``world_model.json``;
- ``ql``: the Q-table and ``qtable.json``;
- with ``--through report``, ``eval``: the three methods on every test
  instance and their files (``tours/``, ``traces/``, ``instances/``,
  ``metrics.csv``, ``config.json``; not ``timings.csv``, which holds wall
  times), and ``report``: ``summary.csv``, ``ratios.csv`` and
  ``trajectories/``;
- ``world_read``: ``model_from_dict`` of that ``world_model.json``, in
  the side's second process, which imports the package, ``json.load``-s
  the file (not timed) and does nothing else: the read of ``uavplan plan
  --model``, not a read on the heap the set-up left. Its digest is that
  of the model read back, as ``model_to_dict`` gives it, and its peak
  that of the reading process.

The stages are the program's own, whatever form their results take, so
any two commits that keep ``_stages`` compare. Each process also reads its
peak resident memory (``ru_maxrss``) right after each stage; the pipeline
keeps what later stages read alive, so a reading is the high-water mark
of the stages so far. A child process loads no module before its last
reading but the package's and the standard library's that this file
needs: ``hashlib``, which loads OpenSSL, about 3 MB resident, only after
it, for the digests, so that a reading is the program's own. Prints one
line per stage, ``STAGE  ref MEDIAN [Q1, Q3]  tree MEDIAN [Q1, Q3]  ref
MEDIAN [Q1, Q3]  tree MEDIAN [Q1, Q3]  K/N``: each side's time in
milliseconds, then each side's peak in MB, each as the median and
quartiles of the rounds (in an A/A of 11 rounds, identical sources read
a set-up stage's median peak up to 0.04 MB apart and ``world_read``'s up
to 0.15 MB, not always each inside the other's quartiles, so a smaller
move shows nothing), and the number K of the N
rounds in which the tree's stage took less time than REF's (a tie
counts for neither side):
the pair rule that a claimed gain is held to, which medians and quartiles
cannot stand in for where the rounds run at two speeds on a shared host.
Then it prints ``each process ran on 1 CPU``, and exits 0
when each stage's files, and the model read back, have one sha256 (over
every file a stage writes, with its path) over every process of both
sides (``imports`` writes no file, and has none),
1 when any differs, and 2 when REF cannot be exported. Standard library
only, besides the package it runs.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# each stage, in pipeline order, and the files it writes (a directory
# stands for every file in it)
FILES = {"pools": ("pools.json",),
         "training_instances": ("training_instances.jsonl",),
         "oracle": ("oracle_tours.jsonl",),
         "world": ("world_model.json",),
         "ql": ("qtable.json",),
         "eval": ("config.json", "instances", "metrics.csv", "tours",
                  "traces"),
         "report": ("ratios.csv", "summary.csv", "trajectories")}
# the last stage a run may stop after: the set-up's, or the report
THROUGH = ("ql", "report")


def _layers(through: str = "ql") -> tuple[str, ...]:
    """The rows printed for a run through the stage ``through``."""
    stages = list(FILES)
    return ("imports", *stages[:stages.index(through) + 1], "world_read")


@cache
def _same_outputs():
    """tools/same_outputs.py, loaded by path in this process alone: it
    exports REF's src/ (``export_src``) and loads a file as a module
    (``load_module``)."""
    spec = importlib.util.spec_from_file_location(
        "same_outputs", ROOT / "tools" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@cache
def _workloads() -> dict:
    return _same_outputs().load_module(
        ROOT / "perfbench" / "workloads.py").WORKLOADS


def _pin() -> int:
    """Pin this process to the lowest CPU it may run on; the count it then
    runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return len(os.sched_getaffinity(0))


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _child(config: dict, through: str) -> dict:
    """Each stage's (seconds, peak MB after it, files' digest) up to
    ``through`` on the config ``config``, run on the ``uavplan`` that
    ``sys.path`` finds, pinned to one CPU, after the import's (seconds,
    peak MB); ``cpus`` is the count it then runs on."""
    cpus = _pin()
    start = time.perf_counter()
    from uavplan import harness

    result = {"imports": [time.perf_counter() - start, _peak_mb()]}
    cfg = harness.config_from_dict(config)
    out = Path(cfg.output_dir)
    out.mkdir()
    if through != "ql":   # so that a run through ql reads no newer name
        for name in harness._DIRECTORIES[through]:
            (out / name).mkdir()
    stages = harness._stages(cfg, out)
    start = time.perf_counter()
    for name, _ in stages:
        result[name] = [time.perf_counter() - start, _peak_mb()]
        if name == through:
            break
        start = time.perf_counter()
    stages.close()
    import hashlib

    for name in _layers(through)[1:-1]:
        digest = hashlib.sha256()
        for path in map(out.joinpath, FILES[name]):
            for file in sorted(path.rglob("*")) if path.is_dir() else [path]:
                digest.update(file.relative_to(out).as_posix().encode())
                digest.update(file.read_bytes())
        result[name].append(digest.hexdigest())
    result["cpus"] = cpus
    return result


def _read(model: Path) -> dict:
    """``world_read``'s (seconds, peak MB, digest of the model read back)
    for the world model at ``model``, read by the ``uavplan`` that
    ``sys.path`` finds, pinned to one CPU; ``cpus`` as in ``_child``."""
    cpus = _pin()
    from uavplan import world_model

    with open(model) as f:
        d = json.load(f)
    start = time.perf_counter()
    wm = world_model.model_from_dict(d)
    seconds = time.perf_counter() - start
    peak = _peak_mb()
    import hashlib

    return {"world_read": [seconds, peak, hashlib.sha256(json.dumps(
        world_model.model_to_dict(wm), sort_keys=True).encode()).hexdigest()],
        "cpus": cpus}


def _config(workload: str, out: Path, pool: int | None,
            seeds: int | None = None) -> dict:
    """The config of ``workload``'s shape into ``out``, with both pools
    of ``pool`` hotspots unless it is None, and ``seeds`` test instances
    per size unless it is None."""
    config = _workloads()[workload].config(3011, 0, str(out))
    if pool is not None:
        config.update(training_pool_size=pool, testing_pool_size=pool)
    if seeds is not None:
        config.update(seeds_per_size=seeds)
    return config


def _run(src: Path, out: Path, workload: str, pool: int | None,
         seeds: int | None = None, through: str = "ql") -> list[dict]:
    """Two child processes on the package under ``src``: the stages
    through ``through`` of ``workload``'s shape (``_config``) into
    ``out``, then the read of their world model."""

    def child(*args: str) -> dict:
        done = subprocess.run(
            [sys.executable, __file__, *args],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)})
        return json.loads(done.stdout)

    return [child("--child", json.dumps(_config(workload, out, pool, seeds)),
                  through),
            child("--read", str(out / FILES["world"][0]))]


def _spread(values: list[float], digits: int) -> str:
    """``MEDIAN [Q1, Q3]`` of ``values``, each with ``digits`` decimals."""
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return (f"{statistics.median(values):.{digits}f} "
            f"[{q1:.{digits}f}, {q3:.{digits}f}]")


def setup_layers(ref: str, rounds: int, workload: str = "train-large",
                 pool: int | None = None, seeds: int | None = None,
                 through: str = "ql") -> int:
    layers = _layers(through)
    times = {side: {layer: [] for layer in layers} for side in ("ref", "tree")}
    peaks = {side: {layer: [] for layer in layers} for side in ("ref", "tree")}
    digests = {layer: set() for layer in layers}
    cpus = set()   # the CPU count each process ran on
    with tempfile.TemporaryDirectory(prefix="setup_layers_") as tmp:
        tmp = Path(tmp)
        if (ref_src := _same_outputs().export_src(ref, tmp / "ref")) is None:
            return 2
        sources = {"ref": ref_src, "tree": shutil.copytree(
            ROOT / "src", tmp / "tree" / "src",
            ignore=shutil.ignore_patterns("__pycache__"))}
        for r in range(rounds):
            for side in (("ref", "tree") if r % 2 == 0 else ("tree", "ref")):
                for result in _run(sources[side], tmp / f"out-{side}-{r}",
                                   workload, pool, seeds, through):
                    cpus.add(result.pop("cpus"))
                    for layer, (seconds, peak, *digest) in result.items():
                        times[side][layer].append(seconds)
                        peaks[side][layer].append(peak)
                        digests[layer].update(digest)
    differ = [layer for layer in layers if len(digests[layer]) > 1]
    print(f"{'stage':18} {'ref ms [q1, q3]':>26} {'tree ms [q1, q3]':>26} "
          f"{'ref MB [q1, q3]':>24} {'tree MB [q1, q3]':>24} "
          f"{'tree faster':>11}")
    for layer in layers:
        # the rounds in which the tree's stage took less time than REF's
        faster = sum(tree < ref for tree, ref in
                     zip(times["tree"][layer], times["ref"][layer]))
        ms = {side: [s * 1e3 for s in times[side][layer]]
              for side in ("ref", "tree")}
        print(f"{layer:18} {_spread(ms['ref'], 1):>26} "
              f"{_spread(ms['tree'], 1):>26}"
              f" {_spread(peaks['ref'][layer], 2):>24}"
              f" {_spread(peaks['tree'][layer], 2):>24}"
              f" {f'{faster}/{rounds}':>11}"
              f"{'  outputs differ' if layer in differ else ''}")
    print(f"each process ran on {', '.join(map(str, sorted(cpus)))} CPU")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--child":
        print(json.dumps(_child(json.loads(argv[1]), argv[2])))
        return 0
    if len(argv) == 2 and argv[0] == "--read":
        print(json.dumps(_read(Path(argv[1]))))
        return 0
    parser = argparse.ArgumentParser(prog="setup_layers.py")
    parser.add_argument("ref")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--workload", default="train-large",
                        choices=sorted(_workloads()))
    parser.add_argument("--training-pool", type=int, metavar="N")
    parser.add_argument("--seeds-per-size", type=int, metavar="N")
    parser.add_argument("--through", default="ql", choices=THROUGH)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse has printed its message
        return e.code
    pool, seeds = args.training_pool, args.seeds_per_size
    if (args.rounds < 1 or seeds is not None and seeds < 1
            or pool is not None
            and pool < max(_workloads()[args.workload].test_sizes)):
        parser.print_usage(sys.stderr)
        return 2
    return setup_layers(args.ref, args.rounds, args.workload, pool, seeds,
                        args.through)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
