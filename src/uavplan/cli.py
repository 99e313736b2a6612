"""Command-line surface for the experiment pipeline.

A stage command runs the pipeline up to and including its stage, in any
directory, an empty one too: every stage computes its outputs and checks
the files already there (see ``harness``).

Exit codes: 0 success, 3 numeric error, 2 any other error of the package
(a bad config, a damaged artifact, or inputs it cannot plan from).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigurationError, NumericError, UavplanError
from .harness import (ExperimentConfig, _check_tour_time, config_to_dict,
                      instance_from_dict, load_artifact, load_config,
                      run_pipeline, write_jsonl_atomic)
from .planner import plan_mission, plan_to_dict
from .world_model import model_from_dict


def _load_cfg(args) -> ExperimentConfig:
    """The config file with the command-line overrides in place of its
    keys, read once (``load_config``)."""
    overrides = {key: getattr(args, key) for key in
                 ("pool_seed", "m_training", "seeds_per_size", "workers")
                 if getattr(args, key) is not None}
    if args.out:
        overrides["output_dir"] = args.out
    if args.test_sizes:
        overrides["test_sizes"] = args.test_sizes
    return load_config(args.config, overrides)


# The stage commands in pipeline order. Each runs the pipeline up to and
# including its stage, which every stage can do from an empty directory,
# and prints a summary of what that stage returned.
STAGE_COMMANDS = {
    "gen-pool": (
        "pools", "sample the hotspot pools",
        lambda out, pools: f"pool: {len(pools[0])} hotspots "
                           f"({len(pools[1])} trainable) -> {out/'pools.json'}"),
    "gen-instances": (
        "training_instances", "sample training instances",
        lambda out, instances: f"{len(instances)} training instances -> "
                               f"{out/'training_instances.jsonl'}"),
    "solve-oracle": (
        "oracle", "solve demonstrations offline",
        lambda out, tours: f"{len(tours)} demonstration tours -> "
                           f"{out/'oracle_tours.jsonl'}"),
    "train-world": (
        "world", "learn the world model",
        lambda out, wm: f"world model: {len(wm.vocab)} letters, "
                        f"{len(wm.words)} distinct words -> "
                        f"{out/'world_model.json'}"),
    "train-ql": (
        "ql", "train the Q-learning baseline",
        lambda out, q: f"q-table: {len(q.letters)} letters, "
                       f"{len(q.values)} entries -> {out/'qtable.json'}"),
    "eval": (
        "eval", "run the test matrix for all methods",
        lambda out, rows: f"{len(rows)} metric rows -> {out/'metrics.csv'}"),
    "report": (
        "report", "summarize metrics and export trajectories",
        lambda out, rows: f"summary -> {out/'summary.csv'}, "
                          f"ratios -> {out/'ratios.csv'}"),
    "pipeline": (
        "report", "run every stage in order",
        lambda out, rows: f"pipeline complete: {len(rows)} metric rows "
                          f"in {out}"),
}


def cmd_stage(args) -> int:
    """Run one of ``STAGE_COMMANDS``."""
    stage, _, summary = STAGE_COMMANDS[args.command]
    cfg = _load_cfg(args)
    print(summary(Path(cfg.output_dir), run_pipeline(cfg, stage)))
    return 0


def cmd_plan(args) -> int:
    """Plan one instance with the config's planner settings and weights;
    ``--n-words``/``--seed`` stand in for the config's ``planner`` keys."""
    planner = {key: value for key, value in (("n_words", args.n_words),
                                             ("rng_seed", args.seed))
               if value is not None}
    cfg = load_config(args.config, {"planner": planner} if planner else {})
    inst = load_artifact(Path(args.instance), instance_from_dict)
    _check_tour_time(inst.mission, inst.depot_m,
                     [h.center_m for h in inst.hotspots], len(inst.hotspots),
                     f"instance {args.instance}")
    wm = load_artifact(Path(args.model), model_from_dict)
    result = plan_mission(inst, wm, cfg.planner, cfg.weights)
    trace = plan_to_dict(result)
    if args.trace:
        write_jsonl_atomic(Path(args.trace), [trace])
        print(f"trace -> {args.trace}")
        summary = sys.stdout
    else:
        json.dump(trace, sys.stdout, sort_keys=True, indent=2)
        print()
        # stdout holds only the trace, so that it parses as JSON
        summary = sys.stderr
    print(f"word: {list(result.final_word.letters)} "
          f"length {result.tour.total_cost_m:.1f} m", file=summary)
    return 0


def cmd_show_config(args) -> int:
    cfg = _load_cfg(args)
    json.dump(config_to_dict(cfg), sys.stdout, sort_keys=True, indent=2)
    print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavplan",
        description="UAV route planning experiments: oracle demonstrations, "
                    "world model, surprise-minimizing planner, QL baseline.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--pool-seed", dest="pool_seed", type=int)
        p.add_argument("--m-training", dest="m_training", type=int)
        p.add_argument("--seeds-per-size", dest="seeds_per_size", type=int)
        p.add_argument("--test-sizes", dest="test_sizes", type=int, nargs="+")
        p.add_argument("--workers", type=int)

    for name, help_text, fn in (
            *((name, row[1], cmd_stage) for name, row in STAGE_COMMANDS.items()),
            ("show-config", "print the effective config", cmd_show_config)):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("plan", help="plan one instance with a trained model")
    p.add_argument("--instance", required=True, help="instance JSON file")
    p.add_argument("--model", required=True, help="world model JSON file")
    p.add_argument("--config", help="JSON experiment config: planner "
                                    "settings and the weights to score with")
    p.add_argument("--seed", type=int, help="planner seed override")
    p.add_argument("--n-words", dest="n_words", type=int,
                   help="generated words override")
    p.add_argument("--trace", help="write the plan trace here; without "
                                   "it the trace goes to stdout and the "
                                   "summary line to stderr")
    p.set_defaults(fn=cmd_plan)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3
    except ConfigurationError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except UavplanError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
