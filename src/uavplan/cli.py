"""Command-line surface for the experiment pipeline.

Exit codes: 0 success, 2 configuration error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .environment import instance_from_dict
from .errors import ConfigurationError, NumericError
from .harness import (ExperimentConfig, config_to_dict, load_artifact,
                      load_config, run_pipeline, stage_eval, stage_ql,
                      stage_oracle, stage_pools, stage_report,
                      stage_training_instances, stage_world, write_json_atomic)
from .planner import plan_mission, plan_to_dict
from .world_model import model_from_dict


def _load_cfg(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    if args.out:
        overrides["output_dir"] = args.out
    if getattr(args, "pool_seed", None) is not None:
        overrides["pool_seed"] = args.pool_seed
    if getattr(args, "m_training", None) is not None:
        overrides["m_training"] = args.m_training
    if getattr(args, "seeds_per_size", None) is not None:
        overrides["seeds_per_size"] = args.seeds_per_size
    if getattr(args, "test_sizes", None):
        overrides["test_sizes"] = tuple(args.test_sizes)
    if getattr(args, "workers", None) is not None:
        overrides["workers"] = args.workers
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def _out(cfg: ExperimentConfig) -> Path:
    p = Path(cfg.output_dir)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _require(path: Path, hint: str) -> None:
    if not path.exists():
        raise ConfigurationError(f"missing artifact {path}; run `{hint}` first")


def cmd_gen_pool(args) -> int:
    cfg = _load_cfg(args)
    out = _out(cfg)
    testing, training = stage_pools(cfg, out)
    print(f"pool: {len(testing)} hotspots ({len(training)} trainable) -> {out/'pools.json'}")
    return 0


def cmd_gen_instances(args) -> int:
    cfg = _load_cfg(args)
    out = _out(cfg)
    _require(out / "pools.json", "uavplan gen-pool")
    _, training = stage_pools(cfg, out)
    instances = stage_training_instances(cfg, training, out)
    print(f"{len(instances)} training instances -> {out/'training_instances.jsonl'}")
    return 0


def cmd_solve_oracle(args) -> int:
    cfg = _load_cfg(args)
    out = _out(cfg)
    _require(out / "training_instances.jsonl", "uavplan gen-instances")
    _, training = stage_pools(cfg, out)
    instances = stage_training_instances(cfg, training, out)
    tours = stage_oracle(cfg, instances, out)
    print(f"{len(tours)} demonstration tours -> {out/'oracle_tours.jsonl'}")
    return 0


def cmd_train_world(args) -> int:
    cfg = _load_cfg(args)
    out = _out(cfg)
    _require(out / "oracle_tours.jsonl", "uavplan solve-oracle")
    _, training = stage_pools(cfg, out)
    instances = stage_training_instances(cfg, training, out)
    tours = stage_oracle(cfg, instances, out)
    wm = stage_world(cfg, tours, training, out)
    print(f"world model: {len(wm.vocab)} letters, {len(wm.words)} distinct words "
          f"-> {out/'world_model.json'}")
    return 0


def cmd_train_ql(args) -> int:
    cfg = _load_cfg(args)
    out = _out(cfg)
    _require(out / "oracle_tours.jsonl", "uavplan solve-oracle")
    _, training = stage_pools(cfg, out)
    instances = stage_training_instances(cfg, training, out)
    tours = stage_oracle(cfg, instances, out)
    q = stage_ql(cfg, instances, tours, out)
    print(f"q-table: {len(q.letters)} letters, {len(q.values)} entries "
          f"-> {out/'qtable.json'}")
    return 0


def cmd_plan(args) -> int:
    """Plan one instance with the config's planner settings and weights;
    ``--n-words``/``--seed`` override the planner settings."""
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    inst = load_artifact(Path(args.instance), instance_from_dict)
    wm = load_artifact(Path(args.model), model_from_dict)
    planner = cfg.planner
    if args.n_words is not None:
        planner = replace(planner, n_words=args.n_words)
    if args.seed is not None:
        planner = replace(planner, rng_seed=args.seed)
    result = plan_mission(inst, wm, planner, cfg.weights)
    trace = plan_to_dict(result)
    if args.trace:
        write_json_atomic(Path(args.trace), trace)
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


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    out = _out(cfg)
    _require(out / "world_model.json", "uavplan train-world")
    _require(out / "qtable.json", "uavplan train-ql")
    testing, training = stage_pools(cfg, out)
    instances = stage_training_instances(cfg, training, out)
    tours = stage_oracle(cfg, instances, out)
    wm = stage_world(cfg, tours, training, out)
    q = stage_ql(cfg, instances, tours, out)
    rows = stage_eval(cfg, testing, wm, q, out)
    print(f"{len(rows)} metric rows -> {out/'metrics.csv'}")
    return 0


def cmd_report(args) -> int:
    cfg = _load_cfg(args)
    out = _out(cfg)
    _require(out / "metrics.csv", "uavplan eval")
    stage_report(cfg, out)
    print(f"summary -> {out/'summary.csv'}, ratios -> {out/'ratios.csv'}")
    return 0


def cmd_pipeline(args) -> int:
    cfg = _load_cfg(args)
    rows = run_pipeline(cfg)
    print(f"pipeline complete: {len(rows)} metric rows in {cfg.output_dir}")
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

    for name, fn, help_text in [
            ("gen-pool", cmd_gen_pool, "sample the hotspot pools"),
            ("gen-instances", cmd_gen_instances, "sample training instances"),
            ("solve-oracle", cmd_solve_oracle, "solve demonstrations offline"),
            ("train-world", cmd_train_world, "learn the world model"),
            ("train-ql", cmd_train_ql, "train the Q-learning baseline"),
            ("eval", cmd_eval, "run the test matrix for all methods"),
            ("report", cmd_report, "summarize metrics and export trajectories"),
            ("pipeline", cmd_pipeline, "run every stage in order"),
            ("show-config", cmd_show_config, "print the effective config")]:
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
    except ConfigurationError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
