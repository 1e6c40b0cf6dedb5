"""Command-line entry point.

Subcommands: gen-data, train, eval, ablate, rollout, viz. Exit codes:
0 success, 2 usage/input error, 3 numeric failure, 4 a worker process died.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import BLAS_THREAD_VARS
from .errors import ConfigError, MapnavError, NumericError, UsageError, WorkerError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_WORKER = 4


def _load_config(path):
    """The run config of ``--config`` (defaults without it), with its seed
    taken from CM2_SEED when that is set."""
    from dataclasses import replace
    from .config import RunConfig
    if path is not None and not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    config = RunConfig().validate() if path is None else RunConfig.load(path)
    env = os.environ.get("CM2_SEED")
    if env is None:
        return config
    try:
        return replace(config, seed=int(env))
    except ValueError as e:
        raise ConfigError(f"CM2_SEED must be an integer, got {env!r}") from e


def _load_model(args, config):
    """Load ``--ckpt``; returns (model, run config). Without ``--config`` the
    run config takes its model fields from the checkpoint, so sensing and
    cropping use the checkpoint's ``ego_size``. A ``--config`` given with it
    must describe the same model, or the run would silently use the
    checkpoint's."""
    from dataclasses import asdict, fields, replace
    from .model import CM2Model
    if not os.path.exists(args.ckpt):
        raise UsageError(f"checkpoint not found: {args.ckpt}")
    model = CM2Model.load(args.ckpt)
    have = asdict(model.config)
    if args.config is None:
        run_fields = {f.name for f in fields(config)}
        return model, replace(config, **{k: v for k, v in have.items()
                                         if k in run_fields}).validate()
    want = asdict(config.model_config())
    differ = [f"{k} (config {want[k]!r}, checkpoint {have[k]!r})"
              for k in want if want[k] != have[k]]
    if differ:
        raise UsageError(f"--config {args.config} disagrees with checkpoint "
                         f"{args.ckpt}: {', '.join(differ)}")
    return model, config


def _load_pairs(path, world_size=64):
    """Episodes JSONL -> (Floorplan, Episode) pairs, regenerating worlds
    from their recorded seeds."""
    from .worldsim.episodes import load_episodes
    from .worldsim.floorplan import generate_floorplan
    if not os.path.exists(path):
        raise UsageError(f"episode file not found: {path}")
    episodes = load_episodes(path)
    plans: dict = {}
    pairs = []
    for ep in episodes:
        if ep.floorplan_seed not in plans:
            plans[ep.floorplan_seed] = generate_floorplan(ep.floorplan_seed,
                                                          size=world_size)
        pairs.append((plans[ep.floorplan_seed], ep))
    return pairs


# ----------------------------------------------------------------------
def cmd_gen_data(args) -> int:
    from .train_eval.dataset import build_dataset, generate_splits, save_records
    from .worldsim.episodes import save_episodes

    config = _load_config(args.config)
    out = args.out
    tmp_marker = os.path.join(out, ".partial")
    os.makedirs(out, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise UsageError(f"output path not writable: {out}")
    open(tmp_marker, "w").close()
    splits = generate_splits(config)
    for name in ("train", "seen", "unseen"):
        save_episodes(os.path.join(out, f"{name}_episodes.jsonl"),
                      [ep for _, ep in splits[name]])
    written = {}
    for name, seed in (("train", config.seed), ("unseen", config.seed + 1)):
        records = build_dataset(splits[name], config.samples_per_episode, config.k,
                                config.ego_size, seed, num_rays=config.num_rays,
                                max_range=config.max_range, p_noise=config.p_noise)
        save_records(os.path.join(out, f"{name}_records.bin"), records)
        written[name] = len(records)
    config.save(os.path.join(out, "config.json"))
    os.remove(tmp_marker)
    print(f"wrote {written['train']} training records, "
          f"{sum(len(v) for v in splits.values())} episodes to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    from .train_eval.dataset import load_records
    from .train_eval.training import train

    config = _load_config(args.config)
    rec_path = os.path.join(args.data, "train_records.bin")
    records = load_records(rec_path)
    model, history = train(config, records, args.out)
    print(f"trained {len(history)} steps; final loss {history[-1]['loss']:.4f}; "
          f"checkpoint at {os.path.join(args.out, 'model.ckpt')}")
    return EXIT_OK


def cmd_eval(args) -> int:
    from .train_eval.dataset import load_records
    from .train_eval.evaluate import (evaluate_map_quality, evaluate_navigation,
                                      write_metrics_csv)

    config = _load_config(args.config)
    model, config = _load_model(args, config)
    pairs = _load_pairs(os.path.join(args.data, f"{args.split}_episodes.jsonl"),
                        config.world_size)
    per_episode, agg = evaluate_navigation(model, config, pairs)
    extra = {}
    rec_path = os.path.join(args.data, "unseen_records.bin")
    if args.split == "unseen" and os.path.exists(rec_path):
        extra = evaluate_map_quality(model, config, load_records(rec_path))
    write_metrics_csv(args.out, per_episode, agg, extra)
    summary = " ".join(f"{k}={v:.2f}" for k, v in {**agg, **extra}.items())
    print(f"{args.split}: {summary}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    from .train_eval.ablations import run_suite, train_variants, VARIANTS
    from .train_eval.dataset import load_records

    config = _load_config(args.config)
    if args.seeds < 1:
        raise UsageError(f"--seeds must be at least 1, got {args.seeds}")
    names = tuple(args.suite.split(",")) if args.suite else tuple(VARIANTS)
    unknown = [n for n in names if n not in VARIANTS]
    if unknown:
        raise UsageError(f"unknown --suite variants {unknown}; known: {list(VARIANTS)}")
    records = load_records(os.path.join(args.data, "train_records.bin"))
    eval_pairs = _load_pairs(os.path.join(args.data, "unseen_episodes.jsonl"),
                             config.world_size)
    eval_records = load_records(os.path.join(args.data, "unseen_records.bin"))
    seeds = tuple(range(config.seed, config.seed + args.seeds))
    checkpoints = train_variants(config, records, args.out, seeds=seeds, names=names)
    tau_ckpt = checkpoints.get("full", {}).get(seeds[0])
    run_suite(config, checkpoints, eval_pairs, eval_records, args.out,
              seeds=seeds, tau_checkpoint=tau_ckpt)
    print(f"ablation report at {os.path.join(args.out, 'ablations.txt')}")
    return EXIT_OK


def _find_episode(pairs, episode_id):
    for plan, ep in pairs:
        if ep.episode_id == episode_id:
            return plan, ep
    raise UsageError(f"episode id {episode_id} not found")


def cmd_rollout(args) -> int:
    from .train_eval.evaluate import evaluate_episode

    config = _load_config(args.config)
    model, config = _load_model(args, config)
    pairs = _load_pairs(args.episodes, config.world_size)
    plan, ep = _find_episode(pairs, args.episode)
    m = evaluate_episode(model, config, plan, ep, trace_path=args.trace)
    print(f"episode {args.episode}: TL={m.tl:.2f} NE={m.ne:.2f} SR={m.sr:.0f}; "
          f"trace at {args.trace}")
    return EXIT_OK


def cmd_viz(args) -> int:
    from .viz import export_rollout

    config = _load_config(args.config)
    for path in (args.trace, args.episodes):
        if not os.path.exists(path):
            raise UsageError(f"input not found: {path}")
    model, config = _load_model(args, config)
    pairs = _load_pairs(args.episodes, config.world_size)
    plan, ep = _find_episode(pairs, args.episode)
    n = export_rollout(args.trace, model, config, plan, ep, args.out)
    print(f"wrote image sets for {n} steps to {args.out}")
    return EXIT_OK


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mapnav",
                                description="instruction-following navigation "
                                            "in procedurally generated 2D worlds")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate worlds, episodes, and training records")
    g.add_argument("--config", default=None)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a model on generated records")
    t.add_argument("--config", default=None)
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="closed-loop navigation evaluation")
    e.add_argument("--config", default=None)
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--split", choices=("seen", "unseen", "train"), default="unseen")
    e.add_argument("--out", default="metrics.csv")
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("ablate", help="train and evaluate model variants")
    a.add_argument("--config", default=None)
    a.add_argument("--data", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--suite", default=None,
                   help="comma-separated variant names (default: all)")
    a.add_argument("--seeds", type=int, default=3)
    a.set_defaults(func=cmd_ablate)

    r = sub.add_parser("rollout", help="run one episode and record a trace")
    r.add_argument("--config", default=None)
    r.add_argument("--ckpt", required=True)
    r.add_argument("--episodes", required=True)
    r.add_argument("--episode", type=int, required=True)
    r.add_argument("--trace", required=True)
    r.set_defaults(func=cmd_rollout)

    v = sub.add_parser("viz", help="render images from a rollout trace")
    v.add_argument("--config", default=None)
    v.add_argument("--ckpt", required=True)
    v.add_argument("--episodes", required=True)
    v.add_argument("--episode", type=int, required=True)
    v.add_argument("--trace", required=True)
    v.add_argument("--out", required=True)
    v.set_defaults(func=cmd_viz)
    return p


def main(argv=None) -> int:
    if "numpy" not in sys.modules:
        # One BLAS thread per process, unless the caller set a count: the
        # parallelism is in processes (training's batch shards, the eval
        # pool), and a BLAS thread pool in each of two training processes on
        # two CPUs took a default train step from 0.47 s to 1.4 s.
        for var in BLAS_THREAD_VARS:
            os.environ.setdefault(var, "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except WorkerError as e:
        print(f"worker failure: {e}", file=sys.stderr)
        return EXIT_WORKER
    except MapnavError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
