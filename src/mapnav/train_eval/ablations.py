"""Ablation harness: trains and evaluates model variants over multiple
seeds and emits a comparison report.

Variants: the full model, language-blind map prediction ("no-mapattn",
which swaps the attended instruction grid for a learned constant), removing
the start-position heatmap ("no-p0"), and disabling the traversal
auxiliary ("lambda-xi-0"). Separate sweeps cover the stop radius tau and
the ego map size.
"""
from __future__ import annotations

import csv
import dataclasses
import os

import numpy as np

from ..config import RunConfig
from ..model import CM2Model
from .evaluate import evaluate_map_quality, evaluate_navigation
from .training import train

VARIANTS = {
    "full": {},
    "no-mapattn": {"use_map_attention": False},
    "no-p0": {"use_start_heatmap": False},
    "lambda-xi-0": {"lambda_xi": 0.0},
}
TAU_SWEEP = (0.5, 1.0, 1.5)


def variant_config(base: RunConfig, name: str, seed: int, **extra) -> RunConfig:
    overrides = dict(VARIANTS.get(name, {}))
    overrides.update(extra)
    cfg = dataclasses.replace(base, seed=seed, **overrides)
    return cfg.validate()


def train_variants(base: RunConfig, records, out_dir, seeds=(0, 1, 2),
                   names=tuple(VARIANTS)) -> dict:
    """Train every (variant, seed) pair; returns name -> seed -> ckpt path."""
    paths: dict = {}
    for name in names:
        for seed in seeds:
            cfg = variant_config(base, name, seed)
            vdir = os.path.join(out_dir, f"{name}-s{seed}")
            train(cfg, records, vdir)
            paths.setdefault(name, {})[seed] = os.path.join(vdir, "model.ckpt")
    return paths


def evaluate_checkpoint(base: RunConfig, name: str, seed: int, ckpt,
                        eval_pairs, eval_records, **extra) -> dict:
    cfg = variant_config(base, name, seed, **extra)
    model = CM2Model.load(ckpt)
    row = {"variant": name, "seed": seed}
    row.update(evaluate_map_quality(model, cfg, eval_records))
    _, agg = evaluate_navigation(model, cfg, eval_pairs)
    row.update(agg)
    return row


def run_suite(base: RunConfig, checkpoints: dict, eval_pairs, eval_records,
              out_dir, seeds=(0, 1, 2), tau_checkpoint=None) -> list[dict]:
    """Evaluate every checkpoint (``checkpoints``: name -> seed -> path, as
    ``train_variants`` returns) plus the tau sweep on ``tau_checkpoint``;
    writes ablations.csv and a readable ablations.txt into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    rows = [evaluate_checkpoint(base, name, seed, ckpt, eval_pairs, eval_records)
            for name, by_seed in checkpoints.items() for seed, ckpt in by_seed.items()]
    if tau_checkpoint is not None:
        for tau in TAU_SWEEP:
            rows.append(evaluate_checkpoint(base, f"tau-{tau}", seeds[0],
                                            tau_checkpoint, eval_pairs,
                                            eval_records, tau=tau))
    write_report(rows, out_dir)
    return rows


METRIC_COLUMNS = ("TL", "NE", "OS", "SR", "SPL", "IoU", "F1", "PCW")


def write_report(rows: list[dict], out_dir):
    csv_path = os.path.join(out_dir, "ablations.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "seed"] + list(METRIC_COLUMNS))
        for r in rows:
            writer.writerow([r["variant"], r["seed"]]
                            + [f"{r.get(c, float('nan')):.3f}" for c in METRIC_COLUMNS])
    txt_path = os.path.join(out_dir, "ablations.txt")
    with open(txt_path, "w") as fh:
        fh.write(format_table(rows) + "\n")


def summarize(rows: list[dict]) -> dict:
    """variant -> column -> (mean, std) over seeds."""
    out: dict = {}
    for r in rows:
        out.setdefault(r["variant"], []).append(r)
    summary = {}
    for name, rs in out.items():
        summary[name] = {}
        for c in METRIC_COLUMNS:
            vals = [r[c] for r in rs if c in r and np.isfinite(r[c])]
            if vals:
                summary[name][c] = (float(np.mean(vals)), float(np.std(vals)))
    return summary


def format_table(rows: list[dict]) -> str:
    summary = summarize(rows)
    header = f"{'variant':<14}" + "".join(f"{c:>16}" for c in METRIC_COLUMNS)
    lines = [header, "-" * len(header)]
    for name, cols in summary.items():
        cells = []
        for c in METRIC_COLUMNS:
            if c in cols:
                m, s = cols[c]
                cells.append(f"{m:8.2f}±{s:<6.2f}")
            else:
                cells.append(" " * 15)
        lines.append(f"{name:<14}" + "".join(f"{cell:>16}" for cell in cells))
    return "\n".join(lines)
