"""Joint training loop: minibatch optimization of the waypoint and map
losses with Adam, deterministic under a fixed seed."""
from __future__ import annotations

import csv
import os

import numpy as np

from .. import numerics as nm
from ..config import RunConfig
from ..errors import NumericError, UsageError
from ..model import CM2Model, loss_map, loss_total, loss_waypoint, make_gt_heatmaps
from . import shards
from .dataset import TrainingRecord


def assemble_batch(records: list[TrainingRecord], sigma: float):
    """Batched model inputs and targets of records.

    Returns (occ, chi, sem_gt) (B,s,s) label maps, heatmaps (B,k,u,u),
    visibility (B,k), start heatmaps (B,1,u,u), traversed (B,k) and the B
    token arrays. A start heatmap is its record's first waypoint heatmap."""
    u = records[0].occ_labels.shape[0] // 2
    hm, vis = zip(*(make_gt_heatmaps(r.waypoints_ego, u, u, sigma) for r in records))
    hm = np.stack(hm)
    return (np.stack([r.occ_labels for r in records]),
            np.stack([r.chi_labels for r in records]),
            np.stack([r.sem_labels for r in records]), hm,
            np.stack(vis).astype(np.float64), hm[:, :1],
            np.stack([r.traversed for r in records]).astype(np.float64),
            [r.tokens for r in records])


def batch_loss(model: CM2Model, batch, config: RunConfig):
    """Forward pass and combined loss for one minibatch. In grad mode at
    B >= 2 the forward and backward run over two batch shards, one in a
    worker process (:mod:`.shards`); the loss is the same, byte for byte.

    Returns (total loss tensor, waypoint-loss value, map-loss value)."""
    occ, chi, sem, hm, vis, p0, xi, tokens = batch
    heatmaps, traversed, occ_hat, sem_hat = shards.forward(model, config.mode,
                                                           (occ, chi, sem, p0, tokens))
    l_wp = loss_waypoint(heatmaps, hm, vis, traversed, xi, lambda_aux=config.lambda_xi)
    if occ_hat is None:
        # path prediction on ground-truth semantic maps; no map heads
        return l_wp, float(l_wp.item()), 0.0
    l_m = loss_map(occ_hat, sem_hat, occ, sem)
    total = loss_total(l_wp, l_m, config.lambda_wp, config.lambda_m)
    return total, float(l_wp.item()), float(l_m.item())


def train(config: RunConfig, records: list[TrainingRecord],
          out_dir) -> tuple[CM2Model, list[dict]]:
    """Train a model on the given records for ``config.train_steps`` steps;
    writes checkpoint(s) and a loss curve CSV into ``out_dir``. Returns
    (model, loss history)."""
    if not records:
        raise UsageError("training requires a non-empty dataset")
    config.validate()
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    model = CM2Model(config.model_config(), rng=rng)
    params = model.params
    opt = nm.Adam(params, lr=config.lr)
    history = []
    ckpt_path = os.path.join(out_dir, "model.ckpt")
    curve_path = os.path.join(out_dir, "loss_curve.csv")
    with open(curve_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss", "loss_wp", "loss_m"])
        for step in range(config.train_steps):
            idx = rng.integers(0, len(records), size=min(config.batch_size, len(records)))
            batch = assemble_batch([records[i] for i in idx], config.sigma)
            model.zero_grad()
            loss, l_wp, l_m = batch_loss(model, batch, config)
            value = float(loss.item())
            if not np.isfinite(value):
                raise NumericError(f"loss diverged to {value} at step {step}")
            loss.backward()
            opt.step(only_with_grad=True)
            row = {"step": step, "loss": value, "loss_wp": l_wp, "loss_m": l_m}
            history.append(row)
            writer.writerow([step, f"{value:.6f}", f"{l_wp:.6f}", f"{l_m:.6f}"])
            if config.checkpoint_every and (step + 1) % config.checkpoint_every == 0:
                model.save(ckpt_path)
    model.save(ckpt_path)
    return model, history
