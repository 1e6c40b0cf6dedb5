"""Closed-loop navigation evaluation and open-loop map/waypoint quality."""
from __future__ import annotations

import csv

import numpy as np

from .. import numerics as nm
from ..config import RunConfig
from ..controller import decode_waypoints, run_rollout
from ..mapping import crop_ego_occupancy, crop_ego_semantic, world_to_ego
from ..model import CM2Model, make_gt_heatmaps
from ..numerics.parallel import ordered_map
from ..train_eval import shards
from ..train_eval.dataset import TrainingRecord, episode_rng
from ..train_eval.metrics import (NavMetrics, aggregate_nav, compute_map_metrics,
                                  compute_pcw, episode_metrics)
from ..train_eval.training import assemble_batch


def episode_forward(model: CM2Model, config: RunConfig, plan, episode):
    """Per-episode closure ``forward(pose, gmap, sem_frame)``: the model's
    :class:`Forward` at one rollout state, in ``config.mode``, under no_grad.
    The instruction is encoded once, here, for every step of the episode."""
    with nm.no_grad():
        instr = [model.encode_instruction(np.asarray(episode.tokens), config.mode)]
    c = model.config
    u = c.heatmap_size
    start = np.array([[episode.start.x, episode.start.y]])

    def forward(pose, gmap, sem_frame):
        with nm.no_grad():
            p0, _ = make_gt_heatmaps(world_to_ego(pose, start), u, u, config.sigma)
            if config.mode == "cm2-gt":
                maps = {"sem_gt": crop_ego_semantic(plan, pose, c.ego_size)[None]}
            else:
                maps = {"occ": crop_ego_occupancy(gmap, pose, c.ego_size)[None],
                        "sem_obs": sem_frame[None]}
            return model.forward(config.mode, instr, p0[None], **maps)

    return forward


def make_predictor(model: CM2Model, config: RunConfig, plan, episode):
    """Per-episode closure mapping rollout state to waypoint heatmaps."""
    forward = episode_forward(model, config, plan, episode)

    def predict(pose, gmap, occ_frame, sem_frame):
        return np.asarray(forward(pose, gmap, sem_frame).heatmaps.data[0])

    return predict


def evaluate_episode(model: CM2Model, config: RunConfig, plan, episode,
                     trace_path=None) -> NavMetrics:
    predict = make_predictor(model, config, plan, episode)
    result = run_rollout(plan, episode, predict, config, trace_path=trace_path,
                         rng=episode_rng(config.seed, episode))
    return episode_metrics(plan, episode, result.trajectory, result.stopped,
                           config.success_radius)


def evaluate_navigation(model: CM2Model, config: RunConfig,
                        plans_episodes) -> tuple[list[NavMetrics], dict]:
    """Roll out every (Floorplan, Episode) pair of ``plans_episodes`` and
    aggregate. The episodes run through
    :func:`~mapnav.numerics.parallel.ordered_map`, every other one in the
    map helper where one is forked, which is sent ``model`` and ``config`` once
    per call. Each rollout draws only from its episode's own seeded stream,
    so the metrics are the serial loop's, whichever process runs an
    episode."""
    per_episode = ordered_map(_pair_metrics, (model, config), plans_episodes)
    return per_episode, aggregate_nav(per_episode)


def _pair_metrics(shared, pair) -> NavMetrics:
    model, config = shared
    plan, episode = pair
    return evaluate_episode(model, config, plan, episode)


def evaluate_map_quality(model: CM2Model, config: RunConfig,
                         records: list[TrainingRecord]) -> dict:
    """Open-loop semantic map IoU/F1 and waypoint PCW over records."""
    ious, f1s, pcws = [], [], []
    with nm.no_grad():
        for rec in records:
            occ, chi, sem, _, vis, p0, _, tokens = assemble_batch([rec], config.sigma)
            heatmaps, _, occ_hat, sem_hat = shards.model_forward(
                model, config.mode, (occ, chi, sem, p0, tokens))
            if occ_hat is not None:
                pred_labels = np.asarray(sem_hat.data[0]).argmax(axis=0)
                mm = compute_map_metrics(pred_labels, rec.sem_labels)
                ious.append(mm["IoU"])
                f1s.append(mm["F1"])
            decoded = decode_waypoints(np.asarray(heatmaps.data[0]))
            pcws.append(compute_pcw(decoded, rec.waypoints_ego, vis[0]))
    out = {"PCW": float(np.mean(pcws)) if pcws else 0.0}
    out["IoU"] = float(np.mean(ious)) if ious else float("nan")
    out["F1"] = float(np.mean(f1s)) if f1s else float("nan")
    return out


def write_metrics_csv(path, per_episode: list[NavMetrics], aggregate: dict,
                      extra: dict | None = None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "TL", "NE", "OS", "SR", "SPL"])
        for i, m in enumerate(per_episode):
            writer.writerow([i, f"{m.tl:.4f}", f"{m.ne:.4f}",
                             f"{m.os_:.0f}", f"{m.sr:.0f}", f"{m.spl:.4f}"])
        agg = dict(aggregate)
        if extra:
            agg.update(extra)
        writer.writerow([])
        writer.writerow(["aggregate"] + [f"{k}={v:.4f}" for k, v in agg.items()])
