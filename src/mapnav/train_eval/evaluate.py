"""Closed-loop navigation evaluation and open-loop map/waypoint quality."""
from __future__ import annotations

import csv
import multiprocessing

import numpy as np

from .. import numerics as nm
from ..config import RunConfig
from ..controller import decode_waypoints, run_rollout
from ..mapping import crop_ego_occupancy, crop_ego_semantic, world_to_ego
from ..model import CM2Model, make_gt_heatmaps
from ..train_eval.dataset import TrainingRecord, episode_rng
from ..train_eval.metrics import (NavMetrics, aggregate_nav, compute_map_metrics,
                                  compute_pcw, episode_metrics)
from ..train_eval.training import assemble_batch
from ..worldsim.episodes import episode_from_json, episode_to_json
from ..worldsim.floorplan import generate_floorplan


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
    result = run_rollout(plan, episode, predict, config.controller_config(),
                         ego_size=config.ego_size, num_rays=config.num_rays,
                         max_range=config.max_range, trace_path=trace_path,
                         p_noise=config.p_noise, rng=episode_rng(config.seed, episode))
    return episode_metrics(plan, episode, result.trajectory, result.stopped,
                           config.success_radius)


_WORKER: dict = {}


def _worker_init(ckpt_path, config_json):
    _WORKER["model"] = CM2Model.load(ckpt_path)
    _WORKER["config"] = RunConfig.from_json(config_json)


def _worker_eval(episode_json):
    episode = episode_from_json(episode_json)
    plan = generate_floorplan(episode.floorplan_seed,
                              size=_WORKER["config"].world_size)
    return evaluate_episode(_WORKER["model"], _WORKER["config"], plan, episode)


def evaluate_navigation(model: CM2Model, config: RunConfig, plans_episodes,
                        workers: int = 1, ckpt_path=None) -> tuple[list[NavMetrics], dict]:
    """Rollout every episode and aggregate; ``plans_episodes`` is an iterable
    of (Floorplan, Episode). Parallel workers reload the model from
    ``ckpt_path`` per process."""
    pairs = list(plans_episodes)
    if workers > 1 and ckpt_path is not None:
        payload = [episode_to_json(ep) for _, ep in pairs]
        with multiprocessing.Pool(workers, initializer=_worker_init,
                                  initargs=(ckpt_path, config.to_json())) as pool:
            per_episode = pool.map(_worker_eval, payload)
    else:
        per_episode = [evaluate_episode(model, config, plan, ep)
                       for plan, ep in pairs]
    return per_episode, aggregate_nav(per_episode)


def evaluate_map_quality(model: CM2Model, config: RunConfig,
                         records: list[TrainingRecord]) -> dict:
    """Open-loop semantic map IoU/F1 and waypoint PCW over records."""
    ious, f1s, pcws = [], [], []
    with nm.no_grad():
        for rec in records:
            occ, chi, sem, _, vis, p0, _, _ = assemble_batch([rec], config.sigma)
            instr = [model.encode_instruction(rec.tokens, config.mode)]
            fwd = model.forward(config.mode, instr, p0, occ, chi, sem)
            if fwd.occ_hat is not None:
                pred_labels = np.asarray(fwd.sem.data[0]).argmax(axis=0)
                mm = compute_map_metrics(pred_labels, rec.sem_labels)
                ious.append(mm["IoU"])
                f1s.append(mm["F1"])
            decoded = decode_waypoints(np.asarray(fwd.heatmaps.data[0]))
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
