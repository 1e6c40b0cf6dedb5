"""Closed-loop navigation evaluation and open-loop map/waypoint quality."""
from __future__ import annotations

import csv
import math

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
from ..worldsim.agent import TURN_STEP

# Heatmap stacks a predictor keeps at one position: a spin in place meets
# its states again one full turn later, and label noise makes states that
# may never come back, so the bound keeps the memory of a noisy spin small.
KEPT_PER_POSITION = round(2 * math.pi / TURN_STEP)


def _episode_step(model: CM2Model, config: RunConfig, plan, episode):
    """The two halves of a rollout step's model forward, for one episode:
    ``inputs(pose, gmap, sem_frame)`` builds the arrays that
    ``model.forward`` reads at that state (the start heatmap ``p0``, then
    the ``occ``/``sem_obs`` label maps or, in ``cm2-gt``, the ``sem_gt``
    crop), and ``run(x)`` runs the forward on them in ``config.mode``
    under no_grad. The instruction is encoded once, here."""
    with nm.no_grad():
        instr = [model.encode_instruction(np.asarray(episode.tokens), config.mode)]
    c = model.config
    u = c.heatmap_size
    start = np.array([[episode.start.x, episode.start.y]])

    def inputs(pose, gmap, sem_frame) -> dict:
        p0, _ = make_gt_heatmaps(world_to_ego(pose, start), u, u, config.sigma)
        if config.mode == "cm2-gt":
            maps = {"sem_gt": crop_ego_semantic(plan, pose, c.ego_size)[None]}
        else:
            maps = {"occ": crop_ego_occupancy(gmap, pose, c.ego_size)[None],
                    "sem_obs": sem_frame[None]}
        return {"start_heatmap": p0[None], **maps}

    def run(x: dict):
        with nm.no_grad():
            return model.forward(config.mode, instr, **x)

    return inputs, run


def episode_forward(model: CM2Model, config: RunConfig, plan, episode):
    """Per-episode closure ``forward(pose, gmap, sem_frame)``: the model's
    :class:`Forward` at one rollout state, in ``config.mode``, under no_grad.
    The instruction is encoded once, here, for every step of the episode."""
    inputs, run = _episode_step(model, config, plan, episode)
    return lambda pose, gmap, sem_frame: run(inputs(pose, gmap, sem_frame))


def make_predictor(model: CM2Model, config: RunConfig, plan, episode):
    """Per-episode closure ``predict(pose, gmap, occ_frame, sem_frame)``
    mapping rollout state to the (k, u, v) waypoint heatmap stack.

    The model runs once per distinct state at the agent's position: the
    stack is kept, keyed by the exact bytes of the forward's inputs, and a
    step whose inputs match a kept key gets the kept stack again without a
    forward. The forwards are stateless and the instruction encoding and
    the parameters are fixed for the episode, so that stack is the one a
    forward would return, byte for byte. The kept stacks are dropped when
    the agent's (x, y) changes, and at most :data:`KEPT_PER_POSITION` are
    kept, the least recently used going first. Every stack returned is
    read-only, and the same array may come back at a later step: callers
    must not write into it."""
    inputs, run = _episode_step(model, config, plan, episode)
    kept: dict[bytes, np.ndarray] = {}   # in order of last use
    at = None

    def predict(pose, gmap, occ_frame, sem_frame):
        nonlocal at
        if (pose.x, pose.y) != at:
            kept.clear()
            at = (pose.x, pose.y)
        x = inputs(pose, gmap, sem_frame)
        key = b"".join(a.tobytes() for a in x.values())
        heatmaps = kept.pop(key, None)
        if heatmaps is None:
            heatmaps = np.asarray(run(x).heatmaps.data[0])
            heatmaps.flags.writeable = False
            if len(kept) == KEPT_PER_POSITION:
                del kept[next(iter(kept))]
        kept[key] = heatmaps
        return heatmaps

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
