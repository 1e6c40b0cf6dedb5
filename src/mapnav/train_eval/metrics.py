"""Navigation and map-quality metrics.

Navigation metrics follow the standard VLN definitions: trajectory length
(TL, meters), navigation error (NE, geodesic meters from stop position to
goal), success (SR, stop taken within the success radius), oracle success
(OS, closest geodesic approach within the radius), and success weighted by
inverse path length (SPL). Map metrics are per-class IoU and F1 averaged
over classes present in the ground truth (void excluded), and the
percentage of correct waypoints (PCW) within a fixed metric radius.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..worldsim.episodes import polyline_length, shortest_path
from ..errors import NoPathError
from ..worldsim.floorplan import VOID

PCW_RADIUS = 1.92


@dataclass
class NavMetrics:
    tl: float
    ne: float
    os_: float   # 0/1
    sr: float    # 0/1
    spl: float


def _geodesic(plan, a, b) -> float:
    try:
        _, length = shortest_path(plan, tuple(a), tuple(b))
        return length
    except NoPathError:
        return float(np.hypot(b[0] - a[0], b[1] - a[1]))


def episode_metrics(plan, episode, trajectory, stopped: bool,
                    success_radius: float) -> NavMetrics:
    """Metrics for one rollout; ``trajectory`` is the visited pose list."""
    xy = np.asarray([(p[0], p[1]) for p in trajectory], dtype=np.float64)
    tl = polyline_length(xy)
    goal = np.asarray(episode.goal, dtype=np.float64)
    # one search per distinct position: a rollout revisits positions as it turns
    positions = [(x, y) for x, y in xy]
    to_goal = {}
    for pos in positions:
        if pos not in to_goal:
            to_goal[pos] = _geodesic(plan, pos, goal)
    ne = to_goal[positions[-1]]
    sr = 1.0 if (stopped and ne <= success_radius) else 0.0
    closest = min(to_goal.values())
    os_ = 1.0 if closest <= success_radius else 0.0
    l_gt = episode.path_length
    spl = sr * l_gt / max(l_gt, tl) if l_gt > 0 else sr
    return NavMetrics(tl=tl, ne=ne, os_=os_, sr=sr, spl=spl)


def aggregate_nav(metrics: list[NavMetrics]) -> dict:
    """Mean metrics; OS/SR/SPL reported as percentages."""
    if not metrics:
        return {"TL": 0.0, "NE": 0.0, "OS": 0.0, "SR": 0.0, "SPL": 0.0}
    return {
        "TL": float(np.mean([m.tl for m in metrics])),
        "NE": float(np.mean([m.ne for m in metrics])),
        "OS": 100.0 * float(np.mean([m.os_ for m in metrics])),
        "SR": 100.0 * float(np.mean([m.sr for m in metrics])),
        "SPL": 100.0 * float(np.mean([m.spl for m in metrics])),
    }


def compute_map_metrics(pred_labels: np.ndarray, gt_labels: np.ndarray,
                        exclude: tuple = (VOID,)) -> dict:
    """Mean IoU and F1 over classes present in the ground truth.

    IoU = TP/(TP+FP+FN); F1 = 2TP/(2TP+FP+FN)."""
    pred = np.asarray(pred_labels)
    gt = np.asarray(gt_labels)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    classes = [c for c in np.unique(gt) if c not in exclude]
    ious, f1s = [], []
    for c in classes:
        tp = float(np.sum((pred == c) & (gt == c)))
        fp = float(np.sum((pred == c) & (gt != c)))
        fn = float(np.sum((pred != c) & (gt == c)))
        denom = tp + fp + fn
        ious.append(tp / denom if denom > 0 else 1.0)
        f1s.append(2 * tp / (2 * tp + fp + fn) if denom > 0 else 1.0)
    if not ious:
        return {"IoU": 100.0, "F1": 100.0}
    return {"IoU": 100.0 * float(np.mean(ious)), "F1": 100.0 * float(np.mean(f1s))}


def compute_pcw(decoded, gt_waypoints: np.ndarray, visibility: np.ndarray,
                radius: float = PCW_RADIUS) -> float:
    """Percentage of visible waypoints decoded within ``radius`` meters.

    ``decoded`` entries may be None (no detection), which counts as wrong."""
    correct = 0
    total = 0
    for d, g, vis in zip(decoded, np.asarray(gt_waypoints), np.asarray(visibility)):
        if not vis:
            continue
        total += 1
        if d is not None and np.hypot(d[0] - g[0], d[1] - g[1]) <= radius:
            correct += 1
    return 100.0 * correct / total if total else 100.0
