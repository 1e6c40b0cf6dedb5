"""Waypoint supervision: sampling, visibility, heatmaps.

Heatmap frame: the ego map downscaled by 2 (one heatmap cell = 0.4 m), agent
at the center cell facing up. Ground-truth heatmaps are unnormalized
Gaussians with peak exactly 1 at the waypoint cell; off-map waypoints yield
all-zero maps and a false visibility bit.
"""
from __future__ import annotations

import numpy as np

from ..worldsim.episodes import arc_lengths
from ..worldsim.floorplan import CELL_SIZE

HEATMAP_CELL = 2.0 * CELL_SIZE


def sample_waypoints(gt_path: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k waypoints at uniform arc length; first = start, last = goal.

    Returns (points (k,2), arc lengths (k,))."""
    pts = np.asarray(gt_path, dtype=np.float64)
    if len(pts) == 1:
        return np.repeat(pts, k, axis=0), np.zeros(k)
    s = arc_lengths(pts)
    targets = np.linspace(0.0, s[-1], k)
    out = np.empty((k, 2))
    out[:, 0] = np.interp(targets, s, pts[:, 0])
    out[:, 1] = np.interp(targets, s, pts[:, 1])
    return out, targets


def ego_to_heatmap_cell(f: float, r: float, u: int, v: int) -> tuple[int, int]:
    return (u // 2 - int(np.round(f / HEATMAP_CELL)),
            v // 2 + int(np.round(r / HEATMAP_CELL)))


def heatmap_cell_to_ego(row: int, col: int, u: int, v: int) -> tuple[float, float]:
    return (u // 2 - row) * HEATMAP_CELL, (col - v // 2) * HEATMAP_CELL


def make_gt_heatmaps(waypoints_ego: np.ndarray, u: int, v: int,
                     sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian heatmap stack and visibility mask for ego-frame waypoints."""
    k = len(waypoints_ego)
    stack = np.zeros((k, u, v))
    vis = np.zeros(k, dtype=bool)
    rows = np.arange(u)[:, None]
    cols = np.arange(v)[None, :]
    for i, (f, r) in enumerate(waypoints_ego):
        cr, cc = ego_to_heatmap_cell(f, r, u, v)
        if not (0 <= cr < u and 0 <= cc < v):
            continue
        vis[i] = True
        stack[i] = np.exp(-((rows - cr) ** 2 + (cols - cc) ** 2) / (2.0 * sigma**2))
    return stack, vis

