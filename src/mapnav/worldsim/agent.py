"""Embodied agent dynamics and raycast depth/semantic sensing."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import UsageError
from .floorplan import CELL_SIZE, FLOOR, Floorplan, OBJECT_CLASS_IDS, pos_to_cell

FORWARD_STEP = 0.25
TURN_STEP = np.deg2rad(15.0)
FOV = np.deg2rad(90.0)
DEFAULT_NUM_RAYS = 64
DEFAULT_MAX_RANGE = 4.8

ACTIONS = ("forward", "left", "right")


@dataclass
class Pose:
    x: float
    y: float
    theta: float  # radians in [-pi, pi), 0 along +x


def wrap_angle(a: float) -> float:
    return float((a + np.pi) % (2.0 * np.pi) - np.pi)


def step_agent(plan: Floorplan, pose: Pose, action: str) -> Pose:
    """Apply a discrete action; forward into a blocked cell is a no-op."""
    if action == "left":
        return Pose(pose.x, pose.y, wrap_angle(pose.theta + TURN_STEP))
    if action == "right":
        return Pose(pose.x, pose.y, wrap_angle(pose.theta - TURN_STEP))
    if action != "forward":
        raise ValueError(f"unknown action {action!r}")
    nx = pose.x + FORWARD_STEP * np.cos(pose.theta)
    ny = pose.y + FORWARD_STEP * np.sin(pose.theta)
    r, c = pos_to_cell(nx, ny)
    if not plan.traversable(r, c):
        return pose
    return Pose(float(nx), float(ny), pose.theta)


@dataclass
class DepthScan:
    angles: np.ndarray   # ray angles relative to heading, strictly increasing
    ranges: np.ndarray   # meters, clipped at max_range
    classes: np.ndarray  # hit class id, -1 for no hit
    max_range: float


def _trace_ray(grid: np.ndarray, x: float, y: float, angle: float,
               max_range: float) -> tuple[float, int, int, int]:
    """DDA traversal; returns (range, class, hit_row, hit_col).

    class is -1 (no hit within max_range) or the blocking cell class.
    """
    dx, dy = np.cos(angle), np.sin(angle)
    r, c = int(np.floor(y / CELL_SIZE)), int(np.floor(x / CELL_SIZE))
    g = grid.shape[0]
    step_c = 1 if dx > 0 else -1
    step_r = 1 if dy > 0 else -1
    t_max_x = np.inf if dx == 0 else (((c + (step_c > 0)) * CELL_SIZE) - x) / dx
    t_max_y = np.inf if dy == 0 else (((r + (step_r > 0)) * CELL_SIZE) - y) / dy
    t_dx = np.inf if dx == 0 else CELL_SIZE / abs(dx)
    t_dy = np.inf if dy == 0 else CELL_SIZE / abs(dy)
    t = 0.0
    while True:
        if t_max_x < t_max_y:
            t = t_max_x
            t_max_x += t_dx
            c += step_c
        else:
            t = t_max_y
            t_max_y += t_dy
            r += step_r
        if t > max_range:
            return max_range, -1, -1, -1
        if not (0 <= r < g and 0 <= c < g):
            return max_range, -1, -1, -1
        if grid[r, c] != FLOOR:
            return float(t), int(grid[r, c]), r, c


def raycast(plan: Floorplan, pose: Pose, num_rays: int = DEFAULT_NUM_RAYS,
            max_range: float = DEFAULT_MAX_RANGE, p_noise: float = 0.0,
            rng: np.random.Generator | None = None) -> DepthScan:
    """Cast rays over a 90-degree FOV centered on the heading.

    With probability ``p_noise`` a hit's class label is replaced by a random
    object class (stand-in for segmentation error), drawn from ``rng``.
    """
    if p_noise > 0 and rng is None:
        raise UsageError(f"raycast with p_noise={p_noise} needs an rng")
    rel = np.linspace(-FOV / 2.0, FOV / 2.0, num_rays)
    ranges = np.empty(num_rays)
    classes = np.empty(num_rays, dtype=np.int64)
    for i, a in enumerate(rel):
        rng_m, cls, _, _ = _trace_ray(plan.grid, pose.x, pose.y,
                                      pose.theta + a, max_range)
        if cls >= 0 and p_noise > 0 and rng.uniform() < p_noise:
            cls = OBJECT_CLASS_IDS[int(rng.integers(0, len(OBJECT_CLASS_IDS)))]
        ranges[i] = rng_m
        classes[i] = cls
    return DepthScan(angles=rel, ranges=ranges, classes=classes, max_range=max_range)
