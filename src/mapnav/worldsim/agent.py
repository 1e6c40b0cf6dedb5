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


def _crossing_times(cell: int, step: np.ndarray, pos: float, d: np.ndarray,
                    n: int) -> np.ndarray:
    """(rays, n) times at which each ray crosses its next ``n`` cell
    boundaries along one axis; inf for rays parallel to the boundaries."""
    times = np.empty((len(d), n))
    with np.errstate(divide="ignore", invalid="ignore"):
        times[:, 0] = np.where(d == 0, np.inf, ((cell + (step > 0)) * CELL_SIZE - pos) / d)
        times[:, 1:] = np.where(d == 0, np.inf, CELL_SIZE / np.abs(d))[:, None]
    return np.add.accumulate(times, axis=1)


def _trace_rays(grid: np.ndarray, x: float, y: float, angles: np.ndarray,
                max_range: float) -> tuple[np.ndarray, np.ndarray]:
    """Grid DDA (Amanatides & Woo) for all rays at once; returns (ranges,
    classes), class -1 (range ``max_range``) where a ray leaves the grid or
    passes ``max_range`` before it enters a non-floor cell.

    Each ray's x- and y-boundary crossing times are accumulated in sequence
    (the scalar walk's ``t_max += t_delta``) and merged in time order, the
    row step first on a tie; the crossing counts give the cell entered at
    each crossing.
    """
    dx, dy = np.cos(angles), np.sin(angles)
    r0, c0 = int(np.floor(y / CELL_SIZE)), int(np.floor(x / CELL_SIZE))
    step_c = np.where(dx > 0, 1, -1)
    step_r = np.where(dy > 0, 1, -1)
    # a crossing time grows by at least one cell size per crossing, so the
    # first crossing past max_range falls within n of each axis
    n = int(max_range / CELL_SIZE) + 3
    times = np.concatenate([_crossing_times(r0, step_r, y, dy, n),
                            _crossing_times(c0, step_c, x, dx, n)], axis=1)
    order = np.argsort(times, axis=1, kind="stable")
    t = np.take_along_axis(times, order, axis=1)
    n_x = np.cumsum(order >= n, axis=1)
    n_y = np.arange(1, 2 * n + 1) - n_x
    rows = r0 + step_r[:, None] * n_y
    cols = c0 + step_c[:, None] * n_x
    g = grid.shape[0]
    inside = (rows >= 0) & (rows < g) & (cols >= 0) & (cols < g)
    cells = grid[np.where(inside, rows, 0), np.where(inside, cols, 0)]
    gone = (t > max_range) | ~inside
    ray = np.arange(len(angles))
    first = np.argmax(gone | (cells != FLOOR), axis=1)
    hit = ~gone[ray, first]
    ranges = np.where(hit, t[ray, first], max_range)
    classes = np.where(hit, cells[ray, first].astype(np.int64), -1)
    return ranges, classes


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
    ranges, classes = _trace_rays(plan.grid, pose.x, pose.y, pose.theta + rel,
                                  max_range)
    if p_noise > 0:
        for i in np.flatnonzero(classes >= 0):
            if rng.uniform() < p_noise:
                classes[i] = OBJECT_CLASS_IDS[int(rng.integers(0, len(OBJECT_CLASS_IDS)))]
    return DepthScan(angles=rel, ranges=ranges, classes=classes, max_range=max_range)
