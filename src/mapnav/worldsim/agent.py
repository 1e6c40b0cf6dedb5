"""Embodied agent dynamics and raycast depth/semantic sensing."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import UsageError
from .floorplan import CELL_SIZE, FLOOR, Floorplan, OBJECT_CLASS_IDS, pos_to_cell

FORWARD_STEP = 0.25
TURN_STEP = np.deg2rad(15.0)
FOV = np.deg2rad(90.0)
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


OUTSIDE = 255  # the ray grid's label for the cells outside the world


def _ray_grid(plan: Floorplan, pad: int) -> tuple[np.ndarray, int]:
    """``plan.grid`` in a ring of ``OUTSIDE`` cells at least ``pad`` wide,
    flattened, and the ring's width. It is built once per floorplan and
    built again when a wider ring is needed or the grid's bytes differ from
    the ones it was built from, so an edit to ``plan.grid`` in place never
    leaves it stale."""
    grid = plan.grid
    key = (grid.shape, grid.tobytes())
    cached = plan.ray_grid
    if cached is None or cached[0] < pad or cached[1] != key:
        padded = np.pad(grid, pad, constant_values=OUTSIDE)
        cached = plan.ray_grid = (pad, key, padded.ravel())
    return cached[2], cached[0]


def _trace_rays(plan: Floorplan, x: float, y: float, angles: np.ndarray,
                max_range: float) -> tuple[np.ndarray, np.ndarray]:
    """Grid DDA (Amanatides & Woo) for all rays at once; returns (ranges,
    classes), class -1 (range ``max_range``) where a ray leaves the grid or
    passes ``max_range`` before it enters a non-floor cell.

    Each ray's y- and x-boundary crossing times are accumulated in sequence
    (the scalar walk's ``t_max += t_delta``), as rows ``[:R]`` and ``[R:]``
    of one array, and merged in time order, the row step first on a tie;
    the crossing counts give the cell entered at each crossing, looked up
    in the grid padded by as many cells as a ray can cross, where a cell
    outside the world reads ``OUTSIDE``.
    """
    n_rays = len(angles)
    d = np.concatenate([np.sin(angles), np.cos(angles)])
    r0, c0 = int(np.floor(y / CELL_SIZE)), int(np.floor(x / CELL_SIZE))
    step = np.where(d > 0, 1, -1)
    # a crossing time grows by at least one cell size per crossing, so the
    # first crossing past max_range falls within n of each axis
    n = int(max_range / CELL_SIZE) + 3
    cell = np.repeat([r0, c0], n_rays)
    pos = np.repeat([y, x], n_rays)
    times = np.empty((2 * n_rays, n))
    with np.errstate(divide="ignore", invalid="ignore"):
        times[:, 0] = np.where(d == 0, np.inf, ((cell + (step > 0)) * CELL_SIZE - pos) / d)
        times[:, 1:] = np.where(d == 0, np.inf, CELL_SIZE / np.abs(d))[:, None]
    np.add.accumulate(times, axis=1, out=times)
    times = np.concatenate([times[:n_rays], times[n_rays:]], axis=1)
    order = np.argsort(times, axis=1, kind="stable")
    ray = np.arange(n_rays)
    t = times.ravel()[order + (2 * n * ray)[:, None]]
    n_x = np.cumsum(order >= n, axis=1)
    n_y = np.arange(1, 2 * n + 1) - n_x
    rows, cols = plan.grid.shape
    flat, pad = _ray_grid(plan, n + max(0, -r0, -c0, r0 - rows + 1, c0 - cols + 1))
    width = cols + 2 * pad
    cells = flat[((r0 + pad) * width + c0 + pad)
                 + (step[:n_rays] * width)[:, None] * n_y + step[n_rays:, None] * n_x]
    first = np.argmax((t > max_range) | (cells != FLOOR), axis=1)
    t_first, c_first = t[ray, first], cells[ray, first]
    hit = (t_first <= max_range) & (c_first != OUTSIDE)
    ranges = np.where(hit, t_first, max_range)
    classes = np.where(hit, c_first.astype(np.int64), -1)
    return ranges, classes


def raycast(plan: Floorplan, pose: Pose, *, num_rays: int, max_range: float, p_noise: float,
            rng: np.random.Generator | None = None) -> DepthScan:
    """Cast rays over a 90-degree FOV centered on the heading.

    With probability ``p_noise`` a hit's class label is replaced by a random
    object class (stand-in for segmentation error), drawn from ``rng``.
    """
    if p_noise > 0 and rng is None:
        raise UsageError(f"raycast with p_noise={p_noise} needs an rng")
    rel = np.linspace(-FOV / 2.0, FOV / 2.0, num_rays)
    ranges, classes = _trace_rays(plan, pose.x, pose.y, pose.theta + rel, max_range)
    if p_noise > 0:
        for i in np.flatnonzero(classes >= 0):
            if rng.uniform() < p_noise:
                classes[i] = OBJECT_CLASS_IDS[int(rng.integers(0, len(OBJECT_CLASS_IDS)))]
    return DepthScan(angles=rel, ranges=ranges, classes=classes, max_range=max_range)
