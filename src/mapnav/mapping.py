"""Egocentric grids: ground projection, Bayesian occupancy, cropping.

Ego frame convention: the agent sits at the center cell (h/2, w/2) facing
"up" (decreasing row). Forward distance f and rightward lateral distance r of
a world point map to

    row = h/2 - round(f / cell)        col = w/2 + round(r / cell)

with f = dx*cos(t) + dy*sin(t) and r = dx*sin(t) - dy*cos(t) for an agent at
pose (x, y, t).

Occupancy channels are ordered (occupied, free, void).
"""
from __future__ import annotations

import numpy as np

from .worldsim.agent import DepthScan, Pose, raycast
from .worldsim.floorplan import CELL_SIZE, FLOOR, Floorplan, NUM_CLASSES, VOID

OCC, FREE, UNK = 0, 1, 2
DEFAULT_EGO_SIZE = 48

LOGODDS_OCC = float(np.log(0.8 / 0.2))
LOGODDS_FREE = float(np.log(0.3 / 0.7))
LOGODDS_CLAMP = 4.0
OCC_THRESHOLD = 0.5


def world_to_ego(pose: Pose, xy: np.ndarray) -> np.ndarray:
    """World points (n,2) -> ego (forward, right) meters (n,2)."""
    xy = np.atleast_2d(xy)
    dx = xy[:, 0] - pose.x
    dy = xy[:, 1] - pose.y
    ct, st = np.cos(pose.theta), np.sin(pose.theta)
    f = dx * ct + dy * st
    r = dx * st - dy * ct
    return np.stack([f, r], axis=1)


def ego_to_world(pose: Pose, fr: np.ndarray) -> np.ndarray:
    """Ego (forward, right) meters (n,2) -> world points (n,2)."""
    fr = np.atleast_2d(fr)
    ct, st = np.cos(pose.theta), np.sin(pose.theta)
    x = pose.x + fr[:, 0] * ct + fr[:, 1] * st
    y = pose.y + fr[:, 0] * st - fr[:, 1] * ct
    return np.stack([x, y], axis=1)


def ego_to_cell(f: float, r: float, size: int) -> tuple[int, int]:
    half = size // 2
    return half - int(np.round(f / CELL_SIZE)), half + int(np.round(r / CELL_SIZE))


def cell_to_ego(row: int, col: int, size: int) -> tuple[float, float]:
    half = size // 2
    return (half - row) * CELL_SIZE, (col - half) * CELL_SIZE


def ground_project(scan: DepthScan, size: int = DEFAULT_EGO_SIZE,
                   num_classes: int = NUM_CLASSES) -> tuple[np.ndarray, np.ndarray]:
    """Project one scan into single-frame ego grids.

    Returns (occupancy (3,size,size) one-hot, semantics (c,size,size)).
    Cells swept by a ray before its hit are free; the hit cell is occupied
    with the ray's class; everything else is void/unknown.
    """
    occ = np.zeros((size, size), dtype=np.int8)       # 0 unknown, 1 free, 2 occupied
    sem = np.zeros((size, size), dtype=np.int64)      # class label, 0 = void
    step = CELL_SIZE / 4.0
    half = size // 2
    angles = np.asarray(scan.angles)
    ranges = np.asarray(scan.ranges)
    classes = np.asarray(scan.classes)
    cf, sf = np.cos(angles), np.sin(angles)
    # free sweep: sample every ray at sub-cell steps up to (not including) its
    # range, all rays on one grid of steps; occupied hits are written
    # afterwards and take precedence
    n_steps = np.ceil(ranges / step).astype(int)
    t = np.arange(n_steps.max(initial=0)) * step
    rows = half - np.round(t * cf[:, None] / CELL_SIZE).astype(int)
    cols = half + np.round(-t * sf[:, None] / CELL_SIZE).astype(int)
    ok = ((np.arange(len(t)) < n_steps[:, None])
          & (rows >= 0) & (rows < size) & (cols >= 0) & (cols < size))
    occ[rows[ok], cols[ok]] = 1
    hit = classes >= 0
    rows = half - np.round(ranges[hit] * cf[hit] / CELL_SIZE).astype(int)
    cols = half + np.round(-ranges[hit] * sf[hit] / CELL_SIZE).astype(int)
    ok = (rows >= 0) & (rows < size) & (cols >= 0) & (cols < size)
    occ[rows[ok], cols[ok]] = 2
    sem[rows[ok], cols[ok]] = classes[hit][ok]

    occ_onehot = np.zeros((3, size, size))
    occ_onehot[OCC] = occ == 2
    occ_onehot[FREE] = occ == 1
    occ_onehot[UNK] = occ == 0
    sem_onehot = np.zeros((num_classes, size, size))
    hit = occ == 2
    hr, hc = np.nonzero(hit)
    sem_onehot[sem[hit], hr, hc] = 1.0
    # observed free floor is semantically floor; unknown stays void
    sem_onehot[FLOOR][occ == 1] = 1.0
    sem_onehot[VOID][occ == 0] = 1.0
    return occ_onehot, sem_onehot


def new_global_occupancy(size: int) -> np.ndarray:
    return np.zeros((size, size))


def update_global(gmap: np.ndarray, occ_frame: np.ndarray, pose: Pose) -> np.ndarray:
    """Register a single-frame ego occupancy grid into the world-frame
    log-odds map (in place; also returned)."""
    size = occ_frame.shape[-1]
    g = gmap.shape[0]
    for channel, delta in ((OCC, LOGODDS_OCC), (FREE, LOGODDS_FREE)):
        rows, cols = np.nonzero(occ_frame[channel])
        if len(rows) == 0:
            continue
        half = size // 2
        f = np.stack([(half - rows) * CELL_SIZE, (cols - half) * CELL_SIZE], axis=1)
        if channel == OCC:
            # hit ranges are measured at cell entry, so the ego cell center
            # sits at or just before the obstacle surface; push the evidence
            # half a cell away from the agent so it lands inside the
            # obstacle's world cell instead of the free cell in front of it
            norm = np.linalg.norm(f, axis=1, keepdims=True)
            norm[norm == 0] = 1.0
            f = f + (CELL_SIZE / 2.0) * f / norm
        world = ego_to_world(pose, f)
        wr = np.floor(world[:, 1] / CELL_SIZE).astype(int)
        wc = np.floor(world[:, 0] / CELL_SIZE).astype(int)
        ok = (wr >= 0) & (wr < g) & (wc >= 0) & (wc < g)
        np.add.at(gmap, (wr[ok], wc[ok]), delta)
    np.clip(gmap, -LOGODDS_CLAMP, LOGODDS_CLAMP, out=gmap)
    return gmap


def sense(plan: Floorplan, pose: Pose, gmap: np.ndarray | None, ego_size: int,
          num_rays: int, max_range: float, p_noise: float,
          rng: np.random.Generator | None) -> tuple[np.ndarray, np.ndarray]:
    """One observation: raycast at ``pose``, project it into single-frame ego
    grids and register the occupancy into ``gmap`` (skipped when ``gmap`` is
    None). Returns (occupancy frame, semantic frame)."""
    scan = raycast(plan, pose, num_rays=num_rays, max_range=max_range,
                   p_noise=p_noise, rng=rng)
    occ_frame, sem_frame = ground_project(scan, ego_size)
    if gmap is not None:
        update_global(gmap, occ_frame, pose)
    return occ_frame, sem_frame


def _ego_world_cells(pose: Pose, size: int) -> tuple[np.ndarray, np.ndarray]:
    """World-grid (row, col) sampled at every ego cell center."""
    rows, cols = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    half = size // 2
    f = (half - rows).ravel() * CELL_SIZE
    r = (cols - half).ravel() * CELL_SIZE
    world = ego_to_world(pose, np.stack([f, r], axis=1))
    wr = np.floor(world[:, 1] / CELL_SIZE).astype(int)
    wc = np.floor(world[:, 0] / CELL_SIZE).astype(int)
    return wr.reshape(size, size), wc.reshape(size, size)


def crop_ego_occupancy(gmap: np.ndarray, pose: Pose,
                       size: int = DEFAULT_EGO_SIZE) -> np.ndarray:
    """Agent-centered, heading-up crop of the global log-odds map as a
    (3,size,size) one-hot occupied/free/void grid."""
    g = gmap.shape[0]
    wr, wc = _ego_world_cells(pose, size)
    inside = (wr >= 0) & (wr < g) & (wc >= 0) & (wc < g)
    vals = np.zeros((size, size))
    vals[inside] = gmap[wr[inside], wc[inside]]
    out = np.zeros((3, size, size))
    out[OCC] = inside & (vals > OCC_THRESHOLD)
    out[FREE] = inside & (vals < -OCC_THRESHOLD)
    out[UNK] = 1.0 - out[OCC] - out[FREE]
    return out


def crop_ego_semantic(plan: Floorplan, pose: Pose,
                      size: int = DEFAULT_EGO_SIZE) -> np.ndarray:
    """Ground-truth semantic crop of the floorplan, (c,size,size) one-hot.
    Out-of-world cells are void."""
    g = plan.grid.shape[0]
    wr, wc = _ego_world_cells(pose, size)
    inside = (wr >= 0) & (wr < g) & (wc >= 0) & (wc < g)
    labels = np.zeros((size, size), dtype=np.int64)
    labels[inside] = plan.grid[wr[inside], wc[inside]]
    out = np.zeros((NUM_CLASSES, size, size))
    rows, cols = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    out[labels, rows, cols] = 1.0
    return out

