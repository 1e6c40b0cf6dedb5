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


def _pose_terms(poses) -> tuple[np.ndarray, ...]:
    """(x, y, cos theta, sin theta) of each pose as (n,) arrays; the cosine
    and sine are taken per pose, as for one pose."""
    return (np.array([p.x for p in poses], dtype=float),
            np.array([p.y for p in poses], dtype=float),
            np.array([np.cos(p.theta) for p in poses]),
            np.array([np.sin(p.theta) for p in poses]))


def _to_world(x, y, ct, st, f, r) -> tuple[np.ndarray, np.ndarray]:
    """World (x, y) of ego (forward, right) offsets from poses given by
    ``_pose_terms``; every argument broadcasts."""
    return x + f * ct + r * st, y + f * st - r * ct


def ego_to_world(pose: Pose, fr: np.ndarray) -> np.ndarray:
    """Ego (forward, right) meters (n,2) -> world points (n,2)."""
    fr = np.atleast_2d(fr)
    x, y = _to_world(pose.x, pose.y, np.cos(pose.theta), np.sin(pose.theta),
                     fr[:, 0], fr[:, 1])
    return np.stack([x, y], axis=1)


def ego_to_cell(f: float, r: float, size: int) -> tuple[int, int]:
    half = size // 2
    return half - int(np.round(f / CELL_SIZE)), half + int(np.round(r / CELL_SIZE))


def cell_to_ego(row: int, col: int, size: int) -> tuple[float, float]:
    half = size // 2
    return (half - row) * CELL_SIZE, (col - half) * CELL_SIZE


def _one_hot(labels: np.ndarray, num: int) -> np.ndarray:
    """(n,num,s,s) float one-hot grids of (n,s,s) uint8 label maps."""
    return (labels[:, None] == np.arange(num, dtype=np.uint8)[:, None, None]).astype(float)


def ground_project(scans, size: int = DEFAULT_EGO_SIZE,
                   num_classes: int = NUM_CLASSES) -> tuple[np.ndarray, np.ndarray]:
    """Project scans into single-frame ego grids.

    ``scans`` is one DepthScan, or a sequence of n scans projected together.
    Returns (occupancy (3,size,size) one-hot, semantics (c,size,size)), with
    a leading n axis for a sequence. Cells swept by a ray before its hit are
    free; the hit cell is occupied with the ray's class; everything else is
    void/unknown.
    """
    one = isinstance(scans, DepthScan)
    scans = [scans] if one else scans
    n = len(scans)
    step = CELL_SIZE / 4.0
    half = size // 2
    # the rays of all scans, each tagged with its scan's index
    frame = np.repeat(np.arange(n), [len(s.ranges) for s in scans])
    angles = np.concatenate([s.angles for s in scans])
    ranges = np.concatenate([s.ranges for s in scans])
    classes = np.concatenate([s.classes for s in scans])
    cf, sf = np.cos(angles), np.sin(angles)

    def cells(fi, t, c, s):
        """Flat index of the cell at distance ``t`` along direction (c, s) in
        frame ``fi``, or the spare index past all frames if off the grid."""
        rows = half - np.round(t * c / CELL_SIZE).astype(int)
        cols = half + np.round(-t * s / CELL_SIZE).astype(int)
        ok = (rows >= 0) & (rows < size) & (cols >= 0) & (cols < size)
        return np.where(ok, (fi * size + rows) * size + cols, n * size * size)

    # per cell of all frames (flat, plus the spare): its occupancy channel
    # and its class label, unknown and void until a ray reaches it
    occ = np.full(n * size * size + 1, UNK, dtype=np.uint8)
    sem = np.full(n * size * size + 1, VOID, dtype=np.uint8)
    # free sweep: sample every ray at sub-cell steps k * step up to (not
    # including) its range, one run of samples per ray; observed free floor
    # is semantically floor. Occupied hits are written afterwards and take
    # precedence.
    n_steps = np.ceil(ranges / step).astype(int)
    ray = np.repeat(np.arange(len(ranges)), n_steps)
    k = np.arange(len(ray)) - np.repeat(np.cumsum(n_steps) - n_steps, n_steps)
    free = cells(frame[ray], k * step, cf[ray], sf[ray])
    occ[free] = FREE
    sem[free] = FLOOR
    hit = classes >= 0
    hits = cells(frame[hit], ranges[hit], cf[hit], sf[hit])
    occ[hits] = OCC
    sem[hits] = classes[hit]
    occ_onehot = _one_hot(occ[:-1].reshape(n, size, size), 3)
    sem_onehot = _one_hot(sem[:-1].reshape(n, size, size), num_classes)
    if one:
        return occ_onehot[0], sem_onehot[0]
    return occ_onehot, sem_onehot


def new_global_occupancy(size: int) -> np.ndarray:
    return np.zeros((size, size))


def update_global(gmap: np.ndarray, occ_frames: np.ndarray, poses) -> np.ndarray:
    """Register single-frame ego occupancy grids into the world-frame
    log-odds map, in place and in order.

    ``occ_frames`` is one (3,s,s) frame with its Pose, or (n,3,s,s) frames
    with a sequence of n poses. The world cells of every frame's evidence
    are found in one pass; then each frame adds its evidence, occupied cells
    first, with one ``np.add.at`` and clamps the map. Returns ``gmap``."""
    one = occ_frames.ndim == 3
    frames = occ_frames[None] if one else occ_frames
    n, _, size, _ = frames.shape
    g = gmap.shape[0]
    half = size // 2
    # row-major order: by frame, then each frame's occupied cells before its
    # free cells
    fi, ch, rows, cols = np.nonzero(frames[:, [OCC, FREE]] != 0)
    f = np.stack([(half - rows) * CELL_SIZE, (cols - half) * CELL_SIZE], axis=1)
    # hit ranges are measured at cell entry, so the ego cell center of an
    # occupied cell sits at or just before the obstacle surface; push its
    # evidence half a cell away from the agent so it lands inside the
    # obstacle's world cell instead of the free cell in front of it
    norm = np.linalg.norm(f, axis=1, keepdims=True)
    norm[norm == 0] = 1.0
    occupied = ch == 0    # ch indexes (OCC, FREE)
    f = np.where(occupied[:, None], f + (CELL_SIZE / 2.0) * f / norm, f)
    x, y, ct, st = _pose_terms([poses] if one else poses)
    wx, wy = _to_world(x[fi], y[fi], ct[fi], st[fi], f[:, 0], f[:, 1])
    wr = np.floor(wy / CELL_SIZE).astype(int)
    wc = np.floor(wx / CELL_SIZE).astype(int)
    ok = (wr >= 0) & (wr < g) & (wc >= 0) & (wc < g)
    fi, wr, wc = fi[ok], wr[ok], wc[ok]
    deltas = np.where(occupied[ok], LOGODDS_OCC, LOGODDS_FREE)
    bounds = np.searchsorted(fi, np.arange(n + 1))
    for a, b in zip(bounds[:-1], bounds[1:]):
        np.add.at(gmap, (wr[a:b], wc[a:b]), deltas[a:b])
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


def _ego_world_cells(poses, size: int) -> tuple[np.ndarray, np.ndarray]:
    """World-grid (row, col), each (n,size,size), sampled at every ego cell
    center of each of n poses."""
    rows, cols = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    half = size // 2
    f = (half - rows).ravel() * CELL_SIZE
    r = (cols - half).ravel() * CELL_SIZE
    x, y, ct, st = (a[:, None] for a in _pose_terms(poses))
    wx, wy = _to_world(x, y, ct, st, f, r)
    wr = np.floor(wy / CELL_SIZE).astype(int)
    wc = np.floor(wx / CELL_SIZE).astype(int)
    return wr.reshape(-1, size, size), wc.reshape(-1, size, size)


def crop_ego_occupancy(gmap: np.ndarray, poses,
                       size: int = DEFAULT_EGO_SIZE) -> np.ndarray:
    """Agent-centered, heading-up crop of the global log-odds map as a
    (3,size,size) one-hot occupied/free/void grid.

    For a sequence of n poses the crops come back as (n,3,size,size), and
    ``gmap`` is either one (g,g) map or (n,g,g), one map per pose."""
    one = isinstance(poses, Pose)
    poses = [poses] if one else poses
    g = gmap.shape[-1]
    wr, wc = _ego_world_cells(poses, size)
    inside = (wr >= 0) & (wr < g) & (wc >= 0) & (wc < g)
    maps = np.broadcast_to(gmap, (len(poses), g, g))
    fi = np.broadcast_to(np.arange(len(poses))[:, None, None], inside.shape)
    vals = np.zeros(inside.shape)
    vals[inside] = maps[fi[inside], wr[inside], wc[inside]]
    labels = np.full(inside.shape, UNK, dtype=np.uint8)
    labels[inside & (vals > OCC_THRESHOLD)] = OCC
    labels[inside & (vals < -OCC_THRESHOLD)] = FREE
    out = _one_hot(labels, 3)
    return out[0] if one else out


def crop_ego_semantic(plan: Floorplan, poses,
                      size: int = DEFAULT_EGO_SIZE) -> np.ndarray:
    """Ground-truth semantic crop of the floorplan, (c,size,size) one-hot,
    or (n,c,size,size) for a sequence of n poses. Out-of-world cells are
    void."""
    one = isinstance(poses, Pose)
    poses = [poses] if one else poses
    g = plan.grid.shape[0]
    wr, wc = _ego_world_cells(poses, size)
    inside = (wr >= 0) & (wr < g) & (wc >= 0) & (wc < g)
    labels = np.full(inside.shape, VOID, dtype=np.uint8)
    labels[inside] = plan.grid[wr[inside], wc[inside]]
    out = _one_hot(labels, NUM_CLASSES)
    return out[0] if one else out
