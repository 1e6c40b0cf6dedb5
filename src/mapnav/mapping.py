"""Sensing into grids: ego semantic projection, world-frame Bayesian
occupancy, egocentric crops.

Every ego grid here is a uint8 label map, (s,s) or (n,s,s): semantic maps
hold class labels, occupancy crops ``OCC``/``FREE``/``UNK``. Only the model
one-hot encodes them.

Each depth scan is registered straight into the world-frame log-odds map:
every ray updates the world cells its samples and its hit fall in, one
quantisation per point. Only the semantic observation is projected into
the ego frame.

Ego frame convention: the agent sits at the center cell (h/2, w/2) facing
"up" (decreasing row). Forward distance f and rightward lateral distance r of
a world point map to

    row = h/2 - round(f / cell)        col = w/2 + round(r / cell)

with f = dx*cos(t) + dy*sin(t) and r = dx*sin(t) - dy*cos(t) for an agent at
pose (x, y, t).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .worldsim.agent import DepthScan, Pose, raycast
from .worldsim.floorplan import CELL_SIZE, FLOOR, Floorplan, VOID

OCC, FREE, UNK = 0, 1, 2

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


def _ray_samples(scans) -> tuple[np.ndarray, ...]:
    """The rays of a sequence of scans and where each one is sampled.

    Returns per ray its scan index, angle, range and class, and per free
    sample its ray index and its distance along the ray. A ray's free
    samples lie at j * CELL_SIZE/4 for j < ceil(range / step): up to, not
    including, its range."""
    step = CELL_SIZE / 4.0
    frame = np.repeat(np.arange(len(scans)), [len(s.ranges) for s in scans])
    angles = np.concatenate([s.angles for s in scans])
    ranges = np.concatenate([s.ranges for s in scans])
    classes = np.concatenate([s.classes for s in scans])
    n_steps = np.ceil(ranges / step).astype(int)
    ray = np.repeat(np.arange(len(ranges)), n_steps)
    j = np.arange(len(ray)) - np.repeat(np.cumsum(n_steps) - n_steps, n_steps)
    return frame, angles, ranges, classes, ray, j * step


def ground_project(scans, size: int) -> np.ndarray:
    """Project scans into single-frame ego semantic label maps.

    ``scans`` is one DepthScan, or a sequence of n scans projected together.
    Returns the (size,size) uint8 class labels, with a leading n axis for a
    sequence. Cells a ray's free samples reach are floor; the hit cell
    takes the ray's class; everything else is void.
    """
    one = isinstance(scans, DepthScan)
    scans = [scans] if one else scans
    n = len(scans)
    half = size // 2
    frame, angles, ranges, classes, ray, t = _ray_samples(scans)
    cf, sf = np.cos(angles), np.sin(angles)

    def cells(fi, t, c, s):
        """Flat index of the cell at distance ``t`` along direction (c, s) in
        frame ``fi``, or the spare index past all frames if off the grid."""
        rows = half - np.round(t * c / CELL_SIZE).astype(int)
        cols = half + np.round(-t * s / CELL_SIZE).astype(int)
        ok = (rows >= 0) & (rows < size) & (cols >= 0) & (cols < size)
        return np.where(ok, (fi * size + rows) * size + cols, n * size * size)

    # the class label per cell of all frames (flat, plus the spare), void
    # until a ray reaches it; hits are written after the free samples and
    # take precedence
    sem = np.full(n * size * size + 1, VOID, dtype=np.uint8)
    sem[cells(frame[ray], t, cf[ray], sf[ray])] = FLOOR
    hit = classes >= 0
    sem[cells(frame[hit], ranges[hit], cf[hit], sf[hit])] = classes[hit]
    sem = sem[:-1].reshape(n, size, size)
    return sem[0] if one else sem


def new_global_occupancy(size: int) -> np.ndarray:
    return np.zeros((size, size))


# log-odds delta per registration mark: no evidence, free, occupied
_MARK_DELTAS = np.array([0.0, LOGODDS_FREE, LOGODDS_OCC])


def update_global(gmap: np.ndarray, scans, poses) -> np.ndarray:
    """Register depth scans into the world-frame log-odds map, in place and
    in order.

    ``scans`` is one DepthScan with its Pose, or a sequence of n scans with
    n poses. A ray at pose (x, y, t) points at t + angle. Its free samples
    and its hit, at range + 1e-6 so that it lies inside the cell the ray
    entered, are floored to world cells; off the grid they are dropped.
    Each scan adds one ``LOGODDS_OCC`` or ``LOGODDS_FREE`` per cell,
    occupied over free, and then clamps the map. Returns ``gmap``."""
    one = isinstance(scans, DepthScan)
    scans, poses = ([scans], [poses]) if one else (scans, poses)
    n, g = len(scans), gmap.shape[0]
    frame, angles, ranges, classes, ray, t = _ray_samples(scans)
    x, y, _, _ = _pose_terms(poses)
    heading = np.array([p.theta for p in poses], dtype=float)[frame] + angles
    cw, sw = np.cos(heading), np.sin(heading)

    def cells(fi, t, c, s):
        """Flat index of the world cell at distance ``t`` along direction
        (c, s) from frame ``fi``'s pose, or the spare index if off the grid."""
        rows = np.floor((y[fi] + t * s) / CELL_SIZE).astype(int)
        cols = np.floor((x[fi] + t * c) / CELL_SIZE).astype(int)
        ok = (rows >= 0) & (rows < g) & (cols >= 0) & (cols < g)
        return np.where(ok, (fi * g + rows) * g + cols, n * g * g)

    # one mark per cell of each frame: free marks first, then occupied ones
    marks = np.zeros(n * g * g + 1, dtype=np.uint8)
    marks[cells(frame[ray], t, cw[ray], sw[ray])] = 1
    hit = classes >= 0
    marks[cells(frame[hit], ranges[hit] + 1e-6, cw[hit], sw[hit])] = 2
    for frame_marks in marks[:-1].reshape(n, g, g):
        gmap += _MARK_DELTAS[frame_marks]
        np.clip(gmap, -LOGODDS_CLAMP, LOGODDS_CLAMP, out=gmap)
    return gmap


def sense(plan: Floorplan, pose: Pose, gmap: np.ndarray | None, ego_size: int,
          num_rays: int, max_range: float, p_noise: float,
          rng: np.random.Generator | None) -> np.ndarray:
    """One observation: raycast at ``pose``, register the scan into ``gmap``
    (skipped when ``gmap`` is None) and project it into a single-frame ego
    semantic label map, which is returned."""
    scan = raycast(plan, pose, num_rays=num_rays, max_range=max_range,
                   p_noise=p_noise, rng=rng)
    if gmap is not None:
        update_global(gmap, scan, pose)
    return ground_project(scan, ego_size)


@dataclass(frozen=True)
class EgoCells:
    """The world cells that the (size,size) ego crops of n poses sample on a
    (g,g) world grid: per pose, the flat index ``row*g + col`` of the cell
    under each ego cell center, row-major, or ``g*g`` where a center lies off
    the grid. Made once by :func:`ego_cells`, it can be cropped from several
    grids."""
    flat: np.ndarray   # (n, size*size) int
    size: int
    g: int


def ego_cells(poses, size: int, g: int) -> EgoCells:
    """The :class:`EgoCells` of a sequence of poses' (size,size) crops of a
    (g,g) grid: each ego cell center rotated and shifted into the world by
    the pose, then floored to a cell."""
    rows, cols = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    half = size // 2
    f = (half - rows).ravel() * CELL_SIZE
    r = (cols - half).ravel() * CELL_SIZE
    x, y, ct, st = (a[:, None] for a in _pose_terms(poses))
    wx, wy = _to_world(x, y, ct, st, f, r)
    wr = np.floor(wy / CELL_SIZE).astype(int)
    wc = np.floor(wx / CELL_SIZE).astype(int)
    inside = (wr >= 0) & (wr < g) & (wc >= 0) & (wc < g)
    return EgoCells(np.where(inside, wr * g + wc, g * g), size, g)


def _crop_values(grids: np.ndarray, poses, size: int, fill) -> np.ndarray:
    """(n,size,size) values of ``grids`` (one (g,g) grid, or (n,g,g), one
    per pose) at every ego cell center of each of n poses, or at the cells
    of their :class:`EgoCells`; ``fill`` where a center lies off the grid."""
    g = grids.shape[-1]
    cells = poses if isinstance(poses, EgoCells) else ego_cells(poses, size, g)
    if (cells.g, cells.size) != (g, size):
        raise UsageError(f"ego cells of {cells.size}x{cells.size} crops of a {cells.g}x{cells.g} "
                         f"grid used for {size}x{size} crops of a {g}x{g} one")
    n = len(cells.flat)
    inside = cells.flat < g * g
    fi = np.broadcast_to(np.arange(n)[:, None], inside.shape)
    vals = np.full(inside.shape, fill, dtype=grids.dtype)
    vals[inside] = np.broadcast_to(grids, (n, g, g)).reshape(n, g * g)[fi[inside],
                                                                      cells.flat[inside]]
    return vals.reshape(n, size, size)


def crop_ego_occupancy(gmap: np.ndarray, poses, size: int) -> np.ndarray:
    """Agent-centered, heading-up crop of the global log-odds map as a
    (size,size) uint8 ``OCC``/``FREE``/``UNK`` label map.

    For a sequence of n poses, or their :class:`EgoCells` (made for crops
    of ``size``), the crops come back as (n,size,size), and ``gmap`` is
    either one (g,g) map or (n,g,g), one map per pose."""
    one = isinstance(poses, Pose)
    vals = _crop_values(gmap, [poses] if one else poses, size, 0.0)
    labels = np.full(vals.shape, UNK, dtype=np.uint8)
    labels[vals > OCC_THRESHOLD] = OCC
    labels[vals < -OCC_THRESHOLD] = FREE
    return labels[0] if one else labels


def crop_ego_semantic(plan: Floorplan, poses, size: int) -> np.ndarray:
    """Ground-truth semantic crop of the floorplan, a (size,size) uint8
    label map, or (n,size,size) for a sequence of n poses or their
    :class:`EgoCells`. Out-of-world cells are void."""
    one = isinstance(poses, Pose)
    labels = _crop_values(plan.grid, [poses] if one else poses, size, VOID)
    return labels[0] if one else labels
