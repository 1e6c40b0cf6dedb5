"""Training record construction and a compact deterministic binary format.

Each record captures one pose sampled along an episode's ground-truth path:
the accumulated-occupancy ego crop, the single-frame semantic observation,
the ground-truth semantic crop, and the waypoint supervision targets.
Grids are uint8 label maps from sensing to the model, which one-hot encodes
them; batch assembly only stacks them and builds the Gaussian heatmaps.

An episode's records are built in one walk along its path. Each sample
closes a stretch: the history poses spaced along the path since the last
sample, then the sample pose with its jittered heading. Every pose of the
stretch is raycast in path order before the next heading is drawn, so each
draw of sensor noise and heading jitter comes from the episode rng in the
order a per-pose loop would draw it. The stretch's scans are registered in
one ``update_global`` call, and the map after the sample frame is kept.
After the walk, the sample scans are projected in one ``ground_project``
call. The sample poses' ego cells are computed once (``ego_cells``), and
every sample is cropped from its map in one ``crop_ego_occupancy`` call and
from the floorplan in one ``crop_ego_semantic`` call.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..errors import GenerationError, UsageError
from ..language.vocab import MAX_TOKENS
from ..mapping import (crop_ego_occupancy, crop_ego_semantic, ego_cells, ground_project,
                       new_global_occupancy, update_global, world_to_ego)
from ..model.supervision import sample_waypoints
from ..worldsim.agent import Pose, raycast, wrap_angle
from ..worldsim.episodes import generate_episode
from ..worldsim.floorplan import generate_floorplan

MAGIC = b"CM2DATA1"
_HEADER = struct.Struct("<IHHH")   # count, ego size s, k, tokens per record
HEADING_JITTER = np.deg2rad(30.0)
HISTORY_SPACING = 0.5      # meters between simulated sensor poses on the path


@dataclass
class TrainingRecord:
    episode_id: int
    t: int                      # sample index within the episode
    pose: Pose
    tokens: np.ndarray          # (MAX_TOKENS,) int
    occ_labels: np.ndarray      # (s,s) uint8 in {OCC, FREE, UNK}
    chi_labels: np.ndarray      # (s,s) uint8 observed class (0 = void)
    sem_labels: np.ndarray      # (s,s) uint8 ground-truth class
    waypoints_ego: np.ndarray   # (k,2) float64 ego (forward, right) meters
    traversed: np.ndarray       # (k,) uint8 0/1


def _path_point(path: np.ndarray, arcs: np.ndarray, s: float) -> np.ndarray:
    return np.array([np.interp(s, arcs, path[:, 0]), np.interp(s, arcs, path[:, 1])])


def _path_heading(path: np.ndarray, arcs: np.ndarray, s: float) -> float:
    ahead = _path_point(path, arcs, min(s + 0.2, arcs[-1]))
    here = _path_point(path, arcs, max(s - 0.05, 0.0))
    d = ahead - here
    if np.hypot(*d) < 1e-9:
        return 0.0
    return float(np.arctan2(d[1], d[0]))


def build_episode_records(plan, episode, samples_per_episode: int, k: int,
                          ego_size: int, rng: np.random.Generator, *, num_rays: int,
                          max_range: float, p_noise: float) -> list[TrainingRecord]:
    """Sample poses along the ground-truth path and snapshot the accumulated
    sensor map at each, walking the path once in order (see the module
    docstring)."""
    path = np.asarray(episode.gt_path)
    seg = np.linalg.norm(np.diff(path, axis=0), axis=1)
    arcs = np.concatenate([[0.0], np.cumsum(seg)])
    total = arcs[-1]
    sample_arcs = np.linspace(0.0, total, samples_per_episode)
    wps, wp_arcs = sample_waypoints(path, k)

    def scan(pose):
        return raycast(plan, pose, num_rays=num_rays, max_range=max_range,
                       p_noise=p_noise, rng=rng)

    gmap = new_global_occupancy(plan.grid.shape[0])
    sample_poses, sample_scans, maps = [], [], []
    history_s = 0.0
    for sa in sample_arcs:
        # the stretch: the sensor history along the path up to this sample,
        # then the sample pose with its jittered heading
        poses = []
        while history_s <= sa + 1e-9:
            hp = _path_point(path, arcs, history_s)
            poses.append(Pose(hp[0], hp[1], _path_heading(path, arcs, history_s)))
            if history_s >= total:
                break
            history_s = min(history_s + HISTORY_SPACING, total)
        scans = [scan(pose) for pose in poses]
        p = _path_point(path, arcs, sa)
        theta = wrap_angle(_path_heading(path, arcs, sa)
                           + rng.uniform(-HEADING_JITTER, HEADING_JITTER))
        poses.append(Pose(float(p[0]), float(p[1]), theta))
        scans.append(scan(poses[-1]))
        maps.append(update_global(gmap, scans, poses).copy())
        sample_poses.append(poses[-1])
        sample_scans.append(scans[-1])
    if not sample_poses:
        return []
    chi_labels = ground_project(sample_scans, ego_size)
    cells = ego_cells(sample_poses, ego_size, gmap.shape[0])
    occ_labels = crop_ego_occupancy(np.stack(maps), cells)
    sem_labels = crop_ego_semantic(plan, cells)
    return [TrainingRecord(
        episode_id=episode.episode_id, t=t, pose=pose,
        tokens=np.asarray(episode.tokens, dtype=np.int64),
        occ_labels=occ_labels[t], chi_labels=chi_labels[t], sem_labels=sem_labels[t],
        waypoints_ego=world_to_ego(pose, wps),
        traversed=(wp_arcs <= sa + 1e-9).astype(np.uint8),
    ) for t, (sa, pose) in enumerate(zip(sample_arcs, sample_poses))]


def episode_rng(seed: int, episode) -> np.random.Generator:
    """The episode's own random stream: sensor noise and sampled headings
    in its records, sensor noise in its rollouts."""
    return np.random.default_rng([seed, episode.floorplan_seed, episode.episode_id])


def build_dataset(plans_episodes, samples_per_episode: int, k: int,
                  ego_size: int, seed: int, *, num_rays: int, max_range: float,
                  p_noise: float) -> list[TrainingRecord]:
    """``plans_episodes``: iterable of (Floorplan, Episode) pairs. The
    sensing settings are the run config's ``num_rays``, ``max_range`` and
    ``p_noise``."""
    records = []
    for plan, episode in plans_episodes:
        rng = episode_rng(seed, episode)
        records.extend(build_episode_records(
            plan, episode, samples_per_episode, k, ego_size, rng,
            num_rays=num_rays, max_range=max_range, p_noise=p_noise))
    return records


# ----------------------------------------------------------------------
def generate_split(config, floorplan_seeds, episode_offset: int,
                   episodes_per_plan: int) -> list:
    """(Floorplan, Episode) pairs for the given floorplan seeds; episode
    seeds are offset so train and eval episodes on shared floorplans
    differ."""
    pairs = []
    for fp_seed in floorplan_seeds:
        plan = generate_floorplan(fp_seed, size=config.world_size)
        made = 0
        attempt = 0
        while made < episodes_per_plan and attempt < episodes_per_plan * 5:
            try:
                ep = generate_episode(plan, episode_offset + attempt,
                                      episode_id=fp_seed * 100000 + episode_offset + made)
                pairs.append((plan, ep))
                made += 1
            except GenerationError:
                pass
            attempt += 1
    return pairs


def generate_splits(config) -> dict[str, list]:
    """Train records source plus seen/unseen evaluation splits.

    "seen": fresh episodes on training floorplans; "unseen": episodes on
    held-out floorplans. Each evaluation split holds ``eval_episodes``
    episodes, spread evenly over as many of its floorplans as needed."""
    def eval_split(seeds, episode_offset):
        seeds = seeds[:config.eval_episodes]
        per_plan = -(-config.eval_episodes // max(1, len(seeds)))
        return generate_split(config, seeds, episode_offset, per_plan)[:config.eval_episodes]

    train_seeds = range(config.num_floorplans)
    return {
        "train": generate_split(config, train_seeds, 0, config.episodes_per_floorplan),
        "seen": eval_split(train_seeds, 1000),
        "unseen": eval_split(range(config.num_floorplans,
                                   config.num_floorplans + config.heldout_floorplans), 2000),
    }


def _record_dtype(s: int, k: int, m: int) -> np.dtype:
    """One record as stored: packed little-endian fields, ``s``x``s`` label
    maps, ``k`` waypoints and ``m`` tokens."""
    return np.dtype([("episode_id", "<u4"), ("t", "<u2"), ("pose", "<f8", (3,)),
                     ("tokens", "<u2", (m,)), ("occ_labels", "u1", (s, s)),
                     ("chi_labels", "u1", (s, s)), ("sem_labels", "u1", (s, s)),
                     ("waypoints_ego", "<f8", (k, 2)), ("traversed", "u1", (k,))])


def save_records(path, records: list[TrainingRecord]):
    """Write ``MAGIC``, the header (count, s, k, tokens per record) and one
    fixed-size row per record. Records share the first record's ego size
    and ``k``."""
    s, k, m = ((records[0].occ_labels.shape[0], len(records[0].waypoints_ego), MAX_TOKENS)
               if records else (0, 0, 0))
    for r in records:
        if not (0 <= r.episode_id < 2**32 and 0 <= r.t < 2**16):
            raise UsageError(f"{path}: record (episode {r.episode_id}, t {r.t}) does not fit "
                             "the record format (uint32 episode id, uint16 t)")
        shapes = tuple(np.shape(a) for a in (r.tokens, r.occ_labels, r.chi_labels,
                                             r.sem_labels, r.waypoints_ego, r.traversed))
        if shapes != ((MAX_TOKENS,), (s, s), (s, s), (s, s), (k, 2), (k,)):
            raise UsageError(f"{path}: record (episode {r.episode_id}, t {r.t}) has field "
                             f"shapes {shapes}; the file holds {MAX_TOKENS} tokens, "
                             f"{s}x{s} label maps and k={k} waypoints, as its first record")
    rows = np.empty(len(records), _record_dtype(s, k, m))
    for f in rows.dtype.names if records else ():  # each names a TrainingRecord field
        rows[f] = [(r.pose.x, r.pose.y, r.pose.theta) if f == "pose" else getattr(r, f)
                   for r in records]
    with open(path, "wb") as fh:
        fh.write(MAGIC + _HEADER.pack(len(records), s, k, m))
        fh.write(rows.tobytes())


def load_records(path) -> list[TrainingRecord]:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:len(MAGIC)] != MAGIC:
        raise UsageError(f"{path}: not a training-record file")
    start = len(MAGIC) + _HEADER.size
    if len(data) < start:
        raise UsageError(f"{path}: truncated or corrupt record file "
                         f"({len(data)} bytes, shorter than its header)")
    count, s, k, m = _HEADER.unpack_from(data, len(MAGIC))
    dtype = _record_dtype(s, k, m)
    end = start + count * dtype.itemsize
    if len(data) < end:
        raise UsageError(f"{path}: truncated or corrupt record file ({len(data)} bytes; "
                         f"its header gives {count} records of {dtype.itemsize} bytes)")
    if len(data) > end:
        raise UsageError(f"{path}: corrupt record file ({len(data) - end} bytes after the end)")
    rows = np.frombuffer(data, dtype, count, start)
    fields = {f: rows[f].copy() for f in dtype.names}
    fields.update(episode_id=rows["episode_id"].tolist(), t=rows["t"].tolist(),
                  pose=[Pose(*p) for p in rows["pose"].tolist()],
                  tokens=rows["tokens"].astype(np.int64))
    return [TrainingRecord(**{f: c[i] for f, c in fields.items()}) for i in range(count)]
