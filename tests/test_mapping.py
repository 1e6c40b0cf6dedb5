import math

import numpy as np
import pytest

from sensing import sensing
from mapnav.mapping import (
    FREE, OCC, UNK, LOGODDS_CLAMP, LOGODDS_FREE, LOGODDS_OCC, OCC_THRESHOLD,
    crop_ego_occupancy, crop_ego_semantic, ego_cells, ego_to_cell,
    ego_to_world, ground_project, new_global_occupancy, sense,
    update_global, world_to_ego,
)
from mapnav.errors import UsageError
from mapnav.model.cm2 import one_hot
from mapnav.worldsim import (
    CELL_SIZE, FLOOR, NUM_CLASSES, VOID, WALL, DepthScan, Floorplan, Pose,
    cell_center, generate_floorplan, raycast,
)


def one_ray_scan(rng_m, cls, angle=0.0, max_range=4.8):
    return DepthScan(angles=np.array([angle]), ranges=np.array([rng_m]),
                     classes=np.array([cls], dtype=np.int64), max_range=max_range)


def box_room(size=64):
    grid = np.full((size, size), FLOOR, dtype=np.uint8)
    grid[0, :] = grid[-1, :] = WALL
    grid[:, 0] = grid[:, -1] = WALL
    return Floorplan(grid=grid, seed=0)


# -------------------------------------------------------------- frame math
def test_world_ego_round_trip(rng):
    for _ in range(20):
        pose = Pose(*rng.uniform(0, 12, size=2), rng.uniform(-np.pi, np.pi))
        pts = rng.uniform(-5, 15, size=(7, 2))
        back = ego_to_world(pose, world_to_ego(pose, pts))
        assert np.allclose(back, pts, atol=1e-9)


def test_ego_cell_conventions():
    # 1 m straight ahead -> 5 rows above center
    assert ego_to_cell(1.0, 0.0, 48) == (19, 24)
    # 1 m to the right -> 5 columns right of center
    assert ego_to_cell(0.0, 1.0, 48) == (24, 29)


def test_left_of_heading_is_smaller_column():
    pose = Pose(3.0, 3.0, 0.5)
    left = ego_to_world(pose, np.array([[0.0, -1.0]]))[0]
    # rotating the heading by +90 degrees (CCW) points at the left-hand point
    expect = [pose.x + math.cos(pose.theta + np.pi / 2),
              pose.y + math.sin(pose.theta + np.pi / 2)]
    assert np.allclose(left, expect, atol=1e-9)


# --------------------------------------------------------- ground projection
def test_ground_project_perpendicular_ray():
    sem = ground_project(one_ray_scan(1.0, WALL), size=48)
    assert sem.shape == (48, 48) and sem.dtype == np.uint8
    col = 24
    # 5 floor cells walking up from the agent, then the wall hit
    assert sem[24, col] == FLOOR and sem[20, col] == FLOOR
    assert np.all(sem[20:25, col] == FLOOR)
    assert sem[19, col] == WALL
    assert (sem == WALL).sum() == 1


def test_ground_project_behind_is_void():
    plan = generate_floorplan(0, 64)
    pose = Pose(6.4, 6.4, 1.1)
    sem = ground_project(raycast(plan, pose, **sensing(p_noise=0.0)), size=48)
    assert np.all(sem[26:, :] == VOID)  # rows behind the agent untouched


def test_ground_project_no_hit_free_only():
    sem = ground_project(one_ray_scan(4.8, -1), size=48)
    assert (sem == FLOOR).sum() > 0
    assert np.all((sem == FLOOR) | (sem == VOID))


def test_ground_project_one_hot():
    plan = generate_floorplan(1, 64)
    pose = Pose(6.4, 6.4, -0.4)
    sem = ground_project(raycast(plan, pose, **sensing(p_noise=0.0)), size=48)
    assert sem.dtype == np.uint8 and sem.max() < NUM_CLASSES
    # the model's one-hot of the label map is one class per cell
    assert np.array_equal(one_hot(sem, NUM_CLASSES).sum(axis=0), np.ones((48, 48)))


def ground_project_reference(scan, size):
    """``ground_project`` with its free sweep written one ray at a time."""
    occ = np.zeros((size, size), dtype=np.int8)
    sem = np.zeros((size, size), dtype=np.int64)
    step = CELL_SIZE / 4.0
    half = size // 2
    cf, sf = np.cos(scan.angles), np.sin(scan.angles)
    n_steps = np.ceil(scan.ranges / step).astype(int)
    for i in range(len(scan.angles)):
        t = np.arange(n_steps[i]) * step
        rows = half - np.round(t * cf[i] / CELL_SIZE).astype(int)
        cols = half + np.round(-t * sf[i] / CELL_SIZE).astype(int)
        ok = (rows >= 0) & (rows < size) & (cols >= 0) & (cols < size)
        occ[rows[ok], cols[ok]] = 1
    for i in np.flatnonzero(scan.classes >= 0):
        r = half - int(np.round(scan.ranges[i] * cf[i] / CELL_SIZE))
        c = half + int(np.round(-scan.ranges[i] * sf[i] / CELL_SIZE))
        if 0 <= r < size and 0 <= c < size:
            occ[r, c] = 2
            sem[r, c] = scan.classes[i]
    labels = np.full((size, size), VOID, dtype=np.uint8)
    for r, c in np.argwhere(occ == 2):
        labels[r, c] = sem[r, c]
    labels[occ == 1] = FLOOR
    return labels


def test_ground_project_matches_per_ray_oracle():
    """The one-pass projection equals the per-ray sweep byte for byte at ego
    24 and 48, on raycast scans and on scans with a zero range or no hit."""
    plans = [generate_floorplan(s, 64) for s in (0, 1)]
    rng = np.random.default_rng(5)
    angles = np.linspace(-np.pi / 4, np.pi / 4, 5)
    scans = [
        DepthScan(angles, np.array([0.0, 1.3, 0.0, 4.8, 0.05]),
                  np.array([WALL, 4, -1, -1, WALL]), 4.8),      # zero ranges
        DepthScan(angles, np.zeros(5), np.full(5, WALL), 4.8),   # all at range 0
        DepthScan(angles, np.full(5, 4.0), np.full(5, -1), 4.0),  # no hits
    ]
    for plan in plans:
        floor = np.argwhere(plan.traversable_mask())
        for i in range(40):
            pose = Pose(*cell_center(*floor[rng.integers(len(floor))]),
                        float(rng.uniform(-np.pi, np.pi)))
            scans.append(raycast(plan, pose, num_rays=(64, 17)[i % 2],
                                 max_range=(4.8, 4.0)[i % 3 == 0], p_noise=0.3,
                                 rng=np.random.default_rng(i)))
    for size in (24, 48):
        for scan in scans:
            got = ground_project(scan, size)
            want = ground_project_reference(scan, size)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_ground_project_stack_equals_per_scan_oracle():
    """A stack of scans, with mixed ray counts and ranges, projects frame by
    frame to what the per-ray oracle gives for each scan alone."""
    rng = np.random.default_rng(9)
    angles = np.linspace(-np.pi / 4, np.pi / 4, 5)
    scans = [DepthScan(angles, np.array([0.0, 1.3, 0.0, 4.8, 0.05]),
                       np.array([WALL, 4, -1, -1, WALL]), 4.8)]
    for seed in (0, 1):
        plan = generate_floorplan(seed, 64)
        floor = np.argwhere(plan.traversable_mask())
        for i in range(12):
            pose = Pose(*cell_center(*floor[rng.integers(len(floor))]),
                        float(rng.uniform(-np.pi, np.pi)))
            scans.append(raycast(plan, pose, num_rays=(64, 17, 3)[i % 3],
                                 max_range=(4.8, 4.0)[i % 2], p_noise=0.3,
                                 rng=np.random.default_rng(i)))
    scans.append(DepthScan(angles, np.full(5, 4.0), np.full(5, -1), 4.0))
    for size in (24, 48):
        sem = ground_project(scans, size)
        assert sem.shape == (len(scans), size, size)
        for i, scan in enumerate(scans):
            assert sem[i].tobytes() == ground_project_reference(scan, size).tobytes()


# -------------------------------------------------------------- global map
def update_global_reference(gmap, scan, pose):
    """Registration of one scan, one ray and one sample at a time, in world
    coordinates: each ray points at the heading plus its angle; its free
    samples at j * CELL_SIZE/4 below its range and its hit just past its
    range are floored to world cells; each cell takes one occupied or free
    update, occupied over free; then the map is clamped."""
    g = gmap.shape[0]
    step = CELL_SIZE / 4.0
    heading = pose.theta + scan.angles
    cos, sin = np.cos(heading), np.sin(heading)
    marks = {}

    def mark(i, t, delta):
        row = math.floor((pose.y + t * sin[i]) / CELL_SIZE)
        col = math.floor((pose.x + t * cos[i]) / CELL_SIZE)
        if 0 <= row < g and 0 <= col < g:
            marks[row, col] = delta

    for i, r in enumerate(scan.ranges):
        for j in range(math.ceil(r / step)):
            mark(i, j * step, LOGODDS_FREE)
    for i, r in enumerate(scan.ranges):
        if scan.classes[i] >= 0:
            mark(i, r + 1e-6, LOGODDS_OCC)
    for cell, delta in marks.items():
        gmap[cell] += delta
    np.clip(gmap, -LOGODDS_CLAMP, LOGODDS_CLAMP, out=gmap)
    return gmap


def test_update_global_stack_equals_per_frame_loop(plan):
    """Registering scans one at a time or as a stack equals the per-ray
    oracle byte for byte: with cells saturated at both clamps and then
    pulled back, a scan without evidence, evidence that falls off the grid
    at a world corner, a ray along a cell boundary, hits on the world
    border and no-hit rays."""
    rng = np.random.default_rng(3)
    floor = np.argwhere(plan.traversable_mask())
    poses, scans = [], []
    for i in range(10):
        pose = Pose(*cell_center(*floor[rng.integers(len(floor))]),
                    float(rng.uniform(-np.pi, np.pi)))
        poses.append(pose)
        scans.append(raycast(plan, pose, **sensing(num_rays=(64, 17)[i % 2], p_noise=0.3),
                             rng=np.random.default_rng(i)))
    # the same scan again and again drives its cells to the clamps; the
    # same rays cut short by hits, and then without hits, pull them back
    again = scans[0]
    short = DepthScan(again.angles, 0.5 * again.ranges, np.full(len(again.ranges), WALL),
                      again.max_range)
    no_hit = DepthScan(again.angles, np.full(len(again.ranges), again.max_range),
                       np.full(len(again.ranges), -1), again.max_range)
    poses += [poses[0]] * 10
    scans += [again] * 8 + [short, no_hit]
    # no evidence: zero ranges and no hits
    poses.insert(4, poses[3])
    scans.insert(4, DepthScan(np.linspace(-0.7, 0.7, 5), np.zeros(5), np.full(5, -1), 4.8))
    # facing out of the world's corner: every ray leaves the grid
    corner = Pose(0.3, 0.5, -2.4)
    fan = np.linspace(-np.pi / 4, np.pi / 4, 33)
    poses.append(corner)
    scans.append(DepthScan(fan, np.full(33, 2.0), np.where(np.arange(33) % 2, WALL, -1), 4.8))
    ends = corner.x + 2.0 * np.cos(corner.theta + fan), corner.y + 2.0 * np.sin(corner.theta + fan)
    assert (np.minimum(*ends) < 0).all()
    # a ray along the boundary between rows 5 and 6 (y = 1.0 exactly)
    poses.append(Pose(2.1, 1.0, 0.0))
    scans.append(one_ray_scan(2.0, WALL))
    # hits on the world border: one just past the world's edge, one at the
    # start of the last column, and the border wall ring raycast
    w = plan.size * CELL_SIZE
    edge = Pose(w - 0.9, 6.1, 0.0)
    poses += [edge, edge]
    scans += [one_ray_scan(0.9, WALL), one_ray_scan(0.7, WALL)]
    assert math.floor((edge.x + 0.9 + 1e-6) / CELL_SIZE) == plan.size
    border = Pose(*cell_center(*floor[np.argmax(floor[:, 1])]), 0.0)
    poses.append(border)
    scans.append(raycast(plan, border, **sensing(num_rays=9)))
    assert (scans[-1].classes >= 0).all()
    # no-hit rays, one of them leaving the grid
    poses += [poses[2], Pose(w - 0.3, 0.5 * w, 0.3)]
    scans += [one_ray_scan(4.8, -1, angle=0.4), one_ray_scan(4.8, -1)]

    want = new_global_occupancy(plan.size)
    for scan, pose in zip(scans, poses):
        update_global_reference(want, scan, pose)
    assert want.max() == LOGODDS_CLAMP and want.min() == -LOGODDS_CLAMP
    assert (np.abs(want) == LOGODDS_CLAMP - LOGODDS_OCC - LOGODDS_FREE).any()
    got = new_global_occupancy(plan.size)
    assert update_global(got, scans, poses) is got
    assert got.tobytes() == want.tobytes()
    loop = new_global_occupancy(plan.size)
    for scan, pose in zip(scans, poses):
        assert update_global(loop, scan, pose) is loop
    assert loop.tobytes() == want.tobytes()
    # a stack of one scan is the one-scan case
    for i in (1, 4, len(scans) - 3):
        one = update_global(new_global_occupancy(plan.size), scans[i:i + 1], poses[i:i + 1])
        assert one.tobytes() == update_global_reference(
            new_global_occupancy(plan.size), scans[i], poses[i]).tobytes()


# a ray straight up the +y axis from the center of cell (15, 15): its free
# samples sweep rows 15-19 of column 15 and a hit at 1 m lands in row 20
UP = Pose(3.05, 3.05, math.pi / 2)


def test_update_global_single_occupied():
    gmap = new_global_occupancy(64)
    update_global(gmap, one_ray_scan(1.0, WALL), UP)
    assert gmap[20, 15] == pytest.approx(math.log(4.0))
    assert np.all(gmap[15:20, 15] == LOGODDS_FREE)
    gmap[15:21, 15] = 0.0
    assert np.all(gmap == 0.0)  # unobserved cells stay exactly 0


def test_update_global_clamps():
    gmap = new_global_occupancy(64)
    for _ in range(10):
        update_global(gmap, one_ray_scan(1.0, WALL), UP)
    assert gmap[20, 15] == LOGODDS_CLAMP
    assert np.all(gmap[15:20, 15] == -LOGODDS_CLAMP)


def test_update_global_conflicting_evidence():
    gmap = new_global_occupancy(64)
    update_global(gmap, one_ray_scan(1.0, WALL), UP)
    # a longer ray with no hit sweeps the same cell as free
    update_global(gmap, one_ray_scan(2.0, -1), UP)
    expect = math.log(4.0) + math.log(3.0 / 7.0)
    assert gmap[20, 15] == pytest.approx(expect)
    assert expect > 0  # 0.539: still leaning occupied


def test_update_global_monotone_occupied():
    gmap = new_global_occupancy(64)
    prev = -np.inf
    for _ in range(6):
        update_global(gmap, one_ray_scan(1.0, WALL), UP)
        assert gmap[20, 15] >= prev
        prev = gmap[20, 15]


# ------------------------------------------------------------------- crops
def test_crop_semantic_wall_ahead_any_heading():
    plan = box_room()
    # east wall surface at x = 12.6; face each wall from 1 m away
    cases = [
        (Pose(11.5, 6.5, 0.0)),          # +x toward east wall
        (Pose(6.5, 11.5, math.pi / 2)),  # +y toward north wall
        (Pose(1.3, 6.5, math.pi)),       # -x toward west wall
        (Pose(6.5, 1.3, -math.pi / 2)),  # -y toward south wall
    ]
    for pose in cases:
        labels = crop_ego_semantic(plan, pose, 48)
        # wall 1 m ahead -> about 5 cells above center
        assert WALL in labels[18:21, 24], pose
        assert np.all(labels[24, 24] == FLOOR)


def test_crop_semantic_rotated_45deg():
    plan = box_room()
    # drop a table cell 1 m ahead of a 45-degree heading
    pose = Pose(6.5, 6.5, math.pi / 4)
    tx = pose.x + math.cos(pose.theta)
    ty = pose.y + math.sin(pose.theta)
    r, c = int(ty / CELL_SIZE), int(tx / CELL_SIZE)
    plan.grid[r, c] = 3  # table
    labels = crop_ego_semantic(plan, pose, 48)
    assert 3 in labels[18:21, 23:26]


def test_crop_deterministic(plan):
    pose = Pose(6.4, 6.4, 0.3)
    a = crop_ego_semantic(plan, pose, 48)
    b = crop_ego_semantic(plan, pose, 48)
    assert np.array_equal(a, b)
    gmap = new_global_occupancy(64)
    update_global(gmap, raycast(plan, pose, **sensing(p_noise=0.0)), pose)
    assert np.array_equal(crop_ego_occupancy(gmap, pose, 48),
                          crop_ego_occupancy(gmap, pose, 48))


def crop_occupancy_reference(gmap, pose, size):
    """One crop of the log-odds map, sampled at the ego cell centers."""
    g = gmap.shape[0]
    rows, cols = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    half = size // 2
    fr = np.stack([(half - rows).ravel() * CELL_SIZE, (cols - half).ravel() * CELL_SIZE], axis=1)
    world = ego_to_world(pose, fr)
    wr = np.floor(world[:, 1] / CELL_SIZE).astype(int).reshape(size, size)
    wc = np.floor(world[:, 0] / CELL_SIZE).astype(int).reshape(size, size)
    inside = (wr >= 0) & (wr < g) & (wc >= 0) & (wc < g)
    vals = np.zeros((size, size))
    vals[inside] = gmap[wr[inside], wc[inside]]
    out = np.full((size, size), UNK, dtype=np.uint8)
    out[inside & (vals > OCC_THRESHOLD)] = OCC
    out[inside & (vals < -OCC_THRESHOLD)] = FREE
    return out, (wr, wc, inside)


def crop_semantic_reference(plan, pose, size):
    _, (wr, wc, inside) = crop_occupancy_reference(np.zeros(plan.grid.shape), pose, size)
    labels = np.full((size, size), VOID, dtype=np.uint8)
    labels[inside] = plan.grid[wr[inside], wc[inside]]
    return labels


def test_crops_of_many_poses_equal_per_pose_crops(plan):
    """Crops of a sequence of poses, from one shared map or from one map per
    pose, equal the per-pose crops byte for byte, also at the world border;
    so do crops at the poses' ``ego_cells``, made once for all three."""
    rng = np.random.default_rng(4)
    floor = np.argwhere(plan.traversable_mask())
    w = plan.size * CELL_SIZE
    poses = [Pose(*cell_center(*floor[rng.integers(len(floor))]),
                  float(rng.uniform(-np.pi, np.pi))) for _ in range(8)]
    poses += [Pose(0.0, 0.0, 0.0), Pose(w - 1e-9, 0.5 * w, np.pi / 2),
              Pose(0.5 * w, w, -np.pi), Pose(0.1, w - 0.1, 2.3), Pose(w, w, -0.7)]
    maps, gmap = [], new_global_occupancy(plan.size)
    for pose in poses[:8] * 2:
        update_global(gmap, raycast(plan, pose, **sensing()), pose)
        maps.append(gmap.copy())
    maps = np.stack(maps[-len(poses):])
    for size in (24, 48):
        shared = crop_ego_occupancy(gmap, poses, size)
        each = crop_ego_occupancy(maps, poses, size)
        sem = crop_ego_semantic(plan, poses, size)
        assert shared.shape == each.shape == sem.shape == (len(poses), size, size)
        cells = ego_cells(poses, size, plan.size)
        assert crop_ego_occupancy(gmap, cells, size).tobytes() == shared.tobytes()
        assert crop_ego_occupancy(maps, cells, size).tobytes() == each.tobytes()
        assert crop_ego_semantic(plan, cells, size).tobytes() == sem.tobytes()
        for i, pose in enumerate(poses):
            assert shared[i].tobytes() == crop_occupancy_reference(gmap, pose, size)[0].tobytes()
            assert each[i].tobytes() == crop_occupancy_reference(maps[i], pose, size)[0].tobytes()
            assert sem[i].tobytes() == crop_semantic_reference(plan, pose, size).tobytes()
            assert crop_ego_occupancy(maps[i], pose, size).tobytes() == each[i].tobytes()
            assert crop_ego_semantic(plan, pose, size).tobytes() == sem[i].tobytes()
    # border poses see void beyond the world
    assert (sem[8:] == VOID).any(axis=(1, 2)).all()
    with pytest.raises(UsageError):   # cells of another grid size
        crop_ego_occupancy(new_global_occupancy(plan.size + 1), cells, 48)
    with pytest.raises(UsageError):   # cells of another crop size
        crop_ego_semantic(plan, cells, 24)


def test_crop_out_of_world_is_void():
    gmap = new_global_occupancy(64)
    occ = crop_ego_occupancy(gmap, Pose(0.3, 0.3, 0.0), 48)
    assert np.all(occ == UNK)


def neighborhood(grid, r, c):
    return grid[max(r - 1, 0):r + 2, max(c - 1, 0):c + 2]


def test_round_trip_occupied_within_one_cell():
    """raycast -> update_global -> crop_ego: every hit's world cell reads
    occupied, and the crop shows it within one cell of where ground_project
    puts the hit, wherever that cell's 3x3 neighbourhood samples the hit's
    world cell. (Along a one-cell wall hit by sparse grazing rays, the
    rotated nearest-cell crop can skip a hit cell.)"""
    total, hits = 0, 0
    for seed in range(5):
        plan = generate_floorplan(seed, 64)
        floor = np.argwhere(plan.traversable_mask())
        for k in (7, len(floor) // 2, -9):
            pose = Pose(*cell_center(*floor[k]), 0.9 * seed - 1.0)
            scan = raycast(plan, pose, **sensing(p_noise=0.0))
            gmap = update_global(new_global_occupancy(64), scan, pose)
            crop = crop_ego_occupancy(gmap, pose, 48)
            for i in np.flatnonzero(scan.classes >= 0):
                t, a = scan.ranges[i], scan.angles[i]
                world = [math.floor((pose.y + (t + 1e-6) * math.sin(pose.theta + a)) / CELL_SIZE),
                         math.floor((pose.x + (t + 1e-6) * math.cos(pose.theta + a)) / CELL_SIZE)]
                assert gmap[tuple(world)] > OCC_THRESHOLD, (seed, k, i)
                r, c = ego_to_cell(t * math.cos(a), -t * math.sin(a), 48)
                total += 1
                if (neighborhood(crop, r, c) == OCC).any():
                    hits += 1
                    continue
                near = [[(24 - r - dr) * CELL_SIZE, (c + dc - 24) * CELL_SIZE]
                        for dr in (-1, 0, 1) for dc in (-1, 0, 1)]
                sampled = np.floor(ego_to_world(pose, np.array(near))[:, ::-1] / CELL_SIZE)
                assert world not in sampled.tolist(), (seed, k, i)
    assert total > 100
    assert hits / total >= 0.99


def test_ground_project_agrees_with_gt_crop(plan):
    """Observed labels match the floorplan crop within one cell at zero noise."""
    floor = np.argwhere(plan.traversable_mask())
    pose = Pose(*cell_center(*floor[len(floor) // 3]), 0.4)
    sem = ground_project(raycast(plan, pose, **sensing(p_noise=0.0)), 48)
    gt = crop_ego_semantic(plan, pose, 48)
    for r, c in np.argwhere((sem != VOID) & (sem != FLOOR)):
        assert np.any(neighborhood(gt, r, c) >= WALL)
    misses = sum(1 for r, c in np.argwhere(sem == FLOOR)
                 if FLOOR not in neighborhood(gt, r, c))
    assert misses <= 0.01 * (sem == FLOOR).sum()


def test_sense_is_raycast_project_update(plan):
    pose = Pose(*cell_center(*np.argwhere(plan.traversable_mask())[30]), 1.1)
    scan = raycast(plan, pose, num_rays=32, max_range=4.0, p_noise=0.3,
                   rng=np.random.default_rng(2))
    ref = update_global(new_global_occupancy(plan.grid.shape[0]), scan, pose)
    sem_ref = ground_project(scan, 24)
    gmap = new_global_occupancy(plan.grid.shape[0])
    sem = sense(plan, pose, gmap, 24, 32, 4.0, 0.3, np.random.default_rng(2))
    assert np.array_equal(sem, sem_ref)
    assert np.array_equal(gmap, ref)
    # without a map (rollouts on the ground-truth map) only the frame comes back
    assert np.array_equal(sense(plan, pose, None, 24, 32, 4.0, 0.3, np.random.default_rng(2)),
                          sem_ref)
