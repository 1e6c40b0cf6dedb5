import heapq
import math
import warnings

import numpy as np
import pytest

from sensing import sensing
from mapnav.errors import GenerationError, NoPathError, UsageError
from mapnav.worldsim import floorplan as floorplan_module
from mapnav.worldsim.episodes import grid_astar
from mapnav.worldsim import (
    CELL_SIZE, FLOOR, OBJECT_CLASS_IDS, WALL, VOID, Floorplan, Pose,
    astar_cells, cell_center, episode_from_json, episode_to_json,
    generate_episode, generate_floorplan, object_cells, pos_to_cell,
    raycast, resample_polyline, shortest_path, step_agent, wrap_angle,
    FORWARD_STEP, TURN_STEP, FOV, floor_connected,
)

SQRT2 = math.sqrt(2.0)


def flood_fill_connected(grid):
    """Independent 4-connected reachability check over floor cells."""
    floor = grid == FLOOR
    cells = np.argwhere(floor)
    if len(cells) == 0:
        return False
    seen = set()
    stack = [tuple(cells[0])]
    while stack:
        r, c = stack.pop()
        if (r, c) in seen:
            continue
        seen.add((r, c))
        for nr, nc in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if floor[nr, nc] and (nr, nc) not in seen:
                stack.append((nr, nc))
    return len(seen) == len(cells)


def dijkstra_cells(traversable, start, goal):
    """Heuristic-free uniform-cost search; oracle for A* path costs."""
    dist = {start: 0.0}
    heap = [(0.0, start)]
    rows, cols = traversable.shape
    while heap:
        d, cur = heapq.heappop(heap)
        if cur == goal:
            return d
        if d > dist.get(cur, np.inf):
            continue
        r, c = cur
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                nr, nc = r + dr, c + dc
                if not (0 <= nr < rows and 0 <= nc < cols):
                    continue
                if not traversable[nr, nc]:
                    continue
                if dr and dc and not (traversable[r, nc] and traversable[nr, c]):
                    continue
                nd = d + (SQRT2 if dr and dc else 1.0)
                if nd < dist.get((nr, nc), np.inf):
                    dist[(nr, nc)] = nd
                    heapq.heappush(heap, (nd, (nr, nc)))
    return None


def scalar_floor_connected(grid):
    """DFS over (row, col) cells with no padding; the reference for
    ``floor_connected`` on grids whose floor does not touch the border."""
    floor = grid == FLOOR
    total = int(floor.sum())
    if total == 0:
        return False
    start = tuple(np.argwhere(floor)[0])
    seen = np.zeros_like(floor)
    stack = [start]
    seen[start] = True
    count = 0
    while stack:
        r, c = stack.pop()
        count += 1
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nr, nc = r + dr, c + dc
            if floor[nr, nc] and not seen[nr, nc]:
                seen[nr, nc] = True
                stack.append((nr, nc))
    return count == total


def scalar_astar_cells(traversable, start, goal):
    """A* keyed on (row, col) cells with a bounds check per move; the
    reference whose paths ``astar_cells`` must repeat cell for cell."""
    if not traversable[start] or not traversable[goal]:
        raise NoPathError(f"endpoint not traversable: {start} -> {goal}")

    def h(cell):
        dr = abs(cell[0] - goal[0])
        dc = abs(cell[1] - goal[1])
        return (dr + dc) + (SQRT2 - 2.0) * min(dr, dc)

    moves = [(-1, 0, 1.0), (1, 0, 1.0), (0, -1, 1.0), (0, 1, 1.0),
             (-1, -1, SQRT2), (-1, 1, SQRT2), (1, -1, SQRT2), (1, 1, SQRT2)]
    g_cost = {start: 0.0}
    came = {}
    heap = [(h(start), start)]
    closed = set()
    rows, cols = traversable.shape
    while heap:
        _, cur = heapq.heappop(heap)
        if cur == goal:
            path = [cur]
            while cur in came:
                cur = came[cur]
                path.append(cur)
            return path[::-1]
        if cur in closed:
            continue
        closed.add(cur)
        r, c = cur
        for dr, dc, cost in moves:
            nr, nc = r + dr, c + dc
            if not (0 <= nr < rows and 0 <= nc < cols) or not traversable[nr, nc]:
                continue
            if dr and dc and not (traversable[r, nc] and traversable[nr, c]):
                continue
            ng = g_cost[cur] + cost
            nxt = (nr, nc)
            if ng < g_cost.get(nxt, np.inf):
                g_cost[nxt] = ng
                came[nxt] = cur
                heapq.heappush(heap, (ng + h(nxt), nxt))
    raise NoPathError(f"no path from {start} to {goal}")


def box_room(size=32):
    """Empty room: walls on the boundary, floor inside."""
    grid = np.full((size, size), FLOOR, dtype=np.uint8)
    grid[0, :] = grid[-1, :] = WALL
    grid[:, 0] = grid[:, -1] = WALL
    return Floorplan(grid=grid, seed=0)


# ----------------------------------------------------------------- floorplans
def test_floorplan_deterministic():
    a = generate_floorplan(42, 64)
    b = generate_floorplan(42, 64)
    assert np.array_equal(a.grid, b.grid)
    assert a.n_objects == b.n_objects
    assert [(r.r0, r.c0, r.r1, r.c1, r.kind) for r in a.rooms] == \
           [(r.r0, r.c0, r.r1, r.c1, r.kind) for r in b.rooms]


@pytest.mark.slow
def test_floorplan_invariants_100_seeds():
    for seed in range(100):
        plan = generate_floorplan(seed, 64)
        grid = plan.grid
        assert np.all(grid[0, :] == WALL) and np.all(grid[-1, :] == WALL)
        assert np.all(grid[:, 0] == WALL) and np.all(grid[:, -1] == WALL)
        assert flood_fill_connected(grid)
        assert 3 <= len(plan.rooms) <= 6


def test_floor_connected_matches_scalar_dfs_on_generator_grids(monkeypatch):
    """Every connectivity answer that generate_floorplan gets for seeds
    1000-1029, from the whole-grid check after the walls and from the check
    around each placed object, is the reference's on the whole grid; some of
    those grids are disconnected."""
    answers = {"floor_connected": [], "_border_connected": []}

    def checked(name):
        check = getattr(floorplan_module, name)

        def wrapper(grid, *block):
            got = check(grid, *block)
            answers[name].append(got)
            assert got == scalar_floor_connected(grid), (name, block)
            return got
        return wrapper

    for name in answers:
        monkeypatch.setattr(floorplan_module, name, checked(name))
    for seed in range(1000, 1030):
        generate_floorplan(seed, 64)
    assert len(answers["_border_connected"]) > 200
    for got in answers.values():
        assert True in got and False in got


def test_border_connected_on_hand_built_blocks():
    """The check around a filled block against the whole-grid reference: a
    block against the outer wall, one that cuts a one-cell corridor, and one
    that fills the last floor."""
    room = box_room(8).grid
    corridor = np.full((5, 9), WALL, dtype=np.uint8)
    corridor[2, 1:8] = FLOOR
    cell = np.full((5, 5), WALL, dtype=np.uint8)
    cell[2, 2] = FLOOR
    cases = [(room, (1, 1, 2, 2), True),        # in the corner of the outer wall
             (room, (1, 3, 1, 2), True),        # against the top wall
             (room, (1, 1, 6, 1), True),        # along the left wall
             (room, (3, 1, 1, 6), False),       # wall to wall: the room splits
             (corridor, (2, 4, 1, 1), False),   # cuts the corridor
             (corridor, (2, 1, 1, 1), True),    # at the corridor's dead end
             (cell, (2, 2, 1, 1), False)]       # the last floor cell
    for grid, (r, c, h, w), want in cases:
        grid = grid.copy()
        assert scalar_floor_connected(grid)
        grid[r : r + h, c : c + w] = OBJECT_CLASS_IDS[0]
        assert scalar_floor_connected(grid) == want
        assert floorplan_module._border_connected(grid, r, c, h, w) == want, (r, c, h, w)


def test_floor_connected_at_grid_border():
    grid = np.full((5, 5), WALL, dtype=np.uint8)
    grid[0, 1] = grid[4, 1] = FLOOR      # linked only by wrapping past row 0
    assert not floor_connected(grid)
    grid = np.full((5, 5), WALL, dtype=np.uint8)
    grid[4, 1] = grid[4, 3] = FLOOR      # floor in the last row
    assert not floor_connected(grid)
    grid[4, 2] = FLOOR
    assert floor_connected(grid)
    grid = np.full((5, 5), FLOOR, dtype=np.uint8)
    assert floor_connected(grid)
    assert not floor_connected(np.full((5, 5), WALL, dtype=np.uint8))


@pytest.mark.slow
def test_floorplan_object_counts():
    for seed in range(100):
        plan = generate_floorplan(seed, 64)
        assert 4 <= plan.n_objects <= 16
        # every object block is 1-4 cells and sits on non-wall territory
        cells = object_cells(plan)
        assert len(cells) >= plan.n_objects


def test_floorplan_min_size_rejected():
    with pytest.raises(Exception):
        generate_floorplan(0, size=16)


# --------------------------------------------------------------------- agent
def test_forward_in_open_space():
    plan = box_room()
    p = step_agent(plan, Pose(3.0, 3.0, 0.0), "forward")
    assert p.x == pytest.approx(3.25)
    assert p.y == pytest.approx(3.0)
    assert p.theta == 0.0


def test_forward_into_wall_is_noop():
    plan = box_room()
    # wall occupies x < 0.2; facing -x from just inside
    pose = Pose(0.3, 3.0, math.pi - 1e-12)
    p = step_agent(plan, pose, "forward")
    assert (p.x, p.y, p.theta) == (pose.x, pose.y, pose.theta)


def test_24_left_turns_full_circle():
    plan = box_room()
    pose = Pose(3.0, 3.0, 0.3)
    for _ in range(24):
        pose = step_agent(plan, pose, "left")
    assert abs(wrap_angle(pose.theta - 0.3)) < 1e-9


def test_turn_steps_exact():
    plan = box_room()
    left = step_agent(plan, Pose(3.0, 3.0, 0.0), "left")
    right = step_agent(plan, Pose(3.0, 3.0, 0.0), "right")
    assert left.theta == pytest.approx(math.radians(15.0))
    assert right.theta == pytest.approx(-math.radians(15.0))


def test_random_walk_stays_traversable():
    plan = generate_floorplan(7, 64)
    rng = np.random.default_rng(1)
    floor = np.argwhere(plan.traversable_mask())
    r, c = floor[len(floor) // 2]
    pose = Pose(*cell_center(r, c), 0.0)
    for _ in range(300):
        pose = step_agent(plan, pose, ("forward", "left", "right")[rng.integers(3)])
        assert plan.traversable(*pos_to_cell(pose.x, pose.y))


def test_step_agent_rejects_unknown_action():
    with pytest.raises(ValueError):
        step_agent(box_room(), Pose(3.0, 3.0, 0.0), "jump")


# ------------------------------------------------------------------- raycast
def test_raycast_perpendicular_wall():
    plan = box_room()
    # east wall starts at x = 31 * 0.2 = 6.2; stand 1.0 m away facing +x
    pose = Pose(5.2, 3.0, 0.0)
    scan = raycast(plan, pose, **sensing(num_rays=3, p_noise=0.0))
    assert scan.ranges[1] == pytest.approx(1.0, abs=CELL_SIZE / 2)
    assert scan.classes[1] == WALL


def test_raycast_45_degree_wall():
    plan = box_room()
    pose = Pose(5.2, 3.0, 0.0)
    # rays at -45, 0, +45 deg
    scan = raycast(plan, pose, **sensing(num_rays=3, p_noise=0.0))
    assert scan.ranges[0] == pytest.approx(SQRT2, abs=CELL_SIZE)
    assert scan.ranges[2] == pytest.approx(SQRT2, abs=CELL_SIZE)


def test_raycast_fov_and_angles():
    scan = raycast(box_room(), Pose(3.0, 3.0, 0.5), **sensing(num_rays=64, p_noise=0.0))
    assert np.all(np.diff(scan.angles) > 0)
    assert scan.angles[-1] - scan.angles[0] == pytest.approx(FOV)
    assert scan.angles[0] == pytest.approx(-FOV / 2)


def test_raycast_max_range_clip():
    plan = box_room(64)  # 12.8 m across: interior larger than sensor range
    scan = raycast(plan, Pose(6.4, 6.4, 0.0), num_rays=16, max_range=4.8,
                   p_noise=0.0)
    assert np.all(scan.ranges <= 4.8 + 1e-12)
    assert np.all(scan.ranges[scan.classes == -1] == 4.8)


def test_raycast_noise_free_classes_match_plan(plan):
    """Re-tracing each hit analytically lands in a cell of the reported class."""
    floor = np.argwhere(plan.traversable_mask())
    pose = Pose(*cell_center(*floor[10]), 0.7)
    scan = raycast(plan, pose, **sensing(p_noise=0.0))
    for a, rng_m, cls in zip(scan.angles, scan.ranges, scan.classes):
        if cls < 0:
            continue
        ang = pose.theta + a
        hx = pose.x + (rng_m + 1e-6) * math.cos(ang)
        hy = pose.y + (rng_m + 1e-6) * math.sin(ang)
        assert plan.grid[pos_to_cell(hx, hy)] == cls
        # nothing blocks the ray before the reported range
        for t in np.linspace(0.0, rng_m - 1e-6, 50):
            px = pose.x + t * math.cos(ang)
            py = pose.y + t * math.sin(ang)
            assert plan.grid[pos_to_cell(px, py)] == FLOOR


def test_raycast_noise_flips_some_classes(plan):
    floor = np.argwhere(plan.traversable_mask())
    pose = Pose(*cell_center(*floor[10]), 0.7)
    clean = raycast(plan, pose, **sensing(p_noise=0.0))
    noisy = raycast(plan, pose, **sensing(p_noise=1.0), rng=np.random.default_rng(0))
    hit = clean.classes >= 0
    assert np.array_equal(clean.ranges, noisy.ranges)
    assert np.any(clean.classes[hit] != noisy.classes[hit])
    # the noise is the rng's: the same seed draws the same labels
    again = raycast(plan, pose, **sensing(p_noise=1.0), rng=np.random.default_rng(0))
    assert np.array_equal(noisy.classes, again.classes)


def test_raycast_noise_needs_an_rng(plan):
    pose = Pose(*cell_center(*np.argwhere(plan.traversable_mask())[10]), 0.7)
    with pytest.raises(UsageError):
        raycast(plan, pose, **sensing(p_noise=0.2))
    # without noise an rng is neither needed nor drawn from
    assert np.array_equal(raycast(plan, pose, **sensing(p_noise=0.0)).classes,
                          raycast(plan, pose, **sensing(p_noise=0.0),
                                  rng=np.random.default_rng(0)).classes)


def test_raycast_sees_an_in_place_grid_edit():
    """The padded grid that raycast keeps per floorplan follows edits made to
    ``plan.grid`` in place, and a grid replaced by another one."""
    plan = box_room(32)
    pose = Pose(3.0, 3.0, 0.0)
    assert raycast(plan, pose, **sensing(num_rays=3)).classes[1] == WALL
    plan.grid[15, 20] = OBJECT_CLASS_IDS[0]       # on the middle ray, 1 m ahead
    scan = raycast(plan, pose, **sensing(num_rays=3))
    assert scan.classes[1] == OBJECT_CLASS_IDS[0] and scan.ranges[1] == pytest.approx(1.0)
    plan.grid = box_room(32).grid
    assert raycast(plan, pose, **sensing(num_rays=3)).classes[1] == WALL


def trace_ray_reference(grid, x, y, angle, max_range):
    """Scalar grid DDA, one ray at a time; the oracle for ``raycast``.
    Returns (range, class), class -1 for no hit within max_range."""
    dx, dy = np.cos(angle), np.sin(angle)
    r, c = int(np.floor(y / CELL_SIZE)), int(np.floor(x / CELL_SIZE))
    g = grid.shape[0]
    step_c = 1 if dx > 0 else -1
    step_r = 1 if dy > 0 else -1
    t_max_x = np.inf if dx == 0 else (((c + (step_c > 0)) * CELL_SIZE) - x) / dx
    t_max_y = np.inf if dy == 0 else (((r + (step_r > 0)) * CELL_SIZE) - y) / dy
    t_dx = np.inf if dx == 0 else CELL_SIZE / abs(dx)
    t_dy = np.inf if dy == 0 else CELL_SIZE / abs(dy)
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
            return max_range, -1
        if not (0 <= r < g and 0 <= c < g):
            return max_range, -1
        if grid[r, c] != FLOOR:
            return float(t), int(grid[r, c])


def raycast_reference(plan, pose, num_rays, max_range, p_noise, rng):
    rel = np.linspace(-FOV / 2.0, FOV / 2.0, num_rays)
    ranges = np.empty(num_rays)
    classes = np.empty(num_rays, dtype=np.int64)
    for i, a in enumerate(rel):
        rng_m, cls = trace_ray_reference(plan.grid, pose.x, pose.y,
                                         pose.theta + a, max_range)
        if cls >= 0 and p_noise > 0 and rng.uniform() < p_noise:
            cls = OBJECT_CLASS_IDS[int(rng.integers(0, len(OBJECT_CLASS_IDS)))]
        ranges[i] = rng_m
        classes[i] = cls
    return rel, ranges, classes


def test_raycast_matches_scalar_dda_oracle():
    """Batched raycast equals the one-ray-at-a-time DDA byte for byte, label
    noise included (twin rngs), on poses at and between cell boundaries,
    axis-aligned and random headings, odd and even ray counts, two ranges,
    and a wall-less grid where rays leave the world."""
    open_grid = np.full((40, 40), FLOOR, dtype=np.uint8)
    plans = [generate_floorplan(s, 64) for s in (0, 1, 2)]
    plans.append(Floorplan(grid=open_grid, seed=0))
    headings = (0.0, np.pi / 2, -np.pi / 2, -np.pi, np.pi, np.pi / 4)
    rng = np.random.default_rng(7)
    n_scans = axis_rays = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for plan in plans:
            floor = np.argwhere(plan.grid == FLOOR)
            for i in range(300):
                r, c = floor[rng.integers(len(floor))]
                if i % 3 == 0:  # exactly on a cell corner
                    x, y = c * CELL_SIZE, r * CELL_SIZE
                else:
                    x, y = (c + rng.uniform()) * CELL_SIZE, (r + rng.uniform()) * CELL_SIZE
                theta = (headings[i % len(headings)] if i % 2 == 0
                         else float(rng.uniform(-np.pi, np.pi)))
                pose = Pose(float(x), float(y), theta)
                num_rays = (3, 16, 17, 64)[i % 4]
                max_range = (4.0, 4.8)[(i // 4) % 2]
                p_noise = 0.3 if i % 5 == 0 else 0.0
                seed = int(rng.integers(2**31))
                got = raycast(plan, pose, num_rays=num_rays, max_range=max_range,
                              p_noise=p_noise, rng=np.random.default_rng(seed))
                want = raycast_reference(plan, pose, num_rays, max_range, p_noise,
                                         np.random.default_rng(seed))
                for a, b in zip((got.angles, got.ranges, got.classes), want):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (pose, num_rays)
                angles = theta + got.angles
                axis_rays += int(np.sum((np.sin(angles) == 0) | (np.cos(angles) == 0)))
                n_scans += 1
    assert n_scans >= 1000
    assert axis_rays > 0  # rays parallel to a grid axis were covered


# --------------------------------------------------------------------- paths
def test_shortest_path_trivial_same_point():
    plan = box_room()
    path, length = shortest_path(plan, (3.0, 3.0), (3.0, 3.0))
    assert length == 0.0
    assert path.shape == (1, 2)


def test_shortest_path_octile_distance():
    # 10x10 empty interior, opposite corners
    grid = np.full((12, 12), FLOOR, dtype=np.uint8)
    grid[0, :] = grid[-1, :] = grid[:, 0] = grid[:, -1] = WALL
    plan = Floorplan(grid=grid, seed=0)
    a = cell_center(1, 1)
    b = cell_center(10, 10)
    _, length = shortest_path(plan, a, b)
    octile = 9 * SQRT2 * CELL_SIZE  # corner cells are 9 diagonal steps apart
    assert abs(length - octile) <= CELL_SIZE


def test_shortest_path_matches_dijkstra_oracle():
    rng = np.random.default_rng(5)
    plans = [generate_floorplan(s, 64) for s in (0, 1, 2, 3, 4)]
    checked = 0
    while checked < 50:
        plan = plans[rng.integers(len(plans))]
        floor = np.argwhere(plan.traversable_mask())
        i, j = rng.integers(0, len(floor), size=2)
        ca, cb = tuple(floor[i]), tuple(floor[j])
        if ca == cb:
            continue
        oracle = dijkstra_cells(plan.traversable_mask(), ca, cb)
        a, b = cell_center(*ca), cell_center(*cb)
        try:
            _, length = shortest_path(plan, a, b)
        except NoPathError:
            assert oracle is None
            continue
        assert oracle is not None
        assert length == pytest.approx(oracle * CELL_SIZE, rel=0.10)
        checked += 1


def test_astar_cells_cost_equals_dijkstra():
    rng = np.random.default_rng(9)
    for _ in range(20):
        mask = rng.random((15, 15)) > 0.3
        floor = np.argwhere(mask)
        if len(floor) < 2:
            continue
        ca = tuple(floor[rng.integers(len(floor))])
        cb = tuple(floor[rng.integers(len(floor))])
        oracle = dijkstra_cells(mask, ca, cb)
        try:
            cells = astar_cells(mask, ca, cb)
        except NoPathError:
            assert oracle is None
            continue
        cost = sum(SQRT2 if (p[0] != q[0] and p[1] != q[1]) else 1.0
                   for p, q in zip(cells, cells[1:]))
        assert cost == pytest.approx(oracle, abs=1e-9)
        assert cells[0] == ca and cells[-1] == cb


def test_astar_rejects_blocked_endpoint():
    mask = np.ones((5, 5), dtype=bool)
    mask[2, 2] = False
    with pytest.raises(NoPathError):
        astar_cells(mask, (0, 0), (2, 2))


@pytest.mark.parametrize("start,goal", [((-1, 2), (3, 3)), ((3, 3), (-1, 2)),
                                        ((6, 2), (3, 3)), ((3, 3), (2, 6)),
                                        ((2, -1), (3, 3))])
def test_astar_rejects_off_grid_endpoint(start, goal):
    with pytest.raises(NoPathError):
        astar_cells(np.ones((6, 6), dtype=bool), start, goal)


def test_astar_cells_paths_equal_scalar_reference():
    """Same cells in the same order as the reference, or the same error, on
    seeded floorplans and on random masks of several shapes."""
    rng = np.random.default_rng(21)
    masks = [generate_floorplan(s, 64).traversable_mask() for s in (5, 77, 201)]
    masks += [rng.random(shape) > p for shape, p in
              [((15, 15), 0.3), ((9, 23), 0.2), ((23, 9), 0.35), ((1, 12), 0.1)]
              for _ in range(8)]
    compared = found = 0
    for mask in masks:
        floor = np.argwhere(mask)
        for _ in range(12 if mask.shape == (64, 64) else 4):
            ca = tuple(floor[rng.integers(len(floor))])
            cb = tuple(floor[rng.integers(len(floor))])
            try:
                want = scalar_astar_cells(mask, ca, cb)
            except NoPathError:
                with pytest.raises(NoPathError):
                    astar_cells(mask, ca, cb)
                continue
            got = astar_cells(mask, ca, cb)
            assert got == want
            compared += 1
            found += len(got) > 10
    assert compared > 80 and found > 20


def test_optimal_paths_turn_at_most_90_degrees_and_resample_above_the_bound():
    """The two facts behind generate_episode's search bound, on random floor
    pairs of 20 floorplans: an A* path turns by at most 90 degrees at every
    vertex, never 90 degrees between two diagonals, and its resampled length
    is at least the cell polyline's over sqrt(2)."""
    rng = np.random.default_rng(13)
    paths = 0
    for seed in range(20):
        plan = generate_floorplan(seed, 64)
        mask = plan.traversable_mask()
        floor = np.argwhere(mask)
        for _ in range(6):
            ca = tuple(floor[rng.integers(len(floor))])
            cb = tuple(floor[rng.integers(len(floor))])
            if ca == cb:
                continue
            moves = np.diff(np.array(astar_cells(mask, ca, cb)), axis=0)
            turns = (moves[:-1] * moves[1:]).sum(axis=1)
            both_diagonal = (np.abs(moves[:-1]).sum(axis=1) == 2) & (np.abs(moves[1:]).sum(axis=1) == 2)
            assert np.all(turns >= 0) and not np.any(both_diagonal & (turns == 0)), (seed, ca, cb)
            cell_length = CELL_SIZE * np.hypot(*moves.T).sum()
            _, length = shortest_path(plan, cell_center(*ca), cell_center(*cb))
            assert length >= cell_length / SQRT2, (seed, ca, cb)
            paths += 1
    assert paths >= 100


def test_episode_search_bound_changes_no_episode(monkeypatch):
    """generate_split gives byte-identical episodes with the search bound and
    without it, on gen-data-style floorplans and on the eval pool; each cut
    search is one whose full path is longer than the bound, and some are."""
    from mapnav.config import RunConfig
    from mapnav.train_eval.dataset import generate_split
    from mapnav.worldsim import episodes as episodes_module

    cfg = RunConfig()
    bound = episodes_module.MAX_SEARCH_COST
    cuts = []

    def counted(cost, start, goal, max_cost=math.inf):
        path = search(cost, start, goal, max_cost)
        if path is None and max_cost < math.inf:
            full = search(cost, start, goal)
            assert full is not None
            moves = np.diff(np.array(full), axis=0)
            assert np.hypot(*moves.T).sum() > bound
            cuts.append((start, goal))
        return path

    search = episodes_module.grid_astar
    monkeypatch.setattr(episodes_module, "grid_astar", counted)
    runs = []
    for max_cost in (bound, math.inf):
        monkeypatch.setattr(episodes_module, "MAX_SEARCH_COST", max_cost)
        pairs = (generate_split(cfg, range(1000, 1020), 0, 10)
                 + generate_split(cfg, range(200, 205), 2000, 10))
        runs.append([episode_to_json(ep) for _, ep in pairs])
    assert runs[0] == runs[1] and len(runs[0]) == 250
    assert len(cuts) > 0


def test_grid_astar_stops_at_the_cost_bound():
    """A bound 1e-9 below the optimal cost cuts the search; a bound 1e-9
    above it returns the unbounded path. Exactly at the optimal cost a
    search can be cut: f = g + h of a cell on the path can round one ulp
    above the goal's g (floorplan 0, cells (7, 37) to (10, 51)), which is
    why generate_episode's bound carries a 1e-9 slack."""
    rng = np.random.default_rng(17)
    for seed in (0, 1, 2):
        cost = np.where(generate_floorplan(seed, 64).traversable_mask(), 1.0, np.inf)
        floor = np.argwhere(np.isfinite(cost))
        for _ in range(10):
            ca = tuple(floor[rng.integers(len(floor))])
            cb = tuple(floor[rng.integers(len(floor))])
            if ca == cb:
                continue
            path = grid_astar(cost, ca, cb)
            optimal = 0.0
            for p, q in zip(path, path[1:]):
                optimal += SQRT2 if (p[0] != q[0] and p[1] != q[1]) else 1.0
            assert grid_astar(cost, ca, cb, optimal + 1e-9) == path
            assert grid_astar(cost, ca, cb, optimal - 1e-9) is None


def test_resample_polyline_spacing_and_endpoints():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.3]])
    out = resample_polyline(pts)
    seg = np.linalg.norm(np.diff(out, axis=0), axis=1)
    assert np.all(seg <= 0.2 + 1e-9)
    assert np.allclose(out[0], pts[0]) and np.allclose(out[-1], pts[-1])


# ------------------------------------------------------------------ episodes
def test_episode_deterministic(plan):
    a = generate_episode(plan, 4, episode_id=4)
    b = generate_episode(plan, 4, episode_id=4)
    assert a.start == b.start and a.goal == b.goal
    assert np.array_equal(a.gt_path, b.gt_path)
    assert a.instruction_text == b.instruction_text
    assert a.tokens == b.tokens


def test_episode_invariants(plan):
    for seed in range(10):
        ep = generate_episode(plan, seed, episode_id=seed)
        assert np.allclose(ep.gt_path[0], [ep.start.x, ep.start.y], atol=1e-6)
        assert np.allclose(ep.gt_path[-1], ep.goal, atol=1e-6)
        seg = np.linalg.norm(np.diff(ep.gt_path, axis=0), axis=1)
        assert np.all(seg <= 0.2 + 1e-9)
        assert 3.0 <= ep.path_length <= 9.0
        for x, y in ep.gt_path:
            assert plan.traversable(*pos_to_cell(x, y))


@pytest.mark.slow
def test_episode_mean_geodesic_scale():
    lengths = []
    for fp_seed in range(20):
        plan = generate_floorplan(fp_seed, 64)
        for s in range(25):
            lengths.append(generate_episode(plan, s).path_length)
    assert 4.0 <= float(np.mean(lengths)) <= 8.0


def test_episode_json_round_trip(episode):
    clone = episode_from_json(episode_to_json(episode))
    assert clone.episode_id == episode.episode_id
    assert clone.floorplan_seed == episode.floorplan_seed
    assert clone.start == episode.start
    assert clone.goal == tuple(episode.goal)
    assert np.array_equal(clone.gt_path, episode.gt_path)
    assert clone.instruction_text == episode.instruction_text
    assert clone.tokens == list(episode.tokens)


def test_episode_sampling_failure_raises():
    # single floor cell: no pair can satisfy the 3 m minimum
    grid = np.full((32, 32), WALL, dtype=np.uint8)
    grid[5, 5] = FLOOR
    plan = Floorplan(grid=grid, seed=0)
    with pytest.raises(GenerationError):
        generate_episode(plan, 0)
