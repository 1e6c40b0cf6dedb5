import heapq
import json
import math

import numpy as np
import pytest

from mapnav.config import RunConfig
from mapnav.controller import (
    CARROT_DISTANCE, _astar_weighted, _cost_grid,
    decode_waypoints, gt_global_map, heatmap_mode, plan_local, run_rollout,
    select_short_term_goal, stop_decision,
)
from mapnav.mapping import LOGODDS_CLAMP, OCC_THRESHOLD, ego_to_world, sense, world_to_ego
from mapnav.model import make_gt_heatmaps, sample_waypoints
from mapnav.worldsim import (
    CELL_SIZE, Pose, cell_center, generate_episode, generate_floorplan,
    pos_to_cell,
)

SQRT2 = math.sqrt(2.0)


def free_map(size=64):
    return np.full((size, size), -LOGODDS_CLAMP)


# ------------------------------------------------------------- heatmap mode
def test_heatmap_mode_gaussian_round_trip():
    hm, _ = make_gt_heatmaps(np.array([[1.2, 0.0]]), 24, 24, 1.0)
    f, r = heatmap_mode(hm[0])
    assert math.hypot(f - 1.2, r - 0.0) <= 0.4


def test_heatmap_mode_uniform_tie_break():
    f, r = heatmap_mode(np.ones((24, 24)))
    # smallest (row, col) wins: cell (0, 0) = far forward, far left
    assert (f, r) == (12 * 0.4, -12 * 0.4)


def test_heatmap_mode_center_peak():
    hm = np.zeros((24, 24))
    hm[12, 12] = 1.0
    assert heatmap_mode(hm) == (0.0, 0.0)


def test_heatmap_mode_all_zero():
    assert heatmap_mode(np.zeros((24, 24))) is None
    assert decode_waypoints(np.zeros((3, 24, 24))) == [None, None, None]


# -------------------------------------------------------------- goal select
def test_select_next_after_reached_waypoint():
    wps = [(3.0, 0.0), (2.0, 0.0), (0.0, 0.0), (-1.0, 1.0), (-2.0, 2.0)]
    zeta, _ = select_short_term_goal(wps, Pose(0.0, 0.0, 0.0))
    assert zeta == 4  # agent sits on waypoint 3 -> select the next one


def test_select_clamps_at_final_waypoint():
    wps = [(5.0, 0.0), (3.0, 0.0), (0.1, 0.0)]
    zeta, goal = select_short_term_goal(wps, Pose(1.0, 1.0, 0.0))
    assert zeta == 3
    expect = ego_to_world(Pose(1.0, 1.0, 0.0), np.array([wps[-1]]))[0]
    assert goal == pytest.approx(tuple(expect))


def test_select_no_decodable_waypoints():
    assert select_short_term_goal([None, None], Pose(0, 0, 0)) == (None, None)


def test_select_matches_brute_force_scan(rng):
    for _ in range(1000):
        k = int(rng.integers(2, 11))
        wps = [tuple(rng.uniform(-4, 4, size=2)) for _ in range(k)]
        pose = Pose(*rng.uniform(0, 12, size=2), rng.uniform(-np.pi, np.pi))
        zeta, goal = select_short_term_goal(wps, pose)
        dists = [math.hypot(f, r) for f, r in wps]
        expect = min(int(np.argmin(dists)) + 1, k - 1)  # 0-based, clamped
        assert zeta == expect + 1
        world = ego_to_world(pose, np.array([wps[expect]]))[0]
        assert goal == pytest.approx(tuple(world))


def test_select_scale_invariant(rng):
    for _ in range(50):
        wps = [tuple(rng.uniform(-4, 4, size=2)) for _ in range(6)]
        pose = Pose(1.0, 2.0, 0.3)
        zeta, _ = select_short_term_goal(wps, pose)
        scaled = [(3.7 * f, 3.7 * r) for f, r in wps]
        zeta2, _ = select_short_term_goal(scaled, pose)
        assert zeta == zeta2


def test_select_min_distance_skips_reached():
    wps = [(0.0, 0.0), (0.1, 0.0), (0.15, 0.0), (2.0, 0.0)]
    zeta, _ = select_short_term_goal(wps, Pose(0, 0, 0),
                                     min_distance=CARROT_DISTANCE)
    assert zeta == 4  # waypoints closer than the carrot radius pull nowhere


# ------------------------------------------------------------ local planner
def test_plan_forward_to_goal_ahead():
    gmap = free_map()
    pose = Pose(3.1, 3.1, 0.0)
    assert plan_local(gmap, pose, (4.1, 3.1), 2.0) == "forward"


def test_plan_turns_when_goal_behind():
    gmap = free_map()
    assert plan_local(gmap, Pose(3.1, 3.1, 0.0), (1.1, 3.1), 2.0) in ("left", "right")


def test_plan_turns_toward_side_opening():
    gmap = free_map()
    # wall straight ahead spanning most of the corridor, opening to the left
    pose = Pose(3.1, 3.1, 0.0)
    wall_col = int(4.0 / CELL_SIZE)
    gmap[0:int(4.0 / CELL_SIZE), wall_col] = LOGODDS_CLAMP  # opening above (left)
    action = plan_local(gmap, pose, (5.1, 3.1), 2.0)
    assert action == "left"


def test_plan_failure_rotates():
    gmap = free_map()
    # goal cell sealed behind occupied ring
    gr, gc = pos_to_cell(9.1, 9.1)
    gmap[gr - 1:gr + 2, gc - 1:gc + 2] = LOGODDS_CLAMP
    assert plan_local(gmap, Pose(3.1, 3.1, 0.0), (9.1, 9.1), 2.0) == "left"


def test_plan_never_forward_into_occupied(rng):
    for _ in range(200):
        gmap = free_map(32)
        occ = rng.random((32, 32)) < 0.2
        gmap[occ] = LOGODDS_CLAMP
        r, c = rng.integers(2, 30, size=2)
        gmap[r, c] = -LOGODDS_CLAMP
        pose = Pose(*cell_center(r, c), float(rng.uniform(-np.pi, np.pi)))
        goal = cell_center(*rng.integers(1, 31, size=2))
        action = plan_local(gmap, pose, goal, 2.0)
        if action == "forward":
            nx = pose.x + 0.25 * math.cos(pose.theta)
            ny = pose.y + 0.25 * math.sin(pose.theta)
            assert gmap[pos_to_cell(nx, ny)] <= OCC_THRESHOLD


def dijkstra_cost(cost, start, goal):
    dist = {start: 0.0}
    heap = [(0.0, start)]
    rows, cols = cost.shape
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
                if not np.isfinite(cost[nr, nc]):
                    continue
                if dr and dc and not (np.isfinite(cost[r, nc])
                                      and np.isfinite(cost[nr, c])):
                    continue
                step = SQRT2 if dr and dc else 1.0
                nd = d + step * cost[nr, nc]
                if nd < dist.get((nr, nc), np.inf):
                    dist[(nr, nc)] = nd
                    heapq.heappush(heap, (nd, (nr, nc)))
    return None


def test_astar_matches_dijkstra_on_random_layouts(rng):
    for _ in range(50):
        gmap = np.zeros((20, 20))  # unknown everywhere
        gmap[rng.random((20, 20)) < 0.25] = LOGODDS_CLAMP
        gmap[rng.random((20, 20)) < 0.25] = -LOGODDS_CLAMP
        cost = _cost_grid(gmap, 2.0)
        cells = np.argwhere(np.isfinite(cost))
        start = tuple(cells[rng.integers(len(cells))])
        goal = tuple(cells[rng.integers(len(cells))])
        oracle = dijkstra_cost(cost, start, goal)
        path = _astar_weighted(cost, start, goal)
        if path is None:
            assert oracle is None
            continue
        got = sum((SQRT2 if p[0] != q[0] and p[1] != q[1] else 1.0) * cost[q]
                  for p, q in zip(path, path[1:]))
        assert got == pytest.approx(oracle, abs=1e-9)


def scalar_astar_weighted(cost, start, goal):
    """A* keyed on (row, col) cells with a bounds check per move; the
    reference whose paths ``_astar_weighted`` must repeat cell for cell."""
    rows, cols = cost.shape
    moves = [(-1, 0, 1.0), (1, 0, 1.0), (0, -1, 1.0), (0, 1, 1.0),
             (-1, -1, SQRT2), (-1, 1, SQRT2), (1, -1, SQRT2), (1, 1, SQRT2)]

    def h(cell):
        dr, dc = abs(cell[0] - goal[0]), abs(cell[1] - goal[1])
        return (dr + dc) + (SQRT2 - 2.0) * min(dr, dc)

    g_cost = {start: 0.0}
    came = {}
    heap = [(h(start), start)]
    closed = set()
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
        for dr, dc, step in moves:
            nr, nc = r + dr, c + dc
            if not (0 <= nr < rows and 0 <= nc < cols):
                continue
            w = cost[nr, nc]
            if not np.isfinite(w):
                continue
            if dr and dc and not (np.isfinite(cost[r, nc]) and np.isfinite(cost[nr, c])):
                continue
            ng = g_cost[cur] + step * w
            nxt = (nr, nc)
            if ng < g_cost.get(nxt, np.inf):
                g_cost[nxt] = ng
                came[nxt] = cur
                heapq.heappush(heap, (ng + h(nxt), nxt))
    return None


def test_astar_paths_equal_scalar_reference(rng):
    """Same cells in the same order as the reference (or both None) on
    random grids of free (1.0), unknown (2.0) and blocked cells, including
    blocked start and goal cells, and on planner cost grids of a floorplan."""
    grids = []
    for shape in [(20, 20), (13, 31), (31, 13), (64, 64)]:
        for _ in range(6):
            cost = np.where(rng.random(shape) < 0.5, 1.0, 2.0)
            cost[rng.random(shape) < rng.uniform(0.0, 0.35)] = np.inf
            grids.append(cost)
    plan = generate_floorplan(7, 64)
    grids.append(_cost_grid(gt_global_map(plan), 2.0))
    found = 0
    for cost in grids:
        rows, cols = cost.shape
        for _ in range(5):
            start = (int(rng.integers(rows)), int(rng.integers(cols)))
            goal = (int(rng.integers(rows)), int(rng.integers(cols)))
            want = scalar_astar_weighted(cost, start, goal)
            assert _astar_weighted(cost, start, goal) == want
            found += want is not None and len(want) > 10
    assert found > 30


@pytest.mark.parametrize("start,goal", [((-1, 2), (3, 3)), ((3, 3), (-1, 2)),
                                        ((6, 2), (3, 3)), ((3, 3), (2, 6))])
def test_astar_off_grid_endpoint_gives_no_path(start, goal):
    assert _astar_weighted(np.ones((6, 6)), start, goal) is None


def test_cost_grid_thresholds():
    gmap = np.array([[-4.0, 0.0], [4.0, 0.4]])
    cost = _cost_grid(gmap, 2.0)
    assert cost[0, 0] == 1.0          # free
    assert cost[0, 1] == 2.0          # unknown
    assert not np.isfinite(cost[1, 0])  # occupied
    assert cost[1, 1] == 2.0          # below threshold stays unknown


# -------------------------------------------------------------- stop rule
def test_stop_decision_thresholds():
    cfg = RunConfig()
    assert stop_decision((0.3, 0.0), 0.9, cfg) is True
    assert stop_decision((0.3, 0.0), 0.5, cfg) is False
    assert stop_decision((0.8, 0.0), 0.9, cfg) is False
    assert stop_decision((0.8, 0.0), 0.9, RunConfig(tau=1.0)) is True
    assert stop_decision(None, 0.9, cfg) is False


# ------------------------------------------------------------- closed loop
def gt_predictor(episode):
    wps = sample_waypoints(episode.gt_path, 10)[0]

    def predict(pose, gmap, occ_frame, sem_frame):
        return make_gt_heatmaps(world_to_ego(pose, wps), 24, 24, 1.0)[0]
    return predict


def test_rollout_soundness_gt_maps_and_heatmaps():
    """With ground-truth maps and heatmaps the controller reaches the goal."""
    config = RunConfig()
    successes = 0
    runs = 0
    for fp_seed in (0, 1, 2):
        plan = generate_floorplan(fp_seed, 64)
        for s in range(4):
            ep = generate_episode(plan, s, episode_id=s)
            result = run_rollout(plan, ep, gt_predictor(ep), config,
                                 use_gt_map=True)
            runs += 1
            if result.stopped:
                x, y, _ = result.trajectory[-1]
                if math.hypot(x - ep.goal[0], y - ep.goal[1]) <= config.success_radius:
                    successes += 1
    assert runs == 12
    assert successes >= 11


def test_rollout_trace_contract(tmp_path):
    plan = generate_floorplan(1, 64)
    ep = generate_episode(plan, 0, episode_id=0)
    trace_path = tmp_path / "trace.jsonl"
    result = run_rollout(plan, ep, gt_predictor(ep), RunConfig(),
                         use_gt_map=True, trace_path=trace_path)
    rows = [json.loads(l) for l in trace_path.read_text().splitlines()]
    assert len(rows) == len(result.trace)
    for row in rows:
        assert set(row) == {"t", "pose", "action", "zeta", "stop_conf",
                            "short_term_goal"}
    assert rows[-1]["action"] == "stop" if result.stopped else True
    # budget accounting: trajectory has one more entry than actions taken
    assert len(result.trajectory) == len(result.actions) + 1


def test_rollout_budget_exhaustion():
    plan = generate_floorplan(1, 64)
    ep = generate_episode(plan, 0, episode_id=0)

    def never_stop(pose, gmap, occ_frame, sem_frame):
        return np.zeros((10, 24, 24))

    result = run_rollout(plan, ep, never_stop, RunConfig(budget=25),
                         use_gt_map=True)
    assert not result.stopped
    assert result.steps == 25
    assert all(a == "left" for a in result.actions)  # no goal -> rotate


def test_rollout_senses_with_the_config_settings():
    """The rollout's sensor takes ego_size, num_rays, max_range and p_noise
    from the config: each frame the predictor gets equals one ``sense`` at
    those settings, drawing label noise from a twin of the rollout's rng."""
    plan = generate_floorplan(1, 64)
    ep = generate_episode(plan, 0, episode_id=0)
    config = RunConfig(ego_size=24, num_rays=8, max_range=2.0, p_noise=0.3, budget=3)
    twin = np.random.default_rng(5)
    heatmaps = gt_predictor(ep)
    frames = []

    def predict(pose, gmap, occ_frame, sem_frame):
        frames.append(sem_frame)
        assert sem_frame.shape == (24, 24)
        assert np.array_equal(sem_frame, sense(plan, pose, None, 24, 8, 2.0, 0.3, twin))
        return heatmaps(pose, gmap, occ_frame, sem_frame)

    result = run_rollout(plan, ep, predict, config, use_gt_map=True,
                         rng=np.random.default_rng(5))
    assert not result.stopped
    assert result.steps == len(result.actions) == len(frames) == 3
