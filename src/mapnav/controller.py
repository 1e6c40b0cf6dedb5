"""Waypoint-following controller: heatmap decoding, short-term goal
selection, a deterministic local planner, and the stop rule.

The local planner replaces a learned point-goal policy with A* over the
thresholded global occupancy map (occupied blocked, unknown traversable at a
configurable cost multiplier) followed by a bearing controller toward a
carrot point on the planned path.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .mapping import LOGODDS_CLAMP, OCC_THRESHOLD, ego_to_world, new_global_occupancy, sense
from .model.supervision import heatmap_cell_to_ego
from .worldsim.agent import FORWARD_STEP, TURN_STEP, Pose, step_agent, wrap_angle
from .worldsim.episodes import grid_astar
from .worldsim.floorplan import CELL_SIZE, cell_center, pos_to_cell

CARROT_DISTANCE = 0.3
# a decoded waypoint within this radius counts as reached: heatmap decoding
# quantizes to 0.4 m cells, so a reached waypoint can decode up to ~0.28 m
# away (half a cell diagonal) and may even land inside an adjacent wall cell
WAYPOINT_REACHED = 0.45

if TYPE_CHECKING:  # for annotations only: the controller reads a RunConfig's fields
    from .config import RunConfig


def heatmap_mode(heatmap: np.ndarray) -> tuple[float, float] | None:
    """Argmax cell of a heatmap as an ego-frame (forward, right) point in
    meters; ties break to the smallest (row, col); all-zero maps decode to
    None (no detection)."""
    hm = np.asarray(heatmap)
    if hm.max() <= 0.0:
        return None
    u, v = hm.shape
    idx = int(np.argmax(hm))       # first occurrence = lexicographic min
    return heatmap_cell_to_ego(idx // v, idx % v, u, v)


def decode_waypoints(heatmaps: np.ndarray) -> list[tuple[float, float] | None]:
    return [heatmap_mode(h) for h in heatmaps]


def select_short_term_goal(waypoints_ego, pose: Pose, min_distance: float = 0.0):
    """Pick the waypoint after the one nearest the agent.

    ``waypoints_ego`` is a length-k sequence of ego (forward, right) points,
    entries possibly None for undecodable heatmaps. Returns (zeta, world
    goal) with zeta the 1-based index of the selected waypoint, clamped to
    k, or (None, None) when nothing decoded (caller falls back to rotating).
    ``min_distance`` > 0 skips past already-reached waypoints (those closer
    than the threshold) so the goal always pulls the agent forward.
    """
    k = len(waypoints_ego)
    decoded = [(i, p) for i, p in enumerate(waypoints_ego) if p is not None]
    if not decoded:
        return None, None
    nearest = min(decoded, key=lambda ip: math.hypot(ip[1][0], ip[1][1]))[0]
    zeta = min(nearest + 1, k - 1)          # 0-based target index
    while zeta < k - 1:
        p = waypoints_ego[zeta]
        if p is not None and math.hypot(p[0], p[1]) >= min_distance:
            break
        zeta += 1
    target = waypoints_ego[zeta]
    if target is None:
        later = [p for i, p in decoded if i >= zeta]
        target = later[0] if later else decoded[-1][1]
    goal = ego_to_world(pose, np.array([target]))[0]
    return zeta + 1, (float(goal[0]), float(goal[1]))


def _cost_grid(gmap: np.ndarray, unknown_cost: float) -> np.ndarray:
    """Per-cell traversal cost from the log-odds map: occupied cells are
    infinite, free cells 1, unknown cells the configured multiplier."""
    cost = np.full(gmap.shape, unknown_cost)
    cost[gmap < -OCC_THRESHOLD] = 1.0
    cost[gmap > OCC_THRESHOLD] = np.inf
    return cost


def _astar_weighted(cost: np.ndarray, start: tuple[int, int],
                    goal: tuple[int, int]) -> list[tuple[int, int]] | None:
    """A* with per-destination-cell cost multipliers; returns None if the
    goal is unreachable or an endpoint lies outside the grid."""
    return grid_astar(cost, start, goal)


def _bearing_action(pose: Pose, target_xy) -> str:
    err = wrap_angle(math.atan2(target_xy[1] - pose.y, target_xy[0] - pose.x)
                     - pose.theta)
    if abs(err) > TURN_STEP + 1e-9:
        return "left" if err > 0 else "right"
    return "forward"


def _forward_blocked(gmap: np.ndarray, pose: Pose) -> bool:
    nx = pose.x + FORWARD_STEP * math.cos(pose.theta)
    ny = pose.y + FORWARD_STEP * math.sin(pose.theta)
    r, c = pos_to_cell(nx, ny)
    g = gmap.shape[0]
    if not (0 <= r < g and 0 <= c < g):
        return True
    return gmap[r, c] > OCC_THRESHOLD


def plan_local(gmap: np.ndarray, pose: Pose, goal_xy, unknown_cost: float) -> str:
    """One action toward a world-frame goal using A* on the global map.

    The first path cell at least 0.3 m away serves as the carrot; the agent
    turns when the bearing error exceeds one turn increment, otherwise moves
    forward. Planning failure falls back to rotating left to gather more
    observations. Never returns forward into a cell the map marks occupied.
    """
    cost = _cost_grid(gmap, unknown_cost)
    start = pos_to_cell(pose.x, pose.y)
    goal = pos_to_cell(goal_xy[0], goal_xy[1])
    g = gmap.shape[0]
    if not (0 <= goal[0] < g and 0 <= goal[1] < g):
        return "left"
    cost[goal] = min(cost[goal], unknown_cost)   # goal cell always reachable
    cost[start] = min(cost[start], 1.0)
    if start == goal:
        action = _bearing_action(pose, goal_xy)
    else:
        path = _astar_weighted(cost, start, goal)
        if path is None:
            return "left"
        carrot = goal_xy
        for cell in path[1:]:
            cx, cy = cell_center(*cell)
            if math.hypot(cx - pose.x, cy - pose.y) >= CARROT_DISTANCE:
                carrot = (cx, cy)
                break
        action = _bearing_action(pose, carrot)
    if action == "forward" and _forward_blocked(gmap, pose):
        return "left"
    return action


def stop_decision(final_wp_ego, confidence: float, config: RunConfig) -> bool:
    """STOP iff the final predicted waypoint is within tau of the agent and
    its heatmap confidence exceeds gamma."""
    if final_wp_ego is None:
        return False
    dist = math.hypot(final_wp_ego[0], final_wp_ego[1])
    return dist <= config.tau and confidence > config.gamma


@dataclass
class RolloutResult:
    trajectory: list          # poses visited, [(x, y, theta), ...]
    actions: list             # actions taken
    stopped: bool             # STOP decided within budget
    steps: int
    trace: list               # per-step dicts (JSON-serializable)


def gt_global_map(plan) -> np.ndarray:
    """Fully-observed log-odds map derived from the floorplan: obstacles at
    the positive clamp, floor at the negative clamp."""
    gmap = np.full(plan.grid.shape, LOGODDS_CLAMP)
    gmap[plan.traversable_mask()] = -LOGODDS_CLAMP
    return gmap


def run_rollout(plan, episode, predict, config: RunConfig, trace_path=None,
                use_gt_map: bool = False,
                rng: np.random.Generator | None = None) -> RolloutResult:
    """Closed-loop episode rollout.

    ``predict(pose, gmap, occ_frame, sem_frame)`` supplies the (k, u, v)
    waypoint heatmap stack for the current state. The rollout only reads
    it: a predictor may return the same read-only stack again at a later
    step (``make_predictor`` does, for a state it has seen at the agent's
    position). ``occ_frame`` is always
    None: each scan is registered straight into ``gmap``, so there is no
    single-frame ego occupancy grid; the slot stays because predictor
    wrappers pass four arguments through. The controller decodes modes,
    selects the short-term goal, plans one action, and checks the stop rule
    every step. ``config`` gives the stop rule (``tau``, ``gamma``), the
    step ``budget``, the planner's ``unknown_cost`` and the sensor
    (``ego_size``, ``num_rays``, ``max_range``, ``p_noise``, whose label
    noise draws from ``rng``). ``use_gt_map`` plans on the fully-observed
    floorplan map instead of accumulated sensing (isolates controller
    behavior from mapping noise).
    """
    config.validate()
    pose = Pose(episode.start.x, episode.start.y, episode.start.theta)
    gmap = gt_global_map(plan) if use_gt_map else new_global_occupancy(plan.grid.shape[0])
    trajectory = [(pose.x, pose.y, pose.theta)]
    actions: list[str] = []
    trace: list[dict] = []
    stopped = False
    steps = 0
    best_zeta = 0           # waypoint progress is monotone along the sequence
    committed = None        # latched world-frame short-term goal
    for t in range(config.budget):
        sem_frame = sense(plan, pose, None if use_gt_map else gmap, config.ego_size,
                          config.num_rays, config.max_range, config.p_noise, rng)
        heatmaps = predict(pose, gmap, None, sem_frame)
        points = decode_waypoints(heatmaps)
        conf = float(np.max(heatmaps[-1]))
        if stop_decision(points[-1], conf, config):
            stopped = True
            steps = t
            trace.append({"t": t, "pose": [pose.x, pose.y, pose.theta],
                          "action": "stop", "zeta": None,
                          "stop_conf": conf, "short_term_goal": None})
            break
        zeta, goal_xy = select_short_term_goal(points, pose,
                                               min_distance=WAYPOINT_REACHED)
        if zeta is not None:
            # heatmap decode quantization jitters with heading; keep progress
            # along the waypoint sequence monotone and latch the world-frame
            # goal while the re-decoded one stays nearby
            if zeta < best_zeta:
                zeta = best_zeta
                later = [p for i, p in enumerate(points)
                         if i >= zeta - 1 and p is not None]
                if later:
                    g = ego_to_world(pose, np.array([later[0]]))[0]
                    goal_xy = (float(g[0]), float(g[1]))
            best_zeta = zeta
            if committed is not None and goal_xy is not None:
                if math.hypot(goal_xy[0] - committed[0],
                              goal_xy[1] - committed[1]) < 0.5:
                    goal_xy = committed
            committed = goal_xy
            if goal_xy is not None and math.hypot(goal_xy[0] - pose.x,
                                                  goal_xy[1] - pose.y) < WAYPOINT_REACHED:
                # goal reached up to decode quantization; rotate this step and
                # let the next decode pull a farther waypoint
                committed = None
                goal_xy = None
        if goal_xy is None:
            action = "left"
        else:
            action = plan_local(gmap, pose, goal_xy, config.unknown_cost)
        # break turn limit cycles: a turn that directly reverses the previous
        # turn without the agent having moved means the quantized goal bearing
        # is flickering; inch forward instead when the way is clear
        if (actions and action in ("left", "right") and actions[-1] in ("left", "right")
                and action != actions[-1]
                and trajectory[-2][0] == pose.x and trajectory[-2][1] == pose.y
                and not _forward_blocked(gmap, pose)):
            action = "forward"
        trace.append({"t": t, "pose": [pose.x, pose.y, pose.theta],
                      "action": action, "zeta": zeta, "stop_conf": conf,
                      "short_term_goal": list(goal_xy) if goal_xy else None})
        pose = step_agent(plan, pose, action)
        trajectory.append((pose.x, pose.y, pose.theta))
        actions.append(action)
        steps = t + 1
    if trace_path is not None:
        with open(trace_path, "w") as fh:
            for row in trace:
                fh.write(json.dumps(row) + "\n")
    return RolloutResult(trajectory=trajectory, actions=actions,
                         stopped=stopped, steps=steps, trace=trace)
