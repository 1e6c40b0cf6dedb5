"""Episodes: shortest paths, start/goal sampling, dataset serialization."""
from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import GenerationError, NoPathError
from .agent import Pose
from .floorplan import CELL_SIZE, Floorplan, cell_center, pos_to_cell

SQRT2 = float(np.sqrt(2.0))
PATH_SPACING = 0.2
MIN_GEODESIC = 3.0   # episode start-to-goal path length range (m)
MAX_GEODESIC = 9.0
# The A* cost in cells past which generate_episode's search stops: a cell
# path longer than sqrt(2) * MAX_GEODESIC resamples to a path longer than
# MAX_GEODESIC (see generate_episode). 1e-9 covers the rounding of A*'s sums.
MAX_SEARCH_COST = SQRT2 * MAX_GEODESIC / CELL_SIZE + 1e-9


@dataclass
class Episode:
    episode_id: int
    floorplan_seed: int
    start: Pose
    goal: tuple[float, float]
    gt_path: np.ndarray  # (n, 2) world-frame points, <=0.2 m apart
    instruction_text: str = ""
    tokens: list[int] = field(default_factory=list)

    @property
    def path_length(self) -> float:
        return polyline_length(self.gt_path)


def polyline_length(points: np.ndarray) -> float:
    if len(points) < 2:
        return 0.0
    return float(np.linalg.norm(np.diff(points, axis=0), axis=1).sum())


def arc_lengths(points: np.ndarray) -> np.ndarray:
    """(n,) arc length along a polyline of n points at each of its points."""
    return np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(points, axis=0), axis=1))])


def resample_polyline(points: np.ndarray, spacing: float = PATH_SPACING) -> np.ndarray:
    """Resample at uniform arc length <= spacing, keeping exact endpoints."""
    points = np.asarray(points, dtype=np.float64)
    if len(points) < 2:
        return points.copy()
    total = polyline_length(points)
    if total < 1e-12:
        return points[:1].copy()
    n = max(1, int(np.ceil(total / spacing)))
    s = arc_lengths(points)
    targets = np.linspace(0.0, total, n + 1)
    out = np.empty((n + 1, 2))
    out[:, 0] = np.interp(targets, s, points[:, 0])
    out[:, 1] = np.interp(targets, s, points[:, 1])
    return out


def grid_astar(cost: np.ndarray, start: tuple[int, int], goal: tuple[int, int],
               max_cost: float = math.inf) -> list[tuple[int, int]] | None:
    """A* over 8-connected cells of a cost grid: a move costs its length (1
    or sqrt(2)) times the cost of the cell it enters, non-finite cells are
    blocked, and a diagonal move may not cut the corner of a blocked cell.
    Returns the cell path, or None if the goal is unreachable, an endpoint
    lies outside the grid, or the path would cost more than ``max_cost``.
    The octile heuristic is consistent, so the heap pops f = g + h in
    non-decreasing order and the first pop above ``max_cost`` proves that
    bound.

    The search runs on flat indices of the grid padded by one blocked cell,
    so no move needs a bounds check. A flat index sorts like its (row, col),
    so the heap pops cells in the same order as a search keyed on cells."""
    rows, cols = cost.shape
    if not (0 <= start[0] < rows and 0 <= start[1] < cols
            and 0 <= goal[0] < rows and 0 <= goal[1] < cols):
        return None
    w = cols + 2
    padded = np.full((rows + 2, w), np.inf)
    padded[1:-1, 1:-1] = np.where(np.isfinite(cost), cost, np.inf)
    r, c = np.divmod(np.arange(padded.size), w)
    dr, dc = np.abs(r - goal[0] - 1), np.abs(c - goal[1] - 1)
    h = ((dr + dc) + (SQRT2 - 2.0) * np.minimum(dr, dc)).tolist()   # octile
    cost = padded.ravel().tolist()
    inf = math.inf
    src, dst = (start[0] + 1) * w + start[1] + 1, (goal[0] + 1) * w + goal[1] + 1
    g = [inf] * len(cost)
    g[src] = 0.0
    came = {}
    closed = bytearray(len(cost))
    heap = [(h[src], src)]
    straight = (-w, w, -1, 1)
    # (move, corner cells it must not cut) for (-1,-1), (-1,1), (1,-1), (1,1)
    diagonal = ((-w - 1, -1, -w), (-w + 1, 1, -w), (w - 1, -1, w), (w + 1, 1, w))
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        f, i = pop(heap)
        if f > max_cost:
            return None
        if i == dst:
            path = [i]
            while i in came:
                i = came[i]
                path.append(i)
            return [(j // w - 1, j % w - 1) for j in reversed(path)]
        if closed[i]:
            continue
        closed[i] = 1
        gi = g[i]
        for d in straight:
            j = i + d
            cj = cost[j]
            if cj < inf:
                ng = gi + cj             # a straight move has length 1
                if ng < g[j]:
                    g[j] = ng
                    came[j] = i
                    push(heap, (ng + h[j], j))
        for d, a, b in diagonal:
            j = i + d
            cj = cost[j]
            if cj < inf and cost[i + a] < inf and cost[i + b] < inf:
                ng = gi + SQRT2 * cj
                if ng < g[j]:
                    g[j] = ng
                    came[j] = i
                    push(heap, (ng + h[j], j))
    return None


def astar_cells(traversable: np.ndarray, start: tuple[int, int],
                goal: tuple[int, int], max_cost: float = math.inf) -> list[tuple[int, int]]:
    """A* over 8-connected cells, diagonal cost sqrt(2), no corner cutting;
    NoPathError also when the path would be longer than ``max_cost`` cells."""
    rows, cols = traversable.shape
    for r, c in (start, goal):
        if not (0 <= r < rows and 0 <= c < cols and traversable[r, c]):
            raise NoPathError(f"endpoint not traversable: {start} -> {goal}")
    path = grid_astar(np.where(traversable, 1.0, np.inf), start, goal, max_cost)
    if path is None:
        raise NoPathError(f"no path from {start} to {goal} of at most {max_cost} cells")
    return path


def shortest_path(plan: Floorplan, a: tuple[float, float], b: tuple[float, float],
                  max_cost: float = math.inf) -> tuple[np.ndarray, float]:
    """Geodesic polyline (resampled at 0.2 m) and its length in meters;
    NoPathError if the cell path is longer than ``max_cost`` cells."""
    ca, cb = pos_to_cell(*a), pos_to_cell(*b)
    if ca == cb:
        if np.allclose(a, b):
            path = np.array([a])
        else:
            path = resample_polyline(np.array([a, b]))
        return path, polyline_length(path)
    cells = astar_cells(plan.traversable_mask(), ca, cb, max_cost)
    pts = [np.asarray(a, dtype=np.float64)]
    for cell in cells[1:-1]:
        pts.append(np.array(cell_center(*cell)))
    pts.append(np.asarray(b, dtype=np.float64))
    path = resample_polyline(np.array(pts))
    return path, polyline_length(path)


def generate_episode(plan: Floorplan, seed: int, episode_id: int = 0) -> Episode:
    """Sample a start pose and goal with geodesic distance in range, build
    the ground-truth path, and attach a generated instruction.

    A pair's search stops past ``MAX_SEARCH_COST`` cells, with the same
    outcome as a path rejected for its length: the resampled path of a cell
    path of L cells is at least L * CELL_SIZE / sqrt(2) long. Its polyline
    joins cell centres, so every segment is at least 0.2 m long, and each
    chord of ``resample_polyline`` spans an arc of at most 0.2 m, so it
    holds at most one vertex. An optimal path turns at most 90 degrees at a
    vertex: a 135 or 180 degree turn, or a 90 degree turn between two
    diagonals, has a strictly shorter legal shortcut through cells that the
    path or its no-corner-cutting rule keeps free. A chord of arc D across a
    turn of at most 90 degrees is at least D * cos(45 deg) = D / sqrt(2)."""
    from ..language import grammar, tokenizer  # mapnav.language imports worldsim

    rng = np.random.default_rng(np.random.PCG64(hash((plan.seed, seed, 0x9E3779B9)) & 0x7FFFFFFF))
    floor_cells = np.argwhere(plan.traversable_mask())
    for _ in range(100):
        i, j = rng.integers(0, len(floor_cells), size=2)
        sr, sc = floor_cells[i]
        gr, gc = floor_cells[j]
        start_xy = cell_center(sr, sc)
        goal_xy = cell_center(gr, gc)
        eu = float(np.hypot(goal_xy[0] - start_xy[0], goal_xy[1] - start_xy[1]))
        if eu > MAX_GEODESIC:
            continue
        try:
            path, length = shortest_path(plan, start_xy, goal_xy, MAX_SEARCH_COST)
        except NoPathError:
            continue
        if not (MIN_GEODESIC <= length <= MAX_GEODESIC):
            continue
        theta = float(rng.uniform(-np.pi, np.pi))
        ep = Episode(
            episode_id=episode_id,
            floorplan_seed=plan.seed,
            start=Pose(start_xy[0], start_xy[1], theta),
            goal=(goal_xy[0], goal_xy[1]),
            gt_path=path,
        )
        ep.instruction_text = grammar.generate_instruction(ep, plan)
        ep.tokens = tokenizer.tokenize(ep.instruction_text).tokens
        return ep
    raise GenerationError(f"episode sampling failed (plan seed {plan.seed}, seed {seed})")


def episode_to_json(ep: Episode) -> str:
    return json.dumps({
        "id": ep.episode_id,
        "floorplan_seed": ep.floorplan_seed,
        "start": {"x": ep.start.x, "y": ep.start.y, "theta": ep.start.theta},
        "goal": {"x": ep.goal[0], "y": ep.goal[1]},
        "path": [[float(x), float(y)] for x, y in ep.gt_path],
        "instruction_text": ep.instruction_text,
        "tokens": list(map(int, ep.tokens)),
    })


def episode_from_json(line: str) -> Episode:
    d = json.loads(line)
    return Episode(
        episode_id=d["id"],
        floorplan_seed=d["floorplan_seed"],
        start=Pose(d["start"]["x"], d["start"]["y"], d["start"]["theta"]),
        goal=(d["goal"]["x"], d["goal"]["y"]),
        gt_path=np.array(d["path"], dtype=np.float64),
        instruction_text=d["instruction_text"],
        tokens=list(d["tokens"]),
    )


def save_episodes(path, episodes):
    with open(path, "w") as f:
        for ep in episodes:
            f.write(episode_to_json(ep) + "\n")


def load_episodes(path) -> list[Episode]:
    with open(path) as f:
        return [episode_from_json(line) for line in f if line.strip()]
