"""Output checks that do not depend on how fast, or in which order, the
program computes: each compares a result with an independent oracle, with a
tolerance set by float64 rounding rather than by the current kernels."""
from __future__ import annotations

import heapq
import math

import numpy as np

FD_EPS = 1e-6          # central-difference step along a unit direction; at 1e-5 enough
                       # leaky-ReLU units cross their kink to move the secant by ~1e-4
FD_RTOL = 1e-4
HEATMAP_RTOL = 1e-9
HEATMAP_ATOL = 1e-12
PATH_RTOL = 1e-9

_NEIGHBORS = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if dr or dc]


def directional_derivative_ok(loss_at, params: dict, grads: dict, rng) -> tuple[bool, str]:
    """Central finite difference of ``loss_at()`` along a random unit
    direction v against ``grad . v``.

    ``params`` maps names to tensors holding the point the gradient was taken
    at; ``grads`` maps the same names to their gradients (None for no
    gradient). The tensors are restored before returning."""
    base = {n: p.data.copy() for n, p in params.items()}
    v = {n: rng.standard_normal(p.data.shape) for n, p in params.items()}
    norm = math.sqrt(sum(float(np.sum(d * d)) for d in v.values()))
    analytic = sum(float(np.sum(grads[n] * v[n])) / norm
                   for n in params if grads[n] is not None)
    losses = []
    try:
        for sign in (1.0, -1.0):
            for n, p in params.items():
                p.data = base[n] + sign * FD_EPS / norm * v[n]
            losses.append(loss_at())
    finally:
        for n, p in params.items():
            p.data = base[n]
    numeric = (losses[0] - losses[1]) / (2.0 * FD_EPS)
    ok = abs(numeric - analytic) <= FD_RTOL * max(abs(numeric), abs(analytic), 1e-6)
    return ok, f"finite difference {numeric:.9g} vs grad.v {analytic:.9g}"


def heatmaps_match(no_grad: np.ndarray, grad_mode: np.ndarray) -> bool:
    return (no_grad.shape == grad_mode.shape
            and np.allclose(no_grad, grad_mode, rtol=HEATMAP_RTOL, atol=HEATMAP_ATOL))


def poses_in_obstacles(plan, trajectory) -> list[int]:
    """Indices of trajectory poses whose cell is not free floor."""
    from mapnav.worldsim.floorplan import pos_to_cell
    return [j for j, (x, y, _) in enumerate(trajectory)
            if not plan.traversable(*pos_to_cell(x, y))]


def path_cost(cost: np.ndarray, path) -> float:
    """Cost of a cell path where a move costs its length times the cost of
    the cell it enters."""
    total = 0.0
    for (r0, c0), (r1, c1) in zip(path, path[1:]):
        total += math.hypot(r1 - r0, c1 - c0) * cost[r1, c1]
    return total


def dijkstra_cost(cost: np.ndarray, start, goal) -> float:
    """Least path cost over 8-connected cells with infinite-cost cells
    blocked and no corner cutting past a blocked cell; inf if unreachable."""
    rows, cols = cost.shape
    free = np.isfinite(cost)
    dist = {start: 0.0}
    heap = [(0.0, start)]
    done = set()
    while heap:
        d, cell = heapq.heappop(heap)
        if cell == goal:
            return d
        if cell in done:
            continue
        done.add(cell)
        r, c = cell
        for dr, dc in _NEIGHBORS:
            nr, nc = r + dr, c + dc
            if not (0 <= nr < rows and 0 <= nc < cols) or not free[nr, nc]:
                continue
            if dr and dc and not (free[r, nc] and free[nr, c]):
                continue
            nd = d + math.hypot(dr, dc) * cost[nr, nc]
            if nd < dist.get((nr, nc), math.inf):
                dist[(nr, nc)] = nd
                heapq.heappush(heap, (nd, (nr, nc)))
    return math.inf


def planner_path_ok(cost: np.ndarray, start, goal, path) -> tuple[bool, str]:
    """The planner's path is a valid move sequence from start to goal whose
    cost equals the Dijkstra optimum on the same cost grid."""
    best = dijkstra_cost(cost, start, goal)
    if path is None:
        return math.isinf(best), f"planner found no path, Dijkstra cost {best:.9g}"
    cells = [tuple(c) for c in path]
    valid = (cells[0] == tuple(start) and cells[-1] == tuple(goal)
             and all(max(abs(a[0] - b[0]), abs(a[1] - b[1])) == 1 for a, b in zip(cells, cells[1:])))
    got = path_cost(cost, cells)
    ok = valid and abs(got - best) <= PATH_RTOL * max(1.0, best)
    return ok, f"planner path cost {got:.9g} (valid moves: {valid}) vs Dijkstra {best:.9g}"
