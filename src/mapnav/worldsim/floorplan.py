"""Procedural indoor floorplans on a semantic cell grid.

A floorplan is a G x G grid of class labels (void/floor/wall + 10 object
classes) generated by BSP room partitioning with one-cell doorways, plus
per-room object placement. Every floor cell stays 4-connected to every other
floor cell.
"""
from __future__ import annotations

import collections
from dataclasses import dataclass, field

import numpy as np

from ..errors import GenerationError

CELL_SIZE = 0.2

CLASS_NAMES = [
    "void", "floor", "wall",
    "table", "chair", "bed", "sofa", "sink",
    "toilet", "counter", "tv", "plant", "cabinet",
]
VOID, FLOOR, WALL = 0, 1, 2
OBJECT_CLASS_IDS = list(range(3, len(CLASS_NAMES)))
NUM_CLASSES = len(CLASS_NAMES)
CLASS_ID = {name: i for i, name in enumerate(CLASS_NAMES)}

ROOM_TYPES = ["bedroom", "bathroom", "kitchen", "lounge"]
ROOM_OBJECTS = {
    "bedroom": ["bed", "cabinet", "chair", "plant"],
    "bathroom": ["toilet", "sink", "cabinet"],
    "kitchen": ["counter", "sink", "table", "chair", "cabinet"],
    "lounge": ["sofa", "tv", "table", "plant", "chair"],
}

OBJECT_SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2)]
MIN_ROOM_SPAN = 5  # interior cells per side after a split
MIN_OBJECTS, MAX_OBJECTS = 4, 16   # objects placed per floorplan


@dataclass
class Room:
    r0: int
    c0: int
    r1: int  # inclusive
    c1: int
    kind: str = ""


@dataclass
class Floorplan:
    grid: np.ndarray  # (G, G) uint8 class labels
    rooms: list[Room] = field(default_factory=list)
    seed: int = 0
    n_objects: int = 0
    # raycast's padded copy of the grid (see agent._ray_grid)
    ray_grid: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.grid.shape[0]

    def traversable(self, r: int, c: int) -> bool:
        g = self.grid
        return 0 <= r < g.shape[0] and 0 <= c < g.shape[1] and g[r, c] == FLOOR

    def traversable_mask(self) -> np.ndarray:
        return self.grid == FLOOR


def pos_to_cell(x: float, y: float) -> tuple[int, int]:
    return int(np.floor(y / CELL_SIZE)), int(np.floor(x / CELL_SIZE))


def cell_center(r: int, c: int) -> tuple[float, float]:
    return (c + 0.5) * CELL_SIZE, (r + 0.5) * CELL_SIZE


def floor_connected(grid: np.ndarray) -> bool:
    """All floor cells mutually reachable through 4-neighbors. The DFS runs
    on flat indices of the floor mask padded by one non-floor cell, so a
    cell's neighbors are i +- 1 and i +- the padded width."""
    floor = np.pad(grid == FLOOR, 1)
    w = floor.shape[1]
    total = int(floor.sum())
    if total == 0:
        return False
    free = floor.ravel().tolist()
    start = free.index(True)
    free[start] = False                 # a reached cell stops being free
    stack = [start]
    count = 0
    while stack:
        i = stack.pop()
        count += 1
        for j in (i + w, i - w, i + 1, i - 1):
            if free[j]:
                free[j] = False
                stack.append(j)
    return count == total


def _border_connected(grid: np.ndarray, r: int, c: int, h: int, w: int) -> bool:
    """Whether the floor cells 4-adjacent to the block ``grid[r:r+h, c:c+w]``
    are mutually reachable through floor; False if there are none. On a
    grid whose floor was connected before the block was filled, this is
    ``floor_connected(grid)``: a floor path through the block enters and
    leaves it at two of these cells, and so can go round it instead; and if
    no floor borders the block, the block held all of the floor. The search
    runs on flat indices of the padded floor mask, as ``floor_connected``'s
    does, and stops once it has reached every border cell."""
    floor = np.pad(grid == FLOOR, 1)
    wp = floor.shape[1]
    free = floor.ravel().tolist()
    corner = (r + 1) * wp + c + 1       # the block's top-left cell
    ring = ([corner - wp + k for k in range(w)] + [corner + h * wp + k for k in range(w)]
            + [corner + k * wp - 1 for k in range(h)] + [corner + k * wp + w for k in range(h)])
    border = {i for i in ring if free[i]}
    if not border:
        return False
    start = border.pop()
    free[start] = False                 # a reached cell stops being free
    queue = collections.deque([start])
    while border:
        if not queue:
            return False
        i = queue.popleft()
        for j in (i + wp, i - wp, i + 1, i - 1):
            if free[j]:
                free[j] = False
                border.discard(j)
                queue.append(j)
    return True


def _split_rooms(rng: np.random.Generator, g: int, target: int) -> tuple[list[Room], list[tuple]]:
    """BSP split of the interior; returns leaf rooms and wall segments."""
    rooms = [Room(1, 1, g - 2, g - 2)]
    walls = []  # (axis, line_index, lo, hi, door_index)
    while len(rooms) < target:
        # split the largest splittable room
        order = sorted(
            range(len(rooms)),
            key=lambda i: -(rooms[i].r1 - rooms[i].r0) * (rooms[i].c1 - rooms[i].c0),
        )
        split_done = False
        for i in order:
            rm = rooms[i]
            h = rm.r1 - rm.r0 + 1
            w = rm.c1 - rm.c0 + 1
            horiz = h >= w  # split along rows if taller
            span = h if horiz else w
            if span < 2 * MIN_ROOM_SPAN + 1:
                continue
            off = int(rng.integers(MIN_ROOM_SPAN, span - MIN_ROOM_SPAN))
            if horiz:
                line = rm.r0 + off
                door = int(rng.integers(rm.c0, rm.c1 + 1))
                walls.append(("row", line, rm.c0, rm.c1, door))
                rooms[i] = Room(rm.r0, rm.c0, line - 1, rm.c1)
                rooms.insert(i + 1, Room(line + 1, rm.c0, rm.r1, rm.c1))
            else:
                line = rm.c0 + off
                door = int(rng.integers(rm.r0, rm.r1 + 1))
                walls.append(("col", line, rm.r0, rm.r1, door))
                rooms[i] = Room(rm.r0, rm.c0, rm.r1, line - 1)
                rooms.insert(i + 1, Room(rm.r0, line + 1, rm.r1, rm.c1))
            split_done = True
            break
        if not split_done:
            break
    return rooms, walls


def _place_objects(rng: np.random.Generator, grid: np.ndarray, rooms: list[Room]) -> int:
    placed = 0
    room_order = list(range(len(rooms)))
    rng.shuffle(room_order)
    # two passes: one quota per room, then top up until min count reached
    for attempt_round in range(3):
        for ri in room_order:
            if placed >= MAX_OBJECTS:
                return placed
            rm = rooms[ri]
            quota = int(rng.integers(1, 3)) if attempt_round == 0 else 1
            names = ROOM_OBJECTS[rm.kind]
            for _ in range(quota):
                if placed >= MAX_OBJECTS:
                    break
                cls = CLASS_ID[names[int(rng.integers(0, len(names)))]]
                sh, sw = OBJECT_SHAPES[int(rng.integers(0, len(OBJECT_SHAPES)))]
                for _try in range(20):
                    r = int(rng.integers(rm.r0, rm.r1 - sh + 2))
                    c = int(rng.integers(rm.c0, rm.c1 - sw + 2))
                    block = grid[r : r + sh, c : c + sw]
                    if not (block == FLOOR).all():
                        continue
                    grid[r : r + sh, c : c + sw] = cls
                    if _border_connected(grid, r, c, sh, sw):
                        placed += 1
                        break
                    grid[r : r + sh, c : c + sw] = FLOOR
        if placed >= MIN_OBJECTS:
            break
    return placed


def generate_floorplan(seed: int, size: int) -> Floorplan:
    """Deterministic floorplan for a seed; raises GenerationError after 100
    failed attempts to satisfy the connectivity/object-count invariants."""
    if size < 32:
        raise GenerationError(f"floorplan size must be >= 32, got {size}")
    for attempt in range(100):
        rng = np.random.default_rng(np.random.PCG64(seed * 1000003 + attempt))
        grid = np.full((size, size), FLOOR, dtype=np.uint8)
        grid[0, :] = grid[-1, :] = WALL
        grid[:, 0] = grid[:, -1] = WALL
        target = int(rng.integers(3, 7))
        rooms, walls = _split_rooms(rng, size, target)
        for axis, line, lo, hi, door in walls:
            if axis == "row":
                grid[line, lo : hi + 1] = WALL
                grid[line, door] = FLOOR
            else:
                grid[lo : hi + 1, line] = WALL
                grid[door, line] = FLOOR
        if not floor_connected(grid):
            continue
        for rm in rooms:
            rm.kind = ROOM_TYPES[int(rng.integers(0, len(ROOM_TYPES)))]
        placed = _place_objects(rng, grid, rooms)
        if placed >= MIN_OBJECTS:
            return Floorplan(grid=grid, rooms=rooms, seed=seed, n_objects=placed)
    raise GenerationError(f"floorplan generation failed for seed {seed}")


def room_at(plan: Floorplan, r: int, c: int) -> Room | None:
    for rm in plan.rooms:
        if rm.r0 <= r <= rm.r1 and rm.c0 <= c <= rm.c1:
            return rm
    return None


def object_cells(plan: Floorplan) -> list[tuple[int, int, int]]:
    """(row, col, class_id) for every object cell."""
    out = []
    for r, c in np.argwhere(plan.grid >= 3):
        out.append((int(r), int(c), int(plan.grid[r, c])))
    return out
