"""Template-grammar instruction generation from ground-truth paths.

Instructions name the turn direction at each heading change and the object
landmark closest to the turn point (falling back to the room type), ending
with a clause locating the goal. The wording is deterministic so episodes
regenerate identically from their seeds.
"""
from __future__ import annotations

import numpy as np

from ..worldsim.floorplan import CLASS_NAMES, Floorplan, cell_center, object_cells, pos_to_cell, room_at

TURN_THRESHOLD = np.deg2rad(45.0)
LANDMARK_RADIUS = 2.0
_SMOOTH = 3  # segments (~0.6 m) of heading smoothing


def _wrap(a):
    return (a + np.pi) % (2 * np.pi) - np.pi


def _turn_events(path: np.ndarray) -> list[tuple[int, str]]:
    """(path index, 'left'|'right') for each heading change > 45 degrees."""
    if len(path) < 3:
        return []
    d = np.diff(path, axis=0)
    headings = np.arctan2(d[:, 1], d[:, 0])
    if len(headings) > _SMOOTH:
        # unwrap, then box-smooth to suppress grid stairstepping
        hu = np.unwrap(headings)
        kernel = np.ones(_SMOOTH) / _SMOOTH
        hu = np.convolve(hu, kernel, mode="same")
        headings = hu
    deltas = _wrap(np.diff(headings))
    events = []
    acc = 0.0
    calm = 0
    for i, dlt in enumerate(deltas):
        if abs(dlt) < np.deg2rad(5.0):
            calm += 1
            if calm >= _SMOOTH:
                acc = 0.0
            continue
        calm = 0
        if acc != 0.0 and np.sign(dlt) != np.sign(acc):
            acc = 0.0
        acc += dlt
        if abs(acc) > TURN_THRESHOLD:
            events.append((i + 1, "left" if acc > 0 else "right"))
            acc = 0.0
    return events


def _landmark(plan: Floorplan, point: np.ndarray) -> tuple[str, str]:
    """('near', object name) within 2 m, else ('in', room type)."""
    best = None
    best_d = LANDMARK_RADIUS
    for r, c, cls in object_cells(plan):
        cx, cy = cell_center(r, c)
        d = float(np.hypot(cx - point[0], cy - point[1]))
        if d <= best_d:
            best_d = d
            best = CLASS_NAMES[cls]
    if best is not None:
        return "near", best
    rm = room_at(plan, *pos_to_cell(point[0], point[1]))
    return "in", (rm.kind if rm is not None else "room")


def generate_instruction(episode, plan: Floorplan) -> str:
    """Clause-per-turn instruction for an episode's ground-truth path."""
    path = np.asarray(episode.gt_path, dtype=np.float64)
    clauses = ["walk straight"]
    for idx, direction in _turn_events(path):
        prep, name = _landmark(plan, path[min(idx, len(path) - 1)])
        clauses.append(f"turn {direction} {prep} the {name}")
    prep, name = _landmark(plan, path[-1])
    clauses.append(f"stop {prep} the {name}")
    return " then ".join(clauses)
