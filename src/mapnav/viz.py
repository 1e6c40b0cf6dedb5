"""Image export: PGM/PPM writers, class colors, and rollout visualization.

Per-timestep exports show the ego semantic map with predicted waypoints
(red), the agent (green), and the goal (orange), plus the pooled
instruction-attended feature grid and per-token attention maps.
"""
from __future__ import annotations

import os

import numpy as np

from .controller import decode_waypoints, run_rollout
from .errors import UsageError
from .language.vocab import PAD_ID, WORDS
from .mapping import ego_to_cell, world_to_ego
from .train_eval.dataset import episode_rng
from .train_eval.evaluate import episode_forward

# fixed class -> RGB color table, indexed by class id
CLASS_COLORS = np.array([
    (40, 40, 40),     # void
    (220, 220, 220),  # floor
    (70, 70, 90),     # wall
    (160, 110, 60),   # table
    (200, 160, 60),   # chair
    (120, 80, 160),   # bed
    (60, 140, 160),   # sofa
    (100, 180, 220),  # sink
    (230, 230, 250),  # toilet
    (180, 140, 100),  # counter
    (30, 30, 120),    # tv
    (60, 160, 60),    # plant
    (140, 100, 40),   # cabinet
], dtype=np.uint8)

RED = (230, 40, 40)
GREEN = (40, 200, 40)
ORANGE = (240, 150, 30)


def write_pgm(path, gray: np.ndarray):
    """8-bit binary PGM."""
    g = np.asarray(gray)
    if g.dtype != np.uint8:
        lo, hi = float(g.min()), float(g.max())
        scale = 255.0 / (hi - lo) if hi > lo else 0.0
        g = ((g - lo) * scale).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{g.shape[1]} {g.shape[0]}\n255\n".encode())
        fh.write(g.tobytes())


def write_ppm(path, rgb: np.ndarray):
    """24-bit binary PPM; input (h, w, 3) uint8."""
    img = np.asarray(rgb, dtype=np.uint8)
    if img.ndim != 3 or img.shape[2] != 3:
        raise UsageError(f"write_ppm expects (h,w,3), got {img.shape}")
    with open(path, "wb") as fh:
        fh.write(f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())


def semantic_image(labels: np.ndarray) -> np.ndarray:
    """(h,w) class labels -> (h,w,3) colored image."""
    return CLASS_COLORS[np.asarray(labels, dtype=int) % len(CLASS_COLORS)]


def _paint(img: np.ndarray, row: int, col: int, color, radius: int = 1):
    h, w = img.shape[:2]
    r0, r1 = max(0, row - radius), min(h, row + radius + 1)
    c0, c1 = max(0, col - radius), min(w, col + radius + 1)
    if r0 < r1 and c0 < c1:
        img[r0:r1, c0:c1] = color


def rollout_frame(plan, pose, goal_xy, sem_labels: np.ndarray,
                  decoded_waypoints) -> np.ndarray:
    """Ego-frame semantic view with waypoint/agent/goal overlays."""
    size = sem_labels.shape[0]
    img = semantic_image(sem_labels).copy()
    for p in decoded_waypoints:
        if p is None:
            continue
        r, c = ego_to_cell(p[0], p[1], size)
        _paint(img, r, c, RED)
    gr, gc = ego_to_cell(*world_to_ego(pose, np.array([goal_xy]))[0], size)
    _paint(img, gr, gc, ORANGE)
    _paint(img, size // 2, size // 2, GREEN)
    return img


def attention_images(attn: np.ndarray, tokens, grid: int) -> list[tuple[str, np.ndarray]]:
    """Per-token attention maps: (token word, (grid,grid) float map)."""
    out = []
    a = np.asarray(attn)   # (N, M): map tokens x instruction tokens
    for j, tok in enumerate(tokens):
        if tok == PAD_ID:
            break
        word = WORDS[tok] if 0 <= tok < len(WORDS) else "?"
        out.append((f"{j:02d}-{word}", a[:, j].reshape(grid, grid)))
    return out


def export_rollout(model, config, plan, episode, out_dir):
    """Roll the episode out and write per-step PPM/PGM image sets.

    The rollout is :func:`run_rollout` with the episode's rng, as
    ``evaluate_episode`` runs it, so the images show the states and model
    outputs that ``mapnav rollout`` traces for the same config. Each step is
    rendered as the rollout takes it, so no step's outputs are kept. Returns
    the number of steps rendered.
    """
    os.makedirs(out_dir, exist_ok=True)
    forward = episode_forward(model, config, plan, episode)
    steps = 0

    def predict(pose, gmap, occ_frame, sem_frame):
        nonlocal steps
        out = forward(pose, gmap, sem_frame)
        heatmaps = np.asarray(out.heatmaps.data[0])
        prefix = os.path.join(out_dir, f"step{steps:04d}")
        sem_labels = np.asarray(out.sem.data[0]).argmax(axis=0)
        frame = rollout_frame(plan, pose, tuple(episode.goal), sem_labels,
                              decode_waypoints(heatmaps))
        write_ppm(f"{prefix}-map.ppm", frame)
        write_pgm(f"{prefix}-features.pgm", np.asarray(out.h_grid.data[0]).mean(axis=0))
        for name, amap in attention_images(out.attn[0], episode.tokens,
                                           model.config.token_grid):
            write_pgm(f"{prefix}-attn-{name}.pgm", amap)
        steps += 1
        return heatmaps

    run_rollout(plan, episode, predict, config, rng=episode_rng(config.seed, episode))
    return steps
