"""Training losses: waypoint heatmaps + traversal auxiliary, map prediction,
and their weighted total."""
from __future__ import annotations

import numpy as np

from .. import numerics as nm
from .cm2 import one_hot


def loss_waypoint(pred_heatmaps: nm.Tensor, gt_heatmaps, visibility,
                  pred_traversed: nm.Tensor, gt_traversed,
                  lambda_aux: float) -> nm.Tensor:
    """Visibility-masked squared heatmap error plus traversal BCE.

    Heatmap term: sum_i b_i * ||pred_i - gt_i||^2 (summed over cells).
    Auxiliary term: BCE(pred_traversed, gt_traversed) averaged over the k
    waypoints.
    """
    gt = np.asarray(gt_heatmaps, dtype=np.float64)
    b = np.asarray(visibility, dtype=np.float64)
    while b.ndim < pred_heatmaps.ndim:
        b = b[..., None]
    diff = nm.sub(pred_heatmaps, nm.Tensor(gt))
    sq = nm.mul(diff, diff)
    heat = nm.tsum(nm.mul(sq, nm.Tensor(b)))
    if lambda_aux != 0.0:
        aux = nm.binary_cross_entropy(pred_traversed, np.asarray(gt_traversed, dtype=np.float64))
        return nm.add(heat, nm.scale(aux, lambda_aux))
    return heat


def loss_map(pred_occ: nm.Tensor, pred_sem: nm.Tensor, gt_occ, gt_sem) -> nm.Tensor:
    """Pixel-wise cross-entropy over occupancy plus semantic heads, against
    (B,h,w) label maps."""
    occ = nm.pixelwise_cross_entropy(pred_occ, one_hot(gt_occ, pred_occ.shape[-3]))
    sem = nm.pixelwise_cross_entropy(pred_sem, one_hot(gt_sem, pred_sem.shape[-3]))
    return nm.add(occ, sem)


def loss_total(l_wp: nm.Tensor, l_m: nm.Tensor, lambda_wp: float,
               lambda_m: float) -> nm.Tensor:
    return nm.add(nm.scale(l_wp, lambda_wp), nm.scale(l_m, lambda_m))
