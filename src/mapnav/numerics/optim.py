"""Adam optimizer with bias correction."""
from __future__ import annotations

import numpy as np

from ..errors import UsageError
from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adam over a named parameter dict: the learning rate, the number of
    steps taken, and per parameter name its moment estimates ``m`` and
    ``v``."""

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, only_with_grad: bool = False):
        params = self.params
        if only_with_grad:
            params = {n: p for n, p in params.items() if p.grad is not None}
        adam_step(params, self)


def adam_step(params: dict[str, Tensor], opt: Adam):
    """One Adam update of ``params`` with the moments and step count of
    ``opt``, in place.

    Every parameter must carry a populated gradient.
    """
    opt.t += 1
    bc1 = 1.0 - BETA1**opt.t
    bc2 = 1.0 - BETA2**opt.t
    for name, p in params.items():
        if p.grad is None:
            raise UsageError(f"adam_step: parameter '{name}' has no gradient")
        if p.grad.shape != p.data.shape:
            raise UsageError(f"adam_step: gradient shape mismatch for '{name}'")
        if name not in opt.m:
            opt.m[name] = np.zeros_like(p.data)
            opt.v[name] = np.zeros_like(p.data)
        m = opt.m[name]
        v = opt.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * p.grad
        v *= BETA2
        v += (1.0 - BETA2) * p.grad**2
        p.data -= opt.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
