"""Adam optimizer with bias correction."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import UsageError
from .tensor import Tensor


@dataclass
class AdamState:
    lr: float = 0.0002
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], state: AdamState) -> AdamState:
    """One Adam update over a named parameter dict, in place.

    Every parameter must carry a populated gradient.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in params.items():
        if p.grad is None:
            raise UsageError(f"adam_step: parameter '{name}' has no gradient")
        if p.grad.shape != p.data.shape:
            raise UsageError(f"adam_step: gradient shape mismatch for '{name}'")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * p.grad
        v *= state.beta2
        v += (1.0 - state.beta2) * p.grad**2
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return state


class Adam:
    """Stateful wrapper binding an AdamState to a parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr: float = 0.0002):
        self.params = params
        self.state = AdamState(lr=lr)

    def step(self, only_with_grad: bool = False):
        params = self.params
        if only_with_grad:
            params = {n: p for n, p in params.items() if p.grad is not None}
        adam_step(params, self.state)
