"""Reverse-mode automatic differentiation over numpy float64 arrays.

A ``Tensor`` wraps a numpy array plus an optional gradient buffer. Operations
build a computation graph of backward closures; :func:`backward` walks it
from roots that hold a gradient, running the closures in reverse topological
order and accumulating gradients into every reachable tensor with
``requires_grad``. ``Tensor.backward()`` walks from a scalar loss.

All data is 64-bit so analytic gradients can be validated tightly against
central finite differences.
"""
from __future__ import annotations

import contextlib

import numpy as np

from ..errors import UsageError

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the context (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def grad_enabled() -> bool:
    """Whether ops record a graph here (outside :func:`no_grad`)."""
    return _GRAD_ENABLED


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._backward = None
        self._parents = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def backward(self):
        """Backpropagate from a scalar: seed its gradient with one and walk
        from it (:func:`backward`)."""
        if self.data.size != 1:
            raise UsageError(f"backward() requires a scalar, got shape {self.shape}")
        self.grad = np.ones_like(self.data)
        backward([self])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def backward(roots):
    """Backpropagate the gradients that the tensors of the list ``roots``
    hold through the graph below them, and consume that graph: each node
    drops its closure and parent links once the closure has run, freeing
    what they held; to backpropagate again, run the forward again. Nodes
    that no root reaches are left as they are. The walk empties ``roots``,
    so a root that the caller dropped is freed once it has run. A closure
    may start a walk of its own."""
    topo, visited = [], set()
    stack = [(r, False) for r in roots]
    roots.clear()
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
        elif id(node) not in visited:
            visited.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if id(p) not in visited)
    while topo:
        node = topo.pop()
        if node._backward is not None:
            node._backward()
            node._backward = None
            node._parents = ()


def make_op(data: np.ndarray, parents, backward_factory) -> Tensor:
    """Create an op output tensor.

    ``backward_factory(out)`` must return the backward closure; it is only
    called when some parent requires a gradient and grad mode is on.
    """
    req = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=req)
    if req:
        out._parents = tuple(parents)
        out._backward = backward_factory(out)
    return out


def accumulate(t: Tensor, g: np.ndarray):
    """Add ``g`` into ``t.grad`` if the tensor participates in the graph.

    The first gradient is stored as a private copy: ops may pass views of
    their output gradient, or one array to several parents (``add``), and a
    later ``+=`` must not write through into another tensor's grad."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64, order="C")
    else:
        t.grad += g


def unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcasted gradient back to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g

