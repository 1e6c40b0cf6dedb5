"""Reverse-mode automatic differentiation over numpy float64 arrays.

A ``Tensor`` wraps a numpy array plus an optional gradient buffer. Operations
build a computation graph of backward closures; calling ``backward()`` on a
scalar loss runs the closures in reverse topological order and accumulates
gradients into every reachable tensor with ``requires_grad``.

All data is 64-bit so analytic gradients can be validated tightly against
central finite differences.
"""
from __future__ import annotations

import contextlib

import numpy as np

from ..errors import UsageError

_GRAD_ENABLED = True
_FINISHERS: list[list] = []   # one list per running backward(), innermost last


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
        """Backpropagate from a scalar; populates ``grad`` on the graph.

        The graph is consumed: each node drops its backward closure and its
        parent links once the closure has run, so the activations and buffers
        the closures held are freed as soon as the caller drops the loss. To
        backpropagate again, run the forward pass again.

        Once every closure has run, the callables that closures passed to
        :func:`after_backward` run in turn; none runs if a closure raised.
        """
        if self.data.size != 1:
            raise UsageError(f"backward() requires a scalar, got shape {self.shape}")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        finishers = []
        _FINISHERS.append(finishers)
        try:
            while topo:
                node = topo.pop()
                if node._backward is not None:
                    node._backward()
                    node._backward = None
                    node._parents = ()
        finally:
            _FINISHERS.pop()
        for fn in finishers:
            fn()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def after_backward(fn):
    """Call ``fn()`` when the running :meth:`Tensor.backward` has run its
    whole graph; for a backward closure whose work ends after the others'.
    A backward started inside a closure runs its own."""
    _FINISHERS[-1].append(fn)


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

