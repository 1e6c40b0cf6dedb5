"""Data parallelism over two batch shards, one per CPU.

In grad mode a batch of B >= 2 samples is split into shard A, its first
⌈B/2⌉ samples, and shard B, the rest. Shard A runs in the calling process.
Shard B runs on a second model over a copy of the parameters, in the shard
worker, a :class:`~mapnav.numerics.parallel.Helper` forked on first use, so
that both shards' forward and backward passes run at once. The caller joins
the two shards' outputs along the batch and computes the losses on them. A
sample's outputs do not depend on the other samples of its batch, so the
losses are those of one forward over the whole batch, byte for byte.

One step:
- the caller writes the parameters into the first half of a shared-memory
  block and sends shard B's inputs (label maps, start heatmaps, tokens) down
  the pipe; the worker sends back shard B's outputs (heatmaps, traversal
  probabilities, occupancy and semantic maps);
- when the caller's backward has every joined output's gradient, it sends
  their shard B rows down the pipe and walks shard A's graph from their
  shard A rows (:func:`~mapnav.numerics.tensor.backward`). Meanwhile the
  worker walks shard B's graph from the rows it got and writes its
  parameter gradients into the block's second half; they are added after
  shard A's. Each walk starts from the outputs that a gradient reached, so
  an output that no loss reads, such as the traversal head's at
  ``lambda_xi = 0``, has no closure run.

With one usable CPU, inside a daemonic process, or without ``fork`` or
``memfd_create`` (Linux has both), shard B runs in the calling process
through the same messages, on its own copy of the parameters: the bytes
depend neither on the path nor on the CPU count. Only the latest sharded
forward's shard B graph is kept, so a loss backpropagated after a newer
sharded forward raises UsageError; a loss dropped without a backward costs
nothing.

The worker's lifecycle is the helper's (:mod:`mapnav.numerics.parallel`):
it is reaped at exit, a child forked from the caller forgets it, and a
worker that died raises WorkerError, with its exit status, at the next
message; the step after that forks a new one. This module keeps only what is
shard B's: the block, the messages and their handler, :class:`_Shard`. The
worker is process-wide state, like the grad mode: :func:`close` stops it.
"""
from __future__ import annotations

import mmap
import os

import numpy as np

from ..errors import UsageError, WorkerError
from ..model import CM2Model
from ..numerics import Tensor
from ..numerics.parallel import Helper, forks
from ..numerics.tensor import accumulate, backward, grad_enabled, make_op


def model_forward(model: CM2Model, mode: str, inputs) -> list:
    """[heatmaps, traversed, occ_hat, sem], what the losses read, of one
    forward of ``model`` on ``inputs`` = (occ, chi, sem, p0, tokens)."""
    occ, chi, sem, p0, tokens = inputs
    instr = [model.encode_instruction(np.stack(tokens), mode)]
    out = model.forward(mode, instr, p0, occ, chi, sem)
    return [out.heatmaps, out.traversed, out.occ_hat, out.sem]


def forward(model: CM2Model, mode: str, inputs) -> list:
    """:func:`model_forward`, over two shards in grad mode at B >= 2; the
    outputs of the two are joined along the batch."""
    bsz = len(inputs[0])
    if bsz < 2 or not grad_enabled():
        return model_forward(model, mode, inputs)
    na = -(-bsz // 2)
    side = _side_for(model)
    params = list(model.params.values())
    side.put_params(params)
    side.latest += 1
    step = side.latest
    side.helper.send(("forward", step, (mode, [x[na:] for x in inputs])))
    outs_a = model_forward(model, mode, [x[:na] for x in inputs])
    return _join(side, step, params, outs_a, _reply(side, step), na)


def _join(side, step: int, params: list, outs_a: list, outs_b: list, na: int) -> list:
    """Shard A's outputs and shard B's output arrays joined along the batch.
    Each joined output that needs a gradient is made from one hub node, which
    a backward reaches once it has every joined output's gradient. The hub
    has no parents: its closure runs the rest of the step, shard A's walk
    among it."""
    joined = []

    def hub_factory(hub):
        def run():
            if side is not _SIDE or side.latest != step:
                raise UsageError("a newer sharded forward dropped this loss's second shard; "
                                 "run the forward again")
            grads = [None if j is None else j.grad for j in joined]
            side.helper.send(("backward", step, [None if g is None else g[na:] for g in grads]))
            roots = _seed(outs_a, [None if g is None else g[:na] for g in grads])
            del grads, joined[:], outs_a[:]   # the walk frees each output once it has run
            backward(roots)
            for p, g in zip(params, side.grads(_reply(side, step))):
                if g is not None:
                    accumulate(p, g)
        return run

    hub = make_op(np.zeros(()), [a for a in outs_a if a is not None], hub_factory)
    hub._parents = ()   # its closure walks shard A's graph, not the walk that reached it
    for a, b in zip(outs_a, outs_b):
        if a is None:
            joined.append(None)
            continue
        data = np.concatenate([a.data, b])
        joined.append(make_op(data, (hub,), _no_backward) if a.requires_grad else Tensor(data))
    return joined


def _no_backward(out):
    """A joined output's gradient is read by the hub, its parent."""
    return lambda: None


def _seed(outs: list, grads: list) -> list:
    """The outputs whose gradient is not None, seeded with it: the roots
    of a walk."""
    for t, g in zip(outs, grads):
        if g is not None:
            accumulate(t, g)
    return [t for t, g in zip(outs, grads) if g is not None]


# ----------------------------------------------------------------------
# shard B's side

class _Shard:
    """Shard B's model, on the parameters in the first half of ``block``,
    and the outputs of its latest forward."""

    def __init__(self, config, layout, block: np.ndarray):
        self.params, self.grads = _views(layout, block)
        self.model = CM2Model(config, params={name: Tensor(v, requires_grad=True)
                                              for (name, _), v in zip(layout, self.params)})
        self.step, self.outs = None, None

    def handle(self, message, reply):
        """Reply to one message with (step, result, error)."""
        kind, step, payload = message
        try:
            result = getattr(self, kind)(step, payload)
        except Exception as e:  # the caller raises it
            reply((step, None, e))
            return
        reply((step, result, None))

    def forward(self, step, payload) -> list:
        """Shard B's output arrays; the outputs are kept for
        :meth:`backward`."""
        self.step = self.outs = None   # frees the older graph first
        mode, inputs = payload
        self.outs = model_forward(self.model, mode, inputs)
        self.step = step
        return [None if t is None else t.data for t in self.outs]

    def backward(self, step, out_grads) -> list:
        """Backpropagate shard B's output gradients; writes its parameter
        gradients into the block and returns which parameters have one."""
        if step != self.step:
            raise UsageError(f"no second-shard graph of step {step}")
        roots = _seed(self.outs, out_grads)
        self.step = self.outs = None   # the walk frees each output once it has run it
        backward(roots)
        has = []
        for p, g in zip(self.model.params.values(), self.grads):
            has.append(p.grad is not None)
            if p.grad is not None:
                g[...] = p.grad
        self.model.zero_grad()
        return has


def _slots(layout) -> tuple[list, int]:
    """Per parameter of ``layout``, the offset of its values in the block,
    in float64s, its gradient's being one half further; and that half's
    size."""
    sizes = [int(np.prod(shape)) for _, shape in layout]
    offsets = np.cumsum([0] + sizes)
    return [int(o) for o in offsets[:-1]], int(offsets[-1])


def _views(layout, block: np.ndarray):
    """Per parameter of ``layout``, its view in the first half of ``block``
    and its gradient's in the second."""
    offsets, half = _slots(layout)
    shapes = [shape for _, shape in layout]
    return ([block[o : o + int(np.prod(s))].reshape(s) for o, s in zip(offsets, shapes)],
            [block[half + o : half + o + int(np.prod(s))].reshape(s)
             for o, s in zip(offsets, shapes)])


class _Side:
    """Shard B's side: a helper that runs a :class:`_Shard`, and the block
    that carries the parameters to it and its parameter gradients back.
    Forked, the block is a memfd that the worker maps and the caller writes
    and reads with ``pwrite``/``pread``, so that it is not in the caller's
    resident set; in-process, it is the shard's own array."""

    def __init__(self, config, layout, fork: bool):
        self.key = (config, layout)
        self.latest = 0   # the step of the latest sharded forward
        self.shapes = [shape for _, shape in layout]
        self.offsets, half = _slots(layout)
        self.half = 8 * half
        self.fd = None
        if not fork:
            self.shard = _Shard(config, layout, np.empty(2 * half))
            self.helper = Helper("shard worker", lambda: self.shard.handle, fork=False)
            return
        self.fd = os.memfd_create("mapnav-shard-block")
        os.ftruncate(self.fd, 2 * self.half)

        def start():
            block = np.frombuffer(mmap.mmap(self.fd, 2 * self.half), dtype=np.float64)
            return _Shard(config, layout, block).handle

        self.helper = Helper("shard worker", start, fork=True, fds=(self.fd,))

    def put_params(self, params):
        if self.fd is None:
            for view, p in zip(self.shard.params, params):
                view[...] = p.data
            return
        for p, offset in zip(params, self.offsets):
            data = np.ascontiguousarray(p.data)
            if os.pwrite(self.fd, data, 8 * offset) != data.nbytes:
                raise WorkerError("a short write to the shard block")

    def grads(self, has) -> list:
        if self.fd is None:
            return [g if h else None for g, h in zip(self.shard.grads, has)]
        out = []
        for shape, offset, h in zip(self.shapes, self.offsets, has):
            g = np.empty(shape) if h else None
            if h and os.preadv(self.fd, [g], self.half + 8 * offset) != g.nbytes:
                raise WorkerError("a short read from the shard block")
            out.append(g)
        return out


# ----------------------------------------------------------------------
# the caller's end

_SIDE = None   # shard B's side


def _side_for(model: CM2Model):
    """Shard B's side for ``model``'s config and parameter layout, built on
    first use and again when they or the path change, or its worker died."""
    global _SIDE
    key = (model.config, tuple((name, p.shape) for name, p in model.params.items()))
    fork = forks() and hasattr(os, "memfd_create")
    if (_SIDE is None or _SIDE.key != key or _SIDE.helper.closed
            or _SIDE.helper.forked != fork):
        close()
        _SIDE = _Side(*key, fork)
    return _SIDE


def _reply(side, step: int):
    """The result of the reply to ``step``; older replies are dropped. An
    error that the message raised is raised here."""
    while True:
        got, result, error = side.helper.recv()
        if got == step:
            break
    if error is not None:
        raise error
    return result


def close():
    """Stop shard B's worker, if there is one; the next sharded step starts
    another."""
    global _SIDE
    side, _SIDE = _SIDE, None
    if side is not None:
        side.helper.close()
