"""Data parallelism over two batch shards, one per CPU.

In grad mode a batch of B >= 2 samples is split into shard A, its first
⌈B/2⌉ samples, and shard B, the rest. Shard A runs in the calling process.
Shard B runs on a second model over a copy of the parameters, in one
persistent worker process forked on first use, so that both shards' forward
and backward passes run at once. The caller joins the two shards' outputs
along the batch and computes the losses on them. A sample's outputs do not
depend on the other samples of its batch, so the losses are those of one
forward over the whole batch, byte for byte.

One step:
- the caller writes the parameters into the first half of a shared-memory
  block and sends shard B's inputs (label maps, start heatmaps, tokens) down
  the pipe; the worker sends back shard B's outputs (heatmaps, traversal
  probabilities, occupancy and semantic maps);
- when the caller's backward reaches the joined outputs, it sends their
  gradients' shard B rows down the pipe and goes on with shard A. The worker
  backpropagates them and writes its parameter gradients into the block's
  second half. Once the caller's backward is done, they are added after
  shard A's (:func:`~mapnav.numerics.tensor.after_backward`).

With one usable CPU, inside a daemonic process, or without ``fork`` or
``memfd_create`` (Linux has both), shard B runs in the calling process
through the same messages, on its own copy of the parameters: the bytes
depend neither on the path nor on the CPU count. Only the latest sharded
forward's shard B graph is kept, so a loss backpropagated after a newer
sharded forward raises UsageError; a loss dropped without a backward costs
nothing.

The worker is forked, not spawned: a spawned child takes 0.2-0.3 s to
import ``mapnav``, and the caller runs no threads of its own. It ignores
SIGINT, exits on EOF of its pipe and is reaped at exit. A child forked from
the caller forgets it. A worker that died raises WorkerError, with its exit
status, at the next message; the step after that forks a new one. The
worker is process-wide state, like the grad mode: :func:`close` stops it.
"""
from __future__ import annotations

import atexit
import mmap
import os
import signal
import time

import numpy as np

from ..errors import UsageError, WorkerError
from ..model import CM2Model
from ..numerics import Tensor
from ..numerics.parallel import usable_cpus
from ..numerics.tensor import accumulate, after_backward, grad_enabled, make_op

REAP_TIMEOUT_S = 10.0   # after this long a closed worker that has not exited is killed


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
    _request(side, ("forward", step, (mode, [x[na:] for x in inputs])))
    outs_a = model_forward(model, mode, [x[:na] for x in inputs])
    return _join(side, step, params, outs_a, _reply(side, step), na)


def _join(side, step: int, params: list, outs_a: list, outs_b: list, na: int) -> list:
    """Shard A's outputs and shard B's output arrays joined along the batch.
    Each joined output that needs a gradient is made from one hub node whose
    parents are shard A's outputs: a backward reaches the hub once it has
    every joined output's gradient and before any of shard A's graph."""
    joined = []

    def hub_factory(hub):
        def backward():
            if side is not _SIDE or side.latest != step:
                raise UsageError("a newer sharded forward dropped this loss's second shard; "
                                 "run the forward again")
            grads = [None if j is None else j.grad for j in joined]
            _request(side, ("backward", step, [None if g is None else g[na:] for g in grads]))
            for a, g in zip(outs_a, grads):
                if g is not None:
                    accumulate(a, g[:na])
            after_backward(lambda: _add_grads(side, step, params))
        return backward

    hub = make_op(np.zeros(()), [a for a in outs_a if a is not None], hub_factory)
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


def _add_grads(side, step: int, params: list):
    """Add shard B's parameter gradients of ``step`` after shard A's."""
    for p, g in zip(params, side.grads(_reply(side, step))):
        if g is not None:
            accumulate(p, g)


# ----------------------------------------------------------------------
# shard B's side

class _Shard:
    """Shard B's model, on the parameters in the first half of ``block``,
    and the graph of its latest forward."""

    def __init__(self, config, layout, block: np.ndarray):
        self.params, self.grads = _views(layout, block)
        self.model = CM2Model(config, params={name: Tensor(v, requires_grad=True)
                                              for (name, _), v in zip(layout, self.params)})
        self.step, self.root, self.out_grads = None, None, None

    def handle(self, message):
        """The reply to one message: (step, result, error)."""
        kind, step, payload = message
        try:
            return step, getattr(self, kind)(step, payload), None
        except Exception as e:  # the caller raises it
            return step, None, e

    def forward(self, step, payload) -> list:
        """Shard B's output arrays. A root node, made while grad mode is on,
        will seed its outputs' gradients for :meth:`backward`."""
        self.step = self.root = None   # frees the older graph first
        mode, inputs = payload
        outs = model_forward(self.model, mode, inputs)

        def seed(root):
            def backward():
                for t, g in zip(outs, self.out_grads):
                    if g is not None:
                        accumulate(t, g)
            return backward

        self.step = step
        self.root = make_op(np.zeros(()), [t for t in outs if t is not None], seed)
        return [None if t is None else t.data for t in outs]

    def backward(self, step, out_grads) -> list:
        """Backpropagate shard B's output gradients; writes its parameter
        gradients into the block and returns which parameters have one."""
        if step != self.step:
            raise UsageError(f"no second-shard graph of step {step}")
        root, self.step, self.root = self.root, None, None
        self.out_grads = out_grads
        root.backward()
        self.out_grads = None
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


class _InProcess:
    """Shard B in the calling process, on a block of its own: each message
    is handled as it is sent, and its reply kept for :meth:`recv`."""

    def __init__(self, config, layout):
        self.key = (config, layout)
        self.latest = 0   # the step of the latest sharded forward
        self.shard = _Shard(config, layout, np.empty(2 * _slots(layout)[1]))
        self.replies = []

    def put_params(self, params):
        for view, p in zip(self.shard.params, params):
            view[...] = p.data

    def grads(self, has) -> list:
        return [g if h else None for g, h in zip(self.shard.grads, has)]

    def send(self, message):
        self.replies.append(self.shard.handle(message))

    def recv(self):
        return self.replies.pop(0)

    def close(self):
        return None


class _Worker:
    """Shard B in a forked worker process, behind a pipe, on a block of
    shared memory: a memfd that the worker maps and the caller writes and
    reads with ``pwrite``/``pread``, so that the block is not in the
    caller's resident set."""

    def __init__(self, config, layout):
        from multiprocessing import Pipe
        self.key = (config, layout)
        self.latest = 0   # the step of the latest sharded forward
        self.shapes = [shape for _, shape in layout]
        self.offsets, half = _slots(layout)
        self.half = 8 * half
        self.fd = os.memfd_create("mapnav-shard-block")
        os.ftruncate(self.fd, 2 * self.half)
        self.conn, theirs = Pipe()
        try:
            self.pid = os.fork()
        except OSError as e:
            for end in (self.conn, theirs):
                end.close()
            os.close(self.fd)
            raise WorkerError(f"could not fork the shard worker: {e}") from e
        if self.pid == 0:
            code = 1
            try:
                self.conn.close()
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                block = np.frombuffer(mmap.mmap(self.fd, 2 * self.half), dtype=np.float64)
                _serve(theirs, _Shard(config, layout, block))
                code = 0
            finally:
                os._exit(code)
        theirs.close()

    def put_params(self, params):
        for p, offset in zip(params, self.offsets):
            data = np.ascontiguousarray(p.data)
            if os.pwrite(self.fd, data, 8 * offset) != data.nbytes:
                raise WorkerError("a short write to the shard block")

    def grads(self, has) -> list:
        out = []
        for shape, offset, h in zip(self.shapes, self.offsets, has):
            g = np.empty(shape) if h else None
            if h and os.preadv(self.fd, [g], self.half + 8 * offset) != g.nbytes:
                raise WorkerError("a short read from the shard block")
            out.append(g)
        return out

    def send(self, message):
        self.conn.send(message)

    def recv(self):
        return self.conn.recv()

    def close(self):
        """Close the pipe, so that the worker exits, and reap it; its exit
        status, or None if it was reaped elsewhere or closed before."""
        if self.fd < 0:
            return None
        self.conn.close()
        os.close(self.fd)
        self.fd = -1
        deadline = time.monotonic() + REAP_TIMEOUT_S
        try:
            while True:
                pid, status = os.waitpid(self.pid, os.WNOHANG)
                if pid:
                    return os.waitstatus_to_exitcode(status)
                if time.monotonic() > deadline:
                    os.kill(self.pid, signal.SIGKILL)
                    return os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
                time.sleep(0.005)
        except ChildProcessError:
            return None


def _serve(conn, shard: _Shard):
    """The worker's loop: one reply per message, until EOF."""
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        conn.send(shard.handle(message))


# ----------------------------------------------------------------------
# the caller's end

_SIDE = None   # shard B's side: an _InProcess or a _Worker


def _side_for(model: CM2Model):
    """Shard B's side for ``model``'s config and parameter layout, built on
    first use and again when they or the path change."""
    global _SIDE
    key = (model.config, tuple((name, p.shape) for name, p in model.params.items()))
    local = usable_cpus() < 2 or not _can_fork()
    if _SIDE is None or _SIDE.key != key or isinstance(_SIDE, _InProcess) != local:
        close()
        _SIDE = (_InProcess if local else _Worker)(*key)
    return _SIDE


def _can_fork() -> bool:
    import multiprocessing
    return (hasattr(os, "fork") and hasattr(os, "memfd_create")
            and not multiprocessing.current_process().daemon)


def _request(side, message):
    try:
        side.send(message)
    except OSError:
        _died(side)


def _reply(side, step: int):
    """The result of the reply to ``step``; older replies are dropped. An
    error that the message raised is raised here."""
    while True:
        try:
            got, result, error = side.recv()
        except (EOFError, OSError):
            _died(side)
        if got == step:
            break
    if error is not None:
        raise error
    return result


def _died(side):
    global _SIDE
    if _SIDE is side:
        _SIDE = None
    status = side.close()
    raise WorkerError(f"the shard worker (pid {side.pid}) died with exit status {status}"
                      + (f" (signal {-status})" if status is not None and status < 0 else ""))


def close():
    """Stop shard B's worker, if there is one; the next sharded step starts
    another."""
    global _SIDE
    side, _SIDE = _SIDE, None
    if side is not None:
        side.close()


def _forget():
    """In a forked child: the parent's worker is not the child's to use."""
    global _SIDE
    if isinstance(_SIDE, _Worker):
        _SIDE.conn.close()
        os.close(_SIDE.fd)
    _SIDE = None


os.register_at_fork(after_in_child=_forget)
atexit.register(close)
