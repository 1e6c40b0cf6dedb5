"""Differentiable operations on :class:`~mapnav.numerics.tensor.Tensor`.

Every op returns a new tensor and registers a backward closure that
accumulates gradients into its inputs. Shapes follow numpy broadcasting for
elementwise ops; structured ops (matmul, conv2d, ...) validate shapes
explicitly and raise :class:`ShapeError` / :class:`ConfigError`.
"""
from __future__ import annotations

import numpy as np

from ..errors import ConfigError, NumericError, ShapeError, UsageError
from .tensor import Tensor, accumulate, make_op, unbroadcast

_EPS = 1e-12


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def factory(out):
        def bw():
            accumulate(a, unbroadcast(out.grad, a.shape))
            accumulate(b, unbroadcast(out.grad, b.shape))

        return bw

    return make_op(data, (a, b), factory)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def factory(out):
        def bw():
            accumulate(a, unbroadcast(out.grad, a.shape))
            accumulate(b, unbroadcast(-out.grad, b.shape))

        return bw

    return make_op(data, (a, b), factory)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def factory(out):
        def bw():
            accumulate(a, unbroadcast(out.grad * b.data, a.shape))
            accumulate(b, unbroadcast(out.grad * a.data, b.shape))

        return bw

    return make_op(data, (a, b), factory)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    data = a.data * c

    def factory(out):
        def bw():
            accumulate(a, out.grad * c)

        return bw

    return make_op(data, (a,), factory)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def factory(out):
        def bw():
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            accumulate(a, np.broadcast_to(g, a.shape).copy())

        return bw

    return make_op(data, (a,), factory)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.size
    elif isinstance(axis, int):
        count = a.shape[axis]
    else:
        count = int(np.prod([a.shape[ax] for ax in axis]))
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def factory(out):
        def bw():
            accumulate(a, out.grad.reshape(a.shape))

        return bw

    return make_op(data, (a,), factory)


def transpose(a: Tensor, axes=None) -> Tensor:
    data = a.data.transpose(axes)
    inv = None if axes is None else np.argsort(axes)

    def factory(out):
        def bw():
            accumulate(a, out.grad.transpose(inv))

        return bw

    return make_op(data, (a,), factory)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def factory(out):
        def bw():
            offset = 0
            for t, s in zip(tensors, sizes):
                sl = [slice(None)] * out.grad.ndim
                sl[axis] = slice(offset, offset + s)
                accumulate(t, out.grad[tuple(sl)])
                offset += s

        return bw

    return make_op(data, tuple(tensors), factory)


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    data = np.stack([t.data for t in tensors], axis=axis)

    def factory(out):
        def bw():
            for i, t in enumerate(tensors):
                accumulate(t, np.take(out.grad, i, axis=axis))

        return bw

    return make_op(data, tuple(tensors), factory)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product over the last two axes; leading axes broadcast as in numpy."""
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError as e:  # leading axes that do not broadcast
        raise ShapeError(f"matmul: leading axes of {a.shape} and {b.shape} differ") from e

    def factory(out):
        def bw():
            _matmul_grads(a, b, out.grad)

        return bw

    return make_op(data, (a, b), factory)


def _matmul_grads(a: Tensor, b: Tensor, g: np.ndarray):
    """Accumulate the gradients of ``a @ b`` given its output gradient ``g``.
    For a 2-D ``b`` the gradient of ``b`` is one GEMM over the rows of ``a``
    and ``g`` flattened across their leading axes."""
    accumulate(a, unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
    if b.ndim == 2:
        gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    else:
        gb = unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
    accumulate(b, gb)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None, *,
           slope: float | None = None) -> Tensor:
    """``x @ w + b`` for a 2-D ``w``, with ``b`` broadcast over rows, then a
    LeakyReLU of ``slope`` in [0, 1] (none for None; 0 is a ReLU), as one op:
    the bias and the activation are applied to the product in place, so the
    tape keeps no pre-bias or pre-activation copy; backward reads the
    activation's derivative off the output."""
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: incompatible shapes {x.shape} and {w.shape}")
    _check_slope("linear", slope)
    data = x.data @ w.data
    if b is not None:
        data += b.data
    _leaky_relu_(data, slope)

    def factory(out):
        def bw():
            g = _pre_activation_grad(out, slope)
            _matmul_grads(x, w, g)
            if b is not None:
                accumulate(b, unbroadcast(g, b.shape))

        return bw

    return make_op(data, (x, w) if b is None else (x, w, b), factory)


# ---------------------------------------------------------------------------
# activations


def sigmoid(a: Tensor) -> Tensor:
    s = np.empty_like(a.data)
    pos = a.data >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    ez = np.exp(a.data[~pos])
    s[~pos] = ez / (1.0 + ez)

    def factory(out):
        def bw():
            accumulate(a, out.grad * s * (1.0 - s))

        return bw

    return make_op(s, (a,), factory)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    if np.isnan(a.data).any():
        raise NumericError("softmax: NaN in input")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def factory(out):
        def bw():
            g = out.grad
            dot = (g * y).sum(axis=axis, keepdims=True)
            accumulate(a, y * (g - dot))

        return bw

    return make_op(y, (a,), factory)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply elementwise gain and bias."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must have shape ({d},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = gain.data * xhat + bias.data

    def factory(out):
        def bw():
            g = out.grad
            gxh = g * gain.data
            accumulate(
                x,
                inv
                * (
                    gxh
                    - gxh.mean(axis=-1, keepdims=True)
                    - xhat * (gxh * xhat).mean(axis=-1, keepdims=True)
                ),
            )
            lead = tuple(range(x.ndim - 1))
            accumulate(gain, (g * xhat).sum(axis=lead))
            accumulate(bias, g.sum(axis=lead))

        return bw

    return make_op(data, (x, gain, bias), factory)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise UsageError(
            f"embedding_lookup: token id out of range [0, {table.shape[0]})"
        )
    data = table.data[ids]

    def factory(out):
        def bw():
            g = np.zeros_like(table.data)
            np.add.at(g, ids, out.grad)
            accumulate(table, g)

        return bw

    return make_op(data, (table,), factory)


# ---------------------------------------------------------------------------
# convolution and resampling


def _row_stacks(src: np.ndarray, kw: int, span: int):
    """Per image of ``src`` (B, C, L), the (kw*C, span) stack whose rows
    ``j*C .. (j+1)*C`` hold ``src[b, :, j : j + span]``. One buffer is reused:
    a stack is valid until the next one is yielded. For ``kw == 1`` the stack
    is a view of the image itself."""
    if kw == 1:
        yield from (img[:, :span] for img in src)
        return
    c = src.shape[1]
    stack = np.empty((kw * c, span))
    for img in src:
        for j in range(kw):
            stack[j * c : (j + 1) * c] = img[:, j : j + span]
        yield stack


def _correlate_rows(src: np.ndarray, w_rows: np.ndarray, wp: int, n: int) -> np.ndarray:
    """(B, co, n) correlation of the flat images ``src`` (B, C, L), on a grid
    of row width ``wp``, with ``w_rows`` (kh, co, kw*C): ``w_rows[i, o, j*C +
    c]`` weighs ``src[b, c, p + i*wp + j]`` into column ``p``. Per image,
    kernel row ``i`` is one GEMM with the row stack's columns from ``i*wp``.
    Needs ``L >= n + (kh-1)*wp + kw-1``."""
    kh, co, _ = w_rows.shape
    out = np.empty((src.shape[0], co, n))
    tmp = np.empty((co, n))
    for stack, o in zip(_row_stacks(src, w_rows.shape[2] // src.shape[1], n + (kh - 1) * wp),
                        out):
        np.matmul(w_rows[0], stack[:, :n], out=o)
        for i in range(1, kh):
            o += np.matmul(w_rows[i], stack[:, i * wp : i * wp + n], out=tmp)
    return out


def _kernel_grad_rows(src: np.ndarray, g: np.ndarray, kh: int, kw: int, wp: int) -> np.ndarray:
    """(kh, co, kw*C) gradient of the ``w_rows`` of ``_correlate_rows(src,
    w_rows, wp, n)``, given its (B, co, n) output gradient ``g``: per image,
    one GEMM per kernel row with the row stack of ``src``. ``g`` must be zero
    in the wrap-around columns."""
    n = g.shape[2]
    gw = np.zeros((kh, g.shape[1], kw * src.shape[1]))
    tmp = np.empty(gw.shape[1:])
    for stack, gf in zip(_row_stacks(src, kw, n + (kh - 1) * wp), g):
        for i in range(kh):
            gw[i] += np.matmul(gf, stack[:, i * wp : i * wp + n].T, out=tmp)
    return gw


def _pad_rows(parts, padding: int, tail: int) -> np.ndarray:
    """(B, C, hp*wp + tail) copy of the (B, C_k, H, W) arrays ``parts``
    joined along channels, zero-padded by ``padding`` on every side and
    row-flattened, then ``tail`` more zeros."""
    bsz, _, h, w = parts[0].shape
    c = sum(p.shape[1] for p in parts)
    hp, wp = h + 2 * padding, w + 2 * padding
    xp = np.zeros((bsz, c, hp * wp + tail))
    inner = xp[:, :, : hp * wp].reshape(bsz, c, hp, wp)[
        :, :, padding : padding + h, padding : padding + w]
    lo = 0
    for p in parts:
        inner[:, lo : lo + p.shape[1]] = p
        lo += p.shape[1]
    return xp


def _check_slope(op: str, slope: float | None):
    if slope is not None and not 0.0 <= slope <= 1.0:
        raise ConfigError(f"{op}: slope {slope} not in [0, 1]")


def _leaky_relu_(data: np.ndarray, slope: float | None):
    """LeakyReLU of ``slope`` applied to ``data`` in place; none for None."""
    if slope is not None:
        np.maximum(data, slope * data, out=data)


def _pre_activation_grad(out: Tensor, slope: float | None) -> np.ndarray:
    """Gradient at the pre-activation of an op output ``out`` made by
    :func:`_leaky_relu_`. For a slope in [0, 1] the output is positive exactly
    where the pre-activation is, so the derivative is read off the output."""
    if slope is None:
        return out.grad
    return out.grad * np.where(out.data > 0, 1.0, slope)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, padding: int = 0, *,
           slope: float | None = None, cat: Tensor | None = None, pool: int = 1) -> Tensor:
    """Stride-1 cross-correlation of (C,H,W) or (B,C,H,W), one image at a time,
    plus the bias, then a LeakyReLU of ``slope`` in [0, 1] (none for None)
    applied in place, then the ``pool`` x ``pool`` block means of that
    activation: the result is ``avg_pool2d`` of the unpooled output, byte for
    byte, and the unpooled output is not kept. A second input ``cat``, of
    ``x``'s shape but for its channel count, is joined after ``x``'s
    channels: the result is the conv of ``concat([x, cat], axis=-3)``, which
    is never built.

    Per image, the kw column shifts of the zero-padded, row-flattened input
    ``xp`` (B, ci, hp*wp + kw-1), into which ``x`` and ``cat`` are copied,
    are stacked into one (kw*ci, hp*wp) buffer; each kernel row is then one
    GEMM of inner dimension kw*ci with that stack. Output column ``r*wp + c``
    is pixel (r, c) for ``c < wo``; the wrap-around columns ``c >= wo`` are
    dropped.

    Backward: the output gradient, spread over each pooling block, is
    multiplied by the LeakyReLU's derivative, read off the output or, when
    pooled, off the pre-activation's sign. The input gradient is then the same
    correlation, of that gradient zero-padded by (kh-1-padding, kw-1-padding)
    on a grid of row width ``wp``, with the flipped kernel transposed to
    (ci, co), over the channels of the inputs that require a gradient only.
    The kernel gradient is one GEMM per image and kernel row with the row
    stack of ``xp``, rebuilt from ``x`` and ``cat``. The tape holds the
    inputs, parents already, and the output: no padded or joined copy or
    pre-activation. A pooled conv with a slope also keeps that sign, one bool
    per unpooled element, made only when a backward is recorded."""
    parts = (x,) if cat is None else (x, cat)
    lead = (1,) if x.ndim == 3 else ()
    arrays = [p.data.reshape(lead + p.shape) for p in parts]
    if arrays[0].ndim != 4:
        raise ShapeError(f"conv2d: expected (C,H,W) or (B,C,H,W), got {x.shape}")
    if cat is not None and (cat.ndim != x.ndim or cat.shape[:-3] + cat.shape[-2:]
                            != x.shape[:-3] + x.shape[-2:]):
        raise ShapeError(f"conv2d: cat {cat.shape} does not match the input {x.shape} "
                         f"but for its channels")
    if w.ndim != 4:
        raise ShapeError(f"conv2d: kernels must be 4D, got {w.shape}")
    co, ci, kh, kw = w.shape
    bsz, _, h, ww = arrays[0].shape
    bounds = np.cumsum([0] + [a.shape[1] for a in arrays])  # the channels of parts[k]
    if ci != bounds[-1]:
        raise ShapeError(f"conv2d: input channels {bounds[-1]} != kernel channels {ci}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ConfigError(f"conv2d: kernel dims must be odd, got {kh}x{kw}")
    if not 0 <= padding < min(kh, kw):
        raise ConfigError(f"conv2d: padding {padding} not in [0, {min(kh, kw)}) "
                          f"for kernel {kh}x{kw}")
    _check_slope("conv2d", slope)
    hp, wp = h + 2 * padding, ww + 2 * padding
    ho, wo = hp - kh + 1, wp - kw + 1
    if ho < 1 or wo < 1:
        raise ConfigError(f"conv2d: kernel {kh}x{kw} larger than input {h}x{ww} "
                          f"padded by {padding}")
    _check_pool("conv2d", ho, wo, pool)

    n = ho * wp
    w_rows = w.data.transpose(2, 0, 3, 1).reshape(kh, co, kw * ci)  # [i, o, j*ci + c]
    acc = _correlate_rows(_pad_rows(arrays, padding, kw - 1), w_rows, wp, n)
    bias = 0.0 if b is None else b.data.reshape(1, co, 1, 1)
    act = acc.reshape(bsz, co, ho, wp)[:, :, :, :wo] + bias  # a contiguous copy
    _leaky_relu_(act, slope)
    out_data = act if pool == 1 else _block_means(act, pool)
    if x.ndim == 3:
        out_data = out_data[0]

    parents = parts + ((w,) if b is None else (w, b))

    def factory(out):
        # the tape keeps the pooled output, so the unpooled pre-activation's
        # sign is kept for the LeakyReLU's derivative
        pos = act > 0 if pool > 1 and slope is not None else None

        def bw():
            if pool == 1:
                g4 = _pre_activation_grad(out, slope).reshape(bsz, co, ho, wo)
            else:
                g4 = _spread(out.grad.reshape(bsz, co, ho // pool, wo // pool), pool)
                if pos is not None:
                    g4 *= np.where(pos, 1.0, slope)
            if b is not None:
                accumulate(b, g4.sum(axis=(0, 2, 3)))
            # gpad from offset ``top`` is also the flat (B, co, n) output
            # gradient, zero in the wrap-around columns, that gw needs
            ph, pw = kh - 1 - padding, kw - 1 - padding
            gpad = np.zeros((bsz, co, (h + kh - 1) * wp + kw - 1))
            gpad[:, :, : (h + kh - 1) * wp].reshape(bsz, co, h + kh - 1, wp)[
                :, :, ph : ph + ho, pw : pw + wo] = g4
            if w.requires_grad:
                top = ph * wp + pw
                xp = _pad_rows([p.data.reshape((bsz, -1, h, ww)) for p in parts],
                               padding, kw - 1)
                gw = _kernel_grad_rows(xp, gpad[:, :, top : top + n], kh, kw, wp)
                del xp  # before the input gradient's buffers
                accumulate(w, gw.reshape(kh, co, kw, ci).transpose(1, 3, 0, 2))
            want = [k for k, p in enumerate(parts) if p.requires_grad]
            if want:
                # the channels from the first to the last input that wants a gradient
                lo, hi = bounds[want[0]], bounds[want[-1] + 1]
                w_flip = w.data[:, lo:hi, ::-1, ::-1].transpose(2, 1, 3, 0).reshape(
                    kh, hi - lo, kw * co)
                gx = _correlate_rows(gpad, w_flip, wp, h * wp).reshape(bsz, hi - lo, h, wp)
                for k in want:
                    accumulate(parts[k], gx[:, bounds[k] - lo : bounds[k + 1] - lo, :, :ww]
                               .reshape(parts[k].shape))

        return bw

    return make_op(out_data, parents, factory)


def _tap_map() -> np.ndarray:
    """(9, 16) 0/1 map from a 3x3 tap (u, v) of :func:`upconv2d`'s kernel to
    its folded 2x2 taps (a, i, e, j). Upsampled row ``2r + a + u - 1`` is
    low-res row ``r + (a + u - 1) // 2``, i.e. padded row ``r + a + i`` with
    ``i = (a + u + 1) // 2 - a`` in {0, 1}; columns (e, v, j) likewise."""
    t = np.zeros((3, 3, 2, 2, 2, 2))
    for u, v, a, e in np.ndindex(3, 3, 2, 2):
        t[u, v, a, (a + u + 1) // 2 - a, e, (e + v + 1) // 2 - e] = 1.0
    return t.reshape(9, 16)


_TAPS = _tap_map()


def upconv2d(x: Tensor, w: Tensor, b: Tensor | None = None, *,
             slope: float | None = None) -> Tensor:
    """``conv2d`` of the nearest-neighbour 2x upsample of (B,C,H,W) ``x``
    with a 3x3 kernel, padding 1 and ``slope``, computed on the low-res grid
    as a sub-pixel convolution; the upsampled tensor is never built.

    Output pixel (2r+a, 2s+e) is the 2x2 correlation, at (r+a, s+e), of the
    zero-padded low-res input ``xp`` with the folded kernel of phase (a, e),
    whose taps are sums of ``w``'s taps (``w @ _TAPS``). All four phases are
    one :func:`_correlate_rows` call with 4*co output channels over the
    (H+1, W+1) grid; phase (a, e) reads it from row a, column e.

    Backward: the output gradient, times the LeakyReLU's derivative read off
    the output, of phase (a, e) is placed on that grid at row a, column e.
    The input gradient is its correlation with the flipped folded kernel;
    the kernel gradient is :func:`_kernel_grad_rows` of it with ``xp``,
    rebuilt from ``x``, folded back through ``_TAPS.T``. The tape holds the
    input, a parent already, the folded kernel and the output: no padded
    copy, pre-activation or mask."""
    if x.ndim != 4:
        raise ShapeError(f"upconv2d: expected (B,C,H,W), got {x.shape}")
    if w.ndim != 4:
        raise ShapeError(f"upconv2d: kernels must be 4D, got {w.shape}")
    co, ci, kh, kw = w.shape
    bsz, cin, h, ww = x.shape
    if ci != cin:
        raise ShapeError(f"upconv2d: input channels {cin} != kernel channels {ci}")
    if (kh, kw) != (3, 3):
        raise ConfigError(f"upconv2d: kernel must be 3x3, got {kh}x{kw}")
    _check_slope("upconv2d", slope)

    wp = ww + 2
    n = (h + 1) * wp
    folded = (w.data.reshape(co * ci, 9) @ _TAPS).reshape(co, ci, 2, 2, 2, 2)  # [o, c, a, i, e, j]
    w_rows = folded.transpose(3, 2, 4, 0, 5, 1).reshape(2, 4 * co, 2 * ci)  # [i, (a,e,o), j*ci + c]
    grid = _correlate_rows(_pad_rows([x.data], 1, 1), w_rows, wp, n).reshape(
        bsz, 2, 2, co, h + 1, wp)
    bias = 0.0 if b is None else b.data.reshape(1, co, 1, 1)
    out6 = np.empty((bsz, co, h, 2, ww, 2))
    for a in range(2):
        for e in range(2):
            np.add(grid[:, a, e, :, a : a + h, e : e + ww], bias, out=out6[:, :, :, a, :, e])
    out_data = out6.reshape(bsz, co, 2 * h, 2 * ww)
    _leaky_relu_(out_data, slope)

    parents = (x, w) if b is None else (x, w, b)

    def factory(out):
        def bw():
            g = _pre_activation_grad(out, slope)
            g6 = g.reshape(bsz, co, h, 2, ww, 2)
            if b is not None:
                accumulate(b, g.sum(axis=(0, 2, 3)))
            gflat = np.zeros((bsz, 2, 2, co, n + 1))
            ggrid = gflat[..., :n].reshape(bsz, 2, 2, co, h + 1, wp)
            for a in range(2):
                for e in range(2):
                    ggrid[:, a, e, :, a : a + h, e : e + ww] = g6[:, :, :, a, :, e]
            gflat = gflat.reshape(bsz, 4 * co, n + 1)
            if w.requires_grad:
                xp = _pad_rows([x.data], 1, 1)
                gw = _kernel_grad_rows(xp, gflat[:, :, :n], 2, 2, wp)  # [i, (a,e,o), j*ci + c]
                del xp  # before the input gradient's buffers
                gfold = gw.reshape(2, 2, 2, co, 2, ci).transpose(3, 5, 1, 0, 2, 4)
                accumulate(w, (gfold.reshape(co * ci, 16) @ _TAPS.T).reshape(co, ci, 3, 3))
            if x.requires_grad:
                # w_flip[i', c, j'*4co + (a,e,o)] = folded[o, c, a, 1-i', e, 1-j']
                w_flip = folded[:, :, :, ::-1, :, ::-1].transpose(3, 1, 5, 2, 4, 0).reshape(
                    2, ci, 8 * co)
                gx = _correlate_rows(gflat, w_flip, wp, h * wp)
                accumulate(x, gx.reshape(bsz, ci, h, wp)[..., :ww])

        return bw

    return make_op(out_data, parents, factory)


def _check_pool(op: str, h: int, w: int, factor: int):
    if factor < 1 or h % factor or w % factor:
        raise ConfigError(f"{op}: {h}x{w} not divisible by pool factor {factor}")


def _pool_phases(factor: int) -> list:
    """Index expressions of the ``factor**2`` phases of the last two axes:
    phase (a, c) holds element (a, c) of every ``factor`` x ``factor`` block."""
    return [np.s_[..., a::factor, c::factor] for a in range(factor) for c in range(factor)]


def _block_means(data: np.ndarray, factor: int) -> np.ndarray:
    """Means of the ``factor`` x ``factor`` blocks of the last two axes,
    summed phase by phase in row-major order."""
    return sum(data[p] for p in _pool_phases(factor)) / (factor * factor)


def _spread(g: np.ndarray, factor: int) -> np.ndarray:
    """Gradient at the input of :func:`_block_means` of its output gradient
    ``g``: each block's gradient over ``factor**2``, at every cell of it."""
    g = g / (factor * factor)
    gx = np.empty(g.shape[:-2] + (g.shape[-2] * factor, g.shape[-1] * factor))
    for p in _pool_phases(factor):
        gx[p] = g
    return gx


def avg_pool2d(x: Tensor, factor: int) -> Tensor:
    if factor == 1:
        return x
    _check_pool("avg_pool2d", x.shape[-2], x.shape[-1], factor)

    def factory(out):
        def bw():
            accumulate(x, _spread(out.grad, factor))

        return bw

    return make_op(_block_means(x.data, factor), (x,), factory)


def _interp_matrix(n_in: int, n_out: int) -> np.ndarray:
    """(n_out, n_in) align-corners linear interpolation weights."""
    src = np.linspace(0.0, n_in - 1.0, n_out) if n_out > 1 else np.zeros(1)
    i0 = np.clip(np.floor(src).astype(np.int64), 0, max(n_in - 2, 0))
    i1 = np.minimum(i0 + 1, n_in - 1)
    m = np.zeros((n_out, n_in))
    rows = np.arange(n_out)
    m[rows, i0] += 1.0 - (src - i0)
    m[rows, i1] += src - i0
    return m


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear resampling of the last two axes (align-corners convention)."""
    rh = _interp_matrix(x.shape[-2], out_h)
    rw = _interp_matrix(x.shape[-1], out_w)
    data = rh @ x.data @ rw.T

    def factory(out):
        def bw():
            accumulate(x, rh.T @ out.grad @ rw)

        return bw

    return make_op(data, (x,), factory)


# ---------------------------------------------------------------------------
# losses


def binary_cross_entropy(pred: Tensor, target) -> Tensor:
    """Mean BCE of probabilities against {0,1} targets (targets constant)."""
    t = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=np.float64)
    if pred.shape != t.shape:
        raise ShapeError(f"binary_cross_entropy: shapes {pred.shape} vs {t.shape}")
    p = np.clip(pred.data, _EPS, 1.0 - _EPS)
    data = np.array((-(t * np.log(p) + (1 - t) * np.log(1 - p))).mean())

    def factory(out):
        def bw():
            accumulate(pred, out.grad * ((p - t) / (p * (1 - p))) / p.size)

        return bw

    return make_op(data, (pred,), factory)


def pixelwise_cross_entropy(pred: Tensor, target) -> Tensor:
    """Mean over pixels of -sum_c q*log(q_hat); channel axis is -3.

    ``pred`` holds per-cell probability simplices, ``target`` one-hot labels.
    The tape keeps the flat positions of the target's labels only; backward
    reads ``pred``, a parent, and is -1/q_hat there and -0.0 elsewhere, as
    ``-q/q_hat`` is for a one-hot ``q``.
    """
    t = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=np.float64)
    if pred.shape != t.shape:
        raise ShapeError(f"pixelwise_cross_entropy: shapes {pred.shape} vs {t.shape}")
    if pred.ndim < 3:
        raise ShapeError("pixelwise_cross_entropy expects (...,C,H,W)")
    n_pix = pred.size // pred.shape[-3]
    data = np.array(-(t * np.log(np.clip(pred.data, _EPS, None))).sum() / n_pix)

    def factory(out):
        labels = np.flatnonzero(t)

        def bw():
            q = np.full(pred.shape, -0.0)
            q.flat[labels] = -1.0 / np.maximum(pred.data.flat[labels], _EPS)
            accumulate(pred, out.grad * q / n_pix)

        return bw

    return make_op(data, (pred,), factory)


# ---------------------------------------------------------------------------
# initialization


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> Tensor:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def zeros_param(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def ones_param(shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)
