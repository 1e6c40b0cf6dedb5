"""Autodiff primitives: finite-difference gradient checks, value oracles,
optimizer behavior, and checkpoint serialization."""
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradcheck import grad_check
from mapnav import numerics as nm
from mapnav.errors import ConfigError, NumericError, ShapeError, UsageError
from mapnav.numerics import ops, tensor

TOL = 1e-4


def check(loss_fn, params, eps=1e-5):
    errs = grad_check(loss_fn, params, eps=eps, max_entries=6,
                      rng=np.random.default_rng(7))
    worst = max(errs.values())
    assert worst < TOL, f"worst relative error {worst:.3e}: {errs}"


def P(rng, *shape):
    return nm.Tensor(rng.normal(size=shape), requires_grad=True)


def held_by(fn):
    """``fn()`` and the bytes it leaves allocated: its result, with the tape
    that the result holds."""
    tracemalloc.start()
    try:
        out = fn()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held


# ----------------------------------------------------------------------
# elementwise / reduction gradients

def test_grad_add_sub_mul_scale(rng):
    a, b = P(rng, 4, 3), P(rng, 4, 3)
    c = nm.Tensor(rng.normal(size=(4, 3)))
    check(lambda: nm.tsum(nm.mul(nm.add(a, b), c)), {"a": a, "b": b})
    check(lambda: nm.tsum(nm.mul(nm.sub(a, b), c)), {"a": a, "b": b})
    check(lambda: nm.tsum(nm.scale(nm.mul(a, b), 2.5)), {"a": a, "b": b})


def test_grad_broadcasting(rng):
    a, b = P(rng, 4, 3), P(rng, 3)
    c = nm.Tensor(rng.normal(size=(4, 3)))
    check(lambda: nm.tsum(nm.mul(nm.add(a, b), c)), {"a": a, "b": b})


def test_grad_reductions(rng):
    a = P(rng, 3, 4, 5)
    c = nm.Tensor(rng.normal(size=(4,)))
    check(lambda: nm.tsum(nm.mul(nm.tmean(a, axis=(0, 2)), c)), {"a": a})
    check(lambda: nm.tsum(nm.mul(nm.tsum(a, axis=(0, 2)), c)), {"a": a})


def test_grad_shape_ops(rng):
    a = P(rng, 2, 3, 4)
    c = nm.Tensor(rng.normal(size=(4, 6)))
    check(lambda: nm.tsum(nm.mul(nm.reshape(nm.transpose(a, (2, 0, 1)), (4, 6)), c)),
          {"a": a})


def test_grad_concat_stack(rng):
    a, b = P(rng, 2, 3), P(rng, 2, 3)
    c = nm.Tensor(rng.normal(size=(4, 3)))
    c2 = nm.Tensor(rng.normal(size=(2, 2, 3)))
    check(lambda: nm.tsum(nm.mul(nm.concat([a, b], axis=0), c)), {"a": a, "b": b})
    check(lambda: nm.tsum(nm.mul(nm.stack([a, b], axis=0), c2)), {"a": a, "b": b})


def test_grad_matmul_linear(rng):
    x, w, b = P(rng, 5, 3), P(rng, 3, 4), P(rng, 4)
    c = nm.Tensor(rng.normal(size=(5, 4)))
    check(lambda: nm.tsum(nm.mul(nm.matmul(x, w), c)), {"x": x, "w": w})
    check(lambda: nm.tsum(nm.mul(nm.linear(x, w, b), c)), {"x": x, "w": w, "b": b})
    # leading axes: a batch against one matrix, batch against batch, and a
    # size-1 leading axis broadcast against a batch
    xb, w2, wb, x1 = P(rng, 2, 3, 4), P(rng, 4, 5), P(rng, 2, 4, 5), P(rng, 1, 3, 4)
    cb = nm.Tensor(rng.normal(size=(2, 3, 5)))
    check(lambda: nm.tsum(nm.mul(nm.matmul(xb, w2), cb)), {"x": xb, "w": w2})
    check(lambda: nm.tsum(nm.mul(nm.matmul(xb, wb), cb)), {"x": xb, "w": wb})
    check(lambda: nm.tsum(nm.mul(nm.matmul(x1, wb), cb)), {"x": x1, "w": wb})
    # linear on a (B,M,d) batch: its weight gradient sums over both leading axes
    bl = P(rng, 5)
    check(lambda: nm.tsum(nm.mul(nm.linear(xb, w2, bl), cb)), {"x": xb, "w": w2, "b": bl})


def test_linear_is_matmul_plus_bias(rng):
    """The fused ``linear`` gives ``add(matmul(x, w), b)`` byte for byte, and
    the same x and b grads; the weight grad, one GEMM over the flattened
    rows, agrees to rounding."""
    for xs, ws in (((5, 3), (3, 4)), ((2, 6, 3), (3, 4)), ((3, 1, 6, 5), (5, 2))):
        x, w, b = rng.normal(size=xs), rng.normal(size=ws), rng.normal(size=ws[1])
        g = nm.Tensor(rng.normal(size=xs[:-1] + ws[1:]))
        fused = [nm.Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
        out = nm.linear(*fused)
        nm.tsum(nm.mul(out, g)).backward()
        plain = [nm.Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
        ref = nm.add(nm.matmul(plain[0], plain[1]), plain[2])
        nm.tsum(nm.mul(ref, g)).backward()
        assert np.array_equal(out.data, ref.data), xs
        assert np.array_equal(fused[0].grad, plain[0].grad), xs
        assert np.array_equal(fused[2].grad, plain[2].grad), xs
        assert np.allclose(fused[1].grad, plain[1].grad, rtol=1e-13, atol=1e-13), xs
    with pytest.raises(ShapeError):
        nm.linear(P(rng, 4, 3), P(rng, 2, 3, 5))   # a batched weight
    with pytest.raises(ShapeError):
        nm.linear(P(rng, 4, 3), P(rng, 4, 5))


def test_linear_tape_holds_no_pre_bias_product(rng):
    x, w, b = P(rng, 8, 64, 128), P(rng, 128, 256), P(rng, 256)
    for slope in (None, 0.0):
        out, held = held_by(lambda: nm.linear(x, w, b, slope=slope))
        assert out.requires_grad
        # the output alone; a kept pre-bias product or pre-activation would
        # double it
        assert held <= 1.1 * out.data.nbytes, (slope, held / out.data.nbytes)


def test_matmul_shape_error(rng):
    with pytest.raises(ShapeError):
        nm.matmul(P(rng, 2, 3), P(rng, 4, 5))
    with pytest.raises(ShapeError):
        nm.matmul(P(rng, 2, 3, 4), P(rng, 2, 5, 4))  # inner dimensions 4 and 5
    with pytest.raises(ShapeError):
        nm.matmul(P(rng, 2, 3, 4), P(rng, 3, 4, 5))  # leading axes 2 and 3
    with pytest.raises(ShapeError):
        nm.matmul(P(rng, 4), P(rng, 4, 5))


def test_grad_activations(rng):
    # offset inputs away from the kink so finite differences are clean
    a = nm.Tensor(rng.normal(size=(4, 5)) + 0.3, requires_grad=True)
    c = nm.Tensor(rng.normal(size=(4, 5)))
    # ReLU and LeakyReLU are fused into linear and the convs: through an
    # identity weight, or a 1x1 kernel of one, the output is the activation
    # of the input
    eye = nm.Tensor(np.eye(5))
    check(lambda: nm.tsum(nm.mul(nm.linear(a, eye, slope=0.0), c)), {"a": a})
    one = nm.Tensor(np.ones((1, 1, 1, 1)))

    def leaky(slope=0.01):
        return nm.reshape(nm.conv2d(nm.reshape(a, (1, 4, 5)), one, slope=slope), (4, 5))

    check(lambda: nm.tsum(nm.mul(leaky(), c)), {"a": a})
    check(lambda: nm.tsum(nm.mul(nm.sigmoid(a), c)), {"a": a})
    for slope in (0.0, 0.01, 1.0):
        assert np.array_equal(leaky(slope).data, np.where(a.data > 0, a.data, slope * a.data))
    x4, w3 = P(rng, 1, 1, 2, 2), P(rng, 1, 1, 3, 3)
    for slope in (-0.1, 1.5):  # max(x, slope*x) is leaky ReLU only for slope in [0, 1]
        with pytest.raises(ConfigError):
            leaky(slope)
        with pytest.raises(ConfigError):
            nm.upconv2d(x4, w3, slope=slope)
        with pytest.raises(ConfigError):
            nm.linear(a, eye, slope=slope)


def test_grad_softmax_layernorm(rng):
    a = P(rng, 4, 5)
    g, b = P(rng, 5), P(rng, 5)
    c = nm.Tensor(rng.normal(size=(4, 5)))
    check(lambda: nm.tsum(nm.mul(nm.softmax(a, axis=-1), c)), {"a": a})
    check(lambda: nm.tsum(nm.mul(nm.layer_norm(a, g, b), c)), {"a": a, "g": g, "b": b})


def test_grad_embedding(rng):
    table = P(rng, 7, 4)
    ids = np.array([1, 3, 3, 0])
    c = nm.Tensor(rng.normal(size=(4, 4)))
    check(lambda: nm.tsum(nm.mul(nm.embedding_lookup(table, ids), c)), {"t": table})


def test_embedding_bad_ids(rng):
    with pytest.raises(UsageError):
        nm.embedding_lookup(P(rng, 4, 2), np.array([0, 4]))


def test_grad_conv_ops(rng):
    x = P(rng, 2, 3, 6, 6)
    w = P(rng, 4, 3, 3, 3)
    b = P(rng, 4)
    c = nm.Tensor(rng.normal(size=(2, 4, 6, 6)))
    check(lambda: nm.tsum(nm.mul(nm.conv2d(x, w, b, padding=1), c)),
          {"x": x, "w": w, "b": b})
    c2 = nm.Tensor(rng.normal(size=(2, 4, 12, 12)))
    # the UNet's upsampling decoder step
    check(lambda: nm.tsum(nm.mul(nm.upconv2d(x, w, b), c2)), {"x": x, "w": w, "b": b})
    c3 = nm.Tensor(rng.normal(size=(2, 3, 3, 3)))
    check(lambda: nm.tsum(nm.mul(nm.avg_pool2d(x, 2), c3)), {"x": x})
    c4 = nm.Tensor(rng.normal(size=(2, 3, 9, 9)))
    check(lambda: nm.tsum(nm.mul(nm.bilinear_resize(x, 9, 9), c4)), {"x": x})
    c6 = nm.Tensor(rng.normal(size=(2, 3, 4, 5)))
    check(lambda: nm.tsum(nm.mul(nm.bilinear_resize(x, 4, 5), c6)), {"x": x})
    # fewer output than input channels
    xw, ww, bw = P(rng, 2, 5, 6, 6), P(rng, 3, 5, 3, 3), P(rng, 3)
    for pad in (1, 0):
        c7 = nm.Tensor(rng.normal(size=(2, 3, 4 + 2 * pad, 4 + 2 * pad)))
        check(lambda: nm.tsum(nm.mul(nm.conv2d(xw, ww, bw, padding=pad), c7)),
              {"x": xw, "w": ww, "b": bw})
    w1, b1 = P(rng, 2, 3, 1, 1), P(rng, 2)
    c8 = nm.Tensor(rng.normal(size=(2, 2, 6, 6)))
    check(lambda: nm.tsum(nm.mul(nm.conv2d(x, w1, b1), c8)), {"x": x, "w": w1, "b": b1})
    # a data input: no grad for it, the kernel and bias grads still flow
    xd = nm.Tensor(rng.normal(size=(2, 3, 6, 6)))
    check(lambda: nm.tsum(nm.mul(nm.conv2d(xd, w, b, padding=1), c)), {"w": w, "b": b})
    assert xd.grad is None
    # non-square input and kernel: row and column strides of the flat buffer differ
    xn, wn, bn = P(rng, 2, 3, 5, 7), P(rng, 2, 3, 3, 5), P(rng, 2)
    c9 = nm.Tensor(rng.normal(size=(2, 2, 5, 5)))
    check(lambda: nm.tsum(nm.mul(nm.conv2d(xn, wn, bn, padding=1), c9)),
          {"x": xn, "w": wn, "b": bn})
    # a second input joined after x's channels, with and without the slope
    xs, ws = P(rng, 2, 2, 6, 6), P(rng, 4, 5, 3, 3)
    for slope in (None, 0.01):
        check(lambda: nm.tsum(nm.mul(nm.conv2d(xs, ws, b, padding=1, slope=slope, cat=x), c)),
              {"x": xs, "cat": x, "w": ws, "b": b})
    # the 2x2 average pool folded into the conv, with and without the slope
    c10 = nm.Tensor(rng.normal(size=(2, 4, 3, 3)))
    for slope in (None, 0.01):
        check(lambda: nm.tsum(nm.mul(nm.conv2d(x, w, b, padding=1, slope=slope, pool=2), c10)),
              {"x": x, "w": w, "b": b})


def test_conv_contract_errors(rng):
    x, w = P(rng, 3, 6, 6), P(rng, 4, 3, 2, 2)
    with pytest.raises(ConfigError):
        nm.conv2d(x, w)  # even kernel
    w9 = P(rng, 4, 3, 9, 9)
    with pytest.raises(ConfigError):
        nm.conv2d(x, w9, padding=1)  # 9x9 kernel on a 6x6 input padded to 8x8
    w3 = P(rng, 4, 3, 3, 3)
    for padding in (-1, 3):
        with pytest.raises(ConfigError):
            nm.conv2d(x, w3, padding=padding)  # outside [0, kernel size)
    with pytest.raises(ShapeError):
        nm.upconv2d(x, w3)  # a (C,H,W) input
    x4 = P(rng, 2, 3, 6, 6)
    with pytest.raises(ConfigError):
        nm.upconv2d(x4, P(rng, 4, 3, 1, 1))  # not 3x3
    with pytest.raises(ShapeError):
        nm.upconv2d(x4, P(rng, 4, 2, 3, 3))  # kernel channels differ from the input's
    for pool in (0, 4):   # a 6x6 output has no 0x0 or 4x4 blocks
        with pytest.raises(ConfigError):
            nm.conv2d(x4, w3, padding=1, pool=pool)
    with pytest.raises(ConfigError):
        nm.conv2d(P(rng, 2, 3, 7, 7), w3, padding=1, pool=2)   # a 7x7 output
    for cat in (P(rng, 2, 3, 6, 6),   # kernel channels differ from x's and cat's
                P(rng, 2, 1, 6, 5),   # another width
                P(rng, 3, 1, 6, 6),   # another batch
                P(rng, 1, 6, 6)):     # another rank
        with pytest.raises(ShapeError):
            nm.conv2d(x4, P(rng, 4, 4, 3, 3), padding=1, cat=cat)


def test_grad_losses(rng):
    pred = nm.Tensor(rng.uniform(0.05, 0.95, size=(3, 4)), requires_grad=True)
    target = rng.uniform(size=(3, 4))
    tgt01 = (target > 0.5).astype(float)
    check(lambda: nm.binary_cross_entropy(pred, tgt01), {"p": pred})
    logits = P(rng, 2, 3, 4, 4)
    onehot = np.eye(3)[rng.integers(0, 3, size=(2, 4, 4))].transpose(0, 3, 1, 2)
    check(lambda: nm.pixelwise_cross_entropy(nm.softmax(logits, axis=-3), onehot),
          {"l": logits})


# ----------------------------------------------------------------------
# value oracles

def _direct_conv(x, w, pad):
    """Per-pixel loop oracle for one (C,H,W) image."""
    co, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    ref = np.zeros((co, xp.shape[1] - kh + 1, xp.shape[2] - kw + 1))
    for o in range(co):
        for i in range(ref.shape[1]):
            for j in range(ref.shape[2]):
                ref[o, i, j] = np.sum(xp[:, i:i + kh, j:j + kw] * w[o])
    return ref


def test_conv2d_matches_direct_convolution(rng):
    cases = [((3, 5, 5), (2, 3, 3, 3), 1),
             ((3, 5, 5), (2, 3, 3, 3), 0),   # every row has wrap-around columns
             ((3, 5, 7), (2, 3, 3, 3), 1),   # non-square input
             ((3, 5, 7), (2, 3, 3, 5), 1),   # non-square kernel
             ((3, 6, 4), (4, 3, 1, 1), 0)]
    for xs, ws, pad in cases:
        x, w, b = rng.normal(size=xs), rng.normal(size=ws), rng.normal(size=ws[0])
        out = nm.conv2d(nm.Tensor(x), nm.Tensor(w), nm.Tensor(b), padding=pad).data
        assert np.allclose(out, _direct_conv(x, w, pad) + b[:, None, None], atol=1e-12)
    xb, wb = rng.normal(size=(3, 2, 5, 6)), rng.normal(size=(4, 2, 3, 3))
    out = nm.conv2d(nm.Tensor(xb), nm.Tensor(wb), padding=1).data
    assert out.shape == (3, 4, 5, 6)
    for k in range(3):
        assert np.allclose(out[k], _direct_conv(xb[k], wb, 1), atol=1e-12)


def _direct_conv_grads(x, w, pad, g):
    """Per-pixel loop oracle for the input, kernel and bias gradients of one
    (C,H,W) image, given the output gradient ``g``."""
    _, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for o in range(g.shape[0]):
        for i in range(g.shape[1]):
            for j in range(g.shape[2]):
                gw[o] += g[o, i, j] * xp[:, i:i + kh, j:j + kw]
                gxp[:, i:i + kh, j:j + kw] += g[o, i, j] * w[o]
    return gxp[:, pad:pad + x.shape[1], pad:pad + x.shape[2]], gw, g.sum(axis=(1, 2))


def test_conv2d_grads_match_direct_reference(rng):
    cases = [((3, 5, 6, 6), (3, 5, 3, 3), 1),   # B=3, fewer output than input channels
             ((2, 5, 6, 6), (3, 5, 3, 3), 0),   # padding 0
             ((2, 3, 5, 7), (4, 3, 3, 5), 1),   # ci = 3, a 3x5 kernel
             ((2, 2, 6, 5), (3, 2, 5, 3), 2),   # a 5x3 kernel padded by 2
             ((2, 3, 6, 4), (2, 3, 1, 1), 0),   # a 1x1 kernel
             ((3, 5, 7), (2, 3, 3, 3), 1)]      # a (C,H,W) input
    for xs, ws, pad in cases:
        x, w, b = P(rng, *xs), P(rng, *ws), P(rng, ws[0])
        out = nm.conv2d(x, w, b, padding=pad)
        g = rng.normal(size=out.shape)
        nm.tsum(nm.mul(out, nm.Tensor(g))).backward()
        images = zip(x.data, g) if x.ndim == 4 else [(x.data, g)]
        refs = [_direct_conv_grads(xi, w.data, pad, gi) for xi, gi in images]
        gx = np.stack([r[0] for r in refs]).reshape(x.shape)
        assert np.allclose(x.grad, gx, atol=1e-12, rtol=0), (xs, ws, pad)
        assert np.allclose(w.grad, sum(r[1] for r in refs), atol=1e-12, rtol=0), (xs, ws, pad)
        assert np.allclose(b.grad, sum(r[2] for r in refs), atol=1e-12, rtol=0), (xs, ws, pad)


def test_conv2d_second_input_equals_conv_of_the_concat(rng):
    """``conv2d(x, w, b, cat=y)`` gives ``conv2d(concat([x, y]), w, b)``: the
    output and the x, y, w and b grads byte for byte. An input that needs no
    gradient gets none. The other input's gradient is then a GEMM over its
    own kernel rows only, which may take another BLAS kernel for a
    different row count, so it agrees to rounding."""
    cases = [((2, 3, 5, 6), 2, (4, 5, 3, 3), 1),   # B=2
             ((1, 2, 6, 6), 3, (3, 5, 3, 3), 0),   # B=1, padding 0
             ((3, 4, 5, 5), 1, (2, 5, 1, 1), 0),   # a 1x1 kernel, one joined channel
             ((3, 5, 7), 2, (2, 5, 3, 3), 1)]      # (C,H,W) inputs
    for xs, cc, ws, pad in cases:
        ys = xs[:-3] + (cc,) + xs[-2:]
        x, y, w, b = (rng.normal(size=s) for s in (xs, ys, ws, ws[:1]))
        g = None
        for slope in (None, 0.01):
            for want in ((True, True), (True, False), (False, True)):
                two = [nm.Tensor(a.copy(), requires_grad=r)
                       for a, r in zip((x, y, w, b), want + (True, True))]
                out = nm.conv2d(two[0], two[2], two[3], padding=pad, slope=slope, cat=two[1])
                g = nm.Tensor(rng.normal(size=out.shape)) if g is None else g
                nm.tsum(nm.mul(out, g)).backward()
                one = [nm.Tensor(a.copy(), requires_grad=r)
                       for a, r in zip((x, y, w, b), want + (True, True))]
                ref = nm.conv2d(nm.concat(one[:2], axis=-3), one[2], one[3], padding=pad,
                                slope=slope)
                nm.tsum(nm.mul(ref, g)).backward()
                assert np.array_equal(out.data, ref.data), (xs, cc, ws, slope, want)
                for k, (t, r) in enumerate(zip(two, one)):
                    case = (xs, cc, ws, slope, want, k)
                    if r.grad is None:
                        assert t.grad is None, case
                    elif k < 2 and not all(want):
                        assert np.max(np.abs(t.grad - r.grad)) <= 1e-14 * np.max(np.abs(r.grad)), case
                    else:
                        assert np.array_equal(t.grad, r.grad), case


def test_conv2d_input_gradient_skips_an_input_without_grad(rng, monkeypatch):
    """The input gradient is one correlation whose output channels are those
    of the inputs that require a gradient, and only those."""
    from mapnav.numerics import ops, tensor
    rows = []
    correlate = ops._correlate_rows

    def recording(src, w_rows, wp, n):
        rows.append(w_rows.shape[1])
        return correlate(src, w_rows, wp, n)

    monkeypatch.setattr(ops, "_correlate_rows", recording)
    w = P(rng, 6, 7, 3, 3)
    for want, channels in (((True, False), 3), ((False, True), 4), ((True, True), 7)):
        x, y = (nm.Tensor(rng.normal(size=(2, c, 5, 5)), requires_grad=r)
                for c, r in zip((3, 4), want))
        rows.clear()
        nm.tsum(nm.conv2d(x, w, padding=1, cat=y)).backward()
        assert rows == [6, channels], want   # the forward, then the input gradient


def test_conv2d_tape_holds_no_joined_input(rng):
    x, y = P(rng, 4, 16, 32, 32), P(rng, 4, 16, 32, 32)
    w, b = P(rng, 16, 32, 3, 3), P(rng, 16)
    out, held = held_by(lambda: nm.conv2d(x, w, b, padding=1, slope=0.01, cat=y))
    assert out.requires_grad
    # the output alone; the joined input would add 2x, a padded copy of it 2.2x
    assert held <= out.data.nbytes + 0.25 * x.data.nbytes, held / x.data.nbytes


def test_conv2d_tape_holds_no_patch_matrix(rng):
    x = P(rng, 4, 16, 32, 32)
    w, b = P(rng, 16, 16, 3, 3), P(rng, 16)
    out, held = held_by(lambda: nm.conv2d(x, w, b, padding=1))
    assert out.requires_grad
    # the output alone, 1x; an im2col patch matrix alone would be 9x
    assert held <= 3 * x.data.nbytes, held / x.data.nbytes


def test_conv2d_tape_holds_input_and_output_only(rng):
    """With the LeakyReLU fused, the tape keeps no pre-activation, mask or
    zero-padded copy of the input: only the output beside the input."""
    x = P(rng, 4, 16, 32, 32)
    w, b = P(rng, 16, 16, 3, 3), P(rng, 16)
    out, held = held_by(lambda: nm.conv2d(x, w, b, padding=1, slope=0.01))
    assert out.requires_grad
    # a pre-activation would add 1x, a padded copy about 1.1x
    assert held <= out.data.nbytes + 0.25 * x.data.nbytes, held / x.data.nbytes


def test_pooled_conv2d_is_avg_pool_of_the_conv(rng):
    """``conv2d(..., pool=p)`` gives ``avg_pool2d(conv2d(...), p)`` byte for
    byte: the forward and the grads of x, cat, w and b."""
    cases = [((2, 3, 6, 6), None, (4, 3, 3, 3), 1, 2),
             ((2, 3, 6, 6), None, (4, 3, 3, 3), 0, 2),   # a 4x4 output
             ((2, 3, 6, 6), (2, 2, 6, 6), (4, 5, 3, 3), 1, 2),   # a second input
             ((3, 6, 8), None, (2, 3, 3, 3), 1, 2),   # a (C,H,W) input
             ((1, 2, 6, 9), None, (3, 2, 3, 3), 1, 3)]   # 3x3 blocks
    for xs, cs, ws, pad, pool in cases:
        arrays = [rng.normal(size=s) for s in (xs, ws, ws[:1])]
        cat = None if cs is None else rng.normal(size=cs)
        for slope in (None, 0.0, 0.01):
            runs = []
            for fused in (True, False):
                x, w, b = (nm.Tensor(a.copy(), requires_grad=True) for a in arrays)
                y = None if cat is None else nm.Tensor(cat.copy(), requires_grad=True)
                kw = {"padding": pad, "slope": slope, "cat": y}
                out = (nm.conv2d(x, w, b, pool=pool, **kw) if fused
                       else nm.avg_pool2d(nm.conv2d(x, w, b, **kw), pool))
                g = np.random.default_rng(1).normal(size=out.shape)
                nm.tsum(nm.mul(out, nm.Tensor(g))).backward()
                runs.append([out.data] + [t.grad for t in (x, w, b, y) if t is not None])
            for f, p in zip(*runs):
                assert f.tobytes() == p.tobytes(), (xs, cs, pad, pool, slope)


def test_pooled_conv2d_tape_holds_its_output_and_a_sign_mask(rng):
    """A pooled conv keeps its pooled output and, with a slope, one bool per
    unpooled element for the backward; under no_grad only the output."""
    x = P(rng, 4, 16, 32, 32)
    w, b = P(rng, 16, 16, 3, 3), P(rng, 16)
    unpooled = 4 * 16 * 32 * 32
    for slope, mask in ((0.01, unpooled), (None, 0)):
        out, held = held_by(lambda: nm.conv2d(x, w, b, padding=1, slope=slope, pool=2))
        assert out.requires_grad and out.shape == (4, 16, 16, 16)
        # the unpooled activation would add 8 bytes per unpooled element
        assert held <= out.data.nbytes + mask + 8192, (slope, held - out.data.nbytes)
        with nm.no_grad():
            out, held = held_by(lambda: nm.conv2d(x, w, b, padding=1, slope=slope, pool=2))
        assert not out.requires_grad
        assert held <= out.data.nbytes + 8192, (slope, held - out.data.nbytes)


def test_no_grad_pooled_conv2d_builds_no_sign_mask(rng, monkeypatch):
    """Under no_grad a pooled conv with a slope builds no sign mask, not even
    for a moment: when it hands its output to ``make_op`` it holds what the
    same conv without a slope holds, and its peak is the unpooled conv's
    (whose largest transient is the LeakyReLU's ``slope * data``)."""
    x = nm.Tensor(rng.normal(size=(4, 8, 32, 32)))
    w, b = nm.Tensor(rng.normal(size=(16, 8, 3, 3))), nm.Tensor(rng.normal(size=16))
    mask = 4 * 16 * 32 * 32    # one bool per unpooled element
    at_output = []

    def recording(*args):
        at_output.append(tracemalloc.get_traced_memory()[0])
        return make_op(*args)

    make_op = ops.make_op
    monkeypatch.setattr(ops, "make_op", recording)
    peaks = []
    with nm.no_grad():
        for slope, pool in ((0.01, 2), (None, 2), (0.01, 1)):
            tracemalloc.start()
            try:
                nm.conv2d(x, w, b, padding=1, slope=slope, pool=pool)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert at_output[0] - at_output[1] < mask / 2, at_output
    assert peaks[0] - peaks[2] < mask / 2, peaks


def test_linear_with_slope_zero_matches_a_relu_oracle(rng):
    """``linear(x, w, b, slope=0.0)`` is ``max(x @ w + b, 0)``; its grads are
    the linear grads of the output gradient masked where that is positive."""
    for xs, ws in (((5, 3), (3, 4)), ((2, 6, 3), (3, 4))):
        x, w, b = P(rng, *xs), P(rng, *ws), P(rng, ws[1])
        g = rng.normal(size=xs[:-1] + ws[1:])
        out = nm.linear(x, w, b, slope=0.0)
        nm.tsum(nm.mul(out, nm.Tensor(g))).backward()
        pre = x.data @ w.data + b.data
        assert np.array_equal(out.data, np.maximum(pre, 0.0)), xs
        gm = g * (pre > 0)
        assert np.allclose(x.grad, gm @ w.data.T, rtol=1e-13, atol=1e-13), xs
        assert np.allclose(w.grad, x.data.reshape(-1, xs[-1]).T @ gm.reshape(-1, ws[1]),
                           rtol=1e-13, atol=1e-13), xs
        assert np.allclose(b.grad, gm.reshape(-1, ws[1]).sum(axis=0),
                           rtol=1e-13, atol=1e-13), xs


def test_pixelwise_cross_entropy_gradient_is_minus_target_over_pred(rng):
    """The gradient read from the labels and ``pred`` is ``-t / clip(p)``
    times the output gradient over the pixel count, byte for byte, also where
    a probability is clipped and for a negative output gradient."""
    logits = rng.normal(size=(2, 5, 4, 6)) * 3
    logits[0, :, 0, 0] = [-900.0, 0.0, 1.0, 2.0, 3.0]   # class 0 underflows to 0
    t = np.eye(5)[rng.integers(0, 5, size=(2, 4, 6))].transpose(0, 3, 1, 2)
    t[0, :, 0, 0] = np.eye(5)[0]
    p = nm.softmax(nm.Tensor(logits), axis=-3).data
    assert p[0, 0, 0, 0] == 0.0
    for c in (1.0, -0.5, 3.0):
        pred = nm.Tensor(p.copy(), requires_grad=True)
        nm.scale(nm.pixelwise_cross_entropy(pred, t), c).backward()
        ref = np.array(c) * (-t / np.clip(p, 1e-12, None)) / (2 * 4 * 6)
        assert pred.grad.tobytes() == ref.tobytes(), c


def test_pixelwise_cross_entropy_tape_holds_no_copy_of_its_inputs(rng):
    pred = nm.Tensor(rng.uniform(0.01, 1.0, size=(8, 13, 48, 48)), requires_grad=True)
    labels = rng.integers(0, 13, size=(8, 48, 48))
    # the one-hot target is made inside, as in the map loss, so that a tape
    # that kept it would count it
    out, held = held_by(lambda: nm.pixelwise_cross_entropy(
        pred, np.eye(13)[labels].transpose(0, 3, 1, 2)))
    assert out.requires_grad
    # one label position (8 bytes) per pixel; a copy of pred or of the
    # target would add 8 bytes per element, 13 per pixel
    assert held <= 8 * 8 * 48 * 48 + 8192, held / pred.data.nbytes


def test_upconv2d_matches_direct_convolution_of_the_upsample(rng):
    """Forward and x, w, b grads against the per-pixel oracles, run on the
    nearest-neighbour 2x upsample built with ``np.repeat``."""
    cases = [((1, 3, 4, 4), 2),
             ((3, 2, 5, 7), 4),   # B=3, a non-square input
             ((2, 1, 3, 3), 1),   # ci = co = 1
             ((2, 3, 1, 1), 2),
             ((1, 2, 2, 3), 3)]
    for xs, co in cases:
        x, w, b = P(rng, *xs), P(rng, co, xs[1], 3, 3), P(rng, co)
        out = nm.upconv2d(x, w, b)
        g = rng.normal(size=out.shape)
        nm.tsum(nm.mul(out, nm.Tensor(g))).backward()
        up = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)
        ref = np.stack([_direct_conv(u, w.data, 1) for u in up]) + b.data[:, None, None]
        assert out.shape == (xs[0], co, 2 * xs[2], 2 * xs[3])
        assert np.allclose(out.data, ref, atol=1e-12, rtol=0), (xs, co)
        refs = [_direct_conv_grads(u, w.data, 1, gi) for u, gi in zip(up, g)]
        gx = np.stack([r[0] for r in refs])
        gx = gx.reshape(xs[:3] + (2, xs[3], 2)).sum(axis=(3, 5))  # each pixel feeds a 2x2 block
        assert np.allclose(x.grad, gx, atol=1e-12, rtol=0), (xs, co)
        assert np.allclose(w.grad, sum(r[1] for r in refs), atol=1e-12, rtol=0), (xs, co)
        assert np.allclose(b.grad, sum(r[2] for r in refs), atol=1e-12, rtol=0), (xs, co)


def test_fused_leaky_relu_equals_the_op_times_its_mask(rng):
    """``slope=s`` equals the unfused op times the constant mask
    ``where(y > 0, 1, s)`` of its output ``y``: forward and x, w, b grads,
    byte for byte."""
    conv = [((1, 3, 5, 6), (4, 3, 3, 3), 1),   # B=1
            ((3, 2, 5, 5), (3, 2, 3, 3), 1),   # B=3
            ((3, 5, 7), (2, 3, 3, 3), 1),      # a (C,H,W) input
            ((2, 3, 5, 5), (4, 3, 3, 3), 0),   # padding 0
            ((2, 2, 6, 5), (3, 2, 5, 3), 2),   # a 5x3 kernel padded by 2
            ((2, 3, 6, 4), (2, 3, 1, 1), 0)]   # a 1x1 kernel
    cases = [(nm.conv2d, xs, ws, {"padding": pad}) for xs, ws, pad in conv]
    cases += [(nm.upconv2d, (1, 3, 4, 4), (2, 3, 3, 3), {}),   # B=1
              (nm.upconv2d, (3, 2, 5, 7), (4, 2, 3, 3), {})]   # B=3
    for op, xs, ws, kw in cases:
        x, w, b = rng.normal(size=xs), rng.normal(size=ws), rng.normal(size=ws[0])
        y = op(nm.Tensor(x), nm.Tensor(w), nm.Tensor(b), **kw).data
        g = nm.Tensor(rng.normal(size=y.shape))
        for s in (0.0, 0.01, 1.0):
            fused = [nm.Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
            out = op(*fused, slope=s, **kw)
            nm.tsum(nm.mul(out, g)).backward()
            plain = [nm.Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
            ref = nm.mul(op(*plain, **kw), nm.Tensor(np.where(y > 0, 1.0, s)))
            nm.tsum(nm.mul(ref, g)).backward()
            assert np.array_equal(out.data, ref.data), (op.__name__, xs, ws, s)
            for f, p in zip(fused, plain):
                assert np.array_equal(f.grad, p.grad), (op.__name__, xs, ws, s)


def test_upconv2d_tape_holds_no_upsampled_input(rng):
    x = P(rng, 4, 16, 32, 32)
    w, b = P(rng, 16, 16, 3, 3), P(rng, 16)
    for slope in (None, 0.01):
        out, held = held_by(lambda: nm.upconv2d(x, w, b, slope=slope))
        assert out.requires_grad
        # the output (4x) and the folded kernel; the upsampled input alone
        # would add 4x, a zero-padded low-res copy of the input about 1.13x
        # and a pre-activation 4x
        assert held <= out.data.nbytes + 0.25 * x.data.nbytes, (slope, held / x.data.nbytes)


def test_avg_pool2d_matches_block_means(rng):
    for factor in (2, 3):
        x = rng.normal(size=(2, 3, 6, 12))
        out = nm.avg_pool2d(nm.Tensor(x), factor).data
        ref = np.zeros((2, 3, 6 // factor, 12 // factor))
        for i in range(ref.shape[2]):
            for j in range(ref.shape[3]):
                ref[:, :, i, j] = x[:, :, i * factor:(i + 1) * factor,
                                    j * factor:(j + 1) * factor].mean(axis=(2, 3))
        assert np.allclose(out, ref, atol=1e-12)


def test_bilinear_resize_matches_direct_interpolation(rng):
    x = rng.normal(size=(2, 6, 7))
    for oh, ow in ((4, 5), (9, 11)):
        out = nm.bilinear_resize(nm.Tensor(x), oh, ow).data
        ref = np.zeros((2, oh, ow))
        for i in range(oh):
            for j in range(ow):
                # align corners: output corners sit on input corners
                sy, sx = i * 5 / (oh - 1), j * 6 / (ow - 1)
                y0, x0 = min(int(sy), 4), min(int(sx), 5)
                fy, fx = sy - y0, sx - x0
                ref[:, i, j] = ((1 - fy) * ((1 - fx) * x[:, y0, x0] + fx * x[:, y0, x0 + 1])
                                + fy * ((1 - fx) * x[:, y0 + 1, x0] + fx * x[:, y0 + 1, x0 + 1]))
        assert np.allclose(out, ref, atol=1e-12)


def test_softmax_simplex_and_stability():
    out = nm.softmax(nm.Tensor(np.array([[1000.0, 1000.0, 1000.0]]))).data
    assert np.allclose(out, 1.0 / 3.0)
    with pytest.raises(NumericError):
        nm.softmax(nm.Tensor(np.array([[np.nan, 0.0]])))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
       st.floats(-50, 50))
def test_softmax_shift_invariance(xs, shift):
    a = np.array([xs])
    p1 = nm.softmax(nm.Tensor(a)).data
    p2 = nm.softmax(nm.Tensor(a + shift)).data
    assert np.allclose(p1, p2, atol=1e-9)
    assert np.allclose(p1.sum(), 1.0, atol=1e-9)


def test_layer_norm_output_statistics(rng):
    x = nm.Tensor(rng.normal(2.0, 3.0, size=(6, 8)))
    out = nm.layer_norm(x, nm.ones_param((8,)), nm.zeros_param((8,))).data
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-9)
    assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)


def test_glorot_uniform_bounds(rng):
    t = nm.glorot_uniform(rng, (50, 40), 50, 40)
    bound = np.sqrt(6.0 / 90.0)
    assert np.abs(t.data).max() <= bound
    assert t.requires_grad


# ----------------------------------------------------------------------
# autodiff engine behavior

def test_no_grad_blocks_graph(rng):
    a = P(rng, 3, 3)
    with nm.no_grad():
        out = nm.mul(a, a)
    assert out._backward is None and not out.requires_grad


def test_gradient_accumulation_across_reuse(rng):
    a = P(rng, 3)
    loss = nm.tsum(nm.add(a, a))
    loss.backward()
    assert np.allclose(a.grad, 2.0)


def test_accumulate_gives_each_tensor_its_own_grad(rng):
    # add hands one array to both parents; storing it uncopied would let the
    # later += into a.grad write through into b.grad
    a, b = P(rng, 3), P(rng, 3)
    nm.tsum(nm.add(nm.add(a, b), a)).backward()
    assert np.array_equal(a.grad, np.full(3, 2.0))
    assert np.array_equal(b.grad, np.ones(3))
    assert a.grad is not b.grad


def test_backward_releases_the_tape(rng):
    # with the collector off, only reference counts can free the graph
    a = P(rng, 4, 4)
    gc.disable()
    try:
        mid = nm.mul(a, a)
        mid_data = weakref.ref(mid.data)
        loss = nm.tsum(nm.sigmoid(mid))
        del mid
        loss.backward()
        del loss
        assert mid_data() is None
    finally:
        gc.enable()
    assert a.grad is not None


def test_repeated_backward_requires_zero_grad(rng):
    a = P(rng, 3)
    nm.tsum(a).backward()
    nm.tsum(a).backward()
    assert np.allclose(a.grad, 2.0)  # accumulates until cleared
    a.grad = None
    nm.tsum(a).backward()
    assert np.allclose(a.grad, 1.0)


def test_a_walk_from_seeded_roots_gives_the_gradients_of_their_seeded_sum(rng):
    """Seeding roots r_i with s_i and walking from them gives the gradients
    of the scalar sum_i <r_i, s_i>; the roots share a parameter."""
    a, b, w = P(rng, 3, 4), P(rng, 3, 4), P(rng, 4, 2)
    seeds = [rng.normal(size=(3, 4)), rng.normal(size=(3, 2))]

    def roots():
        return [nm.mul(a, b), nm.sigmoid(nm.matmul(a, w))]

    nm.tsum(nm.add(*[nm.tsum(nm.mul(r, nm.Tensor(s))) for r, s in zip(roots(), seeds)])
            ).backward()
    want = {n: p.grad for n, p in (("a", a), ("b", b), ("w", w))}
    for p in (a, b, w):
        p.grad = None
    rs = roots()
    for r, s in zip(rs, seeds):
        r.grad = s.copy()
    tensor.backward(rs)
    for n, p in (("a", a), ("b", b), ("w", w)):
        assert np.allclose(p.grad, want[n], rtol=1e-12, atol=1e-15), n


def test_a_walk_leaves_what_no_seeded_root_reaches(rng):
    x = P(rng, 3)
    calls = []
    unreached = tensor.make_op(np.zeros(3), [x], lambda out: lambda: calls.append(out))
    root = nm.mul(x, x)
    root.grad = np.ones(3)
    tensor.backward([root])
    assert calls == [] and unreached.grad is None
    assert unreached._backward is not None   # its graph is not consumed either
    assert np.allclose(x.grad, 2.0 * x.data)


def test_a_walk_started_inside_a_closure_completes(rng):
    """A closure that walks a graph of its own, as a sharded backward's hub
    walks its first shard: both walks run every closure once."""
    x, y = P(rng, 3), P(rng, 3)
    inner = nm.mul(y, y)

    def factory(out):
        def run():
            tensor.accumulate(x, 3.0 * out.grad)
            inner.grad = out.grad.copy()
            tensor.backward([inner])
        return run

    outer = tensor.make_op(np.zeros(3), [x], factory)
    nm.tsum(outer).backward()
    assert np.array_equal(x.grad, np.full(3, 3.0))
    assert np.allclose(y.grad, 2.0 * y.data)
    assert outer._backward is None and inner._backward is None


def test_tensor_backward_rejects_a_non_scalar(rng):
    a = P(rng, 3)
    with pytest.raises(UsageError, match="requires a scalar"):
        nm.mul(a, a).backward()
    assert a.grad is None


# ----------------------------------------------------------------------
# optimizer

def test_adam_first_step_magnitude(rng):
    # with bias correction the first step is lr * g/|g| elementwise (up to eps)
    p = nm.Tensor(np.zeros(4), requires_grad=True)
    p.grad = np.array([1.0, -2.0, 0.5, 3.0])
    nm.Adam({"p": p}, lr=0.0002).step()
    assert np.allclose(np.abs(p.data), 0.0002, rtol=1e-6)
    assert np.sign(p.data[1]) == 1.0  # moves against the gradient


def test_adam_matches_reference_updates(rng):
    # two steps against an independently coded reference
    g1, g2 = rng.normal(size=3), rng.normal(size=3)
    p = nm.Tensor(np.zeros(3), requires_grad=True)
    opt = nm.Adam({"p": p}, lr=0.01)
    p.grad = g1.copy()
    opt.step()
    p.grad = g2.copy()
    opt.step()

    m = np.zeros(3)
    v = np.zeros(3)
    ref = np.zeros(3)
    for t, g in ((1, g1), (2, g2)):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref -= 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
    assert np.allclose(p.data, ref, atol=1e-12)


def test_adam_missing_grad_raises(rng):
    p = nm.Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(UsageError):
        nm.Adam({"p": p}, lr=0.0002).step()


# ----------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip(tmp_path, rng):
    params = {"w": P(rng, 3, 4), "b": P(rng, 4), "scalar": P(rng, 1)}
    path = tmp_path / "m.ckpt"
    nm.save_checkpoint(path, params, config={"d": 16, "k": 3})
    loaded, cfg = nm.load_checkpoint(path)
    assert cfg == {"d": 16, "k": 3}
    assert set(loaded) == set(params)
    for name in params:
        assert np.array_equal(loaded[name], params[name].data)


def test_checkpoint_bytes_deterministic(tmp_path, rng):
    params = {"w": P(rng, 3, 4)}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    nm.save_checkpoint(p1, params, config={"x": 1})
    nm.save_checkpoint(p2, params, config={"x": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_write_that_fails_keeps_the_old_file(tmp_path, rng):
    """A save that fails part-way, here at a value that is no float array,
    leaves the checkpoint already there byte for byte and no stray file."""
    path = tmp_path / "m.ckpt"
    nm.save_checkpoint(path, {"w": P(rng, 3, 4)}, config={"d": 16})
    old = path.read_bytes()
    with pytest.raises(ValueError):
        nm.save_checkpoint(path, {"w": P(rng, 3, 4), "b": "not a number"}, config={"d": 16})
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(UsageError):
        nm.load_checkpoint(path)


def test_checkpoint_rejects_truncated_or_corrupt_files(tmp_path, rng):
    good = tmp_path / "m.ckpt"
    nm.save_checkpoint(good, {"w": P(rng, 3, 4), "b": P(rng, 4)}, config={"d": 16})
    blob = good.read_bytes()
    bad = tmp_path / "bad.ckpt"
    # inside the config length, the config, a parameter header, parameter values
    for cut in (10, 14, 30, 40, len(blob) - 5, len(blob) - 8):
        bad.write_bytes(blob[:cut])
        with pytest.raises(UsageError, match="truncated or corrupt"):
            nm.load_checkpoint(bad)
    cfg_at = blob.index(b'{"d"')
    bad.write_bytes(blob[:cfg_at] + b"{'d'" + blob[cfg_at + 4:])  # not JSON
    with pytest.raises(UsageError, match="truncated or corrupt"):
        nm.load_checkpoint(bad)
    bad.write_bytes(blob + b"\x00")
    with pytest.raises(UsageError, match="trailing bytes"):
        nm.load_checkpoint(bad)
