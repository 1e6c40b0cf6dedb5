"""Single-head self-attention and cross-modal attention blocks."""
from __future__ import annotations

import numpy as np

from .. import numerics as nm
from ..errors import ConfigError

NEG_INF = -1e30


def init_self_attention(rng, d: int, prefix: str) -> dict:
    p = {}
    for name in ("wq", "wk", "wv", "wo"):
        p[prefix + name] = nm.glorot_uniform(rng, (d, d), d, d)
    p[prefix + "ln1.g"] = nm.ones_param((d,))
    p[prefix + "ln1.b"] = nm.zeros_param((d,))
    p[prefix + "ln2.g"] = nm.ones_param((d,))
    p[prefix + "ln2.b"] = nm.zeros_param((d,))
    p[prefix + "ff1.w"] = nm.glorot_uniform(rng, (d, 2 * d), d, 2 * d)
    p[prefix + "ff1.b"] = nm.zeros_param((2 * d,))
    p[prefix + "ff2.w"] = nm.glorot_uniform(rng, (2 * d, d), 2 * d, d)
    p[prefix + "ff2.b"] = nm.zeros_param((d,))
    return p


def _swap_last(t: nm.Tensor) -> nm.Tensor:
    axes = tuple(range(t.ndim - 2)) + (t.ndim - 1, t.ndim - 2)
    return nm.transpose(t, axes)


def _key_bias(key_mask: np.ndarray) -> nm.Tensor:
    """Additive score bias that masks out keys where ``key_mask`` is 0."""
    return nm.Tensor(np.where(key_mask[..., None, :] > 0, 0.0, NEG_INF))


def _attend(q: nm.Tensor, k: nm.Tensor, v: nm.Tensor,
            key_mask: np.ndarray | None) -> tuple[nm.Tensor, nm.Tensor]:
    """Scaled dot-product attention of queries ``q`` (..., L, d) over keys
    ``k`` and values ``v`` (..., M, d); ``key_mask`` (..., M) is 1 at
    attendable keys. Returns (weighted values (..., L, d), attention
    (..., L, M))."""
    scores = nm.scale(nm.matmul(q, _swap_last(k)), 1.0 / np.sqrt(q.shape[-1]))
    if key_mask is not None:
        scores = nm.add(scores, _key_bias(key_mask))
    attn = nm.softmax(scores, axis=-1)
    return nm.matmul(attn, v), attn


def apply_self_attention(x: nm.Tensor, params: dict, prefix: str,
                         key_mask: np.ndarray | None = None) -> nm.Tensor:
    """Pre-LN transformer layer over the rows of ``x`` (..., L, d); leading
    axes are a batch. ``key_mask`` (..., L) is 1 at attendable positions."""
    h = nm.layer_norm(x, params[prefix + "ln1.g"], params[prefix + "ln1.b"])
    q = nm.matmul(h, params[prefix + "wq"])
    k = nm.matmul(h, params[prefix + "wk"])
    v = nm.matmul(h, params[prefix + "wv"])
    weighted, _ = _attend(q, k, v, key_mask)
    x = nm.add(x, nm.matmul(weighted, params[prefix + "wo"]))
    h = nm.layer_norm(x, params[prefix + "ln2.g"], params[prefix + "ln2.b"])
    h = nm.linear(h, params[prefix + "ff1.w"], params[prefix + "ff1.b"], slope=0.0)  # ReLU
    return nm.add(x, nm.linear(h, params[prefix + "ff2.w"], params[prefix + "ff2.b"]))


def init_cross_modal(rng, d: int, prefix: str) -> dict:
    p = {}
    p.update(init_self_attention(rng, d, prefix + "selfmap."))
    p.update(init_self_attention(rng, d, prefix + "selftext."))
    for name in ("wq", "wk", "wv"):
        p[prefix + name] = nm.glorot_uniform(rng, (d, d), d, d)
    return p


def text_keys_values(x: nm.Tensor, params: dict, prefix: str,
                     x_pad_mask: np.ndarray | None = None) -> tuple[nm.Tensor, nm.Tensor]:
    """The text branch of cross-modal block ``prefix``: self-attention over
    the instruction tokens ``x`` (..., M, d), then the keys and values
    (..., M, d) that the map side queries. It depends on the instruction
    alone, so a caller runs it once per instruction, not once per map."""
    if x.shape[-1] != params[prefix + "wk"].shape[0]:
        raise ConfigError(f"feature dims differ: text {x.shape} vs block {prefix!r} "
                          f"{params[prefix + 'wk'].shape}")
    x = apply_self_attention(x, params, prefix + "selftext.", key_mask=x_pad_mask)
    return nm.matmul(x, params[prefix + "wk"]), nm.matmul(x, params[prefix + "wv"])


def cross_modal_attend(y: nm.Tensor, keys: nm.Tensor, values: nm.Tensor, params: dict,
                       prefix: str, x_pad_mask: np.ndarray | None = None):
    """Map tokens attend over instruction tokens: the map side of the block.

    Self-attention runs over the map tokens ``y`` (..., N, d), which then
    query the instruction's ``keys`` and ``values`` (..., M, d), the output
    of :func:`text_keys_values` with the same leading (batch) axes;
    ``x_pad_mask`` is (..., M). Returns (H of shape (..., N, d), attention
    (..., N, M) as a plain array for inspection).
    """
    if y.shape[-1] != keys.shape[-1]:
        raise ConfigError(f"feature dims differ: map {y.shape} vs text {keys.shape}")
    y = apply_self_attention(y, params, prefix + "selfmap.")
    h, attn = _attend(nm.matmul(y, params[prefix + "wq"]), keys, values, x_pad_mask)
    return h, attn.data.copy()
