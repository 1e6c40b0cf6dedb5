"""Trained instruction encoder: embeddings + 2 masked self-attention layers.

Produces the M x d instruction feature matrix (one per leading batch index)
that the cross-modal attention blocks' text branches read. Pad positions are
masked out of attention and their output rows zeroed.
"""
from __future__ import annotations

import numpy as np

from .. import numerics as nm
from .vocab import PAD_ID

PREFIX = "instr."   # the encoder's parameter-name prefix


def positional_encoding(length: int, d: int) -> np.ndarray:
    pos = np.arange(length)[:, None]
    i = np.arange(d)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / d)
    enc = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return enc


def init_instruction_params(rng: np.random.Generator, d: int, vocab_size: int,
                            n_layers: int) -> dict[str, nm.Tensor]:
    from ..model.attention import init_self_attention  # mapnav.model imports this module

    p = {}
    p[PREFIX + "embed"] = nm.Tensor(rng.normal(0.0, 0.02, size=(vocab_size, d)),
                                    requires_grad=True)
    for l in range(n_layers):
        p.update(init_self_attention(rng, d, f"{PREFIX}l{l}."))
    p[PREFIX + "final.w"] = nm.glorot_uniform(rng, (d, d), d, d)
    p[PREFIX + "final.b"] = nm.zeros_param((d,))
    return p


def encode_instruction(tokens, params: dict[str, nm.Tensor], d: int,
                       n_layers: int) -> nm.Tensor:
    """Token ids (..., M) -> instruction features X of shape (..., M, d);
    leading axes are a batch."""
    from ..model.attention import apply_self_attention  # mapnav.model imports this module

    ids = np.asarray(tokens, dtype=np.int64)
    table = params[PREFIX + "embed"]
    real = pad_mask(ids)
    x = nm.add(nm.embedding_lookup(table, ids), nm.Tensor(positional_encoding(ids.shape[-1], d)))
    for l in range(n_layers):
        x = apply_self_attention(x, params, f"{PREFIX}l{l}.", key_mask=real)
    x = nm.linear(x, params[PREFIX + "final.w"], params[PREFIX + "final.b"])
    return nm.mul(x, nm.Tensor(real[..., None]))


def pad_mask(tokens) -> np.ndarray:
    """1.0 at real-token positions, 0.0 at pads."""
    ids = np.asarray(tokens, dtype=np.int64)
    return (ids != PAD_ID).astype(np.float64)
