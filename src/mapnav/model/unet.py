"""Compact encoder-decoder UNet with skip connections.

Blocks downsample by 2 while the spatial size stays even and above the
bottleneck size of 3; on small inputs trailing blocks run at stride 1 so the
configured depth is preserved. Extra feature channels (the attended
instruction representation) can be joined at the bottleneck.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import numerics as nm

LEAKY_SLOPE = 0.01  # of every hidden conv's LeakyReLU, in the UNets and the map encoders


@dataclass
class UNetSpec:
    in_ch: int
    out_ch: int
    base: int
    depth: int
    spatial: int
    bneck_extra: int = 0
    # derived from the fields above
    down_flags: list[bool] = field(init=False)
    channels: list[int] = field(init=False)
    bneck_size: int = field(init=False)

    def __post_init__(self):
        s = self.spatial
        self.down_flags = []
        for _ in range(self.depth):
            self.down_flags.append(s > 3 and s % 2 == 0)
            if self.down_flags[-1]:
                s //= 2
        self.bneck_size = s
        self.channels = [self.base * min(2**i, 2) for i in range(self.depth)]


def _conv_param(rng, p, name, cin, cout, k=3):
    fan_in = cin * k * k
    fan_out = cout * k * k
    p[name + ".w"] = nm.glorot_uniform(rng, (cout, cin, k, k), fan_in, fan_out)
    p[name + ".b"] = nm.zeros_param((cout,))


def init_unet(rng: np.random.Generator, spec: UNetSpec, prefix: str,
              head_bias: float = 0.0) -> dict:
    """Initialize parameters. ``head_bias`` presets the output layer's bias;
    heads trained with squared error through a sigmoid should start at the
    target base rate (a negative bias for sparse targets), otherwise the
    dominant all-zero cells can drive every logit deep into saturation
    early in training, after which the vanishing sigmoid derivative leaves
    the head permanently stuck near zero output."""
    p = {}
    cin = spec.in_ch
    for i, (ch, down) in enumerate(zip(spec.channels, spec.down_flags)):
        _conv_param(rng, p, f"{prefix}enc{i}.c1", cin, ch)
        if down:
            _conv_param(rng, p, f"{prefix}enc{i}.c2", ch, ch)
        cin = ch
    _conv_param(rng, p, f"{prefix}bneck", cin + spec.bneck_extra, cin)
    for i in reversed(range(spec.depth)):
        ch = spec.channels[i]
        _conv_param(rng, p, f"{prefix}dec{i}.up", cin, ch)
        _conv_param(rng, p, f"{prefix}dec{i}.mix", ch + spec.channels[i], ch)
        cin = ch
    _conv_param(rng, p, f"{prefix}head", cin, spec.out_ch, k=1)
    if head_bias:
        head = p[f"{prefix}head.w"]
        head.data = head.data * 0.1   # a new array: CM2Model.load's init draws read-only zeros
        p[f"{prefix}head.b"].data += head_bias
    return p


def apply_unet(x: nm.Tensor, params: dict, spec: UNetSpec, prefix: str,
               bneck_features: nm.Tensor | None = None, cat: nm.Tensor | None = None):
    """Forward pass on ``x``, with the channels of ``cat`` after its own;
    returns (logits, bottleneck activation).

    Every conv but the 1x1 head applies its bias and a LeakyReLU of
    ``LEAKY_SLOPE`` in place, so the tape keeps each activation once: as
    that conv's output, which is also the next op's input. Each channel join
    (the input and ``cat``, the bottleneck and ``bneck_features``, a decoder
    level and its skip) is the conv's second input, so no joined copy is
    made. Each down block's 2x2 average pool is folded into its second conv,
    so the tape keeps the pooled activation and its sign mask, not the
    unpooled activation."""
    def conv(h, name, cat=None, pool=1):
        return nm.conv2d(h, params[f"{prefix}{name}.w"], params[f"{prefix}{name}.b"],
                         padding=1, slope=LEAKY_SLOPE, cat=cat, pool=pool)

    skips = []
    h = x
    for i, down in enumerate(spec.down_flags):
        h = conv(h, f"enc{i}.c1", cat if i == 0 else None)
        skips.append(h)
        if down:
            h = conv(h, f"enc{i}.c2", pool=2)
    h = conv(h, "bneck", bneck_features)
    bottleneck = h
    for i in reversed(range(spec.depth)):
        if spec.down_flags[i]:
            # nearest 2x upsample and a 3x3 conv, as one op on the low-res grid
            h = nm.upconv2d(h, params[f"{prefix}dec{i}.up.w"], params[f"{prefix}dec{i}.up.b"],
                            slope=LEAKY_SLOPE)
        else:
            h = conv(h, f"dec{i}.up")
        h = conv(h, f"dec{i}.mix", skips[i])
    logits = nm.conv2d(h, params[f"{prefix}head.w"], params[f"{prefix}head.b"])
    return logits, bottleneck
