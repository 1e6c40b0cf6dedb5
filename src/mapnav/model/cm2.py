"""The full network: map encoders, two cross-modal attention blocks, the
stacked occupancy/semantic prediction UNets, and the waypoint-path UNet.

Map inputs and map targets arrive as label maps; ``one_hot`` expands them
to the channel grids the network reads, here and nowhere else.

All forward methods are stateless: outputs depend only on the inputs passed
in, so repeated calls with identical inputs are bit-identical.
"""
from __future__ import annotations

import typing
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .. import numerics as nm
from ..errors import ConfigError, UsageError
from ..language.encoder import encode_instruction, init_instruction_params, pad_mask
from ..language.vocab import VOCAB_SIZE
from ..worldsim.floorplan import NUM_CLASSES
from .attention import cross_modal_attend, init_cross_modal, text_keys_values
from .unet import LEAKY_SLOPE, UNetSpec, apply_unet, init_unet

ENCODER_DOWNSAMPLE = 8
OCC_CLASSES = 3   # occupied, free, unknown: the labels of an occupancy map


def one_hot(labels, num: int) -> np.ndarray:
    """(...,num,h,w) float one-hot grids of (...,h,w) label maps with
    labels in [0, num)."""
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= num):
        raise UsageError(f"label map holds labels outside [0, {num}): "
                         f"{labels.min()}..{labels.max()}")
    return (labels[..., None, :, :] == np.arange(num)[:, None, None]).astype(float)


@dataclass
class ModelConfig:
    """The network's shape and switches. The run settings among them have no
    default here: :meth:`mapnav.config.RunConfig.model_config` fills them."""
    ego_size: int
    d: int
    k: int
    n_instr_layers: int
    unet_base: int
    unet_depth: int
    sigma: float
    use_map_attention: bool
    use_start_heatmap: bool
    num_classes: int = NUM_CLASSES
    vocab_size: int = VOCAB_SIZE

    @property
    def heatmap_size(self) -> int:
        return self.ego_size // 2

    @property
    def token_grid(self) -> int:
        return self.ego_size // ENCODER_DOWNSAMPLE

    @property
    def n_tokens(self) -> int:
        return self.token_grid**2

    def validate(self):
        if self.ego_size <= 0 or self.ego_size % ENCODER_DOWNSAMPLE != 0:
            raise ConfigError(f"ego_size must be a positive multiple of {ENCODER_DOWNSAMPLE}, "
                              f"got {self.ego_size}")
        if self.d < 8 or self.k < 2:
            raise ConfigError(f"invalid model dims d={self.d} k={self.k}")
        for name, low in (("unet_depth", 1), ("unet_base", 1), ("n_instr_layers", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be at least {low}, got {getattr(self, name)}")


def config_from_dict(cls, data: dict):
    """``cls(**data)`` for a config dataclass such as :class:`ModelConfig`,
    raising ConfigError for a key it lacks, a field without a default that
    ``data`` lacks, or a value not of its field's type. An int is taken, as
    a float, where a float is expected."""
    types = typing.get_type_hints(cls)
    unknown = set(data) - set(types)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in data
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    for key, value in data.items():
        want = types[key]
        if (not isinstance(value, (int, float) if want is float else want)
                or isinstance(value, bool) != (want is bool)):
            raise ConfigError(f"{key} must be {want.__name__}, got {value!r}")
    return cls(**{k: types[k](v) for k, v in data.items()})


def _encoder_channels(d: int) -> list[int]:
    return [max(d // 4, 8), max(d // 2, 8), d]


def init_map_encoder(rng, in_ch: int, d: int, prefix: str) -> dict:
    p = {}
    cin = in_ch
    for i, ch in enumerate(_encoder_channels(d)):
        fan_in, fan_out = cin * 9, ch * 9
        p[f"{prefix}c{i}.w"] = nm.glorot_uniform(rng, (ch, cin, 3, 3), fan_in, fan_out)
        p[f"{prefix}c{i}.b"] = nm.zeros_param((ch,))
        cin = ch
    return p


def apply_map_encoder(x: nm.Tensor, params: dict, d: int, prefix: str) -> nm.Tensor:
    """(B,C,h,w) -> (B,d,h/8,w/8) via 3 conv blocks, each with its 2x2
    average pool folded into the conv."""
    h = x
    for i in range(3):
        h = nm.conv2d(h, params[f"{prefix}c{i}.w"], params[f"{prefix}c{i}.b"], padding=1,
                      slope=LEAKY_SLOPE, pool=2)
    return h


def _along_batch(parts: list[nm.Tensor]) -> nm.Tensor:
    return parts[0] if len(parts) == 1 else nm.concat(parts, axis=0)


@dataclass
class InstructionEncoding:
    """What the network derives from a batch of instructions alone, computed
    once per batch (or rollout episode) and read by every map forward on it:
    each cross-modal block's keys and values (B,M,d), under the block's
    parameter prefix, and the pad mask (B,M), 1 at real tokens."""
    kv: dict[str, tuple[nm.Tensor, nm.Tensor]]
    mask: np.ndarray


@dataclass
class Forward:
    """What one model forward gives its callers."""
    occ_hat: nm.Tensor | None   # (B,3,h,w) occupancy probabilities; None in cm2-gt
    sem: nm.Tensor              # (B,c,h,w) the semantic map the path head read
    heatmaps: nm.Tensor         # (B,k,u,u) waypoint heatmaps
    traversed: nm.Tensor        # (B,k) traversal probabilities
    h_grid: nm.Tensor           # (B,d,g,g) the path head's attended token grid
    attn: np.ndarray            # (B,N,M) the path head's attention


class CM2Model:
    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None,
                 params: dict[str, nm.Tensor] | None = None):
        config.validate()
        self.config = config
        c = config
        self.unet_o_spec = UNetSpec(in_ch=OCC_CLASSES, out_ch=OCC_CLASSES, base=c.unet_base,
                                    depth=c.unet_depth, spatial=c.ego_size,
                                    bneck_extra=c.d)
        self.unet_s_spec = UNetSpec(in_ch=OCC_CLASSES + c.num_classes, out_ch=c.num_classes,
                                    base=c.unet_base, depth=c.unet_depth,
                                    spatial=c.ego_size, bneck_extra=c.d)
        self.unet_f_spec = UNetSpec(in_ch=c.d + 1, out_ch=c.k, base=c.unet_base,
                                    depth=c.unet_depth, spatial=c.heatmap_size)
        if params is None and rng is None:
            raise UsageError("CM2Model needs an rng to initialise its parameters, or params")
        self.params = params if params is not None else self._init_params(rng)

    def _init_params(self, rng) -> dict[str, nm.Tensor]:
        c = self.config
        p = {}
        p.update(init_instruction_params(rng, c.d, c.vocab_size, c.n_instr_layers))
        p.update(init_map_encoder(rng, OCC_CLASSES, c.d, "enc_o."))
        p.update(init_map_encoder(rng, c.num_classes, c.d, "enc_s."))
        p.update(init_cross_modal(rng, c.d, "attn_o."))
        p.update(init_cross_modal(rng, c.d, "attn_s."))
        p.update(init_unet(rng, self.unet_o_spec, "g_o."))
        p.update(init_unet(rng, self.unet_s_spec, "g_s."))
        # waypoint-heatmap targets are sparse (a few Gaussian bumps on a
        # mostly-zero grid): start the sigmoid head near the base rate
        p.update(init_unet(rng, self.unet_f_spec, "f.", head_bias=-3.5))
        ch_f = self.unet_f_spec.channels[-1]
        p["xi.w"] = nm.glorot_uniform(rng, (ch_f, c.k), ch_f, c.k)
        p["xi.b"] = nm.zeros_param((c.k,))
        # learned constant token grid used by the no-map-attention ablation
        p["const_h_o"] = nm.Tensor(rng.normal(0.0, 0.02, size=(c.n_tokens, c.d)),
                                   requires_grad=True)
        return p

    # ------------------------------------------------------------------
    def encode_instruction(self, tokens, mode: str = "cm2") -> InstructionEncoding:
        """Encode (M,) or (B,M) token ids for forwards in ``mode``: the
        language encoder, then the text branch of each cross-modal block
        that mode reads. The result has a leading batch axis; in mode
        "cm2-gt", or with ``use_map_attention`` off, it holds no occupancy
        block."""
        c = self.config
        ids = np.asarray(tokens, dtype=np.int64)
        ids = ids[None] if ids.ndim == 1 else ids
        mask = pad_mask(ids)
        x = encode_instruction(ids, self.params, c.d, c.n_instr_layers)
        reads_occ = c.use_map_attention and mode != "cm2-gt"
        prefixes = ("attn_o.", "attn_s.") if reads_occ else ("attn_s.",)
        return InstructionEncoding(
            {p: text_keys_values(x, self.params, p, x_pad_mask=mask) for p in prefixes}, mask)

    def _attend_tokens(self, enc: nm.Tensor | None, instr, attn_prefix: str):
        """Cross-modal attention over encoded map tokens, for the whole batch.

        ``enc`` is (B,d,g,g); ``instr`` a list of encodings, B samples in
        all. Returns the attended grid (B,d,g,g) and the attention matrices
        (B,N,M). ``enc`` None is the no-map-attention ablation: a learned
        constant grid stands in, with zero attention (B,N,1).
        """
        mask = np.concatenate([e.mask for e in instr])
        bsz, d, g = mask.shape[0], self.config.d, self.config.token_grid
        if enc is None:
            h = nm.stack([self.params["const_h_o"]] * bsz, axis=0)
            attn = np.zeros((bsz, g * g, 1))
        else:
            if enc.shape[0] != bsz:
                raise ConfigError(f"{bsz} instructions for a batch of {enc.shape[0]}")
            y = nm.transpose(nm.reshape(enc, (bsz, d, g * g)), (0, 2, 1))
            if any(attn_prefix not in e.kv for e in instr):
                raise ConfigError(f"an instruction encoding holds no {attn_prefix!r} block; "
                                  f"encode it for the mode of this forward")
            keys, values = (_along_batch([e.kv[attn_prefix][i] for e in instr]) for i in (0, 1))
            h, attn = cross_modal_attend(y, keys, values, self.params, attn_prefix,
                                         x_pad_mask=mask)
        return nm.reshape(nm.transpose(h, (0, 2, 1)), (bsz, d, g, g)), attn

    @staticmethod
    def _fit_bneck(h_grid: nm.Tensor, size: int) -> nm.Tensor:
        """Resize the attended token grid to the UNet bottleneck resolution."""
        g = h_grid.shape[-1]
        if g == size:
            return h_grid
        if g > size and g % size == 0:
            return nm.avg_pool2d(h_grid, g // size)
        return nm.bilinear_resize(h_grid, size, size)

    # ------------------------------------------------------------------
    def predict_maps(self, occ_in, sem_obs_in, instr):
        """Occupancy completion and semantic hallucination.

        occ_in: (B,h,w) ego occupancy label map (occupied, free, unknown);
        sem_obs_in: (B,h,w) ground-projected semantic label map; instr: list
        of instruction encodings, B samples in all. Returns (occ_probs,
        sem_probs, h_grid, attention (B,N,M)).
        """
        c = self.config
        occ_in, sem_obs_in = np.asarray(occ_in), np.asarray(sem_obs_in)
        if occ_in.shape[1:] != (c.ego_size, c.ego_size) or sem_obs_in.shape != occ_in.shape:
            raise ConfigError(
                f"predict_maps: got occupancy {occ_in.shape}, semantics "
                f"{sem_obs_in.shape}; want (B,{c.ego_size},{c.ego_size}) label maps"
            )
        occ_in = nm.Tensor(one_hot(occ_in, OCC_CLASSES))
        sem_obs_in = nm.Tensor(one_hot(sem_obs_in, c.num_classes))
        enc = (apply_map_encoder(occ_in, self.params, c.d, "enc_o.")
               if c.use_map_attention else None)
        h_grid, attns = self._attend_tokens(enc, instr, "attn_o.")
        h_bneck = self._fit_bneck(h_grid, self.unet_o_spec.bneck_size)
        occ_logits, _ = apply_unet(occ_in, self.params, self.unet_o_spec, "g_o.",
                                   bneck_features=h_bneck)
        occ_probs = nm.softmax(occ_logits, axis=-3)
        sem_logits, _ = apply_unet(occ_probs, self.params, self.unet_s_spec, "g_s.",
                                   bneck_features=h_bneck, cat=sem_obs_in)
        sem_probs = nm.softmax(sem_logits, axis=-3)
        return occ_probs, sem_probs, h_grid, attns

    def predict_path(self, sem_in, instr, start_heatmap):
        """Waypoint heatmaps and traversal probabilities.

        sem_in: (B,c,h,w) semantic map (predicted or ground truth); instr:
        list of instruction encodings, B samples in all; start_heatmap:
        (B,1,u,v). Returns (heatmaps, traversed, h_grid, attention (B,N,M)).
        """
        c = self.config
        sem_in = sem_in if isinstance(sem_in, nm.Tensor) else nm.Tensor(sem_in)
        if sem_in.shape[1:] != (c.num_classes, c.ego_size, c.ego_size):
            raise ConfigError(f"predict_path: bad semantic input {sem_in.shape}")
        u = c.heatmap_size
        enc = apply_map_encoder(sem_in, self.params, c.d, "enc_s.")
        h_grid, attns = self._attend_tokens(enc, instr, "attn_s.")
        h_up = nm.bilinear_resize(h_grid, u, u)
        p0 = start_heatmap if isinstance(start_heatmap, nm.Tensor) else nm.Tensor(start_heatmap)
        if not c.use_start_heatmap:
            p0 = nm.Tensor(np.zeros(p0.shape))
        logits, bneck = apply_unet(h_up, self.params, self.unet_f_spec, "f.", cat=p0)
        heatmaps = nm.sigmoid(logits)
        pooled = nm.tmean(bneck, axis=(-2, -1))
        traversed = nm.sigmoid(nm.linear(pooled, self.params["xi.w"], self.params["xi.b"]))
        return heatmaps, traversed, h_grid, attns

    def forward(self, mode: str, instr, start_heatmap, occ=None, sem_obs=None,
                sem_gt=None) -> Forward:
        """Map prediction, then path prediction on the predicted semantics.

        Mode "cm2-gt" (the paper's "given a map" setting) skips map
        prediction and feeds the ground-truth semantic label map ``sem_gt``
        (B,h,w), one-hot encoded, to the path head; "cm2" needs the label
        maps ``occ`` and ``sem_obs`` instead.
        """
        if mode == "cm2-gt":
            occ_hat, sem = None, nm.Tensor(one_hot(sem_gt, self.config.num_classes))
        else:
            occ_hat, sem, _, _ = self.predict_maps(occ, sem_obs, instr)
        heatmaps, traversed, h_grid, attn = self.predict_path(sem, instr, start_heatmap)
        return Forward(occ_hat, sem, heatmaps, traversed, h_grid, attn)

    # ------------------------------------------------------------------
    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def save(self, path):
        nm.save_checkpoint(path, self.params, config=asdict(self.config))

    @classmethod
    def load(cls, path) -> "CM2Model":
        raw, cfg = nm.load_checkpoint(path)
        config = config_from_dict(ModelConfig, cfg)
        params = {k: nm.Tensor(v, requires_grad=True) for k, v in raw.items()}
        model = cls(config, params=params)
        # the config's parameter names and shapes, from an init that draws nothing
        ref = model._init_params(_NoDraws())
        names, want = set(params), set(ref)
        if names != want:
            raise ConfigError("checkpoint incompatible with config: " + ", ".join(
                [f"missing '{n}'" for n in sorted(want - names)]
                + [f"unexpected '{n}'" for n in sorted(names - want)]))
        for name, p in ref.items():
            if params[name].shape != p.shape:
                raise ConfigError(f"checkpoint incompatible with config at '{name}'")
        return model


class _NoDraws:
    """Stands in for an init's rng: each draw is a read-only zero view of the
    asked shape, which holds no memory."""

    @staticmethod
    def uniform(low=0.0, high=1.0, size=None):
        return np.broadcast_to(0.0, size)

    normal = uniform
