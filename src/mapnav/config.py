"""Single experiment configuration: every run setting with its default, JSON
round-trip and validation. This is the one home of those defaults: the
library functions take the settings they read as arguments, without
defaults of their own. The ``mapnav`` CLI applies the CM2_SEED environment
override to the config it loads."""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .errors import ConfigError
from .model.cm2 import ModelConfig, config_from_dict

MODES = ("cm2", "cm2-gt")


@dataclass
class RunConfig:
    # world and sensing
    world_size: int = 64          # world grid cells (0.2 m/cell)
    ego_size: int = 48            # ego crop cells (9.6 m extent)
    num_rays: int = 64
    max_range: float = 4.8
    p_noise: float = 0.0          # semantic sensor label-noise probability

    # model
    d: int = 128
    k: int = 10
    unet_base: int = 16
    unet_depth: int = 4
    sigma: float = 1.0
    n_instr_layers: int = 2
    mode: str = "cm2"             # "cm2" or "cm2-gt" (path head on GT maps)
    use_map_attention: bool = True
    use_start_heatmap: bool = True

    # loss weights
    lambda_wp: float = 1.0
    lambda_m: float = 1.0
    lambda_xi: float = 1.0

    # training
    lr: float = 0.0002
    batch_size: int = 8
    train_steps: int = 2000
    checkpoint_every: int = 500
    seed: int = 0

    # dataset
    num_floorplans: int = 200
    heldout_floorplans: int = 50
    episodes_per_floorplan: int = 10
    samples_per_episode: int = 10

    # controller / evaluation
    tau: float = 0.5              # stop radius (m)
    gamma: float = 0.6            # goal-confidence threshold
    budget: int = 500             # step budget per episode
    success_radius: float = 1.0   # metrics only; desk scale (3.0 paper-comparable)
    unknown_cost: float = 2.0     # planner cost of an unknown cell (>= 1)
    eval_episodes: int = 50

    def validate(self) -> "RunConfig":
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.world_size <= 0:
            raise ConfigError(f"world_size must be positive, got {self.world_size}")
        if not self.max_range > 0:
            raise ConfigError(f"max_range must be positive, got {self.max_range}")
        if self.num_rays < 1:
            raise ConfigError(f"num_rays must be at least 1, got {self.num_rays}")
        if not self.sigma > 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if self.lr <= 0 or self.batch_size <= 0 or self.train_steps < 0:
            raise ConfigError("lr, batch_size must be positive; train_steps non-negative")
        if not 0.0 <= self.p_noise <= 1.0:
            raise ConfigError(f"p_noise must be in [0,1], got {self.p_noise}")
        for name in ("num_floorplans", "heldout_floorplans"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.eval_episodes < 1:
            raise ConfigError(f"eval_episodes must be at least 1, got {self.eval_episodes}")
        if self.episodes_per_floorplan < 1 or self.samples_per_episode < 1:
            raise ConfigError("episodes_per_floorplan and samples_per_episode must be at least 1, "
                              f"got {self.episodes_per_floorplan} and {self.samples_per_episode}")
        if not self.tau > 0:
            raise ConfigError(f"tau (stop radius) must be positive, got {self.tau}")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError(f"gamma (confidence threshold) must be in (0,1), got {self.gamma}")
        if self.budget < 1:
            raise ConfigError(f"budget (steps per episode) must be at least 1, got {self.budget}")
        if not self.success_radius > 0:
            raise ConfigError(f"success_radius must be positive, got {self.success_radius}")
        # grid_astar's octile heuristic is admissible only if every cell costs at least 1
        if not self.unknown_cost >= 1.0:
            raise ConfigError(f"unknown_cost must be at least 1, got {self.unknown_cost}")
        self.model_config().validate()
        return self

    # ------------------------------------------------------------------
    def model_config(self) -> ModelConfig:
        """A ModelConfig holding every field this config shares with it."""
        ours = {f.name for f in dataclasses.fields(self)}
        return ModelConfig(**{f.name: getattr(self, f.name)
                              for f in dataclasses.fields(ModelConfig) if f.name in ours})

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid config JSON: {e}") from e
        if not isinstance(data, dict):
            raise ConfigError("config JSON must be an object")
        return config_from_dict(cls, data).validate()

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_json(fh.read())
