"""The record builders' sensing keywords, read from a run config."""
from mapnav.config import RunConfig


def sensing(config=None, **over) -> dict:
    """``num_rays``, ``max_range`` and ``p_noise`` of ``config`` (the
    default run config if None), with ``over`` replacing any of them."""
    config = RunConfig() if config is None else config
    return {"num_rays": config.num_rays, "max_range": config.max_range,
            "p_noise": config.p_noise, **over}
