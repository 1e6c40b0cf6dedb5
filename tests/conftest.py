import numpy as np
import pytest

from mapnav.train_eval import shards
from mapnav.worldsim import generate_floorplan, generate_episode


@pytest.fixture(autouse=True)
def _stop_the_shard_worker():
    """Training's shard worker is forked with the monkeypatches of the test
    that started it; stop it after each test, so that none outlives its test."""
    yield
    shards.close()


@pytest.fixture(scope="session")
def plan():
    return generate_floorplan(3, 64)


@pytest.fixture(scope="session")
def episode(plan):
    return generate_episode(plan, 0, episode_id=0)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
