import numpy as np
import pytest

from mapnav.numerics import parallel
from mapnav.worldsim import generate_floorplan, generate_episode


@pytest.fixture(autouse=True)
def _stop_the_helpers():
    """The shard worker and the map helper, which builds records and splits
    and rolls out episodes, are forked with the monkeypatches of the test
    that started them; stop them after each test, so that none outlives its
    test."""
    yield
    parallel.close_all()


@pytest.fixture(scope="session")
def plan():
    return generate_floorplan(3, 64)


@pytest.fixture(scope="session")
def episode(plan):
    return generate_episode(plan, 0, episode_id=0)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
