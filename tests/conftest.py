import numpy as np
import pytest
from hypothesis import settings

from volterra_control import JumpModel, TimeGrid, sample_paths

# Every property test draws the same examples on every run and writes no
# example database.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

DESK_SEED = 20240811


@pytest.fixture(scope="session")
def grid64():
    return TimeGrid(1.0, 64)


@pytest.fixture(scope="session")
def grid32():
    return TimeGrid(1.0, 32)


@pytest.fixture(scope="session")
def marks_pm1():
    return JumpModel(intensity=1.0, marks=(-1.0, 1.0), weights=(0.5, 0.5))


@pytest.fixture(scope="session")
def paths64_small(grid64):
    """Brownian-only, N=64, M=20k: the workhorse for unit tests."""
    return sample_paths(grid64, JumpModel.none(), 20_000, seed=DESK_SEED)


@pytest.fixture(scope="session")
def paths64_desk(grid64):
    """Brownian-only desk scale, N=64, M=100k (acceptance runs)."""
    return sample_paths(grid64, JumpModel.none(), 100_000, seed=DESK_SEED)


@pytest.fixture(scope="session")
def jump_paths64_desk(grid64, marks_pm1):
    """Jump-diffusion desk scale: intensity 1, marks +-1."""
    return sample_paths(grid64, marks_pm1, 100_000, seed=DESK_SEED + 1)


@pytest.fixture(scope="session")
def jump_paths64_small(grid64, marks_pm1):
    return sample_paths(grid64, marks_pm1, 20_000, seed=DESK_SEED + 1)
