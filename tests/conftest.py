"""Shared fixtures: small grids and smooth compactly-concentrated fields."""

import numpy as np
import pytest

from ckdv import Feng, GearGrimshaw, GeneralCoupled, Grid, HirotaSatsuma, Sakovich, field_from_callable


@pytest.fixture
def grid64():
    return Grid(64, 2.0 * np.pi)


@pytest.fixture
def grid128():
    return Grid(128, 8.0 * np.pi)


@pytest.fixture
def gaussian128(grid128):
    return field_from_callable(lambda x: np.exp(-((x / 1.5) ** 2)), grid128)


@pytest.fixture
def five_systems():
    """One spec of each system; GeneralCoupled and Sakovich with diagonal dispersion."""
    return {
        "hirota_satsuma": HirotaSatsuma(0.5, 1.0),
        "feng": Feng(-1.0, 2.0, 3.0, 0.5),
        "gear_grimshaw": GearGrimshaw(0.7, 0.3, 0.0, 2.0, 0.5, r=0.4),
        "general_coupled": GeneralCoupled(1.0, 0.0, 0.0, 0.5, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, r=0.3),
        "sakovich": Sakovich(
            np.array([[1.0, 0.5], [0.0, 2.0]]), np.array([[0.3, 0.0], [0.1, 0.2]]), np.diag([2.0, 4.0])
        ),
    }


def seeded(seed):
    return np.random.default_rng(seed)
