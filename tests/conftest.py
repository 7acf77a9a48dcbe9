"""Shared fixtures: small grids and smooth compactly-concentrated fields, a fresh interpreter,
a strict JSON reader, and each shipped config run once per session."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ckdv import (
    Feng,
    GearGrimshaw,
    GeneralCoupled,
    Grid,
    HirotaSatsuma,
    Sakovich,
    field_from_callable,
    load_config,
    run,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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


@pytest.fixture
def fresh_python():
    """Run code in a new interpreter that imports ckdv from this checkout; its stdout, stripped.

    For what only a fresh process shows, such as the modules an import loads:
    the test process has imported far more than ckdv does."""
    src = str(Path(__file__).resolve().parent.parent / "src")

    def python(code: str) -> str:
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        return out.stdout.strip()

    return python


@pytest.fixture
def strict_json():
    """Read a JSON file, refusing the non-standard tokens NaN, Infinity and -Infinity."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return lambda path: json.loads(Path(path).read_text(), parse_constant=refuse)


@pytest.fixture(scope="session")
def shipped_run(tmp_path_factory):
    """(manifest, output directory) of run() on configs/<name>.json.

    Each config runs on its first request and at most once per session; the
    tests that read a run only read it."""
    runs = {}

    def get(name: str):
        if name not in runs:
            out = tmp_path_factory.mktemp(f"shipped_{name}")
            runs[name] = (run(load_config(CONFIG_DIR / f"{name}.json"), out_dir=out), out)
        return runs[name]

    return get
