"""Shared fixtures: shipped configurations and their origin samples."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from finsleroid.background import load_config, sample

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


@pytest.fixture(scope="session", autouse=True)
def subprocesses_import_this_checkout():
    """The CLI tests run the package in subprocesses, which must import it
    from this checkout as the suite does (pyproject's pytest ``pythonpath``)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", str(ROOT / "src"), prepend=os.pathsep)
        yield


def config_path(name: str) -> str:
    return str(CONFIG_DIR / f"{name}.cfg")


@pytest.fixture(scope="session")
def desk_field():
    return load_config(config_path("desk"))


@pytest.fixture(scope="session")
def desk(desk_field):
    """Origin sample of the constant reference background."""
    return sample(desk_field, np.zeros(4))


@pytest.fixture(scope="session")
def c09_field():
    return load_config(config_path("desk_c09"))


@pytest.fixture(scope="session")
def c09(c09_field):
    """Origin sample of the sub-unit preferred-norm background."""
    return sample(c09_field, np.zeros(4))
