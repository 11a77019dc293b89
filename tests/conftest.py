import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))   # oracles / frozen references

from airybeam.scaling import make_system


@pytest.fixture(scope="session")
def unit_system():
    """m = 4, F = 1, hbar = 1 gives beta = 1: scaled and SI coincide."""
    return make_system(4.0, 1.0, 1.0)


@pytest.fixture(scope="session")
def rb_system():
    from airybeam.scaling import G_EARTH, RB87_MASS
    return make_system(RB87_MASS, RB87_MASS * G_EARTH)


def count_local_maxima(y) -> int:
    y = np.asarray(y)
    return int(np.sum((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])))
