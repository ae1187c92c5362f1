import numpy as np
import pytest

from bmoext import Window, disk, half_plane
from bmoext.bmo import _level_stats
from bmoext.qhyper import build_metric_graph
from bmoext.whitney import build_whitney

DISK_WINDOW = Window((-1.25, -1.25), 2.5)
HP_WINDOW = Window((-2.0, 0.0), 4.0)
IL_WINDOW = Window((-4.0, -3.0), 8.0)


@pytest.fixture(scope="session")
def disk1():
    return disk(1.0)


@pytest.fixture(scope="session")
def hp():
    return half_plane()


@pytest.fixture(scope="session")
def disk_dec(disk1):
    return build_whitney(disk1, DISK_WINDOW, 8)


@pytest.fixture(scope="session")
def disk_graph(disk1):
    return build_metric_graph(disk1, DISK_WINDOW, 1 / 256)


@pytest.fixture(scope="session")
def hp_graph(hp):
    return build_metric_graph(hp, HP_WINDOW, 1 / 256)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def whole_level_stats(f, cells, level):
    """(means, oscillations, counts) of every cube at `level`: the blocks of
    cube rows from `_level_stats` joined in order."""
    blocks = list(_level_stats(f, cells, [level]))
    return tuple(np.concatenate([block[k] for block in blocks]) for k in (2, 3, 4))
