import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bmoext import DyadicCube, Window
from bmoext.dyadic import (box_distance, cell_centers, grid_centers, level_cell_centers,
                           resolution_level)
from bmoext.extension import make_suite
from bmoext.qhyper import build_metric_graph
from tests.conftest import DISK_WINDOW

UNIT = Window((0.0, 0.0), 1.0)


def test_unit_window_geometry():
    q = DyadicCube(0, (0, 0), UNIT)
    assert tuple(q.center) == (0.5, 0.5) and q.side == 1.0
    q = DyadicCube(1, (1, 0), UNIT)
    assert tuple(q.center) == (0.75, 0.25) and q.side == 0.5


def test_box_gaps():
    w = Window((0.0, 0.0), 4.0)
    q1 = DyadicCube(2, (0, 0), w)
    q2 = DyadicCube(2, (2, 0), w)
    q3 = DyadicCube(2, (1, 0), w)

    def box(q):
        return q.lower, q.lower + q.side

    assert box_distance(*box(q1), *box(q2)) == pytest.approx(1.0, abs=1e-15)
    assert box_distance(*box(q1), *box(q3)) == 0.0
    p = np.array([3.0, 0.5])
    assert box_distance(*box(q1), p, p) == pytest.approx(2.0, abs=1e-15)
    # broadcast: one point against several boxes, diagonal gap
    lows = np.array([q1.lower, q2.lower, q3.lower])
    d = box_distance(lows, lows + 1.0, np.array([-3.0, -4.0]), np.array([-3.0, -4.0]))
    assert d.tolist() == pytest.approx([5.0, math.hypot(5.0, 4.0), 4.0 * math.sqrt(2.0)],
                                       rel=1e-15)


def test_invalid_cubes_rejected():
    with pytest.raises(ValueError):
        DyadicCube(1, (2, 0), UNIT)


def test_resolution_level():
    assert [resolution_level(r) for r in (1.0, 0.5, 1 / 256, 2.0 ** -40)] == [0, 1, 8, 40]
    for bad in (0.3, 0.0, -0.25, 2.0, 1 / 255, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="1/2\\^k"):
            resolution_level(bad)


NON_DYADIC_CALLS = {
    "make_suite": lambda dom, dec: make_suite(dom, DISK_WINDOW, 0.3, dec, seed=0),
    "build_metric_graph": lambda dom, dec: build_metric_graph(dom, DISK_WINDOW, 0.3),
}


@pytest.mark.parametrize("caller", sorted(NON_DYADIC_CALLS))
def test_non_dyadic_resolution_rejected(caller, disk1, disk_dec):
    with pytest.raises(ValueError, match="1/2\\^k"):
        NON_DYADIC_CALLS[caller](disk1, disk_dec)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(1e-3, 1e3), st.integers(0, 10))
def test_grid_centers_match_the_three_grid_expressions(x0, y0, size, level):
    # bitwise: the meshgrid of indices through level_cell_centers, the
    # metric graph's column stack, and the mirror seeds' spacing grid
    window = Window((x0, y0), size)
    n = 1 << level
    h = window.cell_size(level)
    got = grid_centers(window, level)
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    g = np.arange(n) + 0.5
    refs = [
        level_cell_centers(window, level, np.stack([ii, jj], axis=-1).reshape(-1, 2)),
        np.column_stack([window.origin[0] + (ii.ravel() + 0.5) * h,
                         window.origin[1] + (jj.ravel() + 0.5) * h]),
        np.asarray(window.origin) + window.size / float(n) * np.stack(
            np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2),
    ]
    assert got.shape == (n * n, 2)
    for ref in refs:
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    # a range of rows is the same rows of the whole grid
    for lo in range(0, n, max(1, n // 8)):
        band = grid_centers(window, level, slice(lo, lo + 3))
        assert np.array_equal(band.view(np.int64), got[lo * n:(lo + 3) * n].view(np.int64))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(1e-3, 1e3), st.integers(1, 11),
       st.data())
def test_cell_centers_are_grid_centers_rows(x0, y0, size, level, data):
    # bitwise, from flat int32 cells as a metric graph stores its nodes
    window = Window((x0, y0), size)
    n = 1 << level
    rows = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3)))
    cells = np.concatenate([i * n + np.arange(n) for i in rows]).astype(np.int32)
    want = np.concatenate([grid_centers(window, level, slice(i, i + 1)) for i in rows])
    got = cell_centers(window, level, cells)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    one = cell_centers(window, level, cells[-1])
    assert one.shape == (2,) and np.array_equal(one.view(np.int64), want[-1].view(np.int64))
