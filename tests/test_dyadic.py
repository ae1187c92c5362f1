import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bmoext import DyadicCube, Window, cubes_adjacent
from bmoext.dyadic import box_distance, grid_centers, level_cell_centers, resolution_level
from bmoext.extension import make_suite
from bmoext.qhyper import build_metric_graph
from tests.conftest import DISK_WINDOW

UNIT = Window((0.0, 0.0), 1.0)


def exact_boxes_intersect(q1, q2):
    """Interval-intersection oracle in exact rational arithmetic."""
    def bounds(q):
        w = Fraction(q.window.size)
        o = (Fraction(q.window.origin[0]), Fraction(q.window.origin[1]))
        s = w / 2 ** q.level
        return [(o[k] + q.coords[k] * s, o[k] + (q.coords[k] + 1) * s) for k in (0, 1)]

    b1, b2 = bounds(q1), bounds(q2)
    return all(a0 <= b1_ and b0 <= a1 for (a0, a1), (b0, b1_) in zip(b1, b2))


def contains_cube(q, other):
    """True iff `other` is q or one of its descendants."""
    if other.level < q.level:
        return False
    f = 1 << (other.level - q.level)
    return (other.coords[0] // f, other.coords[1] // f) == q.coords


def test_unit_window_geometry():
    q = DyadicCube(0, (0, 0), UNIT)
    assert tuple(q.center) == (0.5, 0.5) and q.side == 1.0
    q = DyadicCube(1, (1, 0), UNIT)
    assert tuple(q.center) == (0.75, 0.25) and q.side == 0.5


def test_corner_center_identity_level3():
    q = DyadicCube(3, (5, 2), UNIT)
    c, side, corners = q.center, q.side, q.corners
    rebuilt = np.array([c + [dx * side / 2, dy * side / 2]
                        for dx in (-1, 1) for dy in (-1, 1)])
    assert np.abs(np.sort(rebuilt, axis=0) - np.sort(corners, axis=0)).max() < 1e-15


def test_adjacency_examples():
    assert cubes_adjacent(DyadicCube(1, (0, 0), UNIT), DyadicCube(1, (1, 0), UNIT))
    q = DyadicCube(1, (0, 0), UNIT)
    assert cubes_adjacent(q, q)  # reflexive
    # cross-level touch along the shared face x = 0.5
    assert cubes_adjacent(DyadicCube(1, (0, 0), UNIT), DyadicCube(2, (2, 1), UNIT))


def test_adjacency_gap():
    w = Window((0.0, 0.0), 4.0)
    assert not cubes_adjacent(DyadicCube(2, (0, 0), w), DyadicCube(2, (2, 0), w))


def test_adjacency_random_vs_exact_oracle(rng):
    w = Window((-1.3, 0.7), 2.5)
    for _ in range(2000):
        l1, l2 = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        q1 = DyadicCube(l1, tuple(int(v) for v in rng.integers(0, 1 << l1, 2)), w)
        q2 = DyadicCube(l2, tuple(int(v) for v in rng.integers(0, 1 << l2, 2)), w)
        assert cubes_adjacent(q1, q2) == exact_boxes_intersect(q1, q2)
        assert cubes_adjacent(q1, q2) == cubes_adjacent(q2, q1)


def test_different_windows_rejected():
    with pytest.raises(ValueError):
        cubes_adjacent(DyadicCube(0, (0, 0), UNIT),
                       DyadicCube(0, (0, 0), Window((0.0, 0.0), 2.0)))


def test_children_tile_exactly():
    q = DyadicCube(2, (1, 3), Window((-2.0, -2.0), 4.0))
    kids = q.children()
    assert sum(k.measure for k in kids) == pytest.approx(q.measure, rel=1e-15)
    for k in kids:
        assert k.parent() == q
        assert contains_cube(q, k)
        assert not contains_cube(k, q)
    boxes = [k.int_box(3) for k in kids]
    for a in range(4):
        for b in range(a + 1, 4):
            ba, bb = boxes[a], boxes[b]
            ix = min(ba[1], bb[1]) - max(ba[0], bb[0])
            jx = min(ba[3], bb[3]) - max(ba[2], bb[2])
            assert min(ix, jx) <= 0  # interiors disjoint


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
    with pytest.raises(ValueError):
        DyadicCube(0, (0, 0), UNIT).parent()


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
