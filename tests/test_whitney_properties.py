"""Property tests of the Whitney decomposition on random domains and windows.

Each example builds one decomposition of a disk, a slit disk or a square,
seen through a random window inside its bounding box, at depth <= 7, and
checks it against brute-force oracles.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from bmoext import Window, disk, slit_disk, square
from bmoext.whitney import FRONTIER, build_whitney
from tests.test_whitney import built_families, exhaustive_whitney, frontier_cells


@st.composite
def domains_and_windows(draw):
    kind = draw(st.sampled_from(["disk", "slit_disk", "square"]))
    r = draw(st.floats(0.5, 2.0))
    if kind == "disk":
        dom = disk(r)
    elif kind == "slit_disk":
        dom = slit_disk(r, r * draw(st.floats(0.1, 0.9)))
    else:
        dom = square(2.0 * r)
    x0, y0, x1, y1 = dom.bounding_box
    span = min(x1 - x0, y1 - y0)
    size = span * draw(st.floats(0.05, 1.0))
    slack = 0.999 * (span - size)
    origin = (x0 + slack * draw(st.floats(0.0, 1.0)),
              y0 + slack * draw(st.floats(0.0, 1.0)))
    return dom, Window(origin, size), draw(st.sampled_from(range(8)))


def leaf_boxes(dec):
    """Closed integer boxes (ilo, ihi, jlo, jhi) of every leaf, cubes first
    then frontier cells, in units of the deepest level."""
    level = np.concatenate([dec.cubes["level"], dec.frontier[:, 0]])
    i = np.concatenate([dec.cubes["i"], dec.frontier[:, 1]])
    j = np.concatenate([dec.cubes["j"], dec.frontier[:, 2]])
    f = 1 << (dec.depth - level)
    return np.stack([i * f, (i + 1) * f, j * f, (j + 1) * f], axis=1)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(domains_and_windows(), st.integers(0, 2 ** 32 - 1))
def test_random_decomposition_properties(case, seed):
    dom, window, depth = case
    dec = build_whitney(dom, window, depth)

    # the build is the exhaustive level sweep
    oracle, oracle_frontier = exhaustive_whitney(dom, window, depth)
    assert built_families(dec) == oracle
    assert frontier_cells(dec) == sorted(oracle_frontier)

    # leaves are interior-disjoint and cover the window exactly
    boxes = leaf_boxes(dec)
    n_fine = 1 << dec.depth
    count = np.zeros((n_fine, n_fine), dtype=np.int64)
    for ilo, ihi, jlo, jhi in boxes.tolist():
        count[ilo:ihi, jlo:jhi] += 1
    assert (count == 1).all()

    # adjacency is closed-box contact among cubes of the same family
    n = len(dec.cubes)
    b = boxes[:n]
    touch = ((b[:, None, 0] <= b[None, :, 1]) & (b[None, :, 0] <= b[:, None, 1])
             & (b[:, None, 2] <= b[None, :, 3]) & (b[None, :, 2] <= b[:, None, 3]))
    touch &= dec.cubes["tag"][:, None] == dec.cubes["tag"][None, :]
    np.fill_diagonal(touch, False)
    for k in range(n):
        assert dec.adjacent(k).tolist() == np.flatnonzero(touch[k]).tolist()

    # locate agrees with a containment scan over the leaves
    rng = np.random.default_rng(seed)
    pts = np.asarray(window.origin) + window.size * rng.uniform(0.0, 1.0, size=(40, 2))
    h = window.cell_size(dec.depth)
    for p in pts:
        u = (p - np.asarray(window.origin)) / h
        holding = np.flatnonzero((boxes[:, 0] <= u[0]) & (u[0] <= boxes[:, 1])
                                 & (boxes[:, 2] <= u[1]) & (u[1] <= boxes[:, 3]))
        kind, idx = dec.locate(p)
        if kind == FRONTIER:
            assert (holding >= n).any()
        else:
            assert kind == dec.cubes["tag"][idx] and idx in holding
