import dataclasses
import heapq
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from bmoext import (Window, cusp, disk, half_plane, intro_lipschitz, l_shape, polygon,
                    slit_disk, whitney)
from bmoext.dyadic import DyadicCube, SQRT_N, box_distance
from bmoext.errors import WhitneyInvariantError
from bmoext.whitney import (ACCEPT_FACTOR, TAG_COMPLEMENT, TAG_DOMAIN,
                            _nearest_domain_cube, build_whitney,
                            find_big_cube_near, find_interior_point,
                            matching_cube, matching_distance_constant,
                            matching_size_bound, whitney_chain)
from tests.conftest import DISK_WINDOW
from tests.test_cli import star_polygons


def cube_gap(q1, q2):
    """Distance between the closed boxes of two cubes."""
    return float(box_distance(q1.lower, q1.lower + q1.side,
                              q2.lower, q2.lower + q2.side))


def cube_gap_to_point(q, p):
    """Distance from a point to the closed box of a cube (0 inside it)."""
    return float(box_distance(q.lower, q.lower + q.side, p, p))


def built_families(dec):
    """{(level, i, j): tag} over the cubes of a decomposition."""
    return {(lvl, i, j): tag for tag, lvl, i, j, _, _ in dec.cubes.tolist()}


def frontier_cells(dec):
    return sorted(map(tuple, dec.frontier.tolist()))


# -- exhaustive level-sweep oracle -------------------------------------------

def exhaustive_whitney(domain, window, max_depth):
    """Independent reconstruction: test every dyadic cell of every level,
    accept when the clearance threshold holds and no ancestor was accepted."""
    accepted = {}
    blocked = set()     # cells inside an accepted ancestor
    frontier = []
    for level in range(max_depth + 1):
        n = 1 << level
        side = window.cell_size(level)
        for i in range(n):
            for j in range(n):
                if (level, i, j) in blocked:
                    blocked.update({(level + 1, 2 * i + a, 2 * j + b)
                                    for a in (0, 1) for b in (0, 1)} if level < max_depth else [])
                    continue
                c = (window.origin[0] + (i + 0.5) * side,
                     window.origin[1] + (j + 0.5) * side)
                sd = domain.sd(c)
                if sd >= ACCEPT_FACTOR * side:
                    accepted[(level, i, j)] = TAG_DOMAIN
                    mark = True
                elif -sd >= ACCEPT_FACTOR * side:
                    accepted[(level, i, j)] = TAG_COMPLEMENT
                    mark = True
                else:
                    mark = False
                    if level == max_depth:
                        frontier.append((level, i, j))
                if mark and level < max_depth:
                    blocked.update({(level + 1, 2 * i + a, 2 * j + b)
                                    for a in (0, 1) for b in (0, 1)})
    return accepted, frontier


@pytest.mark.parametrize("dom,window,depth", [
    (disk(1.0), DISK_WINDOW, 7),
    (disk(4.0), Window((-0.5, -0.5), 1.0), 4),   # constant-sign window
])
def test_build_matches_exhaustive_oracle(dom, window, depth):
    dec = build_whitney(dom, window, depth)
    oracle, oracle_frontier = exhaustive_whitney(dom, window, depth)
    assert built_families(dec) == oracle
    assert frontier_cells(dec) == sorted(oracle_frontier)


def test_halfplane_wc2_exact():
    hp = half_plane()
    dec = build_whitney(hp, Window((0.0, 0.0), 1.0), 6)
    for _, level, _, j, _, _ in dec.cubes.tolist():
        side = dec.window.cell_size(level)
        # distance to the line y = 0 is exact for axis-parallel boxes
        j_lo = j * side
        assert 1.0 <= j_lo / side <= 4.0 * SQRT_N + 1e-12


def test_invariants_fail_loudly_for_lying_oracle():
    bad = disk(1.0)
    lying = type(bad)(lambda p: 3.0 * bad.sd_func(p), bad.bounding_box,
                      "lying", default_window=bad.default_window)
    with pytest.raises(WhitneyInvariantError):
        build_whitney(lying, DISK_WINDOW, 5)


def test_decomposition_is_read_only(disk_dec):
    with pytest.raises(dataclasses.FrozenInstanceError):
        disk_dec.cubes = disk_dec.cubes.copy()
    with pytest.raises(dataclasses.FrozenInstanceError):
        disk_dec.max_depth = 3
    columns = (disk_dec.cubes, disk_dec.frontier, disk_dec.domain_rows,
               disk_dec.domain_lo, disk_dec.domain_hi, disk_dec.domain_starts,
               disk_dec.leaf_keys, disk_dec.leaf_levels, disk_dec.leaf_ids,
               disk_dec.adj_indptr, disk_dec.adj_indices)
    for col in columns:
        with pytest.raises(ValueError):
            col[0] = col[-1]
    with pytest.raises(ValueError):
        disk_dec.cubes["level"][0] = 3


def test_graph_is_read_only(disk_graph):
    with pytest.raises(dataclasses.FrozenInstanceError):
        disk_graph.level = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        disk_graph.node_pos = disk_graph.node_pos.copy()
    adj = disk_graph.adj
    for arr in (disk_graph.node_pos, disk_graph.node_sd, disk_graph.node_grid,
                adj.data, adj.indices, adj.indptr):
        with pytest.raises(ValueError):
            arr[0] = arr[-1]


def test_deep_build_beyond_int64_keys():
    # the window's corner touches the unit circle where the tangent is
    # diagonal, so only a few cells per level stay undecided and the build
    # reaches depth 40, past the 31 levels an int64 Morton key can hold
    a = math.sqrt(0.5)
    w = Window((a, a), 0.5)
    dec = build_whitney(disk(1.0), w, 40)
    assert dec.depth == 40 and dec.leaf_keys.dtype == object
    shallow = build_whitney(disk(1.0), w, 31)
    assert shallow.leaf_keys.dtype == np.int64
    deep_cubes = built_families(dec)
    assert built_families(shallow).items() <= deep_cubes.items()
    assert max(key[0] for key in deep_cubes) > 31
    for k in range(len(dec.cubes)):
        assert dec.index_of(dec.cube(k)) == k
    p = (a + 1e-11, a + 2e-11)
    kind, idx = dec.locate(p)
    assert kind == TAG_COMPLEMENT and dec.cube(idx).level > 31
    assert cube_gap_to_point(dec.cube(idx), p) == 0.0
    for p in a + 0.5 * np.random.default_rng(3).uniform(size=(20, 2)):
        kind, idx = dec.locate(p)
        assert kind == TAG_COMPLEMENT and cube_gap_to_point(dec.cube(idx), p) == 0.0


def test_neighbors_interior_cube(disk_dec):
    # a uniform-level region away from the boundary has the 8 grid neighbors
    level = disk_dec.cubes["level"]
    hits = 0
    for idx in range(len(disk_dec.cubes)):
        nbs = disk_dec.adjacent(idx)
        if len(nbs) == 8 and (level[nbs] == level[idx]).all():
            hits += 1
    assert hits > 0


def test_neighbor_sidelength_ratio(disk_dec):
    level = disk_dec.cubes["level"]
    for idx in range(len(disk_dec.cubes)):
        assert (np.abs(level[disk_dec.adjacent(idx)] - level[idx]) <= 2).all()


def test_neighbor_count_bounded(disk_dec):
    worst = np.diff(disk_dec.adj_indptr).max()
    assert worst <= 24  # measured envelope for the planar dimension constant


def reference_neighbor_indices(dec):
    """Every cube's ring probes in one pass, then one global sort of the
    (cube, leaf) keys and a pass that drops repeats."""
    c = dec.cubes
    n = len(c)
    cube = np.arange(n)
    level = np.repeat(c["level"] + 2, len(whitney._RING))
    pi = (4 * c["i"][:, None] + whitney._RING[:, 0]).ravel()
    pj = (4 * c["j"][:, None] + whitney._RING[:, 1]).ravel()
    cube = np.repeat(cube, len(whitney._RING))
    side = np.left_shift(1, level)
    ok = (pi >= 0) & (pj >= 0) & (pi < side) & (pj < side)
    cube, level, pi, pj = cube[ok], level[ok], pi[ok], pj[ok]
    leaf = dec.leaf_ids[dec.leaf_containing(level, pi, pj)]
    is_domain = c["tag"] == TAG_DOMAIN
    same = leaf < n
    same[same] = is_domain[leaf[same]] == is_domain[cube[same]]
    pairs = np.sort(cube[same] * n + leaf[same])
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    rows, cols = np.divmod(pairs, max(n, 1))
    return np.searchsorted(rows, np.arange(n + 1)), cols


def assert_same_adjacency(indptr_indices, dec):
    for got, want in zip(indptr_indices, reference_neighbor_indices(dec)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dom, depth", [
    (disk(1.0), 12), (slit_disk(1.0, 0.5), 11), (l_shape(), 9), (cusp(4.0), 9),
    (intro_lipschitz(), 9),
], ids=["disk", "slit_disk", "l_shape", "cusp", "intro_lipschitz"])
def test_adjacency_matches_global_sort(dom, depth):
    dec = build_whitney(dom, dom.default_window, depth)
    assert_same_adjacency((dec.adj_indptr, dec.adj_indices), dec)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(star_polygons())
def test_adjacency_matches_global_sort_on_star_polygons(case):
    dom = polygon(*case)
    dec = build_whitney(dom, dom.default_window, 7)
    # passes of 97 cubes, so keys meet across many chunk boundaries
    with mock.patch.object(whitney, "EVAL_BUDGET", 97 * len(whitney._RING)):
        assert_same_adjacency(dec.neighbor_indices(), dec)


@pytest.mark.memory
def test_whitney_build_memory_is_bounded():
    # sorting every raw ring probe at once peaked at 90 MB here
    tracemalloc.start()
    try:
        dec = build_whitney(disk(1.0), DISK_WINDOW, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dec.cubes) > 80_000
    assert peak < 64 * 2**20


@pytest.mark.memory
def test_whitney_build_peak_stays_near_its_result():
    # the adjacency's copies at the end of neighbor_indices, a side-ratio pass
    # over it in check_invariants and the build's last level, all alive at
    # once, peaked at 48.4 MiB here, and probe passes of 8,192 cubes at
    # 27.3 MiB; the decomposition itself holds 15 MiB, and with passes of
    # EVAL_BUDGET probes the build measured 20.7 MiB
    tracemalloc.start()
    try:
        build_whitney(disk(1.0), DISK_WINDOW, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


@pytest.mark.memory
def test_whitney_build_peak_is_its_result_plus_one_probe_pass():
    # the window-16 build of the window-growth experiment (8,722 cubes):
    # probe passes of 8,192 cubes peaked at 13.7 MiB here; with passes of
    # EVAL_BUDGET probes it measured 2.9 MiB, of which the result holds 1.5
    tracemalloc.start()
    try:
        dec = build_whitney(intro_lipschitz(), Window((-16.0, -16.0), 32.0), 9)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dec.cubes) == 8_722
    assert peak < held + whitney.EVAL_BUDGET * 128


@pytest.mark.parametrize("fine, raises", [(3, False), (4, True)])
def test_touching_leaves_more_than_two_levels_apart_raise(fine, raises):
    # level-1 cubes in three quadrants of the unit window and level-`fine`
    # cubes filling the fourth, so the cube at (0, 0) touches leaves
    # fine - 1 levels finer
    m = 1 << (fine - 1)
    cells = [(1, 0, 0), (1, 0, 1), (1, 1, 1)] + [(fine, m + i, j) for i in range(m)
                                                   for j in range(m)]
    cubes = np.array([(TAG_DOMAIN, *cell, 0.0, 0.0) for cell in cells], dtype=whitney.CUBE_DTYPE)
    args = (disk(1.0), Window((0.0, 0.0), 1.0), fine, cubes, np.empty((0, 3), np.int64))
    if raises:
        with pytest.raises(WhitneyInvariantError, match=r"side ratio outside \[1/4, 4\]"):
            whitney.WhitneyDecomposition(*args)
    else:
        assert whitney.WhitneyDecomposition(*args).adjacent(0).tolist() == [1, 2, 3, 4, 5, 6]


def reference_cell_rows(dec, level):
    """Every level-`level` cell's leaf by one Morton lookup."""
    n = 1 << level
    pos = dec.leaf_containing(level, *np.indices((n, n)).reshape(2, -1))
    ids = dec.leaf_ids[pos]
    held = (dec.leaf_levels[pos] <= level) & (ids < len(dec.cubes))
    return np.where(held, ids, -1).astype(np.int32).reshape(n, n)


CELL_ROW_DOMAINS = [disk(1.0), slit_disk(1.0, 0.5), l_shape(), cusp(4.0), intro_lipschitz()]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(CELL_ROW_DOMAINS), st.integers(0, 8), st.integers(-3, 2),
       st.sampled_from([1.0, 0.5, 0.3]))
def test_cell_rows_match_leaf_lookup(dom, depth, offset, scale):
    w = dom.default_window
    window = Window(np.asarray(w.origin) + (1.0 - scale) * w.size / 2, scale * w.size)
    dec = build_whitney(dom, window, depth)
    level = max(0, depth + offset)
    got, want = dec.cell_rows(level), reference_cell_rows(dec, level)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_neighbors_match_brute_force(disk_dec, rng):
    idxs = rng.choice(len(disk_dec.cubes), size=30, replace=False)
    cubes = [disk_dec.cube(k) for k in range(len(disk_dec.cubes))]
    tag = disk_dec.cubes["tag"]
    for idx in idxs:
        q = cubes[idx]
        brute = sorted(k for k, other in enumerate(cubes)
                       if k != idx and tag[k] == tag[idx]
                       and cube_gap(q, other) == 0.0)
        assert brute == disk_dec.adjacent(idx).tolist()


def test_cube_of_another_window_is_a_caller_error():
    # same (level, i, j) as a complement cube, but in a shifted window: not
    # a cube of this decomposition, so a KeyError and not a MatchingError
    dom = disk(1.0)
    dec = build_whitney(dom, dom.default_window, 7)
    q = DyadicCube(6, (2, 24), dom.default_window)
    assert dec.cubes["tag"][dec.index_of(q)] == TAG_COMPLEMENT
    matching_cube(dec, q, 0.5, 0.5)
    other = DyadicCube(6, (2, 24), Window((10.0, 10.0), 2.5))
    with pytest.raises(KeyError):
        dec.index_of(other)
    with pytest.raises(KeyError, match="not a complement cube"):
        matching_cube(dec, other, 0.5, 0.5)


def test_matching_constant_value():
    assert matching_distance_constant(0.5) == pytest.approx(
        5.0 * math.sqrt(2.0) + 64.0, rel=1e-12)
    assert matching_distance_constant(0.5) == pytest.approx(71.0711, abs=5e-5)


def test_matching_halfplane_mirror():
    hp = half_plane()
    w = Window((-2.0, -2.0), 4.0)
    dec = build_whitney(hp, w, 8)
    eps, delta = 0.5, 1.0
    bound = matching_size_bound(eps, delta)
    c = matching_distance_constant(eps)
    checked = 0
    for idx in dec.indices(TAG_COMPLEMENT):
        q = dec.cube(idx)
        side = q.side
        if side > bound:
            continue
        q_star = matching_cube(dec, q, eps, delta)
        assert 1.0 <= q_star.side / side <= 4.0
        d = cube_gap(q_star, q)
        assert d <= c * side + 1e-12 * w.size
        # the mirrored cube across y = 0 is itself a valid candidate
        n = 1 << q.level
        mirror = DyadicCube(q.level, (q.coords[0], n - 1 - q.coords[1]), w)
        assert dec.cubes["tag"][dec.index_of(mirror)] == TAG_DOMAIN
        assert d <= cube_gap(mirror, q) + 1e-12 * w.size
        checked += 1
    assert checked > 50


def test_matching_disk_exhaustive_scan(disk_dec):
    eps, delta = 0.7, 0.5
    bound = matching_size_bound(eps, delta)
    c = matching_distance_constant(eps)
    e_cubes = [disk_dec.cube(e) for e in disk_dec.indices(TAG_DOMAIN)]
    e_lo = np.array([qe.lower for qe in e_cubes])
    e_side = np.array([qe.side for qe in e_cubes])
    qual = [k for k in disk_dec.indices(TAG_COMPLEMENT)
            if disk_dec.cube(k).side <= bound]
    assert qual, "depth too shallow for the matching regime"
    for k in qual[::3]:
        q = disk_dec.cube(k)
        got = matching_cube(disk_dec, q, eps, delta)
        # every domain cube, each with its own box distance to q
        ratio = e_side / q.side
        d = box_distance(e_lo, e_lo + e_side[:, None], q.lower, q.lower + q.side)
        near = d <= c * q.side + 1e-12 * disk_dec.window.size
        cands = [(d[n], qe.level, qe.coords[0], qe.coords[1])
                 for n, qe in enumerate(e_cubes)
                 if 1.0 <= ratio[n] <= 4.0 and near[n]]
        assert cands, "oracle found no candidate but matching_cube succeeded"
        best = min(cands)
        assert (got.level, got.coords[0], got.coords[1]) == best[1:]


def reference_nearest_domain_cube(dec, levels, lo, hi, accept):
    """The per-level scan that the domain-cube table replaced: each level's
    domain cubes in (i, j) order, where the first nearest of a level wins
    only when strictly nearer than the best of the coarser levels."""
    c = dec.cubes
    best, best_d = None, math.inf
    for lvl in levels:
        rows = np.flatnonzero((c["tag"] == TAG_DOMAIN) & (c["level"] == lvl))
        if rows.size == 0:
            continue
        s = dec.window.cell_size(lvl)
        coords = np.column_stack([c["i"][rows], c["j"][rows]])
        blo = np.asarray(dec.window.origin) + coords * s
        d = box_distance(blo, blo + s, lo, hi)
        d = np.where(accept(d), d, math.inf)
        k = int(np.argmin(d))
        if d[k] < best_d:
            best, best_d = rows[k], d[k]
    return None if best is None else dec.cube(best)


@pytest.fixture(scope="module")
def query_decs():
    return [build_whitney(dom, dom.default_window, 7)
            for dom in (disk(1.0), l_shape(), slit_disk(1.0, 0.5), intro_lipschitz())]


@st.composite
def nearest_queries(draw, decs):
    """A decomposition, a level range (empty, or reaching past the deepest
    level), a query box and an accept test. Dyadic cells as queries meet
    cubes of several levels at the same distance, often 0; the radius is 0,
    inf, a random value, or the exact distance of one domain cube."""
    dec = decs[draw(st.integers(0, len(decs) - 1))]
    top = draw(st.integers(0, dec.depth + 1))
    bottom = draw(st.integers(top - 2, dec.depth + 1))
    w, u = dec.window, st.floats(-0.1, 1.1)
    kind = draw(st.sampled_from(["cell", "box", "point"]))
    if kind == "cell":
        level = draw(st.integers(0, dec.depth))
        ij = st.integers(0, (1 << level) - 1)
        q = DyadicCube(level, (draw(ij), draw(ij)), w)
        lo, hi = q.lower, q.lower + q.side
    else:
        lo = np.asarray(w.origin) + w.size * np.array([draw(u), draw(u)])
        hi = lo + (w.size * np.array([draw(st.floats(0, 0.3)), draw(st.floats(0, 0.3))])
                   if kind == "box" else 0.0)
    radius = draw(st.sampled_from(["zero", "inf", "random", "cube"]))
    if radius == "cube":
        k = draw(st.integers(0, len(dec.domain_rows) - 1))
        radius = float(box_distance(dec.domain_lo[k], dec.domain_hi[k], lo, hi))
    elif radius == "random":
        radius = draw(st.floats(0, w.size))
    else:
        radius = 0.0 if radius == "zero" else math.inf
    strict = draw(st.booleans())
    accept = (lambda d: d < radius) if strict else (lambda d: d <= radius)
    return dec, top, bottom, lo, hi, accept


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_table_scan_matches_per_level_scan(query_decs, data):
    dec, top, bottom, lo, hi, accept = data.draw(nearest_queries(query_decs))
    got = _nearest_domain_cube(dec, top, bottom, lo, hi, accept)
    want = reference_nearest_domain_cube(dec, range(top, bottom + 1), lo, hi, accept)
    assert (got is None and want is None) or got.sort_key() == want.sort_key()


def test_find_interior_point_center(disk_dec):
    q = DyadicCube(4, (8, 8), DISK_WINDOW)  # central cube, deep inside
    dom = disk_dec.domain
    z = find_interior_point(dom, q, 0.5)
    assert z is not None and np.allclose(z, q.center)


def test_find_interior_point_straddling_cube(disk1):
    # cube straddling the circle; dense-grid oracle confirms the threshold
    q = DyadicCube(4, (14, 8), DISK_WINDOW)
    corners = q.lower + q.side * np.array([[0, 0], [1, 0], [0, 1], [1, 1]])
    assert disk1.signed_distance(corners).min() < 0 < disk1.sd(q.lower)
    z = find_interior_point(disk1, q, 0.5)
    target = 0.5 * q.side / 32.0
    g = np.linspace(0, q.side, 100)
    dense = q.lower + np.stack(np.meshgrid(g, g, indexing="ij"), -1).reshape(-1, 2)
    assert disk1.signed_distance(dense).max() >= target  # oracle: a point exists
    assert z is not None and disk1.sd(z) >= target


def test_find_interior_point_cusp_tip_fails():
    dom = cusp(4.0)
    w = dom.default_window
    # tiny cube hugging the cusp tip: every point has clearance below the bar
    q = DyadicCube(9, w.cell_of_point((0.004, 0.0), 9), w)
    target = 0.5 * q.side / 32.0
    g = np.linspace(0, q.side, 120)
    dense = q.lower + np.stack(np.meshgrid(g, g, indexing="ij"), -1).reshape(-1, 2)
    assert dom.signed_distance(dense).max() < target  # oracle: nothing to find
    assert find_interior_point(dom, q, 0.5) is None


def test_find_big_cube_near_center(disk_dec):
    s = find_big_cube_near(disk_dec, (0.0, 0.0), 0.5, 0.5)
    assert s is not None
    assert s.side >= 0.5 * 0.5 / 640.0


def test_find_big_cube_near_halfplane_oracle():
    hp = half_plane()
    w = Window((-2.0, -2.0), 4.0)
    dec = build_whitney(hp, w, 9)
    eps, delta = 0.5, 0.5
    x = (0.0, 1e-3)
    s = find_big_cube_near(dec, x, eps, delta)
    assert s is not None and s.side >= eps * delta / 640.0
    # exhaustive scan oracle
    best = None
    for k in dec.indices(TAG_DOMAIN):
        q = dec.cube(k)
        if q.side < eps * delta / 640.0:
            continue
        d = math.hypot(max(0.0, q.lower[0] - x[0], x[0] - q.lower[0] - q.side),
                       max(0.0, q.lower[1] - x[1], x[1] - q.lower[1] - q.side))
        if d < delta * (1 / eps + math.sqrt(2)):
            cand = (d, q.level, q.coords[0], q.coords[1])
            best = cand if best is None or cand < best else best
    assert best is not None
    assert (s.level, s.coords[0], s.coords[1]) == best[1:]


def test_find_big_cube_near_cusp_fails():
    dom = cusp(4.0)
    dec = build_whitney(dom, dom.default_window, 10)
    assert find_big_cube_near(dec, (0.005, 0.0), 0.5, 0.02) is None


def test_whitney_chain_basics(disk_dec):
    idx = next(k for k in disk_dec.indices(TAG_DOMAIN)
               if disk_dec.cubes["level"][k] == 4)
    q = disk_dec.cube(idx)
    c = q.center
    assert len(whitney_chain(disk_dec, c, c + 1e-4)) == 1
    nb = disk_dec.cube(int(disk_dec.adjacent(idx)[0]))
    chain = whitney_chain(disk_dec, c, nb.center)
    assert len(chain) == 2


def test_whitney_chain_vs_dijkstra(disk_dec):
    chain = whitney_chain(disk_dec, (-0.5, 0.0), (0.5, 0.0))
    # unit-weight Dijkstra oracle over the same adjacency
    src = disk_dec.index_of(chain[0])
    dst = disk_dec.index_of(chain[-1])
    dist = {src: 0}
    heap = [(0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == dst:
            break
        if d > dist.get(u, 1 << 30):
            continue
        for v in disk_dec.adjacent(u).tolist():
            if disk_dec.cubes["tag"][v] != TAG_DOMAIN:
                continue
            if d + 1 < dist.get(v, 1 << 30):
                dist[v] = d + 1
                heapq.heappush(heap, (d + 1, v))
    assert len(chain) == dist[dst] + 1


def test_containment_relation_with_accepted_family(disk_dec):
    # every moderately fine window cell is comparable to a decomposition cube
    eps = 0.3
    bound = eps / (160.0 * SQRT_N)
    level = 6
    n = 1 << level
    shift = disk_dec.depth - level
    tags = np.concatenate([disk_dec.cubes["tag"], np.full(len(disk_dec.frontier), "F")])
    for i in range(n):
        for j in range(n):
            cell = DyadicCube(level, (i, j), DISK_WINDOW)
            # the leaves holding the first and the last finest cell of the
            # window cell bound the run of leaves that meet it
            first, last = disk_dec.leaf_containing(
                [disk_dec.depth] * 2, [i << shift, ((i + 1) << shift) - 1],
                [j << shift, ((j + 1) << shift) - 1])
            leaf_level = int(disk_dec.leaf_levels[first])
            if leaf_level <= level:
                # the cell is a cube, or lies inside an accepted ancestor,
                # which is then the big partner
                assert first == last
                assert tags[disk_dec.leaf_ids[first]] in (TAG_DOMAIN, TAG_COMPLEMENT)
                continue
            # split cell: a descendant cube (or undecided frontier cell,
            # witnessing the truncation) of comparable size must exist
            found = disk_dec.leaf_levels[first:last + 1]
            assert found.size and (found > level).all()
            best_side = DISK_WINDOW.cell_size(int(found.min()))
            assert best_side >= bound * cell.side - 1e-15


def test_find_big_cube_near_slit_tip_truncation():
    # tiny reach near the slit tip: all cubes of admissible size live beyond
    # it once the build is truncated at max_depth
    dom = slit_disk(1.0, 0.5)
    dec = build_whitney(dom, Window((-1.25, -1.25), 2.5), 10)
    assert find_big_cube_near(dec, (0.5005, 1e-4), 0.5, 0.001) is None
