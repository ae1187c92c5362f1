"""The polygon oracle against the brute-force kernels it replaced.

`reference_distances` and `reference_parity` are the point-by-edge kernels
that the polygon oracle used before it worked in blocks and read parity from
a slab index. The oracle must agree with them bit for bit, and must still
reject every loop layout that makes its sign meaningless; `reference_validate`
is the loop-by-loop validation that one pass over all loops replaced.
"""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bmoext import cusp, domains, l_shape, polygon
from bmoext.domains import (_crossings_parity, _edge_columns, _first_crossing, _kept_runs,
                            _run_index, _segment_distances, _slab_index)
from bmoext.errors import PolygonError

SQUARE = [(0, 0), (4, 0), (4, 4), (0, 4)]
SQUARE_HOLE = [(1, 1), (3, 1), (3, 3), (1, 3)]
L_LOOP = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
SMALL_BUDGET = 256      # pairs a block: an oracle call takes many blocks


def reference_distances(pts, seg_a, seg_b, pairs=1 << 20):
    """Min distance from each point to a set of segments; chunked over
    points, about `pairs` (point, segment) pairs at a time."""
    out = np.empty(len(pts))
    chunk = max(1, pairs // len(seg_a))
    ab = seg_b - seg_a                       # (M, 2)
    den = np.maximum(np.einsum("md,md->m", ab, ab), 1e-300)
    for lo in range(0, len(pts), chunk):
        p = pts[lo:lo + chunk]               # (P, 2)
        ap = p[:, None, :] - seg_a[None, :, :]        # (P, M, 2)
        t = np.clip(np.einsum("pmd,md->pm", ap, ab) / den, 0.0, 1.0)
        close = seg_a[None, :, :] + t[:, :, None] * ab[None, :, :]
        d = np.hypot(p[:, None, 0] - close[:, :, 0], p[:, None, 1] - close[:, :, 1])
        out[lo:lo + chunk] = d.min(axis=1)
    return out


def reference_parity(pts, loops, pairs=1 << 20):
    """Even-odd point-in-polygon over all loops (holes flip parity)."""
    inside = np.zeros(len(pts), dtype=bool)
    chunk = max(1, pairs // sum(len(lp) for lp in loops))
    for lo in range(0, len(pts), chunk):
        p = pts[lo:lo + chunk]
        cnt = np.zeros(len(p), dtype=np.int64)
        for loop in loops:
            a = loop
            b = np.roll(loop, -1, axis=0)
            ya, yb = a[None, :, 1], b[None, :, 1]
            py = p[:, 1:2]
            cond = (ya <= py) != (yb <= py)
            # x of edge at height py, guarded where cond is false
            with np.errstate(divide="ignore", invalid="ignore"):
                xs = a[None, :, 0] + (py - ya) * (b[None, :, 0] - a[None, :, 0]) / (yb - ya)
            cnt += np.sum(cond & (xs > p[:, 0:1]), axis=1)
        inside[lo:lo + chunk] = (cnt % 2) == 1
    return inside


def reference_sd(loops, pts):
    loops = [np.asarray(lp, dtype=float) for lp in loops]
    seg_a = np.concatenate(loops)
    seg_b = np.concatenate([np.roll(lp, -1, axis=0) for lp in loops])
    with np.errstate(over="ignore"):   # far probes overflow xs on edges they never cross
        inside = reference_parity(pts, loops)
    return np.where(inside, 1.0, -1.0) * reference_distances(pts, seg_a, seg_b)


def reference_first_crossing(loop):
    """The first pair (i, j) of a loop's edges, in (i, j) order, that cross
    at a point interior to both, found by one orientation test per pair."""
    def orient(p, q, r):
        v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return 0 if abs(v) < 1e-15 else (1 if v > 0 else -1)

    m = len(loop)
    segs = [(loop[i], loop[(i + 1) % m]) for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if j == i + 1 or (i == 0 and j == m - 1):
                continue
            (a1, a2), (b1, b2) = segs[i], segs[j]
            o1, o2 = orient(a1, a2, b1), orient(a1, a2, b2)
            o3, o4 = orient(b1, b2, a1), orient(b1, b2, a2)
            if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
                return i, j
    return None


def cusp_loop(p=4.0, n_side=160):
    xs = np.geomspace(1e-3, 1.0, n_side)
    return [(0.0, 0.0)] + [(x, -x ** p) for x in xs] + [(x, x ** p) for x in xs[::-1]]


def probe_points(loops, window, rng, n_random):
    """Random points of the window and a margin around it, every vertex,
    every edge midpoint, random points at exactly a vertex height (the slab
    boundaries) and points far outside the bounding box."""
    verts = np.concatenate([np.asarray(lp, dtype=float) for lp in loops])
    mids = np.concatenate([0.5 * (np.asarray(lp, float) + np.roll(np.asarray(lp, float), -1, axis=0))
                           for lp in loops])
    o, s = np.asarray(window.origin), window.size
    random = o + rng.uniform(-0.25, 1.25, size=(n_random, 2)) * s
    heights = np.column_stack([o[0] + rng.uniform(-0.25, 1.25, len(verts)) * s, verts[:, 1]])
    far = np.array([[1e6, 0.0], [-1e6, 0.5], [0.5, 1e6], [0.25, -1e6], [1e9, -1e9],
                    [-1e300, 1e300], [3e8, verts[0, 1]]])
    return np.concatenate([random, verts, mids, heights, far])


CASES = {
    "cusp(4)": ([cusp_loop()], cusp(4.0)),
    "l_shape": ([L_LOOP], l_shape()),
    "square_with_hole": ([SQUARE, SQUARE_HOLE], polygon(SQUARE, holes=[SQUARE_HOLE])),
}


@pytest.mark.parametrize("name", CASES)
def test_oracle_bitwise_equals_reference(name, rng):
    loops, dom = CASES[name]
    pts = probe_points(loops, dom.default_window, rng, 20_000)
    want = reference_sd(loops, pts)
    assert np.array_equal(dom.signed_distance(pts), want)
    with mock.patch.object(domains, "EVAL_BUDGET", SMALL_BUDGET):
        assert np.array_equal(dom.signed_distance(pts), want)


def test_oracle_handles_horizontal_edges_at_point_height():
    # every edge of a staircase is horizontal or vertical, and the probes sit
    # on the stair heights, on the treads and on the risers
    stair = [(0, 0), (3, 0), (3, 1), (2, 1), (2, 2), (1, 2), (1, 3), (0, 3)]
    dom = polygon(stair)
    g = np.linspace(-0.5, 3.5, 33)
    pts = np.stack(np.meshgrid(g, g, indexing="ij"), -1).reshape(-1, 2)
    assert np.array_equal(dom.signed_distance(pts), reference_sd([stair], pts))


@st.composite
def star_polygons(draw):
    """A star-shaped loop around a random centre: sorted angles with gaps
    below pi/2 and radii in [r_min, 1], so it is simple and contains the disk
    of radius r_min / sqrt(2); with a hole, a smaller star inside that disk."""
    def star(n, r_lo, r_hi, jitter):
        u = draw(st.lists(st.floats(0.0, jitter), min_size=n, max_size=n))
        r = draw(st.lists(st.floats(r_lo, r_hi), min_size=n, max_size=n))
        th = 2 * np.pi * (np.arange(n) + np.asarray(u)) / n
        return np.column_stack([r * np.cos(th), r * np.sin(th)])

    centre = np.array([draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))])
    r_min = draw(st.floats(0.2, 0.9))
    loops = [centre + star(draw(st.integers(6, 40)), r_min, 1.0, 0.5)]
    if draw(st.booleans()):
        loops.append(centre + star(draw(st.integers(3, 12)), 0.1 * r_min, 0.6 * r_min, 0.4))
    return [[tuple(v) for v in lp.tolist()] for lp in loops], draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(star_polygons())
def test_star_polygons_match_reference_and_are_lipschitz(case):
    loops, seed = case
    dom = polygon(loops[0], holes=loops[1:])
    rng = np.random.default_rng(seed)
    pts = probe_points(loops, dom.default_window, rng, 2_000)
    want = reference_sd(loops, pts)
    assert np.array_equal(dom.signed_distance(pts), want)
    with mock.patch.object(domains, "EVAL_BUDGET", SMALL_BUDGET):
        assert np.array_equal(dom.signed_distance(pts), want)
    w = dom.default_window
    x = np.asarray(w.origin) + rng.uniform(-0.25, 1.25, size=(4_000, 2)) * w.size
    y = x + rng.normal(scale=0.3, size=x.shape)
    gap = np.hypot(x[:, 0] - y[:, 0], x[:, 1] - y[:, 1])
    assert (np.abs(dom.signed_distance(x) - dom.signed_distance(y)) <= gap + 1e-12).all()


def bits(a):
    """The bit patterns of a float array: -0.0 differs from 0.0 and NaNs compare."""
    return np.asarray(a, dtype=float).view(np.uint64)


def star_loop(n, rng, centre=(0.0, 0.0), r_lo=0.5, r_hi=1.0):
    """A star-shaped loop of n >= 5 vertices: sorted angles with gaps below
    pi/2 and radii in [r_lo, r_hi], so it is simple."""
    th = 2 * np.pi * (np.arange(n) + rng.uniform(0.0, 0.5, n)) / n
    r = rng.uniform(r_lo, r_hi, n)
    return np.asarray(centre) + np.column_stack([r * np.cos(th), r * np.sin(th)])


@st.composite
def many_edge_stars(draw):
    """A star of 9 to about 3000 edges (log-uniform) around a random
    centre, with a star hole of 5 to 200 edges inside its inner disk or
    none, drawn from one seed."""
    n = int(2.0 ** draw(st.floats(3.17, 11.55)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    centre = rng.uniform(-2.0, 2.0, 2)
    r_min = rng.uniform(0.2, 0.9)
    loops = [star_loop(n, rng, centre, r_min)]
    if draw(st.booleans()):
        loops.append(star_loop(draw(st.integers(5, 200)), rng, centre, 0.1 * r_min, 0.6 * r_min))
    return loops, seed


def run_probes(loops, window, rng):
    """Random points of the window and a margin around it, every vertex, a
    random point on every edge, points at random pairs of vertex
    coordinates, points far outside, NaN points, and points about 1e-170
    and 1e-310 off random edges, whose squares underflow."""
    verts = np.concatenate(loops)
    ends = np.concatenate([np.roll(lp, -1, axis=0) for lp in loops])
    o, s = np.asarray(window.origin), window.size
    random = o + rng.uniform(-0.25, 1.25, size=(1_000, 2)) * s
    on_edges = verts + rng.uniform(0.0, 1.0, (len(verts), 1)) * (ends - verts)
    lattice = np.column_stack([rng.choice(verts[:, 0], 300), rng.choice(verts[:, 1], 300)])
    far = np.array([[1e200, 0.5], [-3e200, 2e200], [0.5, -1e200], [1e6, 0.0],
                    [-1e300, 1e300], [3e8, verts[0, 1]]])
    nan = np.array([[np.nan, 0.0], [0.0, np.nan], [np.nan, np.nan]])
    k = rng.choice(len(verts), 100)
    d = ends[k] - verts[k]
    normal = np.column_stack([-d[:, 1], d[:, 0]]) / np.hypot(d[:, 0], d[:, 1])[:, None]
    mids = 0.5 * (verts[k] + ends[k])
    near = np.concatenate([mids + s * normal for s in (1e-170, -3e-171, 1e-310)])
    return np.concatenate([random, verts, on_edges, lattice, far, nan, near, verts + 1e-170])


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(many_edge_stars())
@example(([star_loop(3000, np.random.default_rng(4))], 4))
def test_run_index_matches_reference_on_many_edge_stars(case):
    loops, seed = case
    dom = polygon(loops[0], holes=loops[1:])
    pts = run_probes(loops, dom.default_window, np.random.default_rng(seed))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = dom.signed_distance(pts)
    assert np.array_equal(bits(got), bits(reference_sd(loops, pts)))


def test_run_index_work_grows_sublinearly():
    # per point, one bound per run and then every edge of each kept run:
    # sixteen times the edges should cost about four times the work
    work = {}
    for n in (256, 4096):
        loops = [star_loop(n, np.random.default_rng(n))]
        index = _run_index(loops, _edge_columns(loops))
        pts = polygon(loops[0]).default_window.origin + np.random.default_rng(1).uniform(
            0.0, 3.0, size=(4_000, 2))
        run, _ = _kept_runs(pts[:, 0].copy(), pts[:, 1].copy(), index)
        work[n] = index.cols.shape[1] + len(run) * index.size / len(pts)
    assert work[4096] < 16 ** 0.75 * work[256]


@pytest.mark.memory
def test_oracle_memory_is_bounded():
    dom = cusp(4.0)
    pts = np.random.default_rng(5).uniform(-0.25, 1.0, size=(200_000, 2))
    tracemalloc.start()
    try:
        dom.signed_distance(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


def test_first_crossing_matches_pairwise_loop():
    rng = np.random.default_rng(11)
    simple = 0
    for _ in range(200):
        # random loops on a coarse lattice: most cross themselves, some only touch
        loop = rng.integers(0, 6, size=(int(rng.integers(4, 12)), 2)).astype(float)
        want = reference_first_crossing(loop)
        if want is None:
            x, y = loop.T
            if np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y) == 0.0:
                # no crossing, but the loop runs back along itself
                with pytest.raises(PolygonError, match="outer loop: encloses no area"):
                    polygon(loop)
                continue
            polygon(loop)
            simple += 1
            continue
        with pytest.raises(PolygonError) as err:
            polygon(loop)
        assert str(err.value) == (f"outer loop: edges {want[0]} and {want[1]} "
                                  "intersect (self-intersecting loop)")
    assert 0 < simple < 200


def test_hole_crossing_a_reflex_outer_loop_is_rejected():
    # every vertex of the hole lies inside the L, but its edge from
    # (1.5, 0.7) to (0.7, 1.5) cuts through the missing quadrant
    with pytest.raises(PolygonError, match="outer loop edge 2 and hole 0 edge 1 intersect"):
        polygon(L_LOOP, holes=[[(0.5, 0.5), (1.5, 0.7), (0.7, 1.5)]])


def test_overlapping_holes_are_rejected():
    with pytest.raises(PolygonError, match="hole 0 edge 1 and hole 1 edge 0 intersect"):
        polygon(SQUARE, holes=[SQUARE_HOLE, [(2, 2), (3.5, 2), (3.5, 3.5), (2, 3.5)]])


@pytest.mark.parametrize("holes, inner, outer", [
    ([SQUARE_HOLE, [(1.5, 1.5), (2.5, 1.5), (2.5, 2.5)]], 1, 0),      # nested
    ([[(1.5, 1.5), (2.5, 1.5), (2.5, 2.5)], SQUARE_HOLE], 0, 1),      # nested, listed first
    ([SQUARE_HOLE, SQUARE_HOLE], 1, 0),                                 # the same hole twice
    ([SQUARE_HOLE, [(2, 1), (3.5, 1), (3.5, 3), (2, 3)]], 1, 0),        # overlap along edges only
    ([SQUARE_HOLE, [(3, 1), (3.5, 1), (3.5, 3), (3, 3)]], 1, 0),        # sharing an edge
    ([SQUARE_HOLE, [(3, 2), (3.5, 1.5), (3.5, 2.5)]], 1, 0),            # touching at a vertex
])
def test_overlapping_or_touching_holes_are_rejected(holes, inner, outer):
    # none of these has a pair of edges that cross at interior points
    with pytest.raises(PolygonError, match=f"hole {inner} has a vertex inside or on hole {outer}"):
        polygon(SQUARE, holes=holes)


@pytest.mark.parametrize("outer, hole", [
    (SQUARE, [(0, 2), (1, 1), (1, 3)]),                      # vertex on the left edge
    (SQUARE, [(2, 0), (3, 1), (1, 1)]),                      # on the bottom edge
    (SQUARE, [(4, 2), (3, 3), (3, 1)]),                      # on the right edge
    (SQUARE, [(2, 4), (1, 3), (3, 3)]),                      # on the top edge
    ([(0, 0), (4, 0), (4, 4), (2, 1), (0, 4)],               # reflex outer vertex (2, 1)
     [(1, 1), (3, 1), (2, 0.5)]),                            # on the hole's top edge
])
def test_hole_touching_the_outer_loop_is_rejected(outer, hole):
    # even-odd parity alone is half-open: it counts a vertex on the left or
    # bottom edge as inside and one on the right or top edge as outside
    with pytest.raises(PolygonError, match="^hole 0 touches the outer loop$"):
        polygon(outer, holes=[hole])


def test_disjoint_holes_are_accepted():
    dom = polygon(SQUARE, holes=[[(0.5, 0.5), (1.5, 0.5), (1.5, 1.5)],
                                 [(2, 2), (3, 2), (3, 3), (2, 3)]])
    assert dom.sd((2.5, 2.5)) == pytest.approx(-0.5, abs=1e-15)
    assert dom.sd((3.5, 0.5)) == pytest.approx(0.5, abs=1e-15)


def _edge_probes(loops):
    """Every vertex, points along every edge, lattice points that share the
    vertex coordinates, points near 1e200 whose squared distances overflow,
    and points within about 1e-170 of an edge, whose squares underflow."""
    verts = np.concatenate([np.asarray(lp, dtype=float) for lp in loops])
    ends = np.concatenate([np.roll(np.asarray(lp, dtype=float), -1, axis=0) for lp in loops])
    t = np.linspace(0.0, 1.0, 7)[:, None, None]
    on_edges = (verts + t * (ends - verts)).reshape(-1, 2)
    xs, ys = np.unique(verts[:, 0]), np.unique(verts[:, 1])
    lattice = np.stack(np.meshgrid(xs, ys, indexing="ij"), -1).reshape(-1, 2)
    far = np.array([[1e200, 0.5], [-3e200, 2e200], [0.5, -1e200], [7e199, 7e199],
                    [1e200, verts[0, 1]], [verts[0, 0], 1e200]])
    d = ends - verts
    normal = np.column_stack([-d[:, 1], d[:, 0]]) / np.hypot(d[:, 0], d[:, 1])[:, None]
    mids = 0.5 * (verts + ends)
    near = np.concatenate([mids + s * normal for s in (1e-170, -3e-171, 1e-200, 1e-310)])
    return np.concatenate([verts, on_edges, lattice, far, near, verts + 1e-170])


@pytest.mark.parametrize("name", CASES)
def test_oracle_edge_cases_bitwise_and_quiet(name):
    loops, dom = CASES[name]
    pts = _edge_probes(loops)
    want = reference_sd(loops, pts)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = dom.signed_distance(pts)
    assert np.array_equal(got, want)


def test_oracle_when_subnormal_squares_misorder_edges():
    # near the corner of a tiny triangle, the offset to the bottom edge is
    # (0, b) and to the diagonal about (c, -c), with b^2 = 1.4 and c^2 = 0.6
    # subnormal units: the squares round to 1 and 1 + 1 units, so the
    # diagonal, the nearer edge, has the larger squared distance
    unit = 2.0 ** -537                       # squares to 2^-1074
    b, c = math.sqrt(1.4) * unit, math.sqrt(0.6) * unit
    tri = [(0.0, 0.0), (1e-150, 0.0), (1e-150, 1e-150)]
    pts = np.array([[b + 2 * c, b]])
    want = reference_sd([tri], pts)
    assert 0 < want[0] < 0.95 * b
    assert np.array_equal(polygon(tri).signed_distance(pts), want)


def reference_validate(outer, holes=()):
    """The validation `polygon` ran loop by loop: each loop checked for size
    and self-crossings, the outer loop for zero shoelace area, each hole for
    touching and leaving the outer loop, then one scan for crossings across
    loops and one containment test per hole. Raises PolygonError."""
    def validate_loop(loop, name):
        if len(loop) < 3:
            raise PolygonError(f"{name}: needs at least 3 vertices, got {len(loop)}")
        pair = _first_crossing([loop])
        if pair is not None:
            raise PolygonError(
                f"{name}: edges {pair[0]} and {pair[1]} intersect (self-intersecting loop)")

    def touching(p, q):
        return bool((_segment_distances(p, _edge_columns([q])) == 0.0).any()
                    or (_segment_distances(q, _edge_columns([p])) == 0.0).any())

    loops = [np.asarray(outer, dtype=float)]
    validate_loop(loops[0], "outer loop")
    x, y = loops[0].T
    if np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y) == 0.0:
        raise PolygonError("outer loop: encloses no area (its vertices are "
                           "collinear or coincide)")
    outer_index = _slab_index(loops)
    for k, h in enumerate(holes):
        hv = np.asarray(h, dtype=float)
        validate_loop(hv, f"hole {k}")
        if touching(hv, loops[0]):
            raise PolygonError(f"hole {k} touches the outer loop")
        if not _crossings_parity(hv, outer_index).all():
            raise PolygonError(f"hole {k} is not inside the outer loop")
        loops.append(hv)
    if not holes:
        return
    names = ["outer loop"] + [f"hole {k}" for k in range(len(loops) - 1)]
    sizes = [len(lp) for lp in loops]
    owner = np.repeat(np.arange(len(loops)), sizes)
    start = np.cumsum([0] + sizes)
    pair = _first_crossing(loops)
    if pair is not None:
        (i, j), (li, lj) = pair, owner[list(pair)]
        raise PolygonError(f"{names[li]} edge {i - start[li]} and "
                           f"{names[lj]} edge {j - start[lj]} intersect")
    hole_verts, hole_of = np.concatenate(loops[1:]), owner[sizes[0]:]
    for h in range(1, len(loops)):
        on = _segment_distances(hole_verts, _edge_columns([loops[h]])) == 0.0
        hit = (_crossings_parity(hole_verts, _slab_index([loops[h]])) | on) & (hole_of != h)
        if hit.any():
            raise PolygonError(
                f"{names[hole_of[np.argmax(hit)]]} has a vertex inside or on {names[h]}")


LATTICE = st.integers(0, 6)
# the lattice points on the boundary of [0, 6]^2, counter-clockwise
RING = ([(t, 0) for t in range(6)] + [(6, t) for t in range(6)]
        + [(6 - t, 6) for t in range(6)] + [(0, 6 - t) for t in range(6)])


@st.composite
def lattice_polygons(draw):
    """An outer loop of 4-10 lattice vertices, either at random (one draw in
    four; most cross themselves) or in order along the boundary of [0, 6]^2
    (never crossing), and 0-3 holes in [1, 5]^2: right triangles, rectangles
    and free triangles or quads of lattice points, which fall nested,
    overlapping, touching, crossing or disjoint."""
    n = draw(st.integers(4, 10))
    if draw(st.integers(0, 3)) == 0:
        outer = draw(st.lists(st.tuples(LATTICE, LATTICE), min_size=n, max_size=n))
    else:
        picks = draw(st.lists(st.integers(0, len(RING) - 1), min_size=n, max_size=n,
                              unique=True))
        outer = [RING[k] for k in sorted(picks)]
    holes = []
    for _ in range(draw(st.integers(0, 3))):
        x, y = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        a, b = draw(st.integers(1, 5 - x)), draw(st.integers(1, 5 - y))
        kind = draw(st.sampled_from(["triangle", "rectangle", "free"]))
        if kind == "triangle":
            holes.append([(x, y), (x + a, y), (x, y + b)])
        elif kind == "rectangle":
            holes.append([(x, y), (x + a, y), (x + a, y + b), (x, y + b)])
        else:
            m = draw(st.integers(3, 4))
            holes.append(draw(st.lists(st.tuples(st.integers(x, x + a), st.integers(y, y + b)),
                                       min_size=m, max_size=m)))
    return outer, holes


def outcome(check, *args):
    try:
        check(*args)
    except PolygonError as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(lattice_polygons())
# crossings that no vertex test sees: two holes in a plus, and a hole whose
# vertices lie in an L but whose edge cuts across its notch; and a reflex
# outer vertex on a hole's edge, which only the outer vertices' test sees
@example(([(0, 0), (6, 0), (6, 6), (0, 6)],
          [[(1, 2), (4, 2), (4, 3), (1, 3)], [(2, 1), (3, 1), (3, 4), (2, 4)]]))
@example(([(0, 0), (6, 0), (6, 3), (3, 3), (3, 6), (0, 6)], [[(1, 1), (5, 2), (2, 5)]]))
@example(([(0, 0), (6, 0), (6, 6), (3, 2), (0, 6)], [[(2, 2), (4, 2), (3, 1)]]))
def test_validation_accepts_and_rejects_as_the_reference(case):
    outer, holes = case
    want = outcome(reference_validate, outer, holes)
    # the loops as `polygon` passes them
    got = outcome(domains._validate, [np.asarray(lp, dtype=float) for lp in (outer, *holes)])
    assert (got is None) == (want is None)
    if not holes:
        assert got == want


@pytest.mark.parametrize("holes", [
    [],
    [SQUARE_HOLE],
    [[(0.5, 0.5), (1.5, 0.5), (1.5, 1.5)], [(2, 2), (3, 2), (3, 3), (2, 3)],
     [(0.5, 3), (1, 3), (1, 3.5)]],
], ids=["no-hole", "one-hole", "three-holes"])
def test_polygon_scans_for_crossings_once(holes, monkeypatch):
    calls = []

    def counted(loops):
        calls.append(len(loops))
        return _first_crossing(loops)

    monkeypatch.setattr(domains, "_first_crossing", counted)
    polygon(SQUARE, holes=holes)
    assert calls == [1 + len(holes)]
