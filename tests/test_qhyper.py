import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csgraph, csr_matrix

from bmoext import (Polyline, Window, bmo, cigar, cusp, disk, half_plane, l_shape, polygon,
                    qh_distance, qh_length, qhyper, slit_disk)
from bmoext.cli import main
from bmoext.dyadic import grid_centers, resolution_level
from bmoext.errors import (DisconnectedGraphError, EmptyInteriorError,
                           QuadratureError)
from bmoext.qhyper import (EDGE_RTOL, QUAD_TOL, build_metric_graph, eta_lambda, grid_path,
                           j_distance, qh_distance_to_interior, segment_qh_batch)
from tests.conftest import HP_WINDOW
from tests.test_cli import star_polygons
from tests.test_svgout import SQUARE_HOLE


# -- lengths -----------------------------------------------------------------

def test_qh_length_halfplane_vertical(hp):
    v, e = qh_length(hp, [(0, 1), (0, 4)], tol=1e-6)
    assert v == pytest.approx(math.log(4), rel=2e-6)
    assert e <= 1e-6 * v * 1.5


def test_qh_length_halfplane_horizontal(hp):
    v, _ = qh_length(hp, [(0, 1), (1, 1)], tol=1e-6)
    assert v == pytest.approx(1.0, rel=2e-6)


def test_qh_length_disk_chord(disk1):
    v, _ = qh_length(disk1, [(-0.5, 0), (0.5, 0)], tol=1e-6)
    assert v == pytest.approx(2 * math.log(2), rel=2e-6)


def test_qh_length_leaves_polyline_unchanged(hp):
    pl = Polyline(np.array([[0.0, 1.0], [0.0, 4.0]]))
    pts = pl.points.copy()
    v, _ = qh_length(hp, pl, tol=1e-6)
    assert v == pytest.approx(math.log(4.0), rel=1e-5)
    assert pl.qh_value is None and pl.qh_error is None
    assert np.array_equal(pl.points, pts)


def test_qh_length_boundary_contact_fails(hp):
    with pytest.raises(QuadratureError):
        qh_length(hp, [(0, 1), (0, -1)])


def test_degenerate_curve_outside_fails(disk1):
    with pytest.raises(QuadratureError):
        qh_length(disk1, [(5, 5), (5, 5)])
    # zero-length segments at a boundary point, at an inside point, and at
    # an inside point below its floor
    at = [[1.0, 0.0], [0.5, 0.0], [0.5, 0.0]]
    vals, errs, valid = segment_qh_batch(disk1, at, at, floor=[0.0, 0.0, 0.6])
    assert valid.tolist() == [False, True, False]
    assert vals.tolist() == errs.tolist() == [math.inf, 0.0, math.inf]


def test_panel_cost_certifies_no_point_outside(disk1):
    # a zero-length segment is scored by its point's clearance like any other
    est, ok = qhyper._panel_cost(disk1, [[5, 5]], [[5, 5]])
    assert (est.tolist(), ok.tolist()) == ([math.inf], [False])
    at = [[5.0, 5.0], [1.0, 0.0], [0.5, 0.0], [0.5, 0.0]]
    est, ok = qhyper._panel_cost(disk1, at, at, floor=[0.0, 0.0, 0.0, 0.6])
    assert ok.tolist() == [False, False, True, False]
    assert est.tolist() == [math.inf, math.inf, 0.0, math.inf]


def test_segment_that_never_brackets_fails(hp):
    # clearance 1e-9 along a unit segment: even 2^22 panels are longer than
    # twice the clearance, so no panel brackets; a NaN end fails at once
    vals, errs, valid = segment_qh_batch(hp, [[0.0, 1e-9], [0.0, 1.0]],
                                         [[1.0, 1e-9], [math.nan, 1.0]])
    assert valid.tolist() == [False, False]
    assert vals.tolist() == errs.tolist() == [math.inf, math.inf]


def test_polyline_requires_two_points():
    with pytest.raises(ValueError):
        Polyline(np.array([[0.0, 0.0]]))


# -- distances ---------------------------------------------------------------

def test_qh_distance_halfplane_values(hp_graph):
    v, pl = qh_distance(hp_graph, (0, 1), (0, 4))
    assert v == pytest.approx(math.log(4), rel=0.03)
    v2, _ = qh_distance(hp_graph, (0, 1), (1, 1))
    assert v2 == pytest.approx(math.acosh(1.5), rel=0.03)
    # estimates are quadrature lengths of actual curves: upper bounds
    assert v + pl.qh_error >= math.log(4) * (1 - 1e-9)


def test_qh_distance_same_point(hp_graph):
    v, _ = qh_distance(hp_graph, (0.5, 1), (0.5, 1))
    assert v == 0.0


def test_qh_distance_of_close_distinct_points_is_measured(disk1):
    # 4e-6 apart, 2e-6 from the boundary: not one point, and k = ln 3
    g = build_metric_graph(disk1, Window((-1.25, -1.25), 2.5), 1 / 64)
    x, y = (0.999998, 0.0), (0.999994, 0.0)
    v, pl = qh_distance(g, x, y)
    assert v >= j_distance(disk1, x, y) * (1 - 0.03)
    assert pl.qh_error > 0.0


def test_qh_distance_outside_domain_rejected(hp_graph):
    with pytest.raises(ValueError):
        qh_distance(hp_graph, (0, -1), (0, 1))


def test_refinement_never_hurts(disk_graph):
    raw, _ = qh_length(disk_graph.domain, grid_path(disk_graph, (-0.9, 0), (0.9, 0)),
                       tol=QUAD_TOL)
    ref, _ = qh_distance(disk_graph, (-0.9, 0), (0.9, 0))
    assert ref <= raw + 1e-9


def test_resolution_monotonicity(disk1):
    # lattices at h and h/2 are not nested (cell centers shift by h/4), so
    # beyond the quadrature bound a small discretization allowance applies
    g_c, g_f = (build_metric_graph(disk1, disk1.default_window, r) for r in (1 / 128, 1 / 256))
    coarse, plc = qh_distance(g_c, (-0.6, 0.2), (0.5, -0.3))
    fine, plf = qh_distance(g_f, (-0.6, 0.2), (0.5, -0.3))
    assert fine <= coarse + plc.qh_error + 0.02 * coarse
    raw_c, rc_err = qh_length(disk1, grid_path(g_c, (-0.6, 0.2), (0.5, -0.3)), tol=QUAD_TOL)
    raw_f, _ = qh_length(disk1, grid_path(g_f, (-0.6, 0.2), (0.5, -0.3)), tol=QUAD_TOL)
    assert raw_f <= raw_c + rc_err + 0.01 * raw_c


def test_triangle_inequality_on_disk(disk1, disk_graph, rng):
    pts = []
    while len(pts) < 9:
        p = rng.uniform(-0.8, 0.8, size=2)
        if disk1.sd(p) > 0.15:
            pts.append(p)
    for k in range(3):
        x, y, z = pts[3 * k:3 * k + 3]
        dxy, p1 = qh_distance(disk_graph, x, y)
        dyz, p2 = qh_distance(disk_graph, y, z)
        dxz, p3 = qh_distance(disk_graph, x, z)
        slack = 2 * (p1.qh_error + p2.qh_error + p3.qh_error)
        assert dxz <= dxy + dyz + slack + 0.02 * dxz


def test_lower_bound_boundary_ratio(disk1, disk_graph, rng):
    # estimates dominate |log of the clearance ratio| up to quadrature error
    for _ in range(12):
        x = rng.uniform(-0.9, 0.9, size=2)
        y = rng.uniform(-0.9, 0.9, size=2)
        if disk1.sd(x) <= 0.05 or disk1.sd(y) <= 0.05:
            continue
        v, pl = qh_distance(disk_graph, x, y)
        bound = abs(math.log(disk1.sd(x) / disk1.sd(y)))
        assert v + pl.qh_error >= bound * (1 - 1e-9)


def test_j_distance_values(hp):
    assert j_distance(hp, (0, 1), (0, 2)) == pytest.approx(0.5 * math.log(3), rel=1e-12)
    assert j_distance(hp, (0.3, 1.0), (0.3, 1.0)) == 0.0


def test_j_distance_symmetry(disk1, rng):
    for _ in range(50):
        x = rng.uniform(-0.7, 0.7, size=2)
        y = rng.uniform(-0.7, 0.7, size=2)
        if disk1.sd(x) <= 0 or disk1.sd(y) <= 0:
            continue
        assert j_distance(disk1, x, y) == pytest.approx(
            j_distance(disk1, y, x), rel=1e-12)


# -- interior access ---------------------------------------------------------

def test_interior_distance_already_inside(hp_graph):
    r = qh_distance_to_interior(hp_graph, (0, 2), 1.0)
    assert r.value == 0.0 and tuple(r.attaining) == (0, 2)


def test_interior_distance_halfplane(hp, hp_graph):
    r = qh_distance_to_interior(hp_graph, (0, 0.25), 1.0)
    assert r.value == pytest.approx(math.log(4), rel=0.03)
    assert hp.sd(r.attaining) >= 1.0 - hp_graph.h


def _disk_access_points(rng, lam, count):
    """Points of the unit disk whose clearance lies in [0.02, 0.9 lam]."""
    r = 1.0 - rng.uniform(0.02, 0.9 * lam, size=count)
    th = rng.uniform(0.0, 2.0 * math.pi, size=count)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def _check_against_multi_source_oracle(domain, graph, x, lam):
    """raw_value minus the snap leg is the graph distance from the snapped
    node to the nearest interior node, solved independently from all
    interior nodes at once (edge weights are symmetric); attaining is such
    a nearest node, and no lower-index interior node is as near."""
    r = qh_distance_to_interior(graph, x, lam, refine=False)
    targets = np.nonzero(graph.node_sd >= lam)[0]
    src = graph.snap(x)
    leg, _, _ = segment_qh_batch(domain, x[None, :], graph.node_pos[src][None, :])
    d_min = r.raw_value - leg[0]
    to_interior = csgraph.dijkstra(graph.adj, indices=targets, min_only=True)
    assert d_min == pytest.approx(to_interior[src], rel=1e-12)
    t = int(np.flatnonzero((graph.node_pos == r.attaining).all(axis=1))[0])
    assert t in targets
    assert csgraph.dijkstra(graph.adj, indices=t)[src] == pytest.approx(d_min, rel=1e-12)
    lower = targets[targets < t]
    if lower.size:
        below = csgraph.dijkstra(graph.adj, indices=lower, min_only=True)
        assert below[src] > d_min * (1.0 + 1e-12)


def test_interior_distance_matches_multi_source_oracle(disk1, disk_graph):
    for x in _disk_access_points(np.random.default_rng(11), 0.5, 8):
        _check_against_multi_source_oracle(disk1, disk_graph, x, 0.5)
    # here the graph-nearest interior node lies farther from x than the
    # Euclidean-nearest one does, so no search ball of that radius holds it
    slit = slit_disk(1.0, 0.5)
    graph = build_metric_graph(slit, slit.default_window, 1 / 128)
    _check_against_multi_source_oracle(slit, graph, np.array([-0.7965, -0.2831]), 0.16)


def test_interior_distance_solves_once(disk_graph, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("indices"))
        return csgraph.dijkstra(*args, **kwargs)

    monkeypatch.setattr(qhyper, "_sp_dijkstra", counted)
    for refine in (False, True):
        calls.clear()
        qh_distance_to_interior(disk_graph, (0.05, -0.93), 0.5, refine=refine)
        assert len(calls) == 1


@pytest.mark.parametrize("lam", [0.2, 0.3, 0.5])
def test_interior_distance_radial_access_on_disk(disk_graph, lam):
    # every curve from x to {dist >= lam} gains at least ln(lam / d(x)),
    # since the clearance is 1-Lipschitz; the radial segment attains it
    rng = np.random.default_rng(int(lam * 10))
    for x in _disk_access_points(rng, lam, 6):
        exact = math.log(lam / (1.0 - math.hypot(*x)))
        for refine in (False, True):
            r = qh_distance_to_interior(disk_graph, x, lam, refine=refine)
            assert exact <= r.value + r.path.qh_error


@pytest.mark.parametrize("refine", [False, True])
def test_interior_distance_is_length_of_returned_path(disk1, disk_graph, refine):
    x = np.array([0.05, -0.93])
    r = qh_distance_to_interior(disk_graph, x, 0.5, refine=refine)
    assert r.value == r.path.qh_value
    assert r.path.qh_value == qh_length(disk1, r.path, tol=2e-3)[0]


def test_interior_empty_raises(disk_graph):
    with pytest.raises(EmptyInteriorError):
        qh_distance_to_interior(disk_graph, (0.0, 0.9), 3.0)


def test_unbracketed_source_leg_is_a_quadrature_error(tmp_path, capsys):
    # 1e-10 above the slit, the leg to the snapped node never brackets; both
    # whole-graph solves share that leg, and the CLI reports a run failure
    slit = slit_disk(1.0, 0.5)
    graph = bmo.field_graph(slit, slit.default_window, 6)
    x = np.array([0.75, 1e-10])
    with pytest.raises(QuadratureError):
        bmo.qh_distance_field(graph, x)
    with pytest.raises(QuadratureError):
        qh_distance_to_interior(graph, x, 0.5)
    assert main(["norm", "--domain", "slit_disk:1,0.5", "--function", "qh:0.75,1e-10",
                 "--resolution", "1/64", "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_eta_basics(hp, hp_graph):
    assert eta_lambda(hp_graph, (0, 2), (1, 3), 1.0) == 0.0
    w = Window((-2.0, 0.0), 8.0)
    g = build_metric_graph(hp, w, 1 / 512)
    v = eta_lambda(g, (0, 0.25), (3, 0.5), 1.0)
    assert v == pytest.approx(math.log(4) + math.log(2), rel=0.03)
    v2 = eta_lambda(g, (3, 0.5), (0, 0.25), 1.0)
    assert v2 == pytest.approx(v, rel=1e-12)


# -- graph internals ---------------------------------------------------------

def test_graph_level_cap_refuses_before_allocating(disk1, tmp_path, capsys, monkeypatch):
    # a 1/8192 graph would need many GB: the cap must refuse it before
    # the first n x n array, so a broken cap fails here at once
    def no_grid(*args):
        raise AssertionError("grid allocated past the level cap")

    monkeypatch.setattr(qhyper, "grid_centers", no_grid)
    with pytest.raises(ValueError, match="1 <= k <= 11"):
        build_metric_graph(disk1, Window((-1.25, -1.25), 2.5), 1 / 8192)
    assert main(["norm", "--domain", "disk:1", "--function", "qh:0.3,0",
                 "--resolution", "1/8192", "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("usage error: graph resolution")


def reference_adjacency(domain, window, resolution, node_margin=math.sqrt(2.0)):
    """The graph's matrix assembled as COO: both directions of every valid
    edge, offset by offset, converted and sorted by scipy."""
    level = resolution_level(resolution)
    n = 1 << level
    h = window.cell_size(level)
    centers = grid_centers(window, level)
    sd = domain.signed_distance(centers)
    node_grid = np.full((n, n), -1, dtype=np.int64)
    flat = np.nonzero(sd > node_margin * h)[0]
    node_grid.ravel()[flat] = np.arange(flat.size)
    node_pos = centers[flat]
    rows, cols, data = [], [], []
    for di, dj in ((1, 0), (0, 1), (1, 1), (1, -1)):
        lo_i, hi_i = max(0, -di), n - max(0, di)
        lo_j, hi_j = max(0, -dj), n - max(0, dj)
        from_ids = node_grid[lo_i:hi_i, lo_j:hi_j]
        to_ids = node_grid[lo_i + di:hi_i + di, lo_j + dj:hi_j + dj]
        ok = (from_ids >= 0) & (to_ids >= 0)
        f, t = from_ids[ok], to_ids[ok]
        if f.size == 0:
            continue
        w, _, valid = segment_qh_batch(domain, node_pos[f], node_pos[t], rtol=EDGE_RTOL,
                                       floor=qhyper._SD_FLOOR_FRAC * window.size)
        f, t, w = f[valid], t[valid], w[valid]
        rows += [f, t]
        cols += [t, f]
        data += [w, w]
    if rows:
        rows, cols, data = map(np.concatenate, (rows, cols, data))
    return csr_matrix((data, (rows, cols)), shape=(len(node_pos), len(node_pos)))


def assert_same_csr(got, want):
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), name
    assert got.shape == want.shape


# one row of nodes at y = 2.0625 of the 1/32 grid: only the (1, 0) offset has edges
STRIP = polygon([(0.5, 1.8625), (3.5, 1.8625), (3.5, 2.2625), (0.5, 2.2625)], label="strip")


@pytest.mark.parametrize("dom, window, resolution", [
    (disk(1.0), None, 1 / 128),
    (l_shape(), None, 1 / 64),
    (half_plane(), HP_WINDOW, 1 / 256),
    (slit_disk(1.0, 0.5), None, 1 / 128),
    (cusp(4.0), None, 1 / 64),
    (SQUARE_HOLE, None, 1 / 64),
    (STRIP, Window((0.0, 0.0), 4.0), 1 / 32),
    (disk(1.0), None, 1 / 2),
], ids=["disk", "l_shape", "half_plane", "slit_disk", "cusp", "square_hole", "strip", "empty"])
def test_csr_matches_coo_assembly(dom, window, resolution):
    window = window or dom.default_window
    g = build_metric_graph(dom, window, resolution)
    assert_same_csr(g.adj, reference_adjacency(dom, window, resolution))
    assert g.adj.has_sorted_indices
    if dom is STRIP:
        assert g.n_nodes > 0 and (g.node_pos[:, 1] == 2.0625).all()
    if resolution == 1 / 2:
        assert g.n_nodes == 0


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(star_polygons())
def test_csr_matches_coo_assembly_on_star_polygons(case):
    dom = polygon(*case)
    g = build_metric_graph(dom, dom.default_window, 1 / 32)
    assert_same_csr(g.adj, reference_adjacency(dom, dom.default_window, 1 / 32))


def test_csr_drops_unbracketed_edges_across_blocks(monkeypatch):
    # at this margin nodes sit on both sides of the slit and the edges that
    # cross it cannot be bracketed; every offset spans several blocks
    dom = slit_disk(1.0, 0.5)
    window = dom.default_window
    monkeypatch.setattr(qhyper, "EVAL_BUDGET", 256)
    g = build_metric_graph(dom, window, 1 / 64, node_margin=0.25)
    sizes = [f.size for f, *_ in qhyper._offset_edges(g.node_grid)]
    assert min(sizes) > 2 * qhyper.EVAL_BUDGET
    assert g.adj.nnz < 2 * sum(sizes)
    assert_same_csr(g.adj, reference_adjacency(dom, window, 1 / 64, node_margin=0.25))


@pytest.mark.memory
def test_graph_build_memory_is_bounded(hp):
    # per-offset edge lists and whole-offset quadrature batches peaked at
    # 62.7 MiB here; the graph itself holds 31.9 MiB
    tracemalloc.start()
    try:
        g = build_metric_graph(hp, HP_WINDOW, 1 / 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.adj.nnz > 2_000_000
    assert peak < 44 * 2**20


def test_edge_weight_brackets(disk1, disk_graph, rng):
    # weights sit inside the Lipschitz-corrected clearance bracket
    coo = disk_graph.adj.tocoo()
    idx = rng.choice(len(coo.data), size=200, replace=False)
    for k in idx:
        a = disk_graph.node_pos[coo.row[k]]
        b = disk_graph.node_pos[coo.col[k]]
        w = coo.data[k]
        seg = np.linalg.norm(b - a)
        sd3 = disk1.signed_distance(np.array([a, 0.5 * (a + b), b]))
        hi = seg / max(min(sd3) - seg / 4.0, 1e-12)
        lo = seg / (max(sd3) + seg / 4.0)
        assert lo * (1 - 1e-9) <= w <= hi * (1 + 1e-9)


def test_disconnected_components_reported():
    dumbbell = polygon([(0, 0), (1, 0), (1, 0.495), (2, 0.495), (2, 0), (3, 0),
                        (3, 1), (2, 1), (2, 0.505), (1, 0.505), (1, 1), (0, 1)],
                       label="dumbbell")
    w = Window((-0.25, -1.25), 3.5)
    with pytest.raises(DisconnectedGraphError):
        qh_distance(build_metric_graph(dumbbell, w, 1 / 32), (0.5, 0.5), (2.5, 0.5))


def test_chain_length_comparable_to_distance(disk1, disk_dec, disk_graph, rng):
    # hop counts and the metric bound each other with moderate constants
    from bmoext.whitney import whitney_chain

    ratios_mk = []
    ratios_km = []
    for _ in range(10):
        x = rng.uniform(-0.85, 0.85, size=2)
        y = rng.uniform(-0.85, 0.85, size=2)
        if disk1.sd(x) < 0.08 or disk1.sd(y) < 0.08:
            continue
        m = len(whitney_chain(disk_dec, x, y))
        k, _ = qh_distance(disk_graph, x, y)
        ratios_mk.append(m / (k + 1.0))
        ratios_km.append(k / m)
    assert ratios_mk and max(ratios_mk) < 12.0
    assert max(ratios_km) < 4.0


def polyline_in_domain(domain, pts) -> bool:
    """Vertices and segment midpoints all strictly inside."""
    pts = np.atleast_2d(pts)
    mids = 0.5 * (pts[:-1] + pts[1:])
    probe = np.vstack([pts, mids])
    return bool((domain.signed_distance(probe) > 0.0).all())


def test_geodesic_polyline_stays_inside(disk1, disk_graph):
    _, pl = qh_distance(disk_graph, (-0.8, 0.1), (0.7, -0.2))
    assert polyline_in_domain(disk1, pl.points)


def test_snap_ties_go_to_the_lower_cell(disk_graph):
    g = disk_graph
    k = g.node_grid[g.node_grid.shape[0] // 2, g.node_grid.shape[1] // 2]
    i, j = (int(v[0]) for v in np.nonzero(g.node_grid == k))
    h = g.h
    # a cell-edge midpoint is as far from two nodes, a grid vertex from four
    assert g.snap(g.node_pos[k] + (h / 2, 0.0)) == k
    assert g.snap(g.node_pos[k] + (0.0, h / 2)) == k
    assert g.snap(g.node_pos[k] + (h / 2, h / 2)) == k
    assert g.snap(g.node_pos[k] - (h / 2, 0.0)) == g.node_grid[i - 1, j]
    assert g.snap(g.node_pos[k] - (h / 2, h / 2)) == g.node_grid[i - 1, j - 1]
    # brute force over every node with the (d^2, i, j) rule
    ii, jj = np.nonzero(g.node_grid >= 0)
    cells = sorted(zip(ii, jj), key=lambda c: g.node_grid[c])
    rng = np.random.default_rng(2)
    for p in rng.uniform(-1.25, 1.25, size=(50, 2)):
        d2 = ((g.node_pos - p) ** 2).sum(axis=1)
        want = min(range(g.n_nodes), key=lambda n: (d2[n], *cells[n]))
        assert g.snap(p) == want


H_256 = 2.5 / 256
# offsets within a cell: on its edges, at its centre, just inside and outside
CELL_OFFSETS = [0.0, 0.5, 1.0, 1e-9, 1.0 - 1e-9, 0.25, 0.75]
ON_CELLS = st.tuples(st.integers(0, 256), st.integers(0, 256), st.sampled_from(CELL_OFFSETS),
                     st.sampled_from(CELL_OFFSETS)).map(
    lambda c: (-1.25 + min((c[0] + c[2]) * H_256, 2.5), -1.25 + min((c[1] + c[3]) * H_256, 2.5)))
# near the circle, where the nodes stop at clearance sqrt(2) h
NEAR_CIRCLE = st.tuples(st.floats(0.0, 2.0 * math.pi),
                        st.sampled_from([1.0 - 3 * H_256, 1.0 - 1.5 * H_256, 1.0, 1.0 + H_256])).map(
    lambda c: (c[1] * math.cos(c[0]), c[1] * math.sin(c[0])))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(ON_CELLS, NEAR_CIRCLE))
def test_snap_matches_the_full_scan(disk_graph, p):
    g = disk_graph
    assert g.h == H_256
    want = int(np.argmin(((g.node_pos - np.asarray(p)) ** 2).sum(axis=1)))
    assert g.snap(p) == want


def test_snap_without_nodes_is_disconnected(disk1):
    g = build_metric_graph(disk1, Window((3.0, 3.0), 1.0), 1 / 2)   # outside the disk
    assert g.n_nodes == 0
    with pytest.raises(DisconnectedGraphError):
        g.snap((3.5, 3.5))


@pytest.mark.parametrize("batch, n", [(segment_qh_batch, 40), (qhyper._panel_cost, 200)])
def test_segment_values_do_not_depend_on_the_budget(disk1, monkeypatch, batch, n):
    rng = np.random.default_rng(5)
    a = rng.uniform(-0.6, 0.6, size=(n, 2))
    b = rng.uniform(-0.6, 0.6, size=(n, 2))
    # ends near the circle need up to 2^20 panels, so at a budget of 1024
    # points one segment spans many oracle calls; 200 segments of 8 fixed
    # panels span two calls
    b[:8] = 0.9995 * b[:8] / np.hypot(b[:8, 0], b[:8, 1])[:, None]
    want = batch(disk1, a, b)
    sizes = []

    def sd_func(pts):
        sizes.append(len(pts))
        return disk1.sd_func(pts)

    monkeypatch.setattr(qhyper, "EVAL_BUDGET", 1024)
    got = batch(dataclasses.replace(disk1, sd_func=sd_func), a, b)
    assert max(sizes) == 1024
    for w, v in zip(want, got):
        assert np.array_equal(w, v)


# -- bounded grid solves -------------------------------------------------------

def unlimited_grid_path(graph, x, y):
    """grid_path from one full single-source solve."""
    src, dst = graph.snap(x), graph.snap(y)
    _, pred = graph.shortest_paths(src)
    return qhyper._drop_repeats(
        np.vstack([x, graph.node_pos[graph.path_nodes(pred, dst)], y]))


def _random_pairs(dom, graph, n, seed):
    rng = np.random.default_rng(seed)
    w, out = graph.window, []
    while len(out) < n:
        x, y = np.asarray(w.origin) + rng.uniform(0.0, w.size, size=(2, 2))
        if dom.sd(x) > 2 * graph.h and dom.sd(y) > 2 * graph.h:
            out.append((x, y))
    return out


def _assert_bounded_paths_match(graph, pairs):
    """The bounded solve gives the unlimited solve's path, and a finite walk
    bound is at least the graph distance; returns how many were finite."""
    bounded = 0
    for x, y in pairs:
        src, dst = graph.snap(x), graph.snap(y)
        bound = qhyper._walk_bound(graph, src, dst)
        if math.isfinite(bound):
            bounded += 1
            assert bound >= graph.shortest_paths(src)[0][dst]
        assert np.array_equal(qhyper.grid_path(graph, x, y), unlimited_grid_path(graph, x, y))
    return bounded


def test_bounded_solve_on_the_symmetric_disk_diameter(disk_graph):
    x, y = np.array([-0.9, 0.0]), np.array([0.9, 0.0])
    assert _assert_bounded_paths_match(disk_graph, [(x, y), (y, x)]) == 2


def test_bounded_solve_on_the_half_plane(hp, hp_graph):
    pairs = [(np.array([0.0, 1.0]), np.array([0.0, 3.5])),
             (np.array([-1.5, 0.2]), np.array([1.5, 0.2]))] + _random_pairs(hp, hp_graph, 8, 1)
    assert _assert_bounded_paths_match(hp_graph, pairs) == len(pairs)


@pytest.mark.parametrize("dom", [l_shape(), slit_disk(1.0, 0.5)], ids=["l_shape", "slit_disk"])
def test_bounded_solve_on_seeded_pairs(dom):
    graph = build_metric_graph(dom, dom.default_window, 1 / 128)
    pairs = _random_pairs(dom, graph, 16, 5)
    assert _assert_bounded_paths_match(graph, pairs) > 0


SQUARE_WITH_HOLE = polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)],
                           holes=[[(-0.4, -0.4), (0.4, -0.4), (0.4, 0.4), (-0.4, 0.4)]])


@pytest.mark.parametrize("dom, x, y", [
    (slit_disk(1.0, 0.5), (0.75, 0.2), (0.75, -0.2)),
    (SQUARE_WITH_HOLE, (-0.7, 0.0), (0.7, 0.0)),
], ids=["slit", "square_hole"])
def test_walk_across_the_boundary_solves_in_full(dom, x, y, monkeypatch):
    graph = build_metric_graph(dom, dom.default_window, 1 / 64)
    x, y = np.asarray(x, float), np.asarray(y, float)
    assert qhyper._walk_bound(graph, graph.snap(x), graph.snap(y)) == math.inf
    limits = []
    solve = qhyper.MetricGraph.shortest_paths

    def counted(self, src, limit=np.inf):
        limits.append(limit)
        return solve(self, src, limit=limit)

    monkeypatch.setattr(qhyper.MetricGraph, "shortest_paths", counted)
    got = qhyper.grid_path(graph, x, y)
    assert limits == [np.inf]
    assert np.array_equal(got, unlimited_grid_path(graph, x, y))


def test_bound_that_misses_the_target_solves_again(disk_graph, monkeypatch):
    x, y = np.array([-0.6, 0.3]), np.array([0.5, -0.4])
    want = unlimited_grid_path(disk_graph, x, y)
    limits = []
    solve = qhyper.MetricGraph.shortest_paths

    def counted(self, src, limit=np.inf):
        limits.append(limit)
        return solve(self, src, limit=limit)

    monkeypatch.setattr(qhyper.MetricGraph, "shortest_paths", counted)
    monkeypatch.setattr(qhyper, "_walk_bound", lambda graph, src, dst: 0.5)
    assert np.array_equal(qhyper.grid_path(disk_graph, x, y), want)
    assert limits == [0.5, np.inf]


# -- one handle per grid --------------------------------------------------------

def test_graph_queries_take_nothing_the_graph_holds():
    # a query reads the domain, window and level from its graph, so no
    # argument can disagree with the grid the graph was built on
    checked = set()
    for module in (qhyper, cigar, bmo):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            params = inspect.signature(fn).parameters
            if name.startswith("_") or fn.__module__ != module.__name__ or "graph" not in params:
                continue
            assert not {"domain", "resolution", "window"} & set(params), name
            checked.add(name)
    assert {"qh_distance", "qh_distance_to_interior", "eta_lambda", "estimate_epsilon_delta",
            "evaluate_pair", "qh_distance_field", "dipole_field"} <= checked
