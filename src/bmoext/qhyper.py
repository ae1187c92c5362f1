"""Quasi-hyperbolic lengths, distances and geodesics.

The length of a curve is the line integral of 1/dist(z, boundary). Segment
integrals are bracketed with the 1-Lipschitz property of the distance
oracle: on a panel of length L with midpoint clearance m > L/2 the true
integral lies in [L/(m + L/2), L/(m - L/2)], so midpoint refinement gives a
rigorous error bound. Distances come from Dijkstra on an 8-connected grid
graph followed by a local curve-shortening pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra as _sp_dijkstra

from .domains import Domain
from .dyadic import (EVAL_BUDGET, Window, bands, cell_centers, grid_centers,
                     resolution_level)
from .errors import DisconnectedGraphError, EmptyInteriorError, QuadratureError

_SD_FLOOR_FRAC = 1e-12  # of the window side: below this the integrand is unbounded
MAX_DOUBLINGS = 22      # a segment gets at most 2^22 panels
CANDIDATE_PANELS = 8    # fixed midpoint panels of a refinement candidate
EDGE_RTOL = 2e-2        # relative quadrature error of a graph edge weight
QUAD_TOL = 2e-3         # relative quadrature error of a returned curve length
REFINE_RTOL = 1e-4      # refinement stops when a round gains less than this
REFINE_ROUNDS = 60      # ... or after this many rounds
# finest graph level: the build's peak tends to grow fourfold per level, as
# the graph does (disk(1) in a fresh process: 80 MB RSS at level 9, 126 MB
# at level 10, 309 MB at level 11, of which the imports take 63 MB), so
# level 12 would take about 1 GB
MAX_GRAPH_LEVEL = 11


def _panel_pass(domain: Domain, a, b, floor, rows, panels: int):
    """Midpoint sums of the segments a[i] -> b[i], i in `rows`, each cut
    into `panels` equal panels, one oracle call of at most EVAL_BUDGET
    points at a time (a call holds one segment once its panels outgrow the
    budget). Yields per call (act, ok, dead, v, e): the call's rows; ok
    where every midpoint clearance exceeds half the panel length and the
    row's floor, which certifies the segment inside the domain; dead where
    one is at or below the floor; and, finite where ok, the midpoint sum of
    1/dist and its Lipschitz error bound."""
    t = (np.arange(panels) + 0.5) / panels
    chunk = max(1, EVAL_BUDGET // panels)
    for lo in range(0, rows.size, chunk):
        act = rows[lo:lo + chunk]
        seg = b[act] - a[act]
        sd = np.concatenate([domain.signed_distance(
            (a[act, None, :] + t[None, tl:tl + EVAL_BUDGET, None] * seg[:, None, :])
            .reshape(-1, 2)).reshape(act.size, -1)
            for tl in range(0, panels, EVAL_BUDGET)], axis=1)
        lp = np.hypot(seg[:, 0], seg[:, 1])[:, None] / panels
        dead = (sd <= floor[act, None]).any(axis=1)
        ok = (sd > 0.5 * lp).all(axis=1) & ~dead
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            v = (lp / sd).sum(axis=1)
            e = (lp * (0.5 * lp) / (sd * (sd - 0.5 * lp))).sum(axis=1)
        yield act, ok, dead, v, e


def segment_qh_batch(domain: Domain, a, b, rtol: float = 1e-3,
                     floor=0.0):
    """Integrate ds/dist over straight segments a[i] -> b[i].

    Midpoint refinement; the Lipschitz bracket per panel (clearance m,
    panel length L, m > L/2) gives a rigorous error bound, so segments are
    doubled until err <= rtol * value, up to 2^MAX_DOUBLINGS panels
    (_panel_pass). `floor` is one clearance floor or one per segment.
    Returns (values, errors, valid). Segments that touch or cross the
    boundary, or come within their floor of it, come back with valid=False
    and value=inf; callers decide whether that is an error. A segment of
    zero length has value 0 when its point's clearance exceeds its floor.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    floor = np.broadcast_to(np.asarray(floor, dtype=float), (len(a),))
    # inf until a segment brackets; a segment of NaN or inf length never does
    vals = np.full(len(a), np.inf)
    errs = vals.copy()
    active = np.flatnonzero(np.isfinite(np.hypot(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1])))
    panels = 1
    while active.size and panels <= (1 << MAX_DOUBLINGS):
        next_active = []
        for act, ok, dead, v, e in _panel_pass(domain, a, b, floor, active, panels):
            vals[act[ok]], errs[act[ok]] = v[ok], e[ok]
            vals[act[dead]] = errs[act[dead]] = np.inf
            done = ok & (e <= rtol * np.maximum(v, 1e-300))
            next_active.append(act[~(dead | done)])
        active = np.concatenate(next_active)
        panels *= 2
    # a segment that never bracketed is a boundary contact; the rest keep
    # their best value with the achieved (looser than rtol) error bound
    return vals, errs, np.isfinite(vals)


def _panel_cost(domain: Domain, a, b, floor=0.0):
    """Cheap fixed-panel midpoint estimate used for candidate comparison:
    one _panel_pass of CANDIDATE_PANELS panels. Returns (estimates, ok),
    the estimate inf where ok is False; ok requires clearance above half
    the panel length and above `floor` (one value or one per segment) at
    every panel midpoint, which certifies the segment inside the domain."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    floor = np.broadcast_to(np.asarray(floor, dtype=float), (len(a),))
    est = np.full(len(a), np.inf)
    for act, ok, _, v, _ in _panel_pass(domain, a, b, floor, np.arange(len(a)),
                                        CANDIDATE_PANELS):
        est[act[ok]] = v[ok]
    return est, np.isfinite(est)


@dataclass
class Polyline:
    """Rectifiable curve as ordered points, with cached lengths."""

    points: np.ndarray
    qh_value: float | None = None
    qh_error: float | None = None

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if len(self.points) < 2:
            raise ValueError("polyline needs at least two points")

    @property
    def euclidean_length(self) -> float:
        d = np.diff(self.points, axis=0)
        return float(np.hypot(d[:, 0], d[:, 1]).sum())

    def cum_arclength(self) -> np.ndarray:
        d = np.diff(self.points, axis=0)
        return np.concatenate([[0.0], np.cumsum(np.hypot(d[:, 0], d[:, 1]))])

    def resample(self, n: int) -> np.ndarray:
        """n points at uniform arclength spacing (endpoints included)."""
        cum = self.cum_arclength()
        s = np.linspace(0.0, cum[-1], n)
        x = np.interp(s, cum, self.points[:, 0])
        y = np.interp(s, cum, self.points[:, 1])
        return np.column_stack([x, y])


def qh_length(domain: Domain, gamma, tol: float = 1e-6):
    """Adaptive quasi-hyperbolic length of a polyline with error bound.

    Returns (value, err) with err <= tol * value unless the refinement
    budget runs out, in which case err reports the achieved bound; the
    curve itself is left as it is. Raises QuadratureError when the curve
    touches or leaves the domain.
    """
    pts = gamma.points if isinstance(gamma, Polyline) else np.atleast_2d(np.asarray(gamma, float))
    vals, errs, valid = segment_qh_batch(domain, pts[:-1], pts[1:], rtol=tol,
                                         floor=_length_floor(pts))
    if not valid.all():
        k = int(np.nonzero(~valid)[0][0])
        raise QuadratureError(
            f"unbounded integrand on segment {k} "
            f"({pts[k]} -> {pts[k + 1]}): curve touches the boundary")
    return float(vals.sum()), float(errs.sum())


def _length_floor(pts: np.ndarray) -> float:
    """The clearance floor qh_length puts under a curve's segments: a
    fraction _SD_FLOOR_FRAC of the curve's extent, or of 1 if that is more."""
    return _SD_FLOOR_FRAC * max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1]), 1.0)


def _curve_segments(domain: Domain, curves: list, rtol: float, floors) -> list[tuple]:
    """segment_qh_batch over the segments of many curves (point arrays) in
    one call, with one floor per curve; each curve's (values, errors,
    valid) slices, which are the arrays a call for that curve alone gives."""
    if not curves:
        return []
    n_seg = [len(c) - 1 for c in curves]
    out = segment_qh_batch(
        domain, np.concatenate([c[:-1] for c in curves]),
        np.concatenate([c[1:] for c in curves]), rtol=rtol,
        floor=np.repeat(np.asarray(floors, dtype=float), n_seg))
    return list(zip(*(np.split(x, np.cumsum(n_seg)[:-1]) for x in out)))


def j_distance(domain: Domain, x, y) -> float:
    """Logarithmic distance from the point gaps to the boundary clearances."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    dx = domain.sd(x)
    dy = domain.sd(y)
    if not (dx > 0 and dy > 0):
        raise ValueError("both points must lie inside the domain")
    r = float(np.hypot(*(x - y)))
    return 0.5 * math.log((1.0 + r / dx) * (1.0 + r / dy))


# ---------------------------------------------------------------------------
# grid graph

# forward offsets (di, dj), each with the slot it fills in its source's and
# in its target's row of the graph; slots 0-7 are the offsets (-1,-1)
# (-1,0) (-1,1) (0,-1) (0,1) (1,-1) (1,0) (1,1), ascending node order
_OFFSETS = ((1, 0, 6, 1), (0, 1, 4, 3), (1, 1, 7, 0), (1, -1, 5, 2))


@dataclass(frozen=True, eq=False)
class MetricGraph:
    """8-connected grid discretization with quasi-hyperbolic edge weights;
    read-only. Queries read the domain, window and level from it."""

    domain: Domain
    window: Window
    level: int
    node_cell: np.ndarray          # int32 flat cell i * 2^level + j of each node
    node_sd: np.ndarray            # center clearance of each node
    node_grid: np.ndarray          # (n, n) int32 node index, -1 where absent
    adj: csr_matrix = field(repr=False)

    def __post_init__(self):
        for a in (self.node_cell, self.node_sd, self.node_grid,
                  self.adj.data, self.adj.indices, self.adj.indptr):
            a.flags.writeable = False

    @property
    def h(self) -> float:
        return self.window.cell_size(self.level)

    @property
    def n_nodes(self) -> int:
        return len(self.node_cell)

    def positions(self, nodes=slice(None)) -> np.ndarray:
        """Positions of the nodes (an id, ids or a slice; every node by
        default): their cell centers, the bits of `grid_centers`' rows."""
        return cell_centers(self.window, self.level, self.node_cell[nodes])

    def snap(self, p) -> int:
        """Nearest node to p, ties broken by cell index."""
        p = np.asarray(p, float)
        if not self.window.contains_point(p):
            raise ValueError(f"point {tuple(p)} lies outside the graph window "
                             f"{self.window.origin} + {self.window.size}")
        if not self.n_nodes:
            raise DisconnectedGraphError("no graph node in the window; "
                                         "resolution too coarse for this domain")
        # nodes are numbered in (i, j) cell order, so the first minimum
        # breaks ties by cell index. Every node outside the 3x3 block of
        # cells around p lies at least 1.5 h away, so a block node nearer
        # than that, with a margin for rounding, is the nearest of all.
        i, j = self.window.cell_of_point(p, self.level)
        block = self.node_grid[max(i - 1, 0):i + 2, max(j - 1, 0):j + 2].ravel()
        block = block[block >= 0]              # in (i, j) order, so ascending
        if block.size:
            d2 = ((self.positions(block) - p) ** 2).sum(axis=1)
            k = int(np.argmin(d2))
            if d2[k] < (1.5 * self.h) ** 2 * (1.0 - 1e-9):
                return int(block[k])
        return int(np.argmin(((self.positions() - p) ** 2).sum(axis=1)))

    def shortest_paths(self, src: int, limit: float = np.inf):
        """(distances, predecessors) from one node to all nodes; nodes
        farther than `limit` are left unreached (distance inf)."""
        dist, pred = _sp_dijkstra(self.adj, directed=True, indices=src,
                                  return_predecessors=True, limit=limit)
        return dist, pred

    def path_nodes(self, pred: np.ndarray, dst: int) -> list[int]:
        out = [dst]
        while pred[out[-1]] >= 0:
            out.append(int(pred[out[-1]]))
        return out[::-1]

    def component_sizes(self) -> np.ndarray:
        ncomp, labels = connected_components(self.adj, directed=False)
        return np.bincount(labels, minlength=ncomp)


def _graph_nodes(domain: Domain, window: Window, level: int, margin: float):
    """(node_grid, node_cell, node_sd) of the level's cells whose center
    clearance exceeds `margin`, numbered in (i, j) cell order; the cells are
    tested a band of rows at a time, so no whole-grid centers or clearances
    are made."""
    n = 1 << level
    node_grid = np.full((n, n), -1, dtype=np.int32)
    cells, sds, count = [], [], 0
    for rows in bands(n):
        sd = domain.signed_distance(grid_centers(window, level, rows))
        flat = np.flatnonzero(sd > margin)
        node_grid[rows].ravel()[flat] = np.arange(count, count + flat.size)
        cells.append((flat + rows.start * n).astype(np.int32))
        sds.append(sd[flat])
        count += flat.size
    return node_grid, np.concatenate(cells), np.concatenate(sds)


def _offset_edges(node_grid: np.ndarray):
    """Per forward offset, a band of cell rows at a time, (f, t, fs, ts):
    the ids of the pairs of nodes in neighbouring cells at that offset
    whose first cell lies in the band, f ascending, and the slots the edge
    fills in f's and in t's row. A band with no such pair yields nothing."""
    n = len(node_grid)
    for di, dj, fs, ts in _OFFSETS:
        lo_j, hi_j = max(0, -dj), n - max(0, dj)
        for rows in bands(n):
            lo_i, hi_i = max(rows.start, -di), min(rows.stop, n - di)
            from_ids = node_grid[lo_i:hi_i, lo_j:hi_j]
            to_ids = node_grid[lo_i + di:hi_i + di, lo_j + dj:hi_j + dj]
            ok = (from_ids >= 0) & (to_ids >= 0)
            if ok.any():
                yield from_ids[ok], to_ids[ok], fs, ts


def _csr_layout(node_grid: np.ndarray, n_nodes: int):
    """(bits, indptr) of the CSR rows of every edge the grid can have: bit
    s of bits[v] is set when v has a neighbour in slot s. A node's
    neighbours in ascending node order sit in slot order, so its neighbour
    in slot s goes to indptr[v] plus the number of v's bits below s."""
    bits = np.zeros(n_nodes, dtype=np.uint8)
    for f, t, fs, ts in _offset_edges(node_grid):
        bits[f] |= np.uint8(1 << fs)
        bits[t] |= np.uint8(1 << ts)
    # nnz <= 8 * 4^MAX_GRAPH_LEVEL fits the int32 indices scipy would choose
    indptr = np.zeros(n_nodes + 1, dtype=np.int32)
    np.cumsum(np.bitwise_count(bits), out=indptr[1:])
    return bits, indptr


def build_metric_graph(domain: Domain, window: Window, resolution: float,
                       node_margin: float = math.sqrt(2.0)) -> MetricGraph:
    """Build the grid graph at cell size `resolution * window.size`.

    Nodes are cell centers with clearance above node_margin * cell size
    (default: the cell diagonal). Edge weights integrate 1/dist along the
    straight segment; edges whose integrand cannot be bracketed are dropped.
    """
    level = resolution_level(resolution)
    if not 0 < level <= MAX_GRAPH_LEVEL:
        raise ValueError("graph resolution must be 1/2^k with "
                         f"1 <= k <= {MAX_GRAPH_LEVEL}, got {resolution}")
    node_grid, node_cell, node_sd = _graph_nodes(domain, window, level,
                                                 node_margin * window.cell_size(level))
    n_nodes = len(node_cell)
    bits, indptr = _csr_layout(node_grid, n_nodes)
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int32)
    # a band's edges at one offset, at most one band's cells, make one
    # quadrature batch, every weight written straight to its two places;
    # an edge that cannot be bracketed weighs inf
    floor = _SD_FLOOR_FRAC * window.size
    dropped = False
    for f, t, fs, ts in _offset_edges(node_grid):
        w, _, valid = segment_qh_batch(domain, cell_centers(window, level, node_cell[f]),
                                       cell_centers(window, level, node_cell[t]),
                                       rtol=EDGE_RTOL, floor=floor)
        dropped |= not valid.all()
        for a, b, slot in ((f, t, fs), (t, f, ts)):
            at = indptr[a] + np.bitwise_count(bits[a] & np.uint8((1 << slot) - 1))
            data[at] = w
            indices[at] = b
    if dropped:
        # one compaction removes the unbracketed edges' entries
        keep = np.isfinite(data)
        kept = np.zeros(len(data) + 1, dtype=np.int32)
        np.cumsum(keep, out=kept[1:])
        indptr, data, indices = kept[indptr], data[keep], indices[keep]
    adj = csr_matrix((data, indices, indptr), shape=(n_nodes, n_nodes))
    return MetricGraph(domain, window, level, node_cell, node_sd, node_grid, adj)


# ---------------------------------------------------------------------------
# geodesic refinement

def _split_long(points: np.ndarray, owners: np.ndarray,
                max_len: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vertices with every segment longer than max_len cut into equal
    parts, their owners, and for each new vertex the vertex whose pair it
    copies, or -1 where its pair is a part of a cut segment. Only a pair of
    consecutive vertices with one owner is a segment."""
    d = np.hypot(*(points[1:] - points[:-1]).T)
    long = (d > max_len) & (owners[1:] == owners[:-1])
    m = np.ones(len(points), dtype=np.intp)
    m[:-1][long] = np.ceil(d[long] / max_len)
    src = np.repeat(np.arange(len(points)), m)
    t = np.arange(len(src)) - np.repeat(np.cumsum(m) - m, m)
    part = t > 0
    p, k = points, src[part]
    out = p[src]
    out[part] = p[k] + (p[k + 1] - p[k]) * (t[part] / m[k])[:, None]
    return out, owners[src], np.where(m[src] > 1, -1, src)


def _refine_paths(domain: Domain, paths: list, h: float) -> list[np.ndarray]:
    """Iterative midpoint/normal perturbation decreasing the qh length of
    each path, all paths in lockstep.

    Interior vertices move to the best of a fixed candidate set; alternating
    parity keeps simultaneous updates independent. In each parity pass one
    _panel_cost call scores the candidates of every live path, both
    neighbour segments at once. A path stops when a full round improves its
    total by less than REFINE_RTOL (relative), or after REFINE_ROUNDS
    rounds; its floor comes from its own extent.

    The live paths are one array of vertices with an owner column; a pair
    of consecutive vertices with one owner is a segment, any other pair is
    never cut or scored. Each segment keeps its _panel_cost, so a path's
    total is the sum over its own slice and only segments that _split_long
    cuts are scored again. The "stay" candidate's two segments are the
    vertex's own, so its cost is the kept one; and a vertex that chose to
    stay, with neither neighbour moved since, would choose it again, so it
    is not scored. A path that stops leaves the array as its slice. The
    paths are those that scoring every candidate each pass gives.
    """
    if not paths:
        return []
    paths = [np.asarray(p, dtype=float) for p in paths]
    floors = np.array([_SD_FLOOR_FRAC * max(np.ptp(p[:, 0]), np.ptp(p[:, 1]), h)
                       for p in paths])
    owner = np.repeat(np.arange(len(paths)), [len(p) for p in paths])
    pts, owner, _ = _split_long(np.concatenate(paths), owner, 2.0 * h)
    cost = np.zeros(len(pts))           # cost[i]: the segment i -> i + 1, if it is one
    fresh = np.flatnonzero(owner[1:] == owner[:-1])
    # settled[i]: vertex i chose to stay and neither neighbour moved since
    settled = np.zeros(len(pts), dtype=bool)
    prev = np.full(len(paths), np.nan)
    out = [None] * len(paths)
    for rnd in range(REFINE_ROUNDS + 1):
        cost[fresh] = _panel_cost(domain, pts[fresh], pts[fresh + 1],
                                  floor=floors[owner[fresh]])[0]
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        ends = np.append(starts[1:], len(owner))
        ids = owner[starts]
        total = np.array([cost[s:e - 1].sum() for s, e in zip(starts, ends)])
        with np.errstate(invalid="ignore"):     # inf - inf: the path is stuck
            more = prev[ids] - total > REFINE_RTOL * np.maximum(np.abs(total), 1e-12)
        # every path runs a first round, and none more than REFINE_ROUNDS
        more = (more | (rnd == 0)) & (rnd < REFINE_ROUNDS)
        prev[ids] = total
        for k, s, e in zip(ids[~more], starts[~more], ends[~more]):
            out[k] = pts[s:e].copy()
        n = (ends - starts)[more]
        if not n.size:
            break
        keep = np.repeat(more, ends - starts)
        pts, owner, cost, settled = pts[keep], owner[keep], cost[keep], settled[keep]
        place = np.arange(len(pts)) - np.repeat(np.cumsum(n) - n, n)
        inner = (place > 0) & (place < np.repeat(n - 1, n))
        for parity in (1, 0):
            idx = np.flatnonzero(inner & (place % 2 == parity) & ~settled)
            if not idx.size:
                continue
            p_prev, cur, p_next = pts[idx - 1], pts[idx], pts[idx + 1]
            stay = cost[idx - 1] + cost[idx]
            mid = 0.5 * (p_prev + p_next)
            chord = p_next - p_prev
            clen = np.hypot(chord[:, 0], chord[:, 1])
            nrm = np.column_stack([-chord[:, 1], chord[:, 0]])
            nrm /= np.maximum(clen, 1e-300)[:, None]
            amp = np.maximum(0.5 * clen, 0.25 * h)[:, None]
            cands = np.stack([
                cur,
                mid,
                mid + 0.25 * amp * nrm,
                mid - 0.25 * amp * nrm,
                mid + 0.5 * amp * nrm,
                mid - 0.5 * amp * nrm,
                cur + 0.25 * amp * nrm,
                cur - 0.25 * amp * nrm,
            ])                                  # (K, m, 2)
            k_c, m_c, _ = cands.shape
            # every candidate but "stay", both neighbour segments
            a = np.broadcast_to(p_prev, (k_c - 1, m_c, 2)).reshape(-1, 2)
            b = cands[1:].reshape(-1, 2)
            c = np.broadcast_to(p_next, (k_c - 1, m_c, 2)).reshape(-1, 2)
            v, _ = _panel_cost(domain, np.concatenate([a, b]), np.concatenate([b, c]),
                               floor=np.tile(floors[owner[idx]], 2 * (k_c - 1)))
            r = (k_c - 1) * m_c
            left, right = v[:r].reshape(k_c - 1, m_c), v[r:].reshape(k_c - 1, m_c)
            best = np.argmin(np.vstack([stay[None], left + right]), axis=0)
            go = best > 0                       # first minimum: 'stay' wins ties
            g, at, pick = idx[go], np.flatnonzero(go), best[go] - 1
            pts[g] = cands[pick + 1, at]
            cost[g - 1], cost[g] = left[pick, at], right[pick, at]
            settled[idx] = ~go
            settled[g - 1] = settled[g + 1] = False
        pts, owner, src = _split_long(pts, owner, 2.0 * h)
        kept = src >= 0
        cost = cost[np.maximum(src, 0)]
        # a vertex stays settled when both its segments are kept
        settled = settled[np.maximum(src, 0)] & kept
        settled[1:] &= kept[:-1]
        fresh = np.flatnonzero(~kept)
    return out


def qh_distance(graph: MetricGraph, x, y):
    """Quasi-hyperbolic distance estimate and witness geodesic.

    Dijkstra on the grid graph, then curve shortening; the estimate is the
    quadrature length of an actual curve, hence an upper bound up to the
    returned quadrature error.
    """
    domain = graph.domain
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if not (domain.sd(x) > 0 and domain.sd(y) > 0):
        raise ValueError("both endpoints must lie inside the domain")
    if np.array_equal(x, y):
        pl = Polyline(np.array([x, y]), qh_value=0.0, qh_error=0.0)
        return 0.0, pl

    pts = _refine_paths(domain, [grid_path(graph, x, y)], graph.h)[0]
    value, err = qh_length(domain, pts, tol=QUAD_TOL)
    return value, Polyline(pts, qh_value=value, qh_error=err)


def _drop_repeats(pts: np.ndarray) -> np.ndarray:
    """The path's vertices without consecutive repeats; only the first and
    last point when all coincide."""
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.hypot(*(pts[1:] - pts[:-1]).T) > 1e-15
    return pts[keep] if keep.sum() >= 2 else pts[[0, -1]]


def _walk_bound(graph: MetricGraph, src: int, dst: int) -> float:
    """An upper bound on the graph distance from src to dst: the edge-weight
    sum of the lattice walk that takes diagonal steps first and straight
    steps after, times (1 + 1e-9) against rounding in the sums; inf when a
    node or an edge of that walk is not in the graph."""
    (i0, i1), (j0, j1) = np.divmod(graph.node_cell[[src, dst]].tolist(), 1 << graph.level)
    di, dj = i1 - i0, j1 - j0
    k = np.arange(max(abs(di), abs(dj)) + 1)
    ii = i0 + np.sign(di) * np.minimum(k, abs(di))
    jj = j0 + np.sign(dj) * np.minimum(k, abs(dj))
    nodes = graph.node_grid[ii, jj]
    if (nodes < 0).any():
        return math.inf
    w = np.asarray(graph.adj[nodes[:-1], nodes[1:]]).ravel()
    if not (w > 0.0).all():
        return math.inf
    return float(w.sum()) * (1.0 + 1e-9)


def grid_path(graph: MetricGraph, x, y) -> np.ndarray:
    """Vertices of the grid geodesic from x to y: the endpoints joined
    through their snapped nodes by one Dijkstra solve, repeats dropped. The
    solve stops at the weight of a lattice walk between the nodes
    (_walk_bound); if that misses the target it runs again without a
    limit."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    src = graph.snap(x)
    dst = graph.snap(y)
    if src == dst:
        return _drop_repeats(np.vstack([x, graph.positions(src), y]))
    limit = _walk_bound(graph, src, dst)
    dist, pred = graph.shortest_paths(src, limit=limit)
    if not np.isfinite(dist[dst]) and np.isfinite(limit):
        dist, pred = graph.shortest_paths(src)
    if not np.isfinite(dist[dst]):
        sizes = graph.component_sizes()
        raise DisconnectedGraphError(
            f"endpoints in different grid components (sizes {sorted(sizes, reverse=True)[:4]}); "
            "refine the resolution", component_sizes=list(sizes))
    return _drop_repeats(np.vstack([x, graph.positions(graph.path_nodes(pred, dst)), y]))


def _solve_from(graph: MetricGraph, x: np.ndarray):
    """(leg, dist, pred): the qh length of the snap leg from x to its
    node, and one Dijkstra solve from that node to every node. Raises
    QuadratureError when the leg cannot be bracketed."""
    src = graph.snap(x)
    leg, _, ok = segment_qh_batch(graph.domain, x[None, :], graph.positions(src)[None, :],
                                  floor=_SD_FLOOR_FRAC * graph.window.size)
    if not ok[0]:
        raise QuadratureError("snap segment touches the boundary; refine resolution")
    dist, pred = graph.shortest_paths(src)
    return leg[0], dist, pred


@dataclass
class InteriorDistance:
    """Distance from a point to the thick interior {dist >= lam}."""

    value: float            # quadrature length of `path`, its qh_value
    attaining: np.ndarray
    path: Polyline


def qh_distance_to_interior(graph: MetricGraph, x, lam: float) -> InteriorDistance:
    """Shortest quasi-hyperbolic access to {dist >= lam}.

    One Dijkstra solve from the snapped node of x reaches every node; the
    nearest interior node, lowest index first among equals, ends the curve,
    which is then refined as `qh_distance` refines its path, and the
    reported distance is that curve's measured length.
    """
    domain = graph.domain
    x = np.asarray(x, float)
    if not domain.sd(x) > 0:
        raise ValueError("x must lie inside the domain")
    if domain.sd(x) >= lam:
        pl = Polyline(np.array([x, x + 0.0]), qh_value=0.0, qh_error=0.0)
        return InteriorDistance(0.0, x, pl)

    targets = np.nonzero(graph.node_sd >= lam)[0]
    if targets.size == 0:
        raise EmptyInteriorError(
            f"interior set empty at this lambda ({lam:g}) in the window; "
            "the scale-lambda norm equals the homogeneous norm here")

    _, dist, pred = _solve_from(graph, x)
    # targets ascend, so the first minimum is the lowest-index nearest one
    k = int(np.argmin(dist[targets]))
    if not np.isfinite(dist[targets[k]]):
        sizes = graph.component_sizes()
        raise DisconnectedGraphError("no interior node reachable at this resolution",
                                     component_sizes=list(sizes))
    t_star = targets[k]

    pts = _drop_repeats(np.vstack([x, graph.positions(graph.path_nodes(pred, t_star))]))
    if len(pts) > 2:
        pts = _refine_paths(domain, [pts], graph.h)[0]
    value, err = qh_length(domain, pts, tol=QUAD_TOL)
    return InteriorDistance(value, graph.positions(t_star),
                            Polyline(pts, qh_value=value, qh_error=err))


def eta_lambda(graph: MetricGraph, x, y, lam: float) -> float:
    """Sum of the interior-access distances of the two points."""
    return (qh_distance_to_interior(graph, x, lam).value
            + qh_distance_to_interior(graph, y, lam).value)
