"""Planar domains given by vectorized signed-distance oracles.

Sign convention: positive inside the open set, negative in the interior of
the complement, zero on the boundary. Every oracle accepts an (M, 2) array
of points and returns an (M,) array; all built-ins are exact distances and
therefore 1-Lipschitz.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dyadic import EVAL_BUDGET, Window
from .errors import PolygonError


@dataclass(frozen=True)
class Domain:
    """An open planar set reachable only through its signed distance."""

    sd_func: object
    bounding_box: tuple[float, float, float, float]  # (x0, y0, x1, y1)
    label: str
    default_window: Window | None = None

    def signed_distance(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.sd_func(pts)

    def sd(self, p) -> float:
        return float(self.signed_distance(np.asarray(p, dtype=float).reshape(1, 2))[0])

    def check_window(self, window: Window):
        """Raise ValueError unless the window sits inside the bounding box."""
        x0, y0, x1, y1 = self.bounding_box
        wx, wy = window.origin
        if not (x0 <= wx and y0 <= wy and wx + window.size <= x1 and wy + window.size <= y1):
            raise ValueError("window must sit inside the domain bounding box")


# ---------------------------------------------------------------------------
# shape constructors

def half_plane() -> Domain:
    def sd(pts):
        return pts[:, 1].astype(float)

    big = 1024.0
    return Domain(sd, (-big, -big, big, big), "half_plane",
                  default_window=Window((-2.0, -2.0), 4.0))


def disk(r: float = 1.0) -> Domain:
    if not r > 0:
        raise ValueError("disk radius must be positive")

    def sd(pts):
        return r - np.hypot(pts[:, 0], pts[:, 1])

    m = 1.25 * r
    return Domain(sd, (-2 * r, -2 * r, 2 * r, 2 * r), f"disk({r:g})",
                  default_window=Window((-m, -m), 2 * m))


def square(s: float = 2.0) -> Domain:
    """Axis-parallel open square (-s/2, s/2)^2."""
    if not s > 0:
        raise ValueError("square side must be positive")
    b = s / 2.0

    def sd(pts):
        dx = np.abs(pts[:, 0]) - b
        dy = np.abs(pts[:, 1]) - b
        outside = np.hypot(np.maximum(dx, 0.0), np.maximum(dy, 0.0))
        inside = np.minimum(np.maximum(dx, dy), 0.0)
        return -(outside + inside)

    m = 0.75 * s
    return Domain(sd, (-s, -s, s, s), f"square({s:g})",
                  default_window=Window((-m, -m), 2 * m))


# Relative margin on squared distances within which two edges count as
# equally near; see _nearest.
_NEAR = 1.0 + 2.0 ** -40
_TINY = np.finfo(float).tiny

# A polygon of at most this many edges is as fast with every edge evaluated
# for every point as with a run index (_RunIndex).
_DENSE_EDGES = 8


def _edge_ends(loops: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The start and end vertex of every edge of a set of loops, numbering
    the edges of all loops in turn: two (E, 2) arrays."""
    return np.concatenate(loops), np.concatenate([np.roll(lp, -1, axis=0) for lp in loops])


def _edge_columns(loops: list[np.ndarray]) -> tuple:
    """The constants of the edges of a set of loops as read-only (E, 1)
    columns: start x, y, direction x, y and squared length (at least
    1e-300)."""
    seg_a, seg_b = _edge_ends(loops)
    ax, ay = seg_a[:, 0:1].copy(), seg_a[:, 1:2].copy()
    abx, aby = seg_b[:, 0:1] - ax, seg_b[:, 1:2] - ay
    den = np.maximum(abx * abx + aby * aby, 1e-300)
    cols = (ax, ay, abx, aby, den)
    for c in cols:
        c.flags.writeable = False
    return cols


def _pair_offsets(px, py, ax, ay, abx, aby, den):
    """(dx, dy, q) of (point, edge) pairs: the offset from the point to its
    nearest point on the edge and q = dx^2 + dy^2, for points px, py
    broadcast against edge columns (_edge_columns). These are the reference
    kernel's expressions (tests/test_polygon_oracle.py), in place."""
    apx, apy = px - ax, py - ay
    t = apx * abx
    t += np.multiply(apy, aby, out=apy)
    t /= den
    np.clip(t, 0.0, 1.0, out=t)
    dx = np.multiply(t, abx, out=apx)
    dx += ax
    np.subtract(px, dx, out=dx)
    dy = np.multiply(t, aby, out=apy)
    dy += ay
    np.subtract(py, dy, out=dy)
    q = np.multiply(dx, dx, out=t)
    q += dy * dy
    return dx, dy, q


def _nearest(dx, dy, q, pt: np.ndarray, n: int) -> np.ndarray:
    """The distance from each of n points to its nearest edge, given
    _pair_offsets arrays whose column c holds pairs of point pt[c]: the
    minimum of hypot(dx, dy) over its pairs.

    hypot, the costly step, runs only on the pairs whose q lies within a
    relative 2^-40 of the point's least q, m. Why that is the same minimum:
    with u = 2^-53, when no product overflows and m is a normal number,
    every q >= m is within 4u of the exact dx^2 + dy^2 (absolute underflow
    errors of a single square are below u * tiny <= u * q), and hypot is
    within a few ulps of the exact length. So a pair with q > m * (1 +
    2^-40) has an exact squared length above the nearest pair's by a factor
    of more than 1 + 2^-41, and its hypot exceeds the nearest pair's hypot.
    Where m is not a normal number (zero, subnormal, or a NaN coordinate)
    every pair of the point runs hypot, and a margin that overflows puts
    every pair within it.
    """
    m = np.full(n, np.inf)
    np.minimum.at(m, pt, q.min(axis=0))
    margin = np.where(m >= _TINY, m * _NEAR, np.inf)
    near = np.flatnonzero(~(q > margin[pt]))
    d = np.full(n, np.inf)
    np.minimum.at(d, pt[near % len(pt)], np.hypot(dx.ravel()[near], dy.ravel()[near]))
    return d


def _segment_distances(pts: np.ndarray, edges: tuple) -> np.ndarray:
    """Min distance from each point to a set of segments (_edge_columns),
    every edge evaluated for every point.

    Arrays are (edges, points), so every ufunc runs along points and the
    minimum over edges is a reduction across rows (_nearest).
    """
    out = np.empty(len(pts))
    step = max(1, EVAL_BUDGET // len(edges[0]))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for lo in range(0, len(pts), step):
            px, py = pts[lo:lo + step, 0], pts[lo:lo + step, 1]
            dx, dy, q = _pair_offsets(px, py, *edges)
            out[lo:lo + step] = _nearest(dx, dy, q, np.arange(len(px)), len(px))
    return out


@dataclass(frozen=True)
class _RunIndex:
    """The edges of a polygon in runs of `size` consecutive edges (the last
    run padded with copies of the last edge), each run with its first vertex
    and the bounding box of its edges, widened by `slack` and stored as
    offsets from that vertex."""

    size: int
    cols: np.ndarray      # (5 * size, R): _edge_columns of the runs' edges, by run
    first: np.ndarray     # (2, R, 1) first vertex x, y of each run
    box: np.ndarray       # (4, R, 1) box low x, high x, low y, high y minus the first vertex
    slack: float          # absolute rounding slack of the bounds
    far: float            # points at least this far from every run keep all runs


def _run_index(loops: list[np.ndarray], edges: tuple) -> _RunIndex:
    n_edges = len(edges[0])
    # bounding a point costs a few operations per run and evaluating a kept
    # run a few per edge, and a point keeps a few runs, so runs of about
    # sqrt(E) / 2 edges balance the two: the power of two 2^k with
    # 2^(2k + 1) <= E < 2^(2k + 3)
    size = 1 << (n_edges.bit_length() - 2) // 2
    n_runs = -(-n_edges // size)
    pad = np.minimum(np.arange(n_runs * size), n_edges - 1)
    cols = np.concatenate([c[pad, 0].reshape(n_runs, size).T for c in edges])
    a, b = _edge_ends(loops)
    lo = np.minimum(a, b)[pad].reshape(n_runs, size, 2).min(axis=1)
    hi = np.maximum(a, b)[pad].reshape(n_runs, size, 2).max(axis=1)
    first = a[pad[::size]]
    big = float(np.abs(a).max())
    slack = 2.0 ** -40 * big + 2.0 ** -500
    box = np.stack([lo[:, 0] - first[:, 0] - 3 * slack, hi[:, 0] - first[:, 0] + 3 * slack,
                    lo[:, 1] - first[:, 1] - 3 * slack, hi[:, 1] - first[:, 1] + 3 * slack])
    out = _RunIndex(size, cols, first.T[:, :, None].copy(), box[:, :, None], slack,
                    2.0 ** 500 / max(big, 1.0))
    for arr in (out.cols, out.first, out.box):
        arr.flags.writeable = False
    return out


def _kept_runs(px: np.ndarray, py: np.ndarray, index: _RunIndex):
    """(run, point) index pairs, in run order, of the runs that can hold the
    nearest edge of each point (px, py contiguous).

    A point's distance to the first vertex of a run bounds its distance to
    the boundary from above, and its distance to a run's box bounds its
    distance to every edge of the run from below. Widened by a relative
    2^-40 and the absolute slack (2^-40 times the largest vertex coordinate),
    these bounds hold for the computed distances too, whose rounding errors
    stay below 2^-48 of those terms. So a run whose box lies beyond the
    nearest first vertex holds no edge whose computed distance is as small
    as the least one, and is dropped. A point with a NaN bound, or one at
    least `far` away, where products could overflow, keeps every run.
    """
    vx, vy = index.first
    x_lo, x_hi, y_lo, y_hi = index.box
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        # (runs, points) offsets from each run's first vertex
        ox, oy = px - vx, py - vy
        q = ox * ox
        q += oy * oy
        bound = np.sqrt(q.min(axis=0))
        bound *= 1.0 + 2.0 ** -40
        bound += index.slack
        bound[~(bound < index.far)] = np.inf
        bound *= bound
        # squared distance to each run's box
        gx = np.subtract(x_lo, ox, out=q)
        np.maximum(gx, np.subtract(ox, x_hi, out=ox), out=gx)
        np.maximum(gx, 0.0, out=gx)
        gy = np.subtract(y_lo, oy, out=ox)
        np.maximum(gy, np.subtract(oy, y_hi, out=oy), out=gy)
        np.maximum(gy, 0.0, out=gy)
        gx *= gx
        gx += np.multiply(gy, gy, out=gy)
        return np.divmod(np.flatnonzero(~(gx > bound)), len(px))


def _run_distances(pts: np.ndarray, index: _RunIndex) -> np.ndarray:
    """_segment_distances over the edges of a run index, evaluating for
    each point only the edges of its kept runs (_kept_runs).

    Every kept (point, edge) pair runs the same _pair_offsets, and the
    minimum over a set of edges that holds the nearest ones is the same
    number (_nearest).
    """
    out = np.empty(len(pts))
    step = max(1, EVAL_BUDGET // index.cols.shape[1])
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for lo in range(0, len(pts), step):
            px, py = pts[lo:lo + step, 0].copy(), pts[lo:lo + step, 1].copy()
            run, pt = _kept_runs(px, py, index)
            # (size, pairs) edge columns of the kept pairs
            cols = np.repeat(index.cols, np.bincount(run, minlength=index.cols.shape[1]),
                             axis=1).reshape(5, index.size, -1)
            dx, dy, q = _pair_offsets(px[pt], py[pt], *cols)
            out[lo:lo + step] = _nearest(dx, dy, q, pt, len(px))
    return out


@dataclass(frozen=True)
class _SlabIndex:
    """Edges of a set of loops grouped by the horizontal slabs between
    consecutive distinct vertex heights: column s of `edges` lists the
    edges that span slab s, padded with the last edge, a degenerate one
    that no point crosses."""

    heights: np.ndarray   # (K,) sorted distinct vertex heights
    edges: np.ndarray     # (W, K + 1) edge numbers per slab
    xa: np.ndarray        # (E + 1,) edge start x, padding edge last
    ya: np.ndarray        # (E + 1,) edge start y
    yb: np.ndarray        # (E + 1,) edge end y
    dx: np.ndarray        # (E + 1,) edge end x minus start x


def _slab_index(loops: list[np.ndarray]) -> _SlabIndex:
    a, b = _edge_ends(loops + [np.zeros((1, 2))])
    heights = np.unique(a[:-1, 1])
    # slab s holds the heights y with exactly s vertex heights <= y, so an
    # edge with (ya <= y) != (yb <= y) spans slabs lo <= s < hi
    lo = np.searchsorted(heights, np.minimum(a[:-1, 1], b[:-1, 1]), side="right")
    hi = np.searchsorted(heights, np.maximum(a[:-1, 1], b[:-1, 1]), side="right")
    # one (slab, edge) pair per slab an edge spans, then sorted by slab
    span = hi - lo
    edge = np.repeat(np.arange(len(span)), span)
    slab = np.repeat(lo - (np.cumsum(span) - span), span) + np.arange(len(edge))
    order = np.argsort(slab, kind="stable")
    slab, edge = slab[order], edge[order]
    width = np.bincount(slab, minlength=len(heights) + 1)
    table = np.full((max(1, width.max()), len(heights) + 1), len(span))
    table[np.arange(len(slab)) - (np.cumsum(width) - width)[slab], slab] = edge
    cols = (heights, table, a[:, 0].copy(), a[:, 1].copy(), b[:, 1].copy(),
            b[:, 0] - a[:, 0])
    for arr in cols:
        arr.flags.writeable = False
    return _SlabIndex(*cols)


def _crossings_parity(pts: np.ndarray, index: _SlabIndex) -> np.ndarray:
    """Even-odd point-in-polygon over all loops of the index (holes flip
    parity); a point tests only the edges spanning its slab, in (edges,
    points) arrays."""
    inside = np.empty(len(pts), dtype=bool)
    step = max(1, EVAL_BUDGET // index.edges.shape[0])
    for lo in range(0, len(pts), step):
        px, py = pts[lo:lo + step, 0], pts[lo:lo + step, 1]
        e = index.edges.take(np.searchsorted(index.heights, py, side="right"), axis=1)
        ya, yb = index.ya.take(e), index.yb.take(e)
        cond = (ya <= py) != (yb <= py)
        # x of edge at height py, guarded where cond is false
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = index.xa.take(e) + (py - ya) * index.dx.take(e) / (yb - ya)
        inside[lo:lo + step] = np.logical_xor.reduce(cond & (xs > px), axis=0)
    return inside


def _orient(p, q, r) -> np.ndarray:
    v = ((q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1])
         - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0]))
    return np.where(np.abs(v) < 1e-15, 0, np.where(v > 0, 1, -1))


def _first_crossing(loops: list[np.ndarray]):
    """First edge pair (i, j), i < j in row-major order, numbering the edges
    of all loops in turn, whose segments cross at a point interior to both.
    Returns None when no pair crosses. Consecutive edges of a loop never
    count: the orientation of their shared endpoint is exactly 0, since
    x * y - y * x is."""
    a, b = _edge_ends(loops)
    n = len(a)
    j = np.arange(n)
    step = max(1, EVAL_BUDGET // n)
    for lo in range(0, n, step):
        i = np.arange(lo, min(lo + step, n))[:, None]
        o1, o2 = _orient(a[i], b[i], a[None]), _orient(a[i], b[i], b[None])
        o3, o4 = _orient(a[None], b[None], a[i]), _orient(a[None], b[None], b[i])
        hit = ((o1 != o2) & (o3 != o4) & (o1 != 0) & (o2 != 0) & (o3 != 0) & (o4 != 0)
               & (j > i))
        if hit.any():
            r, c = np.unravel_index(np.argmax(hit), hit.shape)
            return int(i[r, 0]), int(c)
    return None


def _validate(loops: list[np.ndarray]):
    """Reject a loop of fewer than 3 vertices, two edges that cross (in one
    loop or across loops), an outer loop of zero area, a hole that touches
    the outer loop or leaves it, and a hole with a vertex inside or on
    another hole. Without crossings, two holes that share no point pass,
    and two that overlap or touch have a vertex of one inside or on the
    other."""
    names = ["outer loop"] + [f"hole {k}" for k in range(len(loops) - 1)]
    sizes = [len(lp) for lp in loops]
    for name, m in zip(names, sizes):
        if m < 3:
            raise PolygonError(f"{name}: needs at least 3 vertices, got {m}")
    owner = np.repeat(np.arange(len(loops)), sizes)
    start = np.cumsum([0] + sizes)
    pair = _first_crossing(loops)
    if pair is not None:
        (i, j), (li, lj) = pair, owner[list(pair)]
        if li == lj:
            raise PolygonError(f"{names[li]}: edges {i - start[li]} and {j - start[li]} "
                               "intersect (self-intersecting loop)")
        raise PolygonError(f"{names[li]} edge {i - start[li]} and "
                           f"{names[lj]} edge {j - start[lj]} intersect")
    # without crossings the shoelace sum is twice the enclosed area; a hole
    # of zero area is a slit and stays
    x, y = loops[0].T
    if np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y) == 0.0:
        raise PolygonError("outer loop: encloses no area (its vertices are "
                           "collinear or coincide)")
    if len(loops) == 1:
        return
    # row h: whether each vertex lies on an edge of loop h, or inside it by
    # parity (half-open, so a vertex on the outer loop must be refused first)
    verts = np.concatenate(loops)
    on = np.array([_segment_distances(verts, _edge_columns([lp])) == 0.0 for lp in loops])
    inside = np.array([_crossings_parity(verts, _slab_index([lp])) for lp in loops])
    for k in range(1, len(loops)):
        if on[0, owner == k].any() or on[k, owner == 0].any():
            raise PolygonError(f"{names[k]} touches the outer loop")
        if not inside[0, owner == k].all():
            raise PolygonError(f"{names[k]} is not inside the outer loop")
    for h in range(1, len(loops)):
        hit = (on[h] | inside[h]) & (owner != h) & (owner != 0)
        if hit.any():
            raise PolygonError(
                f"{names[owner[np.argmax(hit)]]} has a vertex inside or on {names[h]}")


def polygon(outer, holes=(), label: str = "polygon") -> Domain:
    """Simple polygon with optional holes; exact distance to the boundary
    polyline, signed by even-odd parity. No two edges may cross, the outer
    loop encloses positive area, every hole lies inside the outer loop
    without touching it, and no two holes overlap or touch."""
    loops = [np.asarray(lp, dtype=float) for lp in (outer, *holes)]
    _validate(loops)
    edges = _edge_columns(loops)
    index = _slab_index(loops)
    runs = _run_index(loops, edges) if len(edges[0]) > _DENSE_EDGES else None

    def sd(pts):
        d = _segment_distances(pts, edges) if runs is None else _run_distances(pts, runs)
        sign = np.where(_crossings_parity(pts, index), 1.0, -1.0)
        return sign * d

    allv = np.concatenate(loops)
    (x0, y0), (x1, y1) = allv.min(axis=0), allv.max(axis=0)
    m = 0.5 * max(x1 - x0, y1 - y0)
    side = max(x1 - x0, y1 - y0) * 1.5
    cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
    win = Window((cx - side / 2, cy - side / 2), side)
    return Domain(sd, (x0 - 2 * m, y0 - 2 * m, x1 + 2 * m, y1 + 2 * m),
                  label, default_window=win)


def l_shape(w: float = 2.0, h: float = 2.0) -> Domain:
    """L-shaped hexagon: the rectangle [0,w]x[0,h] minus its top-right quadrant."""
    if not (w > 0 and h > 0):
        raise ValueError("l_shape arm lengths must be positive")
    verts = [(0, 0), (w, 0), (w, h / 2), (w / 2, h / 2), (w / 2, h), (0, h)]
    return polygon(verts, label=f"l_shape({w:g},{h:g})")


def slit_disk(r: float = 1.0, slit: float = 0.5) -> Domain:
    """Open disk of radius r minus the radial slit from (r-slit, 0) to (r, 0)."""
    if not (r > 0 and 0 < slit < r):
        raise ValueError("need r > 0 and 0 < slit < r")
    tip = r - slit

    def sd(pts):
        circ = r - np.hypot(pts[:, 0], pts[:, 1])
        t = np.clip(pts[:, 0], tip, r)
        seg = np.hypot(pts[:, 0] - t, pts[:, 1])
        return np.where(circ > 0.0, np.minimum(circ, seg), circ)

    m = 1.25 * r
    return Domain(sd, (-2 * r, -2 * r, 2 * r, 2 * r), f"slit_disk({r:g},{slit:g})",
                  default_window=Window((-m, -m), 2 * m))


CUSP_WALL_VERTICES = 160   # samples of each cusp wall, geometric toward the tip


def cusp(p: float = 2.0) -> Domain:
    """Outward power cusp {0 < x < 1, |y| < x^p}, realized as a polygon whose
    walls sample y = +-x^p geometrically toward the tip."""
    if not p > 1:
        raise ValueError("cusp exponent must be > 1")
    xs = np.geomspace(1e-3, 1.0, CUSP_WALL_VERTICES)
    lower = [(0.0, 0.0)] + [(x, -x ** p) for x in xs]
    upper = [(x, x ** p) for x in xs[::-1]]
    return replace(polygon(lower + upper, label=f"cusp({p:g})"),
                   default_window=Window((-0.25, -1.0), 2.0))


def intro_lipschitz() -> Domain:
    """The strip-plus-wedge {(x, y): 0 < y < max(1, 1 - x)}."""

    def sd(pts):
        x, y = pts[:, 0], pts[:, 1]
        d_bottom = np.abs(y)
        # distance to the horizontal ray {(t, 1): t >= 0}
        d_flat = np.where(x >= 0.0, np.abs(y - 1.0), np.hypot(x, y - 1.0))
        # distance to the slanted ray {(t, 1 - t): t <= 0}
        tproj = np.minimum((x - y + 1.0) / 2.0, 0.0)
        d_slant = np.hypot(x - tproj, y - (1.0 - tproj))
        d = np.minimum(d_bottom, np.minimum(d_flat, d_slant))
        inside = (y > 0.0) & (y < np.maximum(1.0, 1.0 - x))
        return np.where(inside, d, -d)

    big = 1024.0
    return Domain(sd, (-big, -big, big, big), "intro_lipschitz",
                  default_window=Window((-4.0, -3.0), 8.0))


_BUILDERS = {
    "half_plane": (half_plane, 0),
    "disk": (disk, 1),
    "square": (square, 1),
    "l_shape": (l_shape, 2),
    "slit_disk": (slit_disk, 2),
    "cusp": (cusp, 1),
    "intro_lipschitz": (intro_lipschitz, 0),
}


def _build(shape: str, params: tuple, outer, holes) -> Domain:
    """The domain a parsed spec names; rejects invalid parameters, and
    loops given to a built-in shape or parameters given to a polygon."""
    if shape == "polygon":
        if params:
            raise ValueError("polygon takes no params, only outer and hole loops")
        if outer is None:
            raise PolygonError("polygon spec requires an outer vertex loop")
        return polygon(outer, holes)
    if shape not in _BUILDERS:
        raise ValueError(f"unknown domain shape {shape!r}")
    if outer is not None or holes:
        raise ValueError(f"{shape} takes params, not outer or hole loops")
    builder, max_args = _BUILDERS[shape]
    if len(params) > max_args:
        raise ValueError(f"{shape} takes at most {max_args} parameters")
    return builder(*params)


# ---------------------------------------------------------------------------
# textual domain specs: "disk:1", "slit_disk:1,0.5", or a key/value file

def parse_domain_arg(text: str) -> Domain:
    """Parse "<builtin>[:p1,p2,...]" into a Domain."""
    name, _, args = text.partition(":")
    params = tuple(float(a) for a in args.split(",") if a.strip()) if args else ()
    return _build(name.strip(), params, None, ())


def parse_domain_file(text: str) -> Domain:
    """Key/value domain file.

    Grammar (one statement per line, '#' starts a comment):
        shape: <name>
        params: p1 p2 ...
        outer: x1 y1 x2 y2 ...
        hole: x1 y1 x2 y2 ...      (repeatable)
    Every other key may appear once.
    """
    shape = None
    params: tuple = ()
    outer = None
    holes = []
    seen = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, val = line.partition(":")
        key = key.strip().lower()
        if key in seen and key != "hole":
            raise ValueError(f"domain-file key {key!r} is given twice")
        seen.add(key)
        if key == "shape":
            shape = val.strip()
        elif key == "params":
            params = tuple(float(v) for v in val.split())
        elif key in ("outer", "hole"):
            nums = [float(v) for v in val.split()]
            if len(nums) % 2 != 0:
                raise PolygonError(f"{key} list needs an even number of coordinates")
            loop = tuple(zip(nums[0::2], nums[1::2]))
            if key == "outer":
                outer = loop
            else:
                holes.append(loop)
        else:
            raise ValueError(f"unknown domain-file key {key!r}")
    if shape is None:
        raise ValueError("domain file must set 'shape'")
    return _build(shape, params, outer, holes)
