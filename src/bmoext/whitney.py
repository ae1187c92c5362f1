"""Whitney decompositions of a domain and of its complement's interior.

A window cell is accepted into the family of the domain side when the
center clearance reaches (3/2)*sqrt(n) times its side, into the complement
family symmetrically, and is otherwise subdivided down to max_depth where
undecided cells form the frontier. The acceptance rule makes the classical
size-vs-distance inequalities hold by construction; they are re-checked
after every build and a violation aborts loudly, since it can only come
from a broken distance oracle. The upper bound of 4 sqrt(n) sides holds
for cubes whose parent was subdivided (its center lay within 3 sqrt(n)
child sides), so it is checked from level 1 on: a window far from the
boundary is accepted whole at level 0 at any clearance.

A decomposition is a set of read-only columns. `cubes` is a structured
array (tag, level, i, j, dist_lo, dist_hi) in build order: level by level,
the domain family before the complement family, cells in (i, j) order
within each block, so the cubes of one family and level are contiguous.
`frontier` holds the undecided (level, i, j) cells. Every leaf, cube or
frontier cell, is also listed by its Morton key at the deepest level the
build reached, so locating a cell is one binary search, and same-family
adjacency is stored once as CSR arrays.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .domains import Domain
from .dyadic import (EVAL_BUDGET, DyadicCube, Window, SQRT_N, N_DIM,
                     box_distance, level_cell_centers)
from .errors import MatchingError, WhitneyInvariantError

ACCEPT_FACTOR = 1.5 * SQRT_N          # clearance/side ratio that accepts a cell
WC2_LOW = 1.0
WC2_HIGH = 4.0 * SQRT_N
TAG_DOMAIN = "E"
TAG_COMPLEMENT = "E'"
FRONTIER = "frontier"

CUBE_DTYPE = np.dtype([("tag", "U2"), ("level", np.int64), ("i", np.int64),
                       ("j", np.int64), ("dist_lo", np.float64),
                       ("dist_hi", np.float64)])

# Offsets of the 20 cells of side s/4 that ring a cube of side s, in units
# of those cells from the cube's lower corner.
_RING = np.array([(a, b) for a in range(-1, 5) for b in range(-1, 5)
                  if not (0 <= a < 4 and 0 <= b < 4)], dtype=np.int64)
INTERIOR_PROBES = 1024                # annulus points find_interior_point tries


def matching_size_bound(epsilon: float, delta: float) -> float:
    """Largest complement-cube side with a guaranteed comparable partner."""
    return epsilon * delta / (16.0 * N_DIM)


def matching_distance_constant(epsilon: float) -> float:
    """Partner-distance bound, in units of the queried cube's side."""
    return 5.0 * SQRT_N + 8.0 * N_DIM / epsilon ** 2


# ---------------------------------------------------------------------------
# Morton keys

def _spread(v):
    """The low 32 bits of v moved to the even bit positions."""
    for shift, mask in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
                        (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
                        (1, 0x5555555555555555)):
        v = (v | (v << shift)) & mask
    return v


def _morton(i, j, depth: int):
    """Bit-interleaved keys of level-`depth` cells (i, j), integers or arrays.

    Keys and their 4**depth range fit int64 up to depth 31; deeper builds
    (only a few cells stay undecided that far down) use exact Python
    integers, in object arrays.
    """
    if depth > 31:
        i, j = np.asarray(i).astype(object), np.asarray(j).astype(object)
    key = _spread(i & 0xFFFFFFFF) | (_spread(j & 0xFFFFFFFF) << 1)
    if depth > 31:
        key |= (_spread(i >> 32) | (_spread(j >> 32) << 1)) << 64
    return key


def _first_cell_at(depth: int, level, i, j):
    """Coordinates at `depth` of each cell's first (lowest) descendant, or of
    its ancestor when the cell is finer than `depth`. The cells are integers
    or integer arrays; integers stay Python integers, so locating one cell
    costs no numpy scalar arithmetic."""
    shift = depth - level
    up = shift * (shift > 0)
    down = up - shift
    return (i << up) >> down, (j << up) >> down


# ---------------------------------------------------------------------------
# the decomposition

@dataclass(frozen=True, eq=False)
class WhitneyDecomposition:
    domain: Domain
    window: Window
    max_depth: int
    cubes: np.ndarray                  # CUBE_DTYPE rows in build order
    frontier: np.ndarray               # (F, 3) int64 rows (level, i, j)
    depth: int = field(init=False)     # deepest level of any leaf
    # the domain cubes in build order, which is (level, i, j) order: their
    # int32 rows in `cubes`, their closed boxes [domain_lo, domain_hi], and
    # [domain_starts[l], domain_starts[l + 1]) spanning level l, l <= depth
    domain_rows: np.ndarray = field(init=False, repr=False)
    domain_lo: np.ndarray = field(init=False, repr=False)
    domain_hi: np.ndarray = field(init=False, repr=False)
    domain_starts: np.ndarray = field(init=False, repr=False)
    # leaves (cubes, then frontier rows offset by len(cubes)) in key order:
    # their keys, int8 levels and int32 rows
    leaf_keys: np.ndarray = field(init=False, repr=False)
    leaf_levels: np.ndarray = field(init=False, repr=False)
    leaf_ids: np.ndarray = field(init=False, repr=False)
    # same-family adjacency: neighbors of cube k, in build order, are
    # adj_indices[adj_indptr[k]:adj_indptr[k + 1]], int32 rows of `cubes`
    # under int32 row pointers
    adj_indptr: np.ndarray = field(init=False, repr=False)
    adj_indices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        c, fr = self.cubes, self.frontier
        level = np.concatenate([c["level"], fr[:, 0]])
        depth = int(level.max())
        keys = _morton(*_first_cell_at(depth, level, np.concatenate([c["i"], fr[:, 1]]),
                                       np.concatenate([c["j"], fr[:, 2]])), depth)
        order = np.argsort(keys, kind="stable").astype(np.int32)
        rows = np.flatnonzero(c["tag"] == TAG_DOMAIN).astype(np.int32)
        side = self.window.cell_sizes(c["level"][rows])[:, None]
        lo = np.asarray(self.window.origin) + np.column_stack([c["i"][rows], c["j"][rows]]) * side
        self._attach(cubes=c, frontier=fr, depth=depth, domain_rows=rows, domain_lo=lo,
                     domain_hi=lo + side,
                     domain_starts=np.searchsorted(c["level"][rows], np.arange(depth + 2)),
                     leaf_keys=keys[order], leaf_levels=level[order].astype(np.int8),
                     leaf_ids=order)
        del level, keys                # unsorted copies, freed before adjacency
        indptr, indices = self.neighbor_indices()
        self._attach(adj_indptr=indptr, adj_indices=indices)

    def _attach(self, **columns):
        """Store columns while constructing (assignment is frozen) and make
        every array read-only."""
        for value in columns.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        vars(self).update(columns)

    def cube(self, idx: int) -> DyadicCube:
        _, level, i, j, _, _ = self.cubes[idx].item()
        return DyadicCube(level, (i, j), self.window)

    def indices(self, tag: str) -> np.ndarray:
        return np.flatnonzero(self.cubes["tag"] == tag)

    @property
    def frontier_volume_fraction(self) -> float:
        return len(self.frontier) * 4.0 ** (-self.max_depth)

    # -- point location ----------------------------------------------------

    def leaf_containing(self, level, i, j) -> np.ndarray:
        """Positions in the leaf arrays of the leaves holding cells (level, i, j).

        A cell coarser than its leaf maps to the leaf of its lowest corner.
        """
        keys = _morton(*_first_cell_at(self.depth, level, i, j), self.depth)
        return np.searchsorted(self.leaf_keys, keys, side="right") - 1

    def cell_rows(self, level: int) -> np.ndarray:
        """(n, n) int32 rows in `cubes` of the cube holding each level-`level`
        cell; -1 where the cell's leaf is a frontier cell or finer than the cell.

        Each level l <= `level` paints its cubes' rows into the b x b blocks,
        b = 2**(level - l), of an (2**l, b, 2**l, b) view of the output."""
        n = 1 << level
        out = np.full((n, n), -1, dtype=np.int32)
        c = self.cubes
        starts = np.searchsorted(c["level"], np.arange(min(level, self.depth) + 2))
        for lvl in range(min(level, self.depth) + 1):
            cut = slice(starts[lvl], starts[lvl + 1])
            m, b = 1 << lvl, 1 << (level - lvl)
            out.reshape(m, b, m, b)[c["i"][cut], :, c["j"][cut], :] = \
                np.arange(cut.start, cut.stop, dtype=np.int32)[:, None, None]
        return out

    def index_of(self, q: DyadicCube) -> int:
        """Row of the cube q; KeyError when q is not a cube of this
        decomposition, including a cube of another window."""
        if q.window == self.window and q.level <= self.depth:
            pos = self.leaf_containing(q.level, *q.coords)
            idx = int(self.leaf_ids[pos])
            if self.leaf_levels[pos] == q.level and idx < len(self.cubes):
                return idx
        raise KeyError(f"cube {q.sort_key()} is not in this decomposition")

    def locate(self, p):
        """(kind, index) of the decomposition cell containing the point;
        frontier cells come back as ("frontier", None)."""
        if not self.window.contains_point(p):
            raise ValueError(f"point {tuple(np.asarray(p))} outside the window")
        i, j = self.window.cell_of_point(p, self.depth)
        idx = int(self.leaf_ids[self.leaf_containing(self.depth, i, j)])
        if idx >= len(self.cubes):
            return FRONTIER, None
        return str(self.cubes["tag"][idx]), idx

    # -- adjacency ---------------------------------------------------------

    def neighbor_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Same-family adjacency of every cube as CSR (indptr, indices).

        A leaf meeting the closed box of a cube of side s and at least s/4
        wide contains one of the 20 cells of side s/4 ringing the cube
        (cells of the deepest level at the bottom two levels), so locating
        that ring finds every such neighbor. A ring cell inside a finer leaf
        means touching leaves with side ratio above 4, which the Whitney
        bounds exclude, so it raises. This proves the ratio bound for every
        pair of touching leaves, whatever their families: a leaf of side at
        most s/8 touching a cube of side s lies in one dyadic cell of side
        s/4 that touches the cube, so in a ring cell; that ring cell is then
        not inside one leaf, so the leaf its probe locates is finer than it.

        Probes are taken a chunk of ascending cubes at a time, at most
        EVAL_BUDGET probes; a chunk keeps its rows' neighbor counts and
        their columns, so no array of all (cube, neighbor) pairs is made.
        """
        n = len(self.cubes)
        is_domain = self.cubes["tag"] == TAG_DOMAIN
        step = max(1, EVAL_BUDGET // len(_RING))         # cubes per probe pass
        counts, cols = [np.zeros(1, np.intp)], [np.empty(0, np.int32)]
        for lo in range(0, n, step):
            count, col = self._ring_neighbors(lo, min(lo + step, n), is_domain)
            counts.append(count)
            cols.append(col)
        return np.cumsum(np.concatenate(counts), dtype=np.int32), np.concatenate(cols)

    def _ring_neighbors(self, lo: int, hi: int, is_domain: np.ndarray):
        """Neighbor counts of cubes lo..hi-1 and their neighbors' int32 rows,
        row by row."""
        c = self.cubes
        n = len(c)
        cube = np.arange(lo, hi)
        level = np.repeat(c["level"][cube] + 2, len(_RING))
        pi = (4 * c["i"][cube, None] + _RING[:, 0]).ravel()
        pj = (4 * c["j"][cube, None] + _RING[:, 1]).ravel()
        cube = np.repeat(cube, len(_RING))
        side = np.left_shift(1, level)
        ok = (pi >= 0) & (pj >= 0) & (pi < side) & (pj < side)
        cube, level, pi, pj = cube[ok], level[ok], pi[ok], pj[ok]
        pos = self.leaf_containing(level, pi, pj)
        finer = self.leaf_levels[pos] > np.minimum(level, self.depth)
        if finer.any():
            k = int(np.flatnonzero(finer)[0])
            raise WhitneyInvariantError(
                f"cube {self.cube(cube[k]).sort_key()} touches a leaf at level "
                f"{int(self.leaf_levels[pos[k]])}: side ratio outside [1/4, 4]")
        leaf = self.leaf_ids[pos]
        same = leaf < n
        same[same] = is_domain[leaf[same]] == is_domain[cube[same]]
        # sorted (cube, leaf) keys give each row's neighbors in build order,
        # which is (level, i, j) order within a family
        key = np.sort(cube[same] * n + leaf[same])
        key = key[np.diff(key, prepend=-1) != 0]
        return np.bincount(key // n - lo, minlength=hi - lo), (key % n).astype(np.int32)

    def adjacent(self, idx: int) -> np.ndarray:
        return self.adj_indices[self.adj_indptr[idx]:self.adj_indptr[idx + 1]]


def build_whitney(domain: Domain, window: Window, max_depth: int) -> WhitneyDecomposition:
    """Subdivide the window into the two Whitney families plus a frontier,
    then check the invariants."""
    if max_depth > 40 or max_depth < 0:
        raise ValueError("max_depth must be in [0, 40]")
    domain.check_window(window)
    # the subdivision's temporaries are freed before the adjacency is built
    dec = WhitneyDecomposition(domain, window, max_depth, *_subdivide(domain, window, max_depth))
    check_invariants(dec)
    return dec


def _subdivide(domain: Domain, window: Window, max_depth: int):
    """The cube table in build order and the frontier rows."""
    origin = np.asarray(window.origin)
    corner_off = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    blocks = []
    frontier = np.empty((0, 3), dtype=np.int64)

    active = np.zeros((1, 2), dtype=np.int64)
    for level in range(max_depth + 1):
        if len(active) == 0:
            break
        side = window.cell_size(level)
        centers = level_cell_centers(window, level, active)
        sd = domain.signed_distance(centers)
        thr = ACCEPT_FACTOR * side
        acc_e = sd >= thr
        acc_ep = -sd >= thr

        for tag, mask in ((TAG_DOMAIN, acc_e), (TAG_COMPLEMENT, acc_ep)):
            cells = active[mask]
            if len(cells) == 0:
                continue
            lows = origin + cells * side
            corners = (lows[:, None, :] + side * corner_off[None, :, :]).reshape(-1, 2)
            csd = np.abs(domain.signed_distance(corners)).reshape(-1, 4)
            c_abs = np.abs(sd[mask])
            block = np.empty(len(cells), dtype=CUBE_DTYPE)
            block["tag"] = tag
            block["level"] = level
            block["i"], block["j"] = cells[:, 0], cells[:, 1]
            block["dist_lo"] = np.maximum(0.0, c_abs - 0.5 * SQRT_N * side)
            block["dist_hi"] = np.minimum(c_abs, csd.min(axis=1))
            blocks.append(block)

        rest = active[~(acc_e | acc_ep)]
        if level == max_depth:
            frontier = np.column_stack([np.full(len(rest), level, dtype=np.int64), rest])
        else:
            off = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])
            active = (rest[:, None, :] * 2 + off[None, :, :]).reshape(-1, 2)
            active = active[np.lexsort((active[:, 1], active[:, 0]))]

    cubes = np.concatenate(blocks) if blocks else np.empty(0, dtype=CUBE_DTYPE)
    return cubes, frontier


def check_invariants(dec: WhitneyDecomposition):
    """Exact cover by disjoint leaves and the size-vs-distance bracket.

    The side ratio of touching leaves needs no pass here: once the leaves
    tile the window, a leaf three or more levels finer than a cube it
    touches lies inside one of the cube's 20 ring cells, so the ring probe
    of `neighbor_indices` has already raised while the decomposition was
    constructed."""
    c = dec.cubes

    # sorted leaf key ranges must tile [0, 4**depth) end to end
    one = np.ones(len(dec.leaf_keys), dtype=dec.leaf_keys.dtype)
    shift = 2 * (dec.depth - dec.leaf_levels.astype(np.int64))     # int8 levels, widened
    ends = dec.leaf_keys + (one << shift.astype(one.dtype))
    gaps = np.flatnonzero(dec.leaf_keys[1:] != ends[:-1])
    if dec.leaf_keys[0] != 0 or ends[-1] != 4 ** dec.depth or gaps.size:
        raise WhitneyInvariantError(
            "families plus frontier do not tile the window: leaf key ranges "
            f"overlap or leave a gap (first at leaf {int(gaps[0]) if gaps.size else 0})")

    side = dec.window.cell_sizes(c["level"])
    tol = 1e-9 * dec.window.size
    for bad, bound in ((c["dist_lo"] < WC2_LOW * side - tol, "below side"),
                       ((c["dist_hi"] > WC2_HIGH * side + tol) & (c["level"] >= 1),
                        f"above {WC2_HIGH:.3g} x side")):
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise WhitneyInvariantError(
                f"{c['tag'][k]} cube {dec.cube(k).sort_key()}: clearance bracket "
                f"[{c['dist_lo'][k]:.3g}, {c['dist_hi'][k]:.3g}] {bound} {side[k]:.3g}")


# ---------------------------------------------------------------------------
# queries

def _nearest_domain_cube(dec: WhitneyDecomposition, top: int, bottom: int, lo, hi, accept):
    """Domain cube of a level in top..bottom nearest the closed box [lo, hi]
    among those at a distance `accept` allows. One scan of the table's
    coarse-to-fine slice takes the first of equals, so ties go to the coarser
    level, then to lexicographic coords. None when none qualifies."""
    last = len(dec.domain_starts) - 1
    start = int(dec.domain_starts[min(top, last)])
    stop = int(dec.domain_starts[min(bottom + 1, last)])
    if bottom < top or stop == start:
        return None
    d = box_distance(dec.domain_lo[start:stop], dec.domain_hi[start:stop], lo, hi)
    d = np.where(accept(d), d, math.inf)
    k = int(np.argmin(d))
    return None if d[k] == math.inf else dec.cube(int(dec.domain_rows[start + k]))


def matching_cube(dec: WhitneyDecomposition, q: DyadicCube, epsilon: float,
                  delta: float) -> DyadicCube:
    """Comparable-size domain cube near a complement cube.

    Candidates satisfy side ratio in [1, 4] and box distance at most
    (5 sqrt(n) + 8 n / epsilon^2) * side(q); the nearest wins, ties broken
    by coarser level then lexicographic coords. The guarantee regime is
    side(q) <= epsilon * delta / (16 n); outside it the search may fail.
    """
    if not (0 < epsilon <= 1 and delta > 0):
        raise ValueError("need 0 < epsilon <= 1 and delta > 0")
    try:
        is_complement = dec.cubes["tag"][dec.index_of(q)] == TAG_COMPLEMENT
    except KeyError:
        is_complement = False
    if not is_complement:
        raise KeyError(f"cube {q.sort_key()} is not a complement cube of this decomposition")

    radius = matching_distance_constant(epsilon) * q.side + 1e-12 * dec.window.size
    lo = q.lower
    best = _nearest_domain_cube(dec, max(0, q.level - 2), q.level, lo, lo + q.side,
                                lambda d: d <= radius)
    if best is None:
        raise MatchingError(q.sort_key(), radius)
    return best


def find_interior_point(domain: Domain, q: DyadicCube, epsilon: float):
    """A point of the open cube with clearance >= epsilon * side / 32.

    Checks the center, then samples the annulus side/8 < |z - c| < side/4.
    Returns the point, or None as evidence against the requested epsilon
    at this scale.
    """
    target = epsilon * q.side / 32.0
    c = q.center
    if domain.sd(c) >= target:
        return c
    n_r = max(4, int(math.sqrt(INTERIOR_PROBES / 16)))
    n_a = max(16, INTERIOR_PROBES // n_r)
    radii = q.side * (0.125 + 0.125 * (np.arange(n_r) + 0.5) / n_r)
    angles = 2.0 * np.pi * np.arange(n_a) / n_a
    pts = np.column_stack([
        (c[0] + radii[:, None] * np.cos(angles)[None, :]).ravel(),
        (c[1] + radii[:, None] * np.sin(angles)[None, :]).ravel(),
    ])
    sd = domain.signed_distance(pts)
    ok = np.nonzero(sd >= target)[0]
    if ok.size == 0:
        return None
    return pts[ok[0]].copy()


def find_big_cube_near(dec: WhitneyDecomposition, x, epsilon: float, delta: float):
    """Nearest domain cube with side >= eps*delta/(320 n) within the reach
    bound delta * (1/eps + sqrt(n)); None when the window holds no witness."""
    if not (0 < epsilon <= 1 and delta > 0):
        raise ValueError("need 0 < epsilon <= 1 and delta > 0")
    x = np.asarray(x, dtype=float)
    min_side = epsilon * delta / (320.0 * N_DIM)
    reach = delta * (1.0 / epsilon + SQRT_N)
    # sides shrink with the level, so the admissible levels are 0..bottom
    bottom = max((lvl for lvl in range(dec.depth + 1)
                  if dec.window.cell_size(lvl) >= min_side), default=-1)
    return _nearest_domain_cube(dec, 0, bottom, x, x, lambda d: d < reach)


def whitney_chain(dec: WhitneyDecomposition, x, y) -> list[DyadicCube]:
    """Shortest hop sequence of adjacent domain cubes joining the cubes of
    x and y; length 1 means both points share a cube."""
    ends = []
    for p in (x, y):
        kind, idx = dec.locate(p)
        if kind != TAG_DOMAIN:
            raise KeyError(f"point {tuple(np.asarray(p, float))} is not inside a "
                           f"domain cube (landed in {kind}); deepen max_depth")
        ends.append(idx)
    src, dst = ends
    prev = {src: None}
    queue = deque([src])
    while queue and dst not in prev:
        cur = queue.popleft()
        for nb in dec.adjacent(cur).tolist():
            if nb not in prev:
                prev[nb] = cur
                queue.append(nb)
    if dst not in prev:
        raise KeyError("domain cubes of x and y are not chain-connected "
                       "at this depth")
    chain = [dst]
    while prev[chain[-1]] is not None:
        chain.append(prev[chain[-1]])
    return [dec.cube(k) for k in chain[::-1]]
