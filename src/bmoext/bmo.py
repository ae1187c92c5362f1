"""Grid functions and bounded-mean-oscillation norm estimators.

All suprema run over the grid-aligned dyadic cubes of the window tree (a
documented estimator choice: dyadic data controls the full norm up to
dimensional constants). Cells straddling the boundary are excluded from
every integral and the excluded volume fraction is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import Domain
from .dyadic import DyadicCube, SQRT_N, Window, bands, grid_centers
from .errors import DisconnectedGraphError
from .qhyper import MetricGraph, _solve_from, build_metric_graph
from .whitney import TAG_DOMAIN

MASK_OUTSIDE = 0
MASK_INSIDE = 1
MASK_STRADDLING = 2

SWEEP_BUDGET = 1 << 26
CELLWISE_AMPLITUDE = 0.5    # half-width of the cube values of a cellwise field
_PAIRWISE_BLOCK = 128       # numpy sums a contiguous run this long in one unrolled loop


def log_plus(x: float) -> float:
    return max(math.log(x), 0.0) if x > 0 else 0.0


@dataclass
class GridFunction:
    """Real values on a uniform dyadic grid with a cell-classification mask.

    values[i, j] belongs to the cell with integer coords (i, j) at `level`;
    mask marks cells inside the domain, outside it, or straddling the
    boundary (center clearance below half the cell diagonal).
    """

    window: Window
    level: int
    values: np.ndarray
    mask: np.ndarray

    @property
    def n_cells(self) -> int:
        return 1 << self.level

    @property
    def h(self) -> float:
        return self.window.cell_size(self.level)

    @property
    def straddling_fraction(self) -> float:
        straddling = sum(int(np.count_nonzero(self.mask[rows] == MASK_STRADDLING))
                         for rows in bands(len(self.mask)))
        return straddling / self.mask.size

    def counted(self, cells: str, block=np.s_[:, :]) -> np.ndarray:
        """Cells of the block (the whole grid by default) that integrals count."""
        if cells == "inside":
            return self.mask[block] == MASK_INSIDE
        if cells == "defined":
            return self.mask[block] != MASK_STRADDLING
        raise ValueError("cells must be 'inside' or 'defined'")

    def block(self, q: DyadicCube):
        if q.window != self.window:
            raise ValueError("cube and grid live in different windows")
        if q.level > self.level:
            raise ValueError("cube is finer than the grid")
        f = 1 << (self.level - q.level)
        i, j = q.coords
        return slice(i * f, (i + 1) * f), slice(j * f, (j + 1) * f)


def _classify_band(domain: Domain, window: Window, level: int, rows: slice):
    """Centers and classification mask of the cells in a band of grid rows."""
    centers = grid_centers(window, level, rows)
    sd = domain.signed_distance(centers).reshape(-1, 1 << level)
    half_diag = 0.5 * SQRT_N * window.cell_size(level)
    mask = np.full(sd.shape, MASK_STRADDLING, dtype=np.int8)
    mask[sd >= half_diag] = MASK_INSIDE
    mask[sd <= -half_diag] = MASK_OUTSIDE
    return centers, mask


def classify_cells(domain: Domain, window: Window, level: int) -> np.ndarray:
    """The cell mask of the level-`level` grid, classified band by band."""
    n = 1 << level
    mask = np.empty((n, n), dtype=np.int8)
    for rows in bands(n):
        mask[rows] = _classify_band(domain, window, level, rows)[1]
    return mask


def sample_grid_function(domain: Domain, window: Window, level: int, fn,
                         everywhere: bool = False) -> GridFunction:
    """Evaluate a vectorized field at cell centers, one call of fn per band
    of rows, so fn must map each point on its own.

    With everywhere=False the values are NaN off the inside cells, which is
    the honest representation for functions only known on the domain.
    """
    domain.check_window(window)
    n = 1 << level
    values = np.empty((n, n))
    mask = np.empty((n, n), dtype=np.int8)
    for rows in bands(n):
        centers, mask[rows] = _classify_band(domain, window, level, rows)
        vals = np.asarray(fn(centers), dtype=float).reshape(-1, n)
        values[rows] = vals if everywhere else np.where(mask[rows] == MASK_INSIDE,
                                                        vals, np.nan)
    return GridFunction(window, level, values, mask)


# ---------------------------------------------------------------------------
# cube averages

def cube_average(f: GridFunction, q: DyadicCube) -> float:
    """Mean over the inside cells of the cube, exactly-rounded summation."""
    block = f.block(q)
    vals = f.values[block][f.counted("inside", block)]
    if vals.size == 0:
        raise ValueError(f"cube ({q.level}, {q.coords}) has no counted cells")
    return math.fsum(vals.tolist()) / vals.size


def _counted_values(f: GridFunction, cells: str, rows: slice):
    """The level-free inputs of _level_stats on a band of rows: the
    counted-cell mask and the values with every other cell set to zero."""
    counted = f.counted(cells, rows)
    v = np.where(counted, f.values[rows], 0.0)
    if not np.isfinite(v).all():        # rare, and nan_to_num is most of a band's cost
        np.nan_to_num(v, copy=False, nan=0.0)
    return counted, v


def _per_count(total: np.ndarray, counts: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, total / np.maximum(counts, 1), np.nan)


def _level_stats(f: GridFunction, cells: str, levels):
    """(level, first cube row, means, oscillations, counts) over the dyadic
    cubes at each of `levels`, in blocks of whole cube rows that come in row
    order within each level, from bands of at most EVAL_BUDGET cells.

    The levels whose cube rows fit in a band share each band's counted
    values and reduce its whole cube rows on their own. A coarser level's
    cube row spans several bands, whose sums and deviations add up as numpy
    groups one reduction of the whole grid, so every bit agrees. At level
    >= 1 that is row after row of pairwise sums over each cube's run of
    cells. At level 0 it is one pairwise sum of the whole grid, whose halves,
    down to _PAIRWISE_BLOCK values, are the power-of-two bands' sums combined
    as a balanced binary tree."""
    n = f.n_cells
    grid_bands = bands(n)
    rows = grid_bands[0].stop           # rows in a band
    fine = [lvl for lvl in levels if n >> lvl <= rows]
    for band in grid_bands if fine else ():
        counted, v = _counted_values(f, cells, band)
        for lvl in fine:
            nb, b = 1 << lvl, n >> lvl
            c4, v4 = counted.reshape(-1, b, nb, b), v.reshape(-1, b, nb, b)
            counts = c4.sum(axis=(1, 3))
            means = _per_count(v4.sum(axis=(1, 3)), counts)
            dev = np.where(c4, np.abs(v4 - means[:, None, :, None]), 0.0).sum(axis=(1, 3))
            yield lvl, band.start // b, means, _per_count(dev, counts), counts
    for lvl in levels:
        if lvl not in fine:
            yield from _spanning_stats(f, cells, lvl, rows)


def _spanning_stats(f: GridFunction, cells: str, level: int, rows: int):
    """_level_stats of one level whose cube rows are taller than a band of
    `rows` rows, one cube row at a time: a pass over its bands for the sums,
    then one for the deviations from the means."""
    n = f.n_cells
    nb, b = 1 << level, n >> level
    if level == 0:
        rows = max(rows, min(n, _PAIRWISE_BLOCK // n))

    def part(w):        # a band's share of its cube row's sums
        return w.sum() if level == 0 else w.sum(axis=2)

    def combine(parts):
        if level == 0:
            while len(parts) > 1:
                parts = [x + y for x, y in zip(parts[::2], parts[1::2])]
            return np.array(parts)
        total = np.zeros(nb)
        for row in np.concatenate(parts):
            total += row
        return total

    for i in range(nb):
        bands = [slice(lo, lo + rows) for lo in range(i * b, (i + 1) * b, rows)]
        counts, sums = 0, []
        for band in bands:
            counted, v = _counted_values(f, cells, band)
            counts = counts + counted.reshape(-1, nb, b).sum(axis=(0, 2))
            sums.append(part(v.reshape(-1, nb, b)))
        means = _per_count(combine(sums), counts)
        devs = []
        for band in bands:
            counted, v = _counted_values(f, cells, band)
            devs.append(part(np.where(counted.reshape(-1, nb, b),
                                      np.abs(v.reshape(-1, nb, b) - means[:, None]), 0.0)))
        yield level, i, means[None], _per_count(combine(devs), counts)[None], counts[None]


def _contained_mask(f: GridFunction, domain: Domain, level: int, rows: slice):
    """Conservative test for 'cube inside the domain' on a block of cube rows
    at a sweep level: the clearance at the cube center is at least half the
    cube's diagonal."""
    sd = domain.signed_distance(grid_centers(f.window, level, rows)).reshape(-1, 1 << level)
    side = f.window.cell_size(level)
    return sd >= 0.5 * SQRT_N * side - 1e-12 * f.window.size


@dataclass
class NormReport:
    value: float
    small_scale_part: float
    large_scale_part: float
    lam: float | None
    attaining_cube: tuple | None
    small_attaining: tuple | None = None
    large_attaining: tuple | None = None
    abc: tuple | None = None
    degenerate: bool = False
    excluded_volume_fraction: float = 0.0
    subsampled: bool = False


def require_defined(f: GridFunction, cells: str):
    """Counted cells must carry finite values; NaN would silently leak
    zeros into the sums."""
    bad = sum(int(np.count_nonzero(f.counted(cells, rows) & ~np.isfinite(f.values[rows])))
              for rows in bands(f.n_cells))
    if bad:
        raise ValueError(f"{bad} counted cells have no value; "
                         "the function is not defined on the requested cells")


def _norm_report(f: GridFunction, domain: Domain | None, lam: float | None) -> NormReport:
    """Dyadic sweep: the oscillation supremum below sidelength lam and the
    |average| supremum at and above it, over the cubes inside the domain
    (all window cubes when domain is None); lam None sweeps the oscillation
    over every scale. Over SWEEP_BUDGET cubes, every other level is swept."""
    if lam is not None and not lam > 0:
        raise ValueError("lam must be positive")
    cells = "inside" if domain is not None else "defined"
    require_defined(f, cells)
    levels = list(range(0, f.level + 1))
    subsampled = sum(4 ** l for l in levels) > SWEEP_BUDGET
    if subsampled:
        levels = levels[::2] + [f.level]

    def is_large(lvl):
        return lam is not None and f.window.cell_size(lvl) >= lam

    # per level, (value, (level, i, j)) of its first largest cube; a level's
    # blocks come in (i, j) order, so a strictly larger one wins
    level_best = {}
    for lvl, i0, means, osc, counts in _level_stats(f, cells, levels):
        inside = counts > 0
        if domain is not None:
            inside &= _contained_mask(f, domain, lvl, slice(i0, i0 + len(counts)))
        cand = np.where(inside, np.abs(means) if is_large(lvl) else osc, -math.inf)
        pos = np.unravel_index(np.argmax(cand), cand.shape)
        if cand[pos] > level_best.get(lvl, (-math.inf,))[0]:
            level_best[lvl] = (float(cand[pos]), (lvl, i0 + int(pos[0]), int(pos[1])))
    # the first largest below lam, then at or above it, in level order
    best = [(-math.inf, None), (-math.inf, None)]
    for lvl in levels:
        if lvl in level_best and level_best[lvl][0] > best[is_large(lvl)][0]:
            best[is_large(lvl)] = level_best[lvl]
    (small, s_at), (large, l_at) = [(max(v, 0.0), at) for v, at in best]
    return NormReport(max(small, large), small, large, lam,
                      s_at if small >= large else l_at, s_at, l_at,
                      degenerate=lam is not None and l_at is None,
                      excluded_volume_fraction=f.straddling_fraction,
                      subsampled=subsampled)


def bmo_lambda_norm(f: GridFunction, domain: Domain | None, lam: float) -> NormReport:
    """Scale-lambda norm: oscillation below the scale, absolute averages at
    and above it, both over dyadic cubes inside the domain (all window cubes
    when domain is None). Degenerate when no counted cube reaches the scale."""
    return _norm_report(f, domain, lam)


def bmo_homogeneous_norm(f: GridFunction, domain: Domain | None) -> NormReport:
    """Oscillation supremum over every dyadic cube inside the domain."""
    return _norm_report(f, domain, None)


def dyadic_abc_norm(f: GridFunction, lam: float) -> NormReport:
    """Dyadic data of a whole-window function: oscillation sup (a), adjacent
    equal-size average gaps (b), absolute averages above lam/(16 sqrt n) (c),
    together with the direct scale-lambda sweep for comparison."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    cells = "defined"
    require_defined(f, cells)
    a_val = 0.0
    b_val = 0.0
    c_val = 0.0
    c_floor = lam / (16.0 * SQRT_N)
    prev = {}       # per level, the last cube row of its previous block
    for lvl, _, means, osc, counts in _level_stats(f, cells, range(0, f.level + 1)):
        ok = counts > 0
        if ok.any():
            a_val = max(a_val, float(np.max(np.where(ok, osc, -math.inf))))
            if f.window.cell_size(lvl) >= c_floor:
                c_val = max(c_val, float(np.max(np.where(ok, np.abs(means), -math.inf))))
        # the block's gaps, and those to the cube row before it
        m0, k0 = prev.get(lvl, (means[:0], ok[:0]))
        m, k = np.concatenate([m0, means]), np.concatenate([k0, ok])
        for di, dj in ((1, 0), (0, 1), (1, 1), (1, -1)):
            lo_i, hi_i = max(0, -di), m.shape[0] - max(0, di)
            lo_j, hi_j = max(0, -dj), m.shape[1] - max(0, dj)
            m1 = m[lo_i:hi_i, lo_j:hi_j]
            m2 = m[lo_i + di:hi_i + di, lo_j + dj:hi_j + dj]
            both = k[lo_i:hi_i, lo_j:hi_j] & k[lo_i + di:hi_i + di, lo_j + dj:hi_j + dj]
            if both.any():
                b_val = max(b_val, float(np.max(np.where(both, np.abs(m1 - m2), -math.inf))))
        prev[lvl] = means[-1:], ok[-1:]
    direct = bmo_lambda_norm(f, None, lam)
    direct.abc = (a_val, b_val, c_val)
    return direct


# ---------------------------------------------------------------------------
# test-function generators

def field_graph(domain: Domain, window: Window, level: int) -> MetricGraph:
    """The metric graph of the distance fields on the level-`level` grid: its
    node margin sits just under half the cell diagonal, so every inside cell
    is a node."""
    margin = 0.5 * SQRT_N * (1.0 - 1e-9)
    return build_metric_graph(domain, window, 2.0 ** (-level), node_margin=margin)


def qh_distance_field(graph: MetricGraph, a) -> GridFunction:
    """Grid field of quasi-hyperbolic distances from the source point."""
    domain, window, level = graph.domain, graph.window, graph.level
    a = np.asarray(a, dtype=float)
    if not domain.sd(a) > 0:
        raise ValueError("source point must lie inside the domain")
    domain.check_window(window)
    mask = classify_cells(domain, window, level)
    leg, dist, _ = _solve_from(graph, a)

    # band by band, each inside cell takes its node's distance; a cell
    # without a node reads dist[-1] but is refused before the field returns
    vals = np.empty(mask.shape)
    missing = unreachable = 0
    for rows in bands(len(mask)):
        ids = graph.node_grid[rows]
        inside = mask[rows] == MASK_INSIDE
        vals[rows] = np.where(inside, dist[ids] + leg, np.nan)
        missing += np.count_nonzero(inside & (ids < 0))
        unreachable += np.count_nonzero(inside & ~np.isfinite(vals[rows]))
    if missing:
        raise ValueError("the graph has no node at some inside cells; "
                         "build it with field_graph")
    if unreachable:
        raise DisconnectedGraphError(
            f"{unreachable} inside cells unreachable from the source; "
            "refine the resolution")
    return GridFunction(window, level, vals, mask)


def dipole_field(graph: MetricGraph, z1, z2, r1: float, r2: float) -> GridFunction:
    """Difference of two truncated distance cones: bounded, vanishes far
    from both sources once the radii are below their interior access."""
    if not (r1 >= 0 and r2 >= 0):
        raise ValueError("radii must be nonnegative")
    f1 = qh_distance_field(graph, z1)
    f2 = qh_distance_field(graph, z2)
    vals = np.maximum(r1 - f1.values, 0.0) - np.maximum(r2 - f2.values, 0.0)
    return GridFunction(graph.window, graph.level, vals, f1.mask.copy())


def whitney_cellwise_field(dec, grid_level: int, rng) -> GridFunction:
    """Random function constant on each domain Whitney cube, so adjacent
    averages differ by at most 2 * CELLWISE_AMPLITUDE; inside cells not
    covered by a cube inherit the nearest filled neighbor."""
    window = dec.window
    n = 1 << grid_level
    mask = classify_cells(dec.domain, window, grid_level)
    # one draw per domain cube no finer than the grid, in build order; each
    # grid cell inside such a cube takes its value
    c = dec.cubes
    drawn = np.flatnonzero((c["tag"] == TAG_DOMAIN) & (c["level"] <= grid_level))
    cube_vals = np.full(len(c) + 1, np.nan)     # the last entry serves row -1
    cube_vals[drawn] = rng.uniform(-CELLWISE_AMPLITUDE, CELLWISE_AMPLITUDE,
                                  size=drawn.size)
    vals = cube_vals[dec.cell_rows(grid_level)]
    # flood unfilled inside cells from cells filled before each sweep,
    # deterministic order
    need = (mask == MASK_INSIDE) & ~np.isfinite(vals)
    for _ in range(4 * n):
        if not need.any():
            break
        pad = np.pad(vals, 1, constant_values=np.nan)
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            src = pad[1 - di:1 - di + n, 1 - dj:1 - dj + n]     # vals[i - di, j - dj]
            take = need & np.isfinite(src)
            vals[take] = src[take]
            need &= ~take
    vals = np.where(mask == MASK_INSIDE, vals, np.nan)
    return GridFunction(window, grid_level, vals, mask)


# ---------------------------------------------------------------------------
# average growth and gap checks

def _domain_cube_means(f: GridFunction, dec):
    """Mean of f over each domain Whitney cube no finer than the grid; NaN
    for the other cubes and for cubes without inside cells."""
    c = dec.cubes
    out = np.full(len(c), np.nan)
    rows = np.flatnonzero((c["tag"] == TAG_DOMAIN) & (c["level"] <= f.level))
    by_row = {}     # per level, its cubes sorted by cube row, and those rows
    for lvl in np.unique(c["level"][rows]).tolist():
        k = rows[c["level"][rows] == lvl]
        k = k[np.argsort(c["i"][k], kind="stable")]
        by_row[lvl] = k, c["i"][k]
    for lvl, i0, means, _, counts in _level_stats(f, "inside", list(by_row)):
        k, ki = by_row[lvl]
        block = k[np.searchsorted(ki, i0):np.searchsorted(ki, i0 + len(means))]
        i, j = c["i"][block] - i0, c["j"][block]
        ok = counts[i, j] > 0
        out[block[ok]] = means[i[ok], j[ok]]
    return out


def log_growth_ratio(f: GridFunction, dec, lam: float) -> float:
    """max over domain Whitney cubes of |average| / (1 + log_+(lam/side))."""
    means = _domain_cube_means(f, dec)
    level = dec.cubes["level"]
    best = 0.0
    for lvl in np.unique(level[np.isfinite(means)]).tolist():
        growth = np.abs(means[level == lvl]) / (1.0 + log_plus(lam / dec.window.cell_size(lvl)))
        best = max(best, float(np.nanmax(growth)))
    return best


def adjacent_average_gap(f: GridFunction, dec) -> float:
    """max over adjacent domain Whitney cube pairs of the average gap."""
    means = _domain_cube_means(f, dec)
    rows = np.repeat(np.arange(len(means)), np.diff(dec.adj_indptr))
    gaps = np.abs(means[rows] - means[dec.adj_indices])
    gaps = gaps[np.isfinite(gaps)]
    return float(gaps.max()) if gaps.size else 0.0
