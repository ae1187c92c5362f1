"""Boundary-reflection extension of grid functions across the domain edge.

Values on small complement Whitney cubes come from a matched domain cube
of comparable size; complement cubes above the scale cutoff are zeroed, so
the extension vanishes far from the boundary. The admissible scale for a
given cigar geometry is eps^2 delta / (320 n (1 + sqrt(n) eps)); larger
cutoffs are allowed (the scale-mismatch experiment needs them) but warn.

The operator is linear and fixed by the geometry: `plan_extension` decides
once per grid where each cell takes its value (matching, zero region and
frontier fill), and `extend` applies a plan to any function on that grid
as a gather of one average per matched domain cube.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bmo import (GridFunction, MASK_INSIDE, MASK_OUTSIDE, NormReport, _bands,
                  bmo_lambda_norm, cube_average, dipole_field, field_graph,
                  qh_distance_field, sample_grid_function, whitney_cellwise_field)
from .domains import Domain, intro_lipschitz
from .dyadic import (EVAL_BUDGET, DyadicCube, N_DIM, SQRT_N, Window,
                     box_distance, resolution_level)
from .errors import ExtensionError, MatchingError
from .whitney import (TAG_COMPLEMENT, WhitneyDecomposition, build_whitney,
                      matching_cube)

# the window-growth experiment: cell side and geometry claimed for the plan
GROWTH_CELL = 0.0625
GROWTH_EPSILON = 0.3
GROWTH_DELTA = 0.5


def max_extension_scale(epsilon: float, delta: float) -> float:
    """Largest cutoff with a bounded extension guarantee for the geometry."""
    if not (0.0 < epsilon <= 1.0):
        raise ValueError("epsilon must lie in (0, 1]")
    if not delta > 0:
        raise ValueError("delta must be positive")
    return epsilon ** 2 * delta / (320.0 * N_DIM * (1.0 + SQRT_N * epsilon))


@dataclass(frozen=True, eq=False)
class ExtensionPlan:
    """Every geometric decision of the extension on one grid; read-only.
    Key arrays list complement cubes as rows (level, i, j) in build order."""

    domain: Domain
    window: Window
    level: int
    mask: np.ndarray                    # the grid's cell classification
    lam: float
    # per cell: -1 keeps f on inside cells (NaN elsewhere), 0 paints zero,
    # k >= 1 paints the mean of f over sources[k - 1]; int32
    source: np.ndarray
    sources: tuple                      # distinct matched domain cubes
    assignment: np.ndarray              # (A, 6): complement key, matched key
    zero_region: np.ndarray             # complement keys painted zero
    subcell: np.ndarray                 # complement keys finer than the grid
    failed: np.ndarray                  # keys with no match (best-effort only)
    frontier_filled: int

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


@dataclass
class ExtensionResult:
    extended: GridFunction
    assignment: np.ndarray              # the plan's arrays, not copies
    zero_region: np.ndarray
    failed: np.ndarray
    frontier_filled: int
    input_report: NormReport
    output_report: NormReport

    @property
    def input_norm(self):
        return self.input_report.value

    @property
    def output_norm(self):
        return self.output_report.value

    @property
    def ratio(self):
        if self.input_norm <= 0:
            return None
        return self.output_norm / self.input_norm


def plan_extension(dec: WhitneyDecomposition, mask, lam: float, epsilon: float,
                   delta: float, best_effort: bool = False) -> ExtensionPlan:
    """Plan the extension onto the grid of the given cell mask.

    Complement cubes no finer than the grid up to side lam take the mean
    over their matching domain cube; larger ones, and those touching the
    window edge (the window truncates them), are zeroed. A failed match
    raises ExtensionError, or is zeroed with best_effort. Outside cells
    left unpainted take the value of the nearest painted cube, the first
    in build order on ties.
    """
    mask = np.array(mask)
    if mask.shape != (len(mask), len(mask)):
        raise ValueError("mask must be a square grid of cells")
    level = resolution_level(1.0 / len(mask))
    if not lam > 0:
        raise ValueError("lam must be positive")
    scale_cap = max_extension_scale(epsilon, delta)
    if lam > scale_cap:
        warnings.warn(f"cutoff {lam:g} exceeds the guaranteed scale "
                      f"{scale_cap:g} for epsilon={epsilon:g}, delta={delta:g}",
                      stacklevel=2)

    window = dec.window
    comp = dec.indices(TAG_COMPLEMENT)
    keys = np.column_stack([dec.cubes[name][comp] for name in ("level", "i", "j")])
    lvl, i, j = keys.T
    subcell = lvl > level
    last = np.left_shift(1, lvl) - 1
    sides = window.cell_sizes(lvl)
    zero = ~subcell & ((sides > lam + 1e-12 * window.size)
                       | (i == 0) | (j == 0) | (i == last) | (j == last))

    # per complement cube: -1 unpainted, else its value in the source map
    paint = np.where(zero, 0, -1)
    sources, assignment, failed = {}, [], []
    for r in np.flatnonzero(~subcell & ~zero).tolist():
        key = keys[r].tolist()
        try:
            q_star = matching_cube(dec, DyadicCube(key[0], tuple(key[1:]), window),
                                   epsilon, delta)
        except MatchingError:
            failed.append(r)
            continue
        paint[r] = sources.setdefault(q_star, len(sources) + 1)
        assignment.append(key + list(q_star.sort_key()))
    if failed and not best_effort:
        raise ExtensionError([tuple(k) for k in keys[failed].tolist()])
    paint[failed] = 0

    cube_paint = np.full(len(dec.cubes) + 1, -1, dtype=np.int32)   # the last entry serves row -1
    cube_paint[comp] = paint
    source = cube_paint[dec.cell_rows(level)]

    # outside cells never painted take the source of the nearest painted cube
    need = (mask == MASK_OUTSIDE) & (source < 0)
    painted = np.flatnonzero(paint >= 0)
    if need.any() and painted.size:
        lows = np.asarray(window.origin) + keys[painted, 1:] * sides[painted, None]
        cells = np.argwhere(need)
        nearest = _nearest_boxes(window, level, cells, lows, lows + sides[painted, None])
        source[cells[:, 0], cells[:, 1]] = paint[painted[nearest]]
    else:
        source[need] = 0

    return ExtensionPlan(dec.domain, window, level, mask, lam, source, tuple(sources),
                         np.array(assignment, dtype=np.int64).reshape(-1, 6),
                         keys[zero], keys[subcell], keys[failed], int(need.sum()))


def _nearest_boxes(window: Window, level: int, cells, lows, highs) -> np.ndarray:
    """Index of the box [lows, highs] nearest each level-`level` cell center,
    by `box_distance`, the first in box order on ties.

    The cells are grouped into buckets, the dyadic cells of level level // 2,
    b = 2^ceil(level / 2) grid cells on a side. For a center x in bucket B
    and any box P, dist(B, P) <= dist(x, P), and min_P dist(x, P) <=
    min_P dist(B, P) + diam(B). So a box farther from B than that bound,
    widened by a rounding slack, is nearest to no center in B, and each cell
    is measured against the boxes its bucket keeps. Along a boundary m cells
    long, the bucket pass measures about m / b distances per box and the
    cell pass about m b kept pairs, so b near the square root of the grid
    width balances the two.
    """
    origin = np.asarray(window.origin)
    centers = origin + (cells + 0.5) * window.cell_size(level)
    top = level // 2
    shift = level - top
    bucket = (cells[:, 0] >> shift) << top | (cells[:, 1] >> shift)
    order = np.argsort(bucket, kind="stable")
    ids, first = np.unique(bucket[order], return_index=True)
    size = window.cell_size(top)
    b_lo = origin + np.column_stack(np.divmod(ids, 1 << top)) * size
    reach = SQRT_N * size + 1e-9 * (window.size + np.abs(origin).max())

    nearest = np.empty(len(cells), dtype=np.int64)
    for blo, rows in zip(b_lo, np.split(order, first[1:])):
        d = box_distance(blo, blo + size, lows, highs)
        box = np.flatnonzero(d <= d.min() + reach)
        step = max(1, EVAL_BUDGET // len(box))       # cells per distance block
        for a in range(0, len(rows), step):
            c = centers[rows[a:a + step], None, :]
            # argmin takes the first of equals, and `box` is in box order
            k = np.argmin(box_distance(lows[box], highs[box], c, c), axis=1)
            nearest[rows[a:a + step]] = box[k]
    return nearest


def extend(f: GridFunction, plan: ExtensionPlan) -> ExtensionResult:
    """Apply the plan to f: keep f on inside cells and give every planned
    cell zero or the mean of f over its matched domain cube. The result
    carries the scale-lam norms of f on the domain and of the extension."""
    if (f.window != plan.window or f.level != plan.level
            or not np.array_equal(f.mask, plan.mask)):
        raise ValueError("grid function and plan differ in window, level or mask")
    # the input's sweep runs before the output grid exists
    input_report = bmo_lambda_norm(f, plan.domain, plan.lam)
    # the last entry serves source -1: NaN, then f again on inside cells
    table = np.array([0.0] + [cube_average(f, q) for q in plan.sources] + [np.nan])
    vals = np.empty(f.values.shape)
    for rows in _bands(f.n_cells):
        src = plan.source[rows]
        vals[rows] = table[src]
        np.copyto(vals[rows], f.values[rows], where=(src < 0) & (f.mask[rows] == MASK_INSIDE))

    out = GridFunction(f.window, f.level, vals, f.mask.copy())
    return ExtensionResult(out, plan.assignment, plan.zero_region, plan.failed,
                           plan.frontier_filled, input_report,
                           bmo_lambda_norm(out, None, plan.lam))


# ---------------------------------------------------------------------------
# experiment suites

def make_suite(domain: Domain, window: Window, resolution: float,
               dec: WhitneyDecomposition, seed: int,
               n_const: int = 3, n_qh: int = 4, n_dipole: int = 3,
               n_random: int = 9):
    """Named test functions: constants, the zero function, distance fields
    from sources at several boundary clearances, dipoles, and random
    cube-wise functions with unit adjacent oscillation."""
    rng = np.random.default_rng(seed)
    level = resolution_level(resolution)
    graph = field_graph(domain, window, level)
    suite = []
    for k in range(n_const):
        c = (-2.0, 1.0, 0.5, 3.0)[k % 4]
        suite.append((f"const_{k}", sample_grid_function(
            domain, window, level, lambda p, c=c: np.full(len(p), c))))
    suite.append(("zero", sample_grid_function(
        domain, window, level, lambda p: np.zeros(len(p)))))

    pos = graph.node_pos
    sdv = graph.node_sd
    qs = np.quantile(sdv, [0.9, 0.5, 0.2, 0.05])
    for k in range(n_qh):
        band = np.nonzero(np.abs(sdv - qs[k % len(qs)]) < 0.25 * qs[k % len(qs)] + 1e-12)[0]
        if band.size == 0:
            band = np.arange(len(pos))
        a = pos[band[int(rng.integers(band.size))]]
        suite.append((f"qh_{k}", qh_distance_field(graph, a)))
    for k in range(n_dipole):
        i, j = rng.integers(len(pos)), rng.integers(len(pos))
        r1 = float(rng.uniform(0.5, 3.0))
        r2 = float(rng.uniform(0.5, 3.0))
        suite.append((f"dipole_{k}", dipole_field(graph, pos[int(i)], pos[int(j)],
                                                  r1, r2)))
    for k in range(n_random):
        suite.append((f"cellwise_{k}", whitney_cellwise_field(dec, level, rng)))
    return suite


def operator_norm_experiment(domain: Domain, epsilon: float, delta: float,
                             lambda_list, suite, resolution: float,
                             seed: int, window: Window | None = None,
                             dec: WhitneyDecomposition | None = None):
    """Extension-to-input norm ratios over a function suite and a list of
    scale cutoffs; rows carry resolution and degeneracy flags so the CSV is
    self-describing."""
    window = window or domain.default_window
    level = resolution_level(resolution)
    if dec is None:
        dec = build_whitney(domain, window, level)
    rows = []
    if not suite:
        return rows
    for lam in lambda_list:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plan = plan_extension(dec, suite[0][1].mask, lam, epsilon, delta)
        for name, f in suite:
            res = extend(f, plan)
            rows.append({
                "lam": lam, "function": name, "resolution": resolution,
                "input_norm": res.input_norm, "output_norm": res.output_norm,
                "ratio": res.ratio,
                "assigned": len(res.assignment), "zeroed": len(res.zero_region),
                "subcell": len(plan.subcell),
                "input_degenerate": res.input_report.degenerate,
                "excluded_fraction": res.extended.straddling_fraction,
            })
    return rows


def max_suite_ratio(rows, lam) -> float:
    vals = [r["ratio"] for r in rows
            if r["lam"] == lam and r["ratio"] is not None]
    return max(vals) if vals else math.nan


def counterexample_experiment(window_sizes, lam: float, field=None):
    """Window-growth sequence of extension-to-input norm ratios on the
    strip-plus-wedge domain with cells of side GROWTH_CELL, by default for
    the linear ramp max(x, 0).

    Above the geometric scale (cutoff > 1) the input norm stays bounded
    while the extension norm grows with the window, so the ratio sequence
    increases; at a small cutoff both norms track each other.
    """
    domain = intro_lipschitz()
    if field is None:
        field = lambda p: np.maximum(p[:, 0], 0.0)
    rows = []
    for r_size in window_sizes:
        side = 2.0 * float(r_size)
        level = resolution_level(GROWTH_CELL / side)
        window = Window((-float(r_size), -float(r_size)), side)
        dec = build_whitney(domain, window, level)
        f = sample_grid_function(domain, window, level, field, everywhere=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plan = plan_extension(dec, f.mask, lam, GROWTH_EPSILON, GROWTH_DELTA,
                                  best_effort=True)
        del dec                 # the plan holds no reference to it
        res = extend(f, plan)
        rows.append({
            "window": float(r_size), "lam": lam, "resolution": GROWTH_CELL / side,
            "input_norm": res.input_norm, "output_norm": res.output_norm,
            "ratio": res.ratio, "failed_matches": len(res.failed),
            "frontier_filled": res.frontier_filled,
            "input_degenerate": res.input_report.degenerate,
        })
    return rows
