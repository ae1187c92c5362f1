"""Boundary-reflection extension of grid functions across the domain edge.

Values on small complement Whitney cubes come from a matched domain cube
of comparable size; complement cubes above the scale cutoff are zeroed, so
the extension vanishes far from the boundary. The admissible scale for a
given cigar geometry is eps^2 delta / (320 n (1 + sqrt(n) eps)); larger
cutoffs are allowed (the scale-mismatch experiment needs them) but warn.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bmo import (GridFunction, MASK_INSIDE, MASK_OUTSIDE, NormReport,
                  bmo_lambda_norm, cube_average, dipole_field,
                  qh_distance_field, sample_grid_function,
                  whitney_cellwise_field, _field_graph)
from .domains import Domain
from .dyadic import DyadicCube, N_DIM, Window, box_distance, resolution_level
from .errors import ExtensionError, MatchingError
from .whitney import (TAG_COMPLEMENT, WhitneyDecomposition, build_whitney,
                      matching_cube)


def max_extension_scale(epsilon: float, delta: float, n: int = N_DIM) -> float:
    """Largest cutoff with a bounded extension guarantee for the geometry."""
    if not (0.0 < epsilon <= 1.0):
        raise ValueError("epsilon must lie in (0, 1]")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return epsilon ** 2 * delta / (320.0 * n * (1.0 + math.sqrt(n) * epsilon))


@dataclass
class ExtensionResult:
    extended: GridFunction
    assignment: dict                    # complement key -> matched domain key
    zero_region: list                   # complement keys painted zero
    subcell: list                       # complement keys finer than the grid
    failed: list                        # keys with no match (best-effort only)
    frontier_filled: int
    lam: float
    input_report: NormReport | None = None
    output_report: NormReport | None = None

    @property
    def input_norm(self):
        return self.input_report.value if self.input_report else math.nan

    @property
    def output_norm(self):
        return self.output_report.value if self.output_report else math.nan

    @property
    def ratio(self):
        if self.input_report is None or self.output_report is None:
            return None
        if self.input_norm <= 0:
            return None
        return self.output_norm / self.input_norm


def extend(f: GridFunction, domain: Domain, dec: WhitneyDecomposition,
           lam: float, epsilon: float, delta: float,
           best_effort: bool = False, compute_norms: bool = True) -> ExtensionResult:
    """Extend f beyond the domain: keep it inside, copy matched-cube
    averages onto complement cubes up to side lam, zero the rest.

    Complement cubes touching the window edge are zeroed regardless of
    size (the window truncates them). Cells of undecided frontier regions
    outside the domain inherit the nearest assigned cube value.
    """
    if f.window != dec.window:
        raise ValueError("grid and decomposition windows differ")
    if lam <= 0:
        raise ValueError("lam must be positive")
    scale_cap = max_extension_scale(epsilon, delta)
    if lam > scale_cap:
        warnings.warn(f"cutoff {lam:g} exceeds the guaranteed scale "
                      f"{scale_cap:g} for epsilon={epsilon:g}, delta={delta:g}",
                      stacklevel=2)

    vals = np.array(f.values, dtype=float)
    vals[f.mask != MASK_INSIDE] = np.nan
    assignment: dict = {}
    zero_region: list = []
    subcell: list = []
    failed: list = []
    painted = []            # (key, value) per painted complement cube

    tol = 1e-12 * dec.window.size
    comp = dec.cubes[dec.cubes["tag"] == TAG_COMPLEMENT]
    for key in comp[["level", "i", "j"]].tolist():
        level, i, j = key
        if level > f.level:
            subcell.append(key)
            continue
        q = DyadicCube(level, (i, j), dec.window)
        blk = f.block(q)
        last = (1 << level) - 1
        if q.side > lam + tol or 0 in (i, j) or last in (i, j):
            vals[blk] = 0.0
            zero_region.append(key)
            painted.append((key, 0.0))
            continue
        try:
            q_star = matching_cube(dec, q, epsilon, delta)
        except MatchingError:
            failed.append(key)
            if best_effort:
                vals[blk] = 0.0
                painted.append((key, 0.0))
            continue
        v = cube_average(f, q_star, cells="inside")
        vals[blk] = v
        assignment[key] = q_star.sort_key()
        painted.append((key, v))

    if failed and not best_effort:
        raise ExtensionError(failed)

    # frontier leftovers: outside-classified cells never painted take the
    # value of the nearest painted cube (first in build order on ties)
    need = (f.mask == MASK_OUTSIDE) & ~np.isfinite(vals)
    frontier_filled = int(need.sum())
    if frontier_filled:
        if painted:
            keys = np.array([k for k, _ in painted])
            cube_vals = np.array([v for _, v in painted])
            sides = np.ldexp(dec.window.size, -keys[:, 0])
            lows = np.asarray(dec.window.origin) + keys[:, 1:] * sides[:, None]
            highs = lows + sides[:, None]
            cells = np.argwhere(need)
            centers = np.asarray(dec.window.origin) + (cells + 0.5) * f.h
            for lo in range(0, len(cells), 4096):
                c = centers[lo:lo + 4096, None, :]
                nearest = np.argmin(box_distance(lows, highs, c, c), axis=1)
                sel = cells[lo:lo + 4096]
                vals[sel[:, 0], sel[:, 1]] = cube_vals[nearest]
        else:
            vals[need] = 0.0

    out = GridFunction(f.window, f.level, vals, f.mask.copy())
    result = ExtensionResult(out, assignment, zero_region, subcell, failed,
                             frontier_filled, lam)
    if compute_norms:
        result.input_report = bmo_lambda_norm(f, domain, lam)
        result.output_report = bmo_lambda_norm(out, None, lam)
    return result


# ---------------------------------------------------------------------------
# experiment suites

def make_suite(domain: Domain, window: Window, resolution: float,
               dec: WhitneyDecomposition, seed: int,
               n_const: int = 3, n_qh: int = 4, n_dipole: int = 3,
               n_random: int = 9, include_zero: bool = True):
    """Named test functions: constants, distance fields from sources at
    several boundary clearances, dipoles, and random cube-wise functions
    with unit adjacent oscillation."""
    rng = np.random.default_rng(seed)
    level = resolution_level(resolution)
    graph = _field_graph(domain, window, level)
    suite = []
    for k in range(n_const):
        c = (-2.0, 1.0, 0.5, 3.0)[k % 4]
        suite.append((f"const_{k}", sample_grid_function(
            domain, window, level, lambda p, c=c: np.full(len(p), c))))
    if include_zero:
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
        suite.append((f"qh_{k}", qh_distance_field(domain, a, resolution,
                                                   window, graph)))
    for k in range(n_dipole):
        i, j = rng.integers(len(pos)), rng.integers(len(pos))
        r1 = float(rng.uniform(0.5, 3.0))
        r2 = float(rng.uniform(0.5, 3.0))
        suite.append((f"dipole_{k}", dipole_field(domain, pos[int(i)], pos[int(j)],
                                                  r1, r2, resolution, window, graph)))
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
    for lam in lambda_list:
        for name, f in suite:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = extend(f, domain, dec, lam, epsilon, delta,
                             best_effort=False, compute_norms=True)
            rows.append({
                "lam": lam, "function": name, "resolution": resolution,
                "input_norm": res.input_norm, "output_norm": res.output_norm,
                "ratio": res.ratio,
                "assigned": len(res.assignment), "zeroed": len(res.zero_region),
                "subcell": len(res.subcell),
                "input_degenerate": res.input_report.degenerate,
                "excluded_fraction": res.extended.straddling_fraction,
            })
    return rows


def max_suite_ratio(rows, lam) -> float:
    vals = [r["ratio"] for r in rows
            if r["lam"] == lam and r["ratio"] is not None]
    return max(vals) if vals else math.nan


def counterexample_experiment(window_sizes, lam: float, cell_size: float = 0.0625,
                              epsilon: float = 0.3, delta: float = 0.5,
                              domain: Domain | None = None, field=None):
    """Window-growth sequence of extension-to-input norm ratios on the
    strip-plus-wedge domain, by default for the linear ramp max(x, 0).

    Above the geometric scale (cutoff > 1) the input norm stays bounded
    while the extension norm grows with the window, so the ratio sequence
    increases; at a small cutoff both norms track each other.
    """
    from .domains import intro_lipschitz

    domain = domain or intro_lipschitz()
    if field is None:
        field = lambda p: np.maximum(p[:, 0], 0.0)
    rows = []
    for r_size in window_sizes:
        side = 2.0 * float(r_size)
        level = round(math.log2(side / cell_size))
        if abs(side / 2.0 ** level - cell_size) > 1e-9 * cell_size:
            raise ValueError(f"window {r_size} not a power-of-two multiple "
                             f"of cell size {cell_size}")
        window = Window((-float(r_size), -float(r_size)), side)
        dec = build_whitney(domain, window, level)
        f = sample_grid_function(domain, window, level, field, everywhere=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = extend(f, domain, dec, lam, epsilon, delta,
                         best_effort=True, compute_norms=True)
        rows.append({
            "window": float(r_size), "lam": lam, "resolution": cell_size / side,
            "input_norm": res.input_norm, "output_norm": res.output_norm,
            "ratio": res.ratio, "failed_matches": len(res.failed),
            "frontier_filled": res.frontier_filled,
            "input_degenerate": res.input_report.degenerate,
        })
    return rows
