import dataclasses
import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bmoext import Window, bmo, disk, intro_lipschitz, l_shape, polygon, slit_disk
from bmoext.bmo import (MASK_INSIDE, MASK_OUTSIDE, MASK_STRADDLING, GridFunction, NormReport, adjacent_average_gap,
                        bmo_homogeneous_norm, bmo_lambda_norm, cube_average,
                        dipole_field, dyadic_abc_norm,
                        log_growth_ratio, qh_distance_field,
                        log_plus, sample_grid_function, whitney_cellwise_field)
from bmoext.dyadic import EVAL_BUDGET, SQRT_N, DyadicCube, grid_centers, level_cell_centers
from bmoext.qhyper import qh_distance
from bmoext.whitney import TAG_DOMAIN, build_whitney
from tests.conftest import DISK_WINDOW

LAM = 0.25


@pytest.fixture(scope="module")
def field_graph(disk1):
    return bmo.field_graph(disk1, DISK_WINDOW, 8)


@pytest.fixture(scope="module")
def corpus(disk1, disk_dec, field_graph):
    rng = np.random.default_rng(5)
    return [
        ("const", sample_grid_function(disk1, DISK_WINDOW, 8,
                                       lambda p: np.full(len(p), 2.0))),
        ("kfield", qh_distance_field(field_graph, (0.3, 0.0))),
        ("kfield_near_bdry", qh_distance_field(field_graph, (0.0, -0.9))),
        ("dipole", dipole_field(field_graph, (-0.5, 0), (0.5, 0), 1.5, 1.0)),
        ("cellwise", whitney_cellwise_field(disk_dec, 8, rng)),
        ("linear", sample_grid_function(disk1, DISK_WINDOW, 8, lambda p: p[:, 1])),
    ]


def with_values(f, values):
    return GridFunction(f.window, f.level, values, f.mask.copy())


def reference_level_stats(f, level, cells):
    """(means, oscillations, counts) over the dyadic cubes at `level`, from
    the whole grid at every level, the means spread back cell by cell."""
    b = 1 << (f.level - level)
    nb = 1 << level
    counted = f.counted(cells)
    v = np.where(counted, np.nan_to_num(f.values, nan=0.0), 0.0)
    v4 = v.reshape(nb, b, nb, b)
    c4 = counted.reshape(nb, b, nb, b)
    counts = c4.sum(axis=(1, 3))
    sums = v4.sum(axis=(1, 3))
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    dev = np.abs(v - np.repeat(np.repeat(means, b, axis=0), b, axis=1))
    dev = np.where(counted, dev, 0.0).reshape(nb, b, nb, b).sum(axis=(1, 3))
    with np.errstate(invalid="ignore"):
        osc = np.where(counts > 0, dev / np.maximum(counts, 1), np.nan)
    return means, osc, counts


def level_oscillation(f, q):
    """The oscillation over the inside cells of q that the norm sweeps use."""
    return float(reference_level_stats(f, q.level, "inside")[1][q.coords])


def cube_means_lookup(f, levels):
    """(means, counts) over the dyadic cubes of each level."""
    return {lvl: reference_level_stats(f, lvl, "inside")[::2] for lvl in sorted(set(levels))}


# -- independent summation oracle --------------------------------------------

def oracle_average(f, q):
    si, sj = f.block(q)
    total = []
    cnt = 0
    for i in range(si.start, si.stop):
        for j in range(sj.start, sj.stop):
            if f.mask[i, j] == MASK_INSIDE:
                total.append(float(f.values[i, j]))
                cnt += 1
    return math.fsum(total) / cnt


def oracle_oscillation(f, q):
    si, sj = f.block(q)
    avg = oracle_average(f, q)
    dev = []
    cnt = 0
    for i in range(si.start, si.stop):
        for j in range(sj.start, sj.stop):
            if f.mask[i, j] == MASK_INSIDE:
                dev.append(abs(float(f.values[i, j]) - avg))
                cnt += 1
    return math.fsum(dev) / cnt


def test_cube_average_const(disk1):
    f = sample_grid_function(disk1, DISK_WINDOW, 8, lambda p: np.full(len(p), 5.0))
    q = DyadicCube(3, (3, 3), DISK_WINDOW)
    assert cube_average(f, q) == 5.0
    assert level_oscillation(f, q) == pytest.approx(0.0, rel=1e-12)


def test_cube_average_linear_is_center(disk1):
    f = sample_grid_function(disk1, DISK_WINDOW, 8, lambda p: p[:, 0])
    q = DyadicCube(4, (11, 8), DISK_WINDOW)   # fully inside, center x = 0.546875
    assert cube_average(f, q) == pytest.approx(q.center[0], abs=f.h)


def test_cube_average_matches_summation_exactly(disk1, rng):
    f = sample_grid_function(disk1, DISK_WINDOW, 8,
                             lambda p: np.sin(3 * p[:, 0]) + p[:, 1] ** 2)
    for _ in range(12):
        lvl = int(rng.integers(2, 6))
        q = DyadicCube(lvl, tuple(int(v) for v in rng.integers(0, 1 << lvl, 2)),
                       DISK_WINDOW)
        try:
            got = cube_average(f, q)
        except ValueError:
            continue
        assert got == oracle_average(f, q)          # bit-identical
        assert level_oscillation(f, q) == pytest.approx(oracle_oscillation(f, q), rel=1e-12)


def test_oscillation_two_level_split(disk1):
    # +-1 on the two halves of a cube: mean deviation exactly 1
    q = DyadicCube(3, (3, 2), DISK_WINDOW)    # fully inside the disk
    mid = q.center[0]

    def fn(p):
        return np.where(p[:, 0] > mid, 1.0, -1.0)

    f = sample_grid_function(disk1, DISK_WINDOW, 8, fn)
    assert level_oscillation(f, q) == pytest.approx(1.0, rel=1e-12)


# -- norms ---------------------------------------------------------------

def test_bmo_lambda_constant(disk1):
    f = sample_grid_function(disk1, DISK_WINDOW, 8, lambda p: np.full(len(p), -3.0))
    rep = bmo_lambda_norm(f, disk1, LAM)
    assert rep.small_scale_part == 0.0
    assert rep.large_scale_part == pytest.approx(3.0, abs=1e-12)
    assert rep.value == rep.large_scale_part
    assert not rep.degenerate


def test_bmo_lambda_degenerate_scale(disk1):
    f = sample_grid_function(disk1, DISK_WINDOW, 8, lambda p: np.full(len(p), 1.0))
    rep = bmo_lambda_norm(f, disk1, 3.0)
    assert rep.degenerate


def test_bmo_lambda_two_resolution_agreement(disk1, field_graph):
    v = []
    for lvl in (7, 8):
        f = qh_distance_field(bmo.field_graph(disk1, DISK_WINDOW, lvl), (0.3, 0.0))
        v.append(bmo_lambda_norm(f, disk1, LAM).value)
    assert abs(v[0] - v[1]) <= 0.15 * max(v)


def test_bmo_homogeneous_jump_function(disk1):
    # sign jump placed off the dyadic lattice so some cube splits near half
    f = sample_grid_function(disk1, DISK_WINDOW, 8,
                             lambda p: np.where(p[:, 0] > 0.01, 1.0, -1.0))
    assert bmo_homogeneous_norm(f, disk1).value >= 0.9


def test_translation_invariance(disk1):
    f = sample_grid_function(disk1, DISK_WINDOW, 8,
                             lambda p: np.sin(2 * p[:, 0] * p[:, 1]))
    g = with_values(f, f.values + 7.25)
    a = bmo_homogeneous_norm(f, disk1).value
    b = bmo_homogeneous_norm(g, disk1).value
    assert b == pytest.approx(a, abs=1e-12)


def test_absolute_homogeneity(disk1):
    f = sample_grid_function(disk1, DISK_WINDOW, 8,
                             lambda p: np.cos(4 * p[:, 0]) * p[:, 1])
    doubled = with_values(f, 2.0 * f.values)     # power of two: exact scaling
    assert bmo_homogeneous_norm(doubled, disk1).value == \
        2.0 * bmo_homogeneous_norm(f, disk1).value
    rep = bmo_lambda_norm(doubled, disk1, LAM)
    base = bmo_lambda_norm(f, disk1, LAM)
    assert rep.large_scale_part == 2.0 * base.large_scale_part


def test_bmo_dominated_by_twice_lambda_norm(disk1, corpus):
    for name, f in corpus:
        b = bmo_homogeneous_norm(f, disk1).value
        bl = bmo_lambda_norm(f, disk1, LAM).value
        assert b <= 2.0 * bl + 1e-12, name


def test_abc_constant(disk1):
    f = sample_grid_function(disk1, DISK_WINDOW, 8,
                             lambda p: np.full(len(p), 4.0), everywhere=True)
    rep = dyadic_abc_norm(f, LAM)
    assert rep.abc == (0.0, 0.0, 4.0)


def test_abc_midline_jump_pair_sweep(disk1):
    f = sample_grid_function(disk1, DISK_WINDOW, 8,
                             lambda p: np.where(p[:, 0] > 0, 1.0, 0.0),
                             everywhere=True)
    rep = dyadic_abc_norm(f, LAM)
    a, b, c = rep.abc
    assert b == pytest.approx(1.0, abs=1e-12)   # finest pairs across the jump
    assert c == pytest.approx(1.0, abs=1e-12)


def test_abc_controls_direct_sweep(disk1, corpus):
    # whole-window version needs values everywhere: use extended-style fields
    f = sample_grid_function(disk1, DISK_WINDOW, 8,
                             lambda p: np.sin(3 * p[:, 0]) + np.cos(2 * p[:, 1]),
                             everywhere=True)
    rep = dyadic_abc_norm(f, LAM)
    assert rep.value <= 10.0 * sum(rep.abc)


def test_abc_requires_defined_values(disk1):
    f = sample_grid_function(disk1, DISK_WINDOW, 8, lambda p: p[:, 0])
    with pytest.raises(ValueError):
        dyadic_abc_norm(f, LAM)


# -- the sweep against the two-wrapper reference --------------------------

def reference_contained_mask(f, domain, level):
    nb = 1 << level
    if domain is None:
        return np.ones((nb, nb), dtype=bool)
    ij = np.stack(np.meshgrid(np.arange(nb), np.arange(nb), indexing="ij"), axis=-1)
    centers = level_cell_centers(f.window, level, ij.reshape(-1, 2))
    sd = domain.signed_distance(centers).reshape(nb, nb)
    side = f.window.cell_size(level)
    return sd >= 0.5 * SQRT_N * side - 1e-12 * f.window.size


def reference_sweep(f, domain, lam, cells):
    """Oscillation and |average| envelopes split at sidelength lam, one
    sweep per norm, as the norms were computed before one report builder."""
    levels = list(range(0, f.level + 1))
    total_cubes = sum(4 ** l for l in levels)
    subsampled = False
    if total_cubes > bmo.SWEEP_BUDGET:
        levels = levels[::2] + [f.level]
        subsampled = True

    small_best = (-math.inf, None)
    large_best = (-math.inf, None)
    any_large = False
    for lvl in levels:
        side = f.window.cell_size(lvl)
        means, osc, counts = reference_level_stats(f, lvl, cells)
        inside = reference_contained_mask(f, domain, lvl) & (counts > 0)
        if not inside.any():
            continue
        if lam is None or side < lam:
            cand = np.where(inside, osc, -math.inf)
            pos = np.unravel_index(np.argmax(cand), cand.shape)
            if cand[pos] > small_best[0]:
                small_best = (float(cand[pos]), (lvl, int(pos[0]), int(pos[1])))
        if lam is not None and side >= lam:
            any_large = True
            cand = np.where(inside, np.abs(means), -math.inf)
            pos = np.unravel_index(np.argmax(cand), cand.shape)
            if cand[pos] > large_best[0]:
                large_best = (float(cand[pos]), (lvl, int(pos[0]), int(pos[1])))
    small = max(small_best[0], 0.0) if small_best[1] is not None else 0.0
    large = max(large_best[0], 0.0) if large_best[1] is not None else 0.0
    return small, small_best[1], large, large_best[1], any_large, subsampled


def reference_lambda_norm(f, domain, lam):
    cells = "inside" if domain is not None else "defined"
    bmo.require_defined(f, cells)
    small, s_at, large, l_at, any_large, subs = reference_sweep(f, domain, lam, cells)
    return NormReport(max(small, large), small, large, lam,
                      s_at if small >= large else l_at, s_at, l_at,
                      degenerate=not any_large,
                      excluded_volume_fraction=f.straddling_fraction, subsampled=subs)


def reference_homogeneous_norm(f, domain):
    cells = "inside" if domain is not None else "defined"
    bmo.require_defined(f, cells)
    small, s_at, _, _, _, subs = reference_sweep(f, domain, None, cells)
    return NormReport(small, small, 0.0, None, s_at, s_at, None,
                      excluded_volume_fraction=f.straddling_fraction, subsampled=subs)


def same_bits(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return type(a) is type(b) and a == b


SWEEP_DOMAINS = [disk(1.0), l_shape(), slit_disk(1.0, 0.5)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(SWEEP_DOMAINS), st.integers(2, 6), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([None, 0.05, 0.3, 0.9, 1.5]), st.booleans(), st.booleans(),
       st.sampled_from([bmo.SWEEP_BUDGET, 64]), st.sampled_from([EVAL_BUDGET, 256, 8]))
def test_norm_reports_match_the_reference_sweep(dom, level, seed, lam_frac, ties,
                                                whole_window, budget, band_budget):
    # lam is a fraction of the window side: below it, and above it (1.5),
    # where no cube reaches the scale and the lambda norm is degenerate.
    # The grids (up to 64^2) fit one band of EVAL_BUDGET cells; 256 cells
    # make bands of several rows, 8 cells bands of one row and, at level 0,
    # bands of 128 cells summed as a tree
    rng = np.random.default_rng(seed)
    window = dom.default_window

    def field(p):
        v = rng.normal(size=len(p)) * 10.0 ** rng.integers(-3, 3)
        return np.round(v, 1) if ties else v

    f = sample_grid_function(dom, window, level, field, everywhere=whole_window)
    lam = None if lam_frac is None else lam_frac * window.size
    pairs = []
    for domain in ([dom, None] if whole_window else [dom]):
        if lam is not None:
            pairs.append((bmo_lambda_norm, reference_lambda_norm, (f, domain, lam)))
        pairs.append((bmo_homogeneous_norm, reference_homogeneous_norm, (f, domain)))
    with mock.patch.object(bmo, "SWEEP_BUDGET", budget), \
            mock.patch.object(bmo, "EVAL_BUDGET", band_budget):
        for got_fn, want_fn, args in pairs:
            got, want = got_fn(*args), want_fn(*args)
            for fld in dataclasses.fields(NormReport):
                a, b = getattr(got, fld.name), getattr(want, fld.name)
                assert same_bits(a, b), (got_fn.__name__, fld.name, a, b)


@pytest.fixture(scope="module")
def random_grid():
    # 512^2 random values of every magnitude, and a random mask; cells that
    # are not counted hold NaN, as functions known only on the domain do
    rng = np.random.default_rng(17)
    n = 512
    mask = rng.choice([MASK_OUTSIDE, MASK_INSIDE, MASK_STRADDLING], p=[0.2, 0.7, 0.1],
                      size=(n, n)).astype(np.int8)
    values = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-3, 3, size=(n, n))
    values[mask == MASK_STRADDLING] = np.nan
    return GridFunction(Window((-0.3, 0.7), 1.7), 9, values, mask)


@pytest.mark.parametrize("band_budget", [2 ** k for k in range(6, 19)])
def test_banded_level_stats_equal_the_whole_grid_reduction(random_grid, band_budget):
    # budgets from one 512-cell row per band (2^6, under a row) to the
    # whole grid in one band (2^18), every level in one call: each level's
    # blocks of cube rows come in order and join into the reference's bits
    f = random_grid
    levels = list(range(f.level + 1))
    blocks = {level: [] for level in levels}
    with mock.patch.object(bmo, "EVAL_BUDGET", band_budget):
        for level, *block in bmo._level_stats(f, "inside", levels):
            blocks[level].append(block)
    for level in levels:
        starts = [block[0] for block in blocks[level]]
        assert starts == sorted(set(starts)) and starts[0] == 0
        got = [np.concatenate([block[k] for block in blocks[level]]) for k in (1, 2, 3)]
        want = reference_level_stats(f, level, "inside")
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), level


SQUARE_HOLE = polygon([(0, 0), (4, 0), (4, 4), (0, 4)], holes=[[(1, 1), (3, 1), (3, 3), (1, 3)]])


def reference_sample(domain, window, level, fn, everywhere):
    """The grid function from one oracle call and one field call on every
    cell center at once."""
    n = 1 << level
    centers = grid_centers(window, level)
    sd = domain.signed_distance(centers).reshape(n, n)
    half_diag = 0.5 * SQRT_N * window.cell_size(level)
    mask = np.full((n, n), MASK_STRADDLING, dtype=np.int8)
    mask[sd >= half_diag] = MASK_INSIDE
    mask[sd <= -half_diag] = MASK_OUTSIDE
    vals = np.asarray(fn(centers), dtype=float).reshape(n, n)
    return vals if everywhere else np.where(mask == MASK_INSIDE, vals, np.nan), mask


@pytest.mark.parametrize("dom", [intro_lipschitz(), SQUARE_HOLE], ids=lambda d: d.label)
@pytest.mark.parametrize("everywhere", [False, True])
def test_sampling_one_row_at_a_time_matches_one_call(dom, everywhere):
    window = dom.default_window
    fn = lambda p: np.sin(3.0 * p[:, 0]) * np.exp(-p[:, 1] ** 2) + p[:, 0] * p[:, 1]
    level = 7
    with mock.patch.object(bmo, "EVAL_BUDGET", 1):
        f = sample_grid_function(dom, window, level, fn, everywhere=everywhere)
        mask = bmo.classify_cells(dom, window, level)
    values, want = reference_sample(dom, window, level, fn, everywhere)
    assert {MASK_INSIDE, MASK_OUTSIDE, MASK_STRADDLING} <= set(np.unique(want).tolist())
    assert f.mask.tobytes() == mask.tobytes() == want.tobytes()
    assert f.values.tobytes() == values.tobytes()


@pytest.mark.memory
def test_sampling_memory_is_its_result_plus_one_band():
    # sampling every center at once peaked at 18.3 MiB over its 2.25 MiB
    # result here; a band of EVAL_BUDGET cells is capped at 128 B a cell
    # (the oracle's and the field's temporaries), measured 3.8 MiB in all
    dom = intro_lipschitz()
    n = 512
    tracemalloc.start()
    try:
        sample_grid_function(dom, Window((-16.0, -16.0), 32.0), 9,
                             lambda p: np.maximum(p[:, 0], 0.0), everywhere=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 9 + EVAL_BUDGET * 128


# -- generators ----------------------------------------------------------

def test_qh_field_zero_at_source(disk1, field_graph):
    f = qh_distance_field(field_graph, (0.3, 0.0))
    i, j = DISK_WINDOW.cell_of_point((0.3, 0.0), 8)
    # snap leg plus at most one edge of the source cell
    assert f.values[i, j] <= 3.0 * f.h / disk1.sd((0.3, 0.0))


def test_qh_field_halfplane_analytic(hp):
    w = Window((-2.0, 0.0), 8.0)
    f = qh_distance_field(bmo.field_graph(hp, w, 9), (0.0, 1.0))
    i, j = w.cell_of_point((0.0, 4.0), 9)
    assert f.values[i, j] == pytest.approx(math.log(4), rel=0.03)


def test_qh_field_oscillation_on_whitney_cubes(disk_dec, field_graph):
    # clearance-comparable cubes see bounded metric oscillation
    f = qh_distance_field(field_graph, (0.3, 0.0))
    worst = 0.0
    for k in disk_dec.indices(TAG_DOMAIN):
        q = disk_dec.cube(k)
        si, sj = f.block(q)
        blk = f.values[si, sj]
        ok = np.isfinite(blk)
        if ok.any():
            worst = max(worst, float(blk[ok].max() - blk[ok].min()))
    assert worst <= math.sqrt(2.0) + 0.35   # sqrt(n) plus estimator slack


def test_dipole_zero_radii(field_graph):
    f = dipole_field(field_graph, (-0.5, 0), (0.5, 0), 0.0, 0.0)
    ins = f.mask == MASK_INSIDE
    assert np.abs(f.values[ins]).max() == 0.0


def test_dipole_peak_value(disk_graph, field_graph):
    z1, z2 = (-0.5, 0.0), (0.5, 0.0)
    k12, _ = qh_distance(disk_graph, z1, z2)
    r1 = 0.5 * k12      # below the separation: the second cone vanishes at z1
    f = dipole_field(field_graph, z1, z2, r1, r1)
    i, j = DISK_WINDOW.cell_of_point(z1, 8)
    assert f.values[i, j] == pytest.approx(r1, abs=0.05 * r1 + 2 * f.h)


def test_dipole_support(field_graph):
    r1 = 1.0
    f1 = qh_distance_field(field_graph, (-0.5, 0))
    f = dipole_field(field_graph, (-0.5, 0), (0.5, 0), r1, 0.0)
    ins = f.mask == MASK_INSIDE
    pos = ins & (f.values > 0)
    assert (f1.values[pos] < r1).all()


# -- growth and gap checks -------------------------------------------------

@pytest.mark.parametrize("grid_level", [7, 9])
def test_cellwise_field_matches_cube_loop(disk_dec, grid_level):
    # reference: one draw per domain cube no finer than the grid, in build
    # order, painted over the cube's cells
    got = whitney_cellwise_field(disk_dec, grid_level, np.random.default_rng(11))
    rng = np.random.default_rng(11)
    ref = np.full(got.values.shape, np.nan)
    for k in disk_dec.indices(TAG_DOMAIN):
        q = disk_dec.cube(k)
        if q.level <= grid_level:
            ref[got.block(q)] = float(rng.uniform(-0.5, 0.5))
    painted = np.isfinite(ref)
    assert painted.any()
    assert np.array_equal(got.values[painted], ref[painted])
    # inside cells left over are flooded sweep by sweep: a cell takes the
    # value of its first neighbor, in the order below, filled before the sweep
    n = 1 << grid_level
    for _ in range(4 * n):
        need = (got.mask == MASK_INSIDE) & np.isnan(ref)
        if not need.any():
            break
        before = ref.copy()
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            for i, j in np.argwhere(need & np.isnan(ref)).tolist():
                if 0 <= i - di < n and 0 <= j - dj < n and np.isfinite(before[i - di, j - dj]):
                    ref[i, j] = before[i - di, j - dj]
    assert (np.isfinite(ref) & ~painted).any()
    ref[got.mask != MASK_INSIDE] = np.nan
    assert np.array_equal(got.values, ref, equal_nan=True)


def test_log_growth_matches_cube_loop(disk_dec, corpus):
    for name, f in corpus:
        lookup = cube_means_lookup(f, range(f.level + 1))
        best = 0.0
        for k in disk_dec.indices(TAG_DOMAIN):
            q = disk_dec.cube(k)
            if q.level > f.level:
                continue
            means, counts = lookup[q.level]
            if counts[q.coords] > 0:
                best = max(best, abs(float(means[q.coords]))
                           / (1.0 + log_plus(LAM / q.side)))
        assert log_growth_ratio(f, disk_dec, LAM) == best, name


def test_log_growth_zero_and_const(disk1, disk_dec):
    z = sample_grid_function(disk1, DISK_WINDOW, 8, lambda p: np.zeros(len(p)))
    assert log_growth_ratio(z, disk_dec, LAM) == 0.0
    c = sample_grid_function(disk1, DISK_WINDOW, 8, lambda p: np.full(len(p), 2.5))
    rep = bmo_lambda_norm(c, disk1, LAM)
    assert log_growth_ratio(c, disk_dec, LAM) <= rep.value + 1e-12


def test_log_growth_envelope(disk1, disk_dec, corpus):
    for name, f in corpus:
        bl = bmo_lambda_norm(f, disk1, LAM).value
        if bl == 0:
            continue
        assert log_growth_ratio(f, disk_dec, LAM) <= 2.0 * bl, name


def test_log_growth_plateaus_while_max_grows(disk1, disk_dec, field_graph):
    # deep dipole: raw averages grow toward the source, the ratio does not
    f = dipole_field(field_graph, (0.0, -0.93), (0.5, 0.5), 3.0, 1.0)
    idxs = [k for k in disk_dec.indices(TAG_DOMAIN)]
    lookup = cube_means_lookup(f, [disk_dec.cubes["level"][k] for k in idxs])
    raw = {}
    for k in idxs:
        q = disk_dec.cube(k)
        means, counts = lookup[q.level]
        if counts[q.coords] > 0:
            raw.setdefault(q.level, 0.0)
            raw[q.level] = max(raw[q.level], abs(float(means[q.coords])))
    assert max(raw) >= 6 and raw[max(raw)] > raw[min(raw)]  # raw max grows with depth
    bl = bmo_lambda_norm(f, disk1, LAM).value
    assert log_growth_ratio(f, disk_dec, LAM) <= 2.0 * bl


def test_adjacent_gap_const_and_envelope(disk1, disk_dec, corpus):
    c = sample_grid_function(disk1, DISK_WINDOW, 8, lambda p: np.full(len(p), 1.0))
    assert adjacent_average_gap(c, disk_dec) == 0.0
    for name, f in corpus:
        b = bmo_homogeneous_norm(f, disk1).value
        if b == 0:
            continue
        assert adjacent_average_gap(f, disk_dec) <= 4.0 * b, name


def test_adjacent_gap_linear_halfplane(hp):
    w = Window((0.0, 0.0), 1.0)
    dec = build_whitney(hp, w, 6)
    f = sample_grid_function(hp, w, 8, lambda p: p[:, 1])
    got = adjacent_average_gap(f, dec)
    # brute-force pair sweep oracle
    best = 0.0
    level, tag = dec.cubes["level"], dec.cubes["tag"]
    for k in dec.indices(TAG_DOMAIN):
        if level[k] > 8:
            continue
        for nb in dec.adjacent(k):
            if tag[nb] != TAG_DOMAIN or level[nb] > 8:
                continue
            a = cube_average(f, dec.cube(k))
            b = cube_average(f, dec.cube(nb))
            best = max(best, abs(a - b))
    assert got == pytest.approx(best, rel=1e-12)


def test_bounded_on_interior_controls_lambda_norm(disk1, disk_dec, corpus):
    # scale norm <= K (oscillation norm + sup over the thick interior)
    n = 1 << 8
    g = (np.arange(n) + 0.5) * DISK_WINDOW.size / n
    pts = np.asarray(DISK_WINDOW.origin) + np.stack(
        np.meshgrid(g, g, indexing="ij"), -1).reshape(-1, 2)
    deep = (disk1.signed_distance(pts).reshape(n, n) >= LAM / 4)
    for name, f in corpus:
        ins = (f.mask == MASK_INSIDE) & deep
        sup_deep = float(np.abs(f.values[ins]).max()) if ins.any() else 0.0
        rhs = bmo_homogeneous_norm(f, disk1).value + sup_deep
        if rhs == 0:
            continue
        assert bmo_lambda_norm(f, disk1, LAM).value <= 2.0 * rhs, name


def cubes_covering_curve(dec, pts: np.ndarray) -> list[int]:
    """Indices of domain cubes met by a densely sampled curve."""
    seen = []
    for p in np.atleast_2d(pts):
        try:
            kind, idx = dec.locate(p)
        except (KeyError, ValueError):
            continue
        if kind == TAG_DOMAIN and idx not in seen:
            seen.append(idx)
    return seen


def test_chain_cover_count_vs_integral(disk1, disk_dec, disk_graph, rng):
    # cube cover count of a curve is controlled by its weighted length
    worst = 0.0
    done = 0
    while done < 6:
        x = rng.uniform(-0.85, 0.85, size=2)
        y = rng.uniform(-0.85, 0.85, size=2)
        if disk1.sd(x) < 0.1 or disk1.sd(y) < 0.1:
            continue
        v, pl = qh_distance(disk_graph, x, y)
        m = len(cubes_covering_curve(disk_dec, pl.resample(400)))
        worst = max(worst, m / (v + 1.0))
        done += 1
    assert worst <= 5.0   # measured envelope, dimension-driven


# -- windows outside the bounding box ---------------------------------------

OUTSIDE_BBOX = Window((1.5, 1.5), 1.0)   # disk(1)'s box is [-2, 2]^2


def test_sample_grid_function_rejects_window_outside_bbox(disk1):
    with pytest.raises(ValueError, match="window must sit inside the domain bounding box"):
        sample_grid_function(disk1, OUTSIDE_BBOX, 4, lambda p: p[:, 0])


def test_qh_distance_field_rejects_window_outside_bbox(disk1):
    with pytest.raises(ValueError, match="window must sit inside the domain bounding box"):
        qh_distance_field(bmo.field_graph(disk1, OUTSIDE_BBOX, 4), (0.0, 0.0))


def test_dipole_field_rejects_window_outside_bbox(disk1):
    with pytest.raises(ValueError, match="window must sit inside the domain bounding box"):
        dipole_field(bmo.field_graph(disk1, OUTSIDE_BBOX, 4), (-0.5, 0), (0.5, 0), 1.0, 1.0)
