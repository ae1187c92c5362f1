import dataclasses
import math
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest

from bmoext import (DyadicCube, Window, bmo, disk, extension, intro_lipschitz, l_shape,
                    slit_disk)
from bmoext.bmo import (MASK_INSIDE, MASK_OUTSIDE, GridFunction, classify_cells,
                        bmo_lambda_norm, dipole_field, dyadic_abc_norm, field_graph,
                        log_plus, sample_grid_function)
from bmoext.cigar import curve_constants, epsilon_from_ab
from bmoext.dyadic import box_distance, resolution_level
from bmoext.errors import ExtensionError
from bmoext.extension import (GROWTH_CELL, GROWTH_DELTA, GROWTH_EPSILON,
                              counterexample_experiment, extend, make_suite,
                              max_extension_scale, max_suite_ratio,
                              operator_norm_experiment, plan_extension)
from bmoext.qhyper import j_distance
from bmoext.whitney import TAG_COMPLEMENT, build_whitney, find_big_cube_near, matching_cube
from tests.conftest import DISK_WINDOW, whole_level_stats


@pytest.fixture(scope="module")
def suite(disk1, disk_dec):
    return make_suite(disk1, DISK_WINDOW, 1 / 256, disk_dec, seed=3,
                      n_const=1, n_qh=2, n_dipole=1, n_random=2)


def quiet_plan(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return plan_extension(*args, **kwargs)


@pytest.fixture(scope="module")
def plan(disk_dec, suite):
    # every suite function shares the grid's mask, so one plan serves them all
    return quiet_plan(disk_dec, suite[0][1].mask, 0.1, 0.3, 0.5)


def test_max_extension_scale_values():
    assert max_extension_scale(0.5, 1.0) == pytest.approx(
        0.25 / (640.0 * (1.0 + math.sqrt(2) / 2)), rel=1e-12)
    assert max_extension_scale(0.5, 1.0) == pytest.approx(2.288e-4, rel=1e-3)
    assert max_extension_scale(1.0, 1.0) == pytest.approx(6.47e-4, rel=1e-3)
    with pytest.raises(ValueError):
        max_extension_scale(1.5, 1.0)
    with pytest.raises(ValueError):
        max_extension_scale(0.5, -1.0)


# each guard reads `not x > 0`, so NaN fails it as zero and negatives do
NAN_CALLS = {
    "max_extension_scale": lambda dom, dec: max_extension_scale(0.3, math.nan),
    "plan_extension": lambda dom, dec: plan_extension(
        dec, classify_cells(dom, DISK_WINDOW, 8), math.nan, 0.3, 0.5),
    "matching_cube": lambda dom, dec: matching_cube(
        dec, dec.cube(int(dec.indices(TAG_COMPLEMENT)[0])), 0.3, math.nan),
    "find_big_cube_near": lambda dom, dec: find_big_cube_near(dec, (0.9, 0.0), 0.3, math.nan),
    "j_distance": lambda dom, dec: j_distance(dom, (math.nan, 0.0), (0.0, 0.0)),
    "epsilon_from_ab": lambda dom, dec: epsilon_from_ab(math.nan, 1.0),
    "curve_constants": lambda dom, dec: curve_constants(
        dom, (0.0, 0.0), (math.nan, 0.0), [(0.0, 0.0), (math.nan, 0.0)]),
    "dipole_field": lambda dom, dec: dipole_field(
        field_graph(dom, DISK_WINDOW, 4), (-0.5, 0.0), (0.5, 0.0), math.nan, 1.0),
}


@pytest.mark.parametrize("call", sorted(NAN_CALLS))
def test_nan_is_rejected(call, disk1, disk_dec):
    with pytest.raises(ValueError):
        NAN_CALLS[call](disk1, disk_dec)


def test_max_extension_scale_monotone():
    eps = np.linspace(0.05, 1.0, 12)
    vals = [max_extension_scale(e, 0.7) for e in eps]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    dels = np.linspace(0.1, 1.0, 12)
    vals = [max_extension_scale(0.4, d) for d in dels]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_scale_warning_above_guarantee(disk1, disk_dec):
    f = sample_grid_function(disk1, DISK_WINDOW, 8, lambda p: np.full(len(p), 1.0))
    with pytest.warns(UserWarning):
        plan_extension(disk_dec, f.mask, 0.1, 0.3, 0.5)


def test_restriction_identity_exact(suite, plan):
    for name, f in suite:
        res = extend(f, plan)
        ins = f.mask == MASK_INSIDE
        assert np.array_equal(res.extended.values[ins], f.values[ins]), name


def test_per_cube_constancy_and_zero_region(disk_dec, suite, plan):
    name, f = suite[1]
    res = extend(f, plan)
    zero_region = set(map(tuple, res.zero_region.tolist()))
    for idx in disk_dec.indices(TAG_COMPLEMENT):
        q = disk_dec.cube(idx)
        if q.level > f.level:
            continue
        si, sj = f.block(q)
        blk = res.extended.values[si, sj]
        assert np.nanmax(blk) == np.nanmin(blk)       # one value per cube
        if q.sort_key() in zero_region:
            assert np.nanmax(np.abs(blk)) == 0.0
        if q.side > 0.1:
            assert q.sort_key() in zero_region


def test_linearity_cellwise(disk1, disk_dec):
    f = sample_grid_function(disk1, DISK_WINDOW, 8,
                             lambda p: np.sin(2 * p[:, 0]))
    g = sample_grid_function(disk1, DISK_WINDOW, 8,
                             lambda p: np.cos(3 * p[:, 1]))
    h = GridFunction(f.window, f.level, f.values + g.values, f.mask.copy())
    plan = quiet_plan(disk_dec, f.mask, 0.1, 0.3, 0.5)
    rf = extend(f, plan)
    rg = extend(g, plan)
    rh = extend(h, plan)
    ok = np.isfinite(rh.extended.values)
    lhs = rh.extended.values[ok]
    rhs = rf.extended.values[ok] + rg.extended.values[ok]
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_matching_failure_lists_cubes():
    dom = intro_lipschitz()
    window = Window((-4.0, -4.0), 8.0)
    dec = build_whitney(dom, window, 7)
    f = sample_grid_function(dom, window, 7,
                             lambda p: np.maximum(p[:, 0], 0.0), everywhere=True)
    with pytest.raises(ExtensionError) as err:
        quiet_plan(dec, f.mask, 2.0, 0.3, 0.5)
    assert len(err.value.failed_cubes) > 0
    # best effort lists the same cubes and paints them zero
    plan = quiet_plan(dec, f.mask, 2.0, 0.3, 0.5, best_effort=True)
    assert list(map(tuple, plan.failed.tolist())) == err.value.failed_cubes
    res = extend(f, plan)
    for level, i, j in err.value.failed_cubes:
        blk = res.extended.values[f.block(DyadicCube(level, (i, j), window))]
        assert (blk == 0.0).all()
    # painted, so only outside cells outside every cube are frontier-filled
    assert plan.frontier_filled == ((f.mask == MASK_OUTSIDE) & (dec.cell_rows(7) < 0)).sum()


def test_frontier_fill_takes_nearest_painted_cube(disk_dec, plan):
    # reference: box distance from the cell center to every complement cube
    # painted on the grid; the first nearest in build order gives the source
    cubes = [disk_dec.cube(k) for k in disk_dec.indices(TAG_COMPLEMENT)]
    cubes = [q for q in cubes if q.level <= plan.level]
    lows = np.array([q.lower for q in cubes])
    sides = np.array([q.side for q in cubes])[:, None]
    corner = [tuple(c << (plan.level - q.level) for c in q.coords) for q in cubes]
    filled = np.argwhere((plan.mask == MASK_OUTSIDE) & (disk_dec.cell_rows(plan.level) < 0))
    assert len(filled) == plan.frontier_filled > 0
    h = DISK_WINDOW.cell_size(plan.level)
    for i, j in filled.tolist():
        c = np.asarray(DISK_WINDOW.origin) + (np.array([i, j]) + 0.5) * h
        k = int(np.argmin(box_distance(lows, lows + sides, c, c)))
        assert plan.source[i, j] == plan.source[corner[k]]


def reference_fill(dec, plan, pick=np.argmin):
    """The plan's `source` refilled by the blocked brute-force frontier fill
    that the bucketed one replaced: every filled cell center measured
    against every painted cube, `pick` choosing among the distances in
    build order (argmin: the first nearest)."""
    c, w = dec.cubes, dec.window
    painted = np.flatnonzero((c["tag"] == TAG_COMPLEMENT) & (c["level"] <= plan.level))
    lvl = c["level"][painted]
    sides = np.ldexp(w.size, -lvl)[:, None]
    ij = np.column_stack([c["i"][painted], c["j"][painted]])
    lows = np.asarray(w.origin) + ij * sides
    corner = ij << (plan.level - lvl)[:, None]
    paint = plan.source[corner[:, 0], corner[:, 1]]
    cells = np.argwhere((plan.mask == MASK_OUTSIDE) & (dec.cell_rows(plan.level) < 0))
    centers = np.asarray(w.origin) + (cells + 0.5) * w.cell_size(plan.level)
    source = plan.source.copy()
    step = max(1, (1 << 20) // len(lows))
    for lo in range(0, len(cells), step):
        x = centers[lo:lo + step, None, :]
        nearest = pick(box_distance(lows, lows + sides, x, x), axis=1)
        sel = cells[lo:lo + step]
        source[sel[:, 0], sel[:, 1]] = paint[nearest]
    return source


def growth_plan(r_size, lam):
    """The plan of `counterexample_experiment([r_size], lam)`."""
    dom = intro_lipschitz()
    side = 2.0 * r_size
    level = resolution_level(GROWTH_CELL / side)
    window = Window((-float(r_size), -float(r_size)), side)
    dec = build_whitney(dom, window, level)
    f = sample_grid_function(dom, window, level, lambda p: p[:, 0], everywhere=True)
    return dec, quiet_plan(dec, f.mask, lam, GROWTH_EPSILON, GROWTH_DELTA, best_effort=True)


def domain_plan(dom, window, depth, level, lam):
    dec = build_whitney(dom, window, depth)
    f = sample_grid_function(dom, window, level, lambda p: p[:, 0])
    return dec, quiet_plan(dec, f.mask, lam, 0.3, 0.5, best_effort=True)


@pytest.mark.parametrize("make", [
    lambda: growth_plan(4, 2.0), lambda: growth_plan(4, 0.25),
    lambda: growth_plan(8, 2.0), lambda: growth_plan(8, 0.25),
    lambda: domain_plan(disk(1.0), disk(1.0).default_window, 6, 6, 0.1),
    lambda: domain_plan(slit_disk(1.0, 0.5), slit_disk(1.0, 0.5).default_window, 7, 7, 0.2),
    lambda: domain_plan(l_shape(), l_shape().default_window, 6, 8, 0.2),
], ids=["growth-4-lam2", "growth-4-lam0.25", "growth-8-lam2", "growth-8-lam0.25",
        "suite-ratio-disk", "slit-disk", "l-shape-frontier-6-grid-8"])
def test_frontier_fill_equals_brute_force(make):
    dec, plan = make()
    assert plan.frontier_filled > 0
    assert reference_fill(dec, plan).tobytes() == plan.source.tobytes()
    # at 64 distances a block, a bucket's cells are measured one or a few at a time
    with mock.patch.object(extension, "EVAL_BUDGET", 64):
        assert make()[1].source.tobytes() == plan.source.tobytes()


def test_frontier_fill_ties_go_to_the_first_painted_cube():
    # the disk and its centered window are symmetric about the diagonals, so
    # cells lie equidistant from two painted cubes of different sources
    dec, plan = domain_plan(disk(1.0), DISK_WINDOW, 5, 7, 0.1)
    last = lambda d, axis: d.shape[axis] - 1 - np.argmin(d[:, ::-1], axis=axis)
    assert reference_fill(dec, plan, last).tobytes() != plan.source.tobytes()
    assert reference_fill(dec, plan).tobytes() == plan.source.tobytes()


def test_extension_average_growth_bound(disk_dec, suite, plan):
    # averages over decomposition cubes obey the logarithmic envelope
    lam = plan.lam
    for name, f in suite:
        res = extend(f, plan)
        if res.input_norm <= 0:
            continue
        tf = res.extended
        cubes = [disk_dec.cube(k) for k in range(len(disk_dec.cubes))]
        cubes = [q for q in cubes if q.level <= tf.level]
        stats = {lvl: whole_level_stats(tf, "inside", lvl) for lvl in {q.level for q in cubes}}
        worst = 0.0
        for q in cubes:
            means, _, counts = stats[q.level]
            if counts[q.coords] == 0:
                continue
            worst = max(worst, abs(float(means[q.coords]))
                        / (1.0 + log_plus(lam / q.side)))
        assert worst <= 2.0 * res.input_norm, name    # measured envelope


def test_extension_dyadic_data_bounded(suite, plan):
    lam = plan.lam
    for name, f in suite:
        res = extend(f, plan)
        if res.input_norm <= 0:
            continue
        rep = dyadic_abc_norm(res.extended, lam)
        assert max(rep.abc) <= 4.0 * res.input_norm, name


def test_operator_norm_rows_and_zero_function(disk1, disk_dec, suite):
    rows = operator_norm_experiment(disk1, 0.3, 0.5, [0.1, 0.05], suite,
                                    1 / 256, seed=3, window=DISK_WINDOW,
                                    dec=disk_dec)
    zero_rows = [r for r in rows if r["function"] == "zero"]
    assert zero_rows and all(r["ratio"] is None for r in zero_rows)
    assert math.isfinite(max_suite_ratio(rows, 0.1))


def test_counterexample_growth_small():
    rows = counterexample_experiment([4, 8], 2.0)
    assert rows[1]["ratio"] > rows[0]["ratio"] > 1.0
    control = counterexample_experiment([4, 8], 0.25)
    vals = [r["ratio"] for r in control]
    assert max(vals) / min(vals) <= 1.5
    assert all(not r["input_degenerate"] for r in control)


@pytest.mark.memory
def test_counterexample_memory_is_bounded():
    # whole-grid sampling, norm sweeps and extend peaked at 33.4 MiB here,
    # and 13.7 MiB a band of rows at a time, where the Whitney build's probe
    # pass of 8,192 cubes set the peak; measured 7.5 MiB with passes of
    # EVAL_BUDGET probes, an int32 cell map and the input norm taken before
    # extend allocates its output
    tracemalloc.start()
    try:
        counterexample_experiment([16], 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20


def test_counterexample_zero_control():
    rows = counterexample_experiment([4], 2.0,
                                     field=lambda p: np.zeros(len(p)))
    assert rows[0]["ratio"] is None        # NA, not a failure


def test_counterexample_rejects_non_dyadic_window():
    with pytest.raises(ValueError):
        counterexample_experiment([3], 2.0)       # side 6 is not 2^k cells


def test_extend_rejects_grid_of_another_plan(disk1, suite, plan):
    f = suite[0][1]
    other_window = sample_grid_function(disk1, Window((-1.5, -1.5), 3.0), 8,
                                        lambda p: p[:, 0])
    coarser = sample_grid_function(disk1, DISK_WINDOW, 7, lambda p: p[:, 0])
    other_mask = GridFunction(f.window, f.level, f.values.copy(), f.mask.copy())
    other_mask.mask[0, 0] = MASK_INSIDE
    other_mask.values[0, 0] = 0.0           # keep the function defined
    for g in (other_window, coarser, other_mask):
        with pytest.raises(ValueError, match="differ in window, level or mask"):
            extend(g, plan)


def test_shared_plan_matches_fresh_plans(disk_dec, suite, plan):
    for name, f in suite:
        fresh = quiet_plan(disk_dec, f.mask, 0.1, 0.3, 0.5)
        a = extend(f, plan).extended.values
        b = extend(f, fresh).extended.values
        assert a.tobytes() == b.tobytes(), name


def test_plan_is_read_only(plan):
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.lam = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.source = plan.source.copy()
    arrays = (plan.mask, plan.source, plan.assignment, plan.zero_region,
              plan.subcell, plan.failed)
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[...] = 0
    assert isinstance(plan.sources, tuple) and len(plan.sources) > 0


def test_queries_on_a_shared_plan_run_concurrently(disk1, suite, plan):
    # extend and the norm sweep on one plan and shared grid functions, four
    # at a time, give the serial run's bits; bands of 16 rows make every
    # call go through many bands while the others do
    def run_extend(f):
        res = extend(f, plan)
        return (res.extended.values.tobytes(), res.extended.mask.tobytes(),
                repr(dataclasses.astuple(res.input_report)),
                repr(dataclasses.astuple(res.output_report)))

    def run_norm(job):
        f, lam = job
        return repr(dataclasses.astuple(bmo_lambda_norm(f, disk1, lam)))

    functions = [f for _, f in suite]
    norm_jobs = [(f, lam) for f in functions for lam in (0.05, 0.3)]
    with mock.patch.object(bmo, "EVAL_BUDGET", 16 * functions[0].n_cells):
        serial = ([run_extend(f) for f in functions], [run_norm(j) for j in norm_jobs])
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(3):
                extended = pool.map(run_extend, functions)
                norms = pool.map(run_norm, norm_jobs)
                assert (list(extended), list(norms)) == serial
