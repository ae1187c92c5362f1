import math
import warnings

import numpy as np
import pytest

from bmoext import Window, disk, intro_lipschitz
from bmoext.bmo import (MASK_INSIDE, dyadic_abc_norm, log_plus,
                        sample_grid_function, _cube_means_lookup)
from bmoext.errors import ExtensionError
from bmoext.extension import (counterexample_experiment, extend, make_suite,
                              max_extension_scale, max_suite_ratio,
                              operator_norm_experiment)
from bmoext.whitney import TAG_COMPLEMENT, build_whitney
from tests.conftest import DISK_WINDOW


@pytest.fixture(scope="module")
def suite(disk1, disk_dec):
    return make_suite(disk1, DISK_WINDOW, 1 / 256, disk_dec, seed=3,
                      n_const=1, n_qh=2, n_dipole=1, n_random=2)


def quiet_extend(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return extend(*args, **kwargs)


def test_max_extension_scale_values():
    assert max_extension_scale(0.5, 1.0) == pytest.approx(
        0.25 / (640.0 * (1.0 + math.sqrt(2) / 2)), rel=1e-12)
    assert max_extension_scale(0.5, 1.0) == pytest.approx(2.288e-4, rel=1e-3)
    assert max_extension_scale(1.0, 1.0) == pytest.approx(6.47e-4, rel=1e-3)
    with pytest.raises(ValueError):
        max_extension_scale(1.5, 1.0)
    with pytest.raises(ValueError):
        max_extension_scale(0.5, -1.0)


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
        extend(f, disk1, disk_dec, 0.1, 0.3, 0.5)


def test_restriction_identity_exact(disk1, disk_dec, suite):
    for name, f in suite:
        res = quiet_extend(f, disk1, disk_dec, 0.1, 0.3, 0.5)
        ins = f.mask == MASK_INSIDE
        assert np.array_equal(res.extended.values[ins], f.values[ins]), name


def test_per_cube_constancy_and_zero_region(disk1, disk_dec, suite):
    name, f = suite[1]
    res = quiet_extend(f, disk1, disk_dec, 0.1, 0.3, 0.5)
    for idx in disk_dec.indices(TAG_COMPLEMENT):
        q = disk_dec.cube(idx)
        if q.level > f.level:
            continue
        si, sj = f.block(q)
        blk = res.extended.values[si, sj]
        assert np.nanmax(blk) == np.nanmin(blk)       # one value per cube
        if q.sort_key() in res.zero_region:
            assert np.nanmax(np.abs(blk)) == 0.0
        if q.side > 0.1:
            assert q.sort_key() in res.zero_region


def test_linearity_cellwise(disk1, disk_dec):
    f = sample_grid_function(disk1, DISK_WINDOW, 8,
                             lambda p: np.sin(2 * p[:, 0]))
    g = sample_grid_function(disk1, DISK_WINDOW, 8,
                             lambda p: np.cos(3 * p[:, 1]))
    h = f.copy_with(f.values + g.values)
    rf = quiet_extend(f, disk1, disk_dec, 0.1, 0.3, 0.5, compute_norms=False)
    rg = quiet_extend(g, disk1, disk_dec, 0.1, 0.3, 0.5, compute_norms=False)
    rh = quiet_extend(h, disk1, disk_dec, 0.1, 0.3, 0.5, compute_norms=False)
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
        quiet_extend(f, dom, dec, 2.0, 0.3, 0.5)
    assert len(err.value.failed_cubes) > 0


def test_extension_average_growth_bound(disk1, disk_dec, suite):
    # averages over decomposition cubes obey the logarithmic envelope
    lam = 0.1
    for name, f in suite:
        res = quiet_extend(f, disk1, disk_dec, lam, 0.3, 0.5)
        if res.input_norm <= 0:
            continue
        tf = res.extended
        cubes = [disk_dec.cube(k) for k in range(len(disk_dec.cubes))]
        cubes = [q for q in cubes if q.level <= tf.level]
        lookup = _cube_means_lookup(tf, [q.level for q in cubes])
        worst = 0.0
        for q in cubes:
            means, counts = lookup[q.level]
            if counts[q.coords] == 0:
                continue
            worst = max(worst, abs(float(means[q.coords]))
                        / (1.0 + log_plus(lam / q.side)))
        assert worst <= 2.0 * res.input_norm, name    # measured envelope


def test_extension_dyadic_data_bounded(disk1, disk_dec, suite):
    lam = 0.1
    for name, f in suite:
        res = quiet_extend(f, disk1, disk_dec, lam, 0.3, 0.5)
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


def test_counterexample_zero_control():
    rows = counterexample_experiment([4], 2.0,
                                     field=lambda p: np.zeros(len(p)))
    assert rows[0]["ratio"] is None        # NA, not a failure
