"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is tuned at runtime.
"""

import math
import time

import numpy as np
import pytest

from bmoext import (Window, disk, half_plane, intro_lipschitz, l_shape,
                    slit_disk, qh_distance)
from bmoext.bmo import (adjacent_average_gap, bmo_homogeneous_norm,
                        bmo_lambda_norm, cube_average, field_graph, log_growth_ratio,
                        qh_distance_field, sample_grid_function)
from bmoext.cigar import classify, estimate_epsilon_delta
from bmoext.dyadic import DyadicCube, SQRT_N
from bmoext.errors import MatchingError
from bmoext.qhyper import build_metric_graph
from bmoext.extension import (counterexample_experiment, make_suite,
                              max_extension_scale, max_suite_ratio,
                              operator_norm_experiment)
from bmoext.whitney import (TAG_COMPLEMENT, build_whitney,
                            matching_cube, matching_size_bound,
                            matching_distance_constant)
from tests.conftest import DISK_WINDOW, IL_WINDOW
from tests.test_whitney import (built_families, cube_gap, exhaustive_whitney,
                                frontier_cells)
from tests.test_bmo import oracle_average

DELTA = 0.5
SEED = 7


def report(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def disk1():
    return disk(1.0)


@pytest.fixture(scope="module")
def disk10(disk1):
    return build_whitney(disk1, DISK_WINDOW, 10)


@pytest.fixture(scope="module")
def disk_classification(disk1):
    return classify(disk1, DELTA, 24, 1 / 128, seed=SEED)


def test_criterion_01_whitney_invariants():
    cases = [
        (disk(1.0), DISK_WINDOW),
        (l_shape(), None),
        (slit_disk(1.0, 0.5), DISK_WINDOW),
        (intro_lipschitz(), IL_WINDOW),
    ]
    details = []
    ok = True
    for dom, window in cases:
        window = window or dom.default_window
        t0 = time.time()
        dec = build_whitney(dom, window, 10)  # asserts WC1-WC3
        tol = 1e-9 * window.size
        level = dec.cubes["level"]
        for idx, (_, lvl, _, _, lo, hi) in enumerate(dec.cubes.tolist()):
            side = window.cell_size(lvl)
            ok &= lo >= side - tol
            ok &= hi <= 4.0 * SQRT_N * side + tol
            ok &= bool((np.abs(level[dec.adjacent(idx)] - lvl) <= 2).all())
        elapsed = time.time() - t0
        ok &= elapsed < 10.0
        details.append(f"{dom.label}: {len(dec.cubes)} cubes in {elapsed:.1f}s")
    report(1, ok, "; ".join(details))


def test_criterion_02_qh_analytics(disk1):
    hp_graph = build_metric_graph(half_plane(), Window((-2.0, 0.0), 4.0), 1 / 512)
    v1, _ = qh_distance(hp_graph, (0, 1), (0, 4))
    v2, _ = qh_distance(hp_graph, (0, 1), (1, 1))
    t1, t2 = math.log(4.0), math.acosh(1.5)
    r1 = abs(v1 / t1 - 1.0)
    r2 = abs(v2 / t2 - 1.0)
    d1, _ = qh_distance(build_metric_graph(disk1, DISK_WINDOW, 1 / 512), (-0.9, 0), (0.9, 0))
    d2, _ = qh_distance(build_metric_graph(disk1, DISK_WINDOW, 1 / 1024), (-0.9, 0), (0.9, 0))
    r3 = abs(d1 - d2) / d2
    ok = r1 <= 0.03 and r2 <= 0.03 and r3 <= 0.02
    report(2, ok, f"log4 rel {r1:.4f} (<=0.03), acosh(1.5) rel {r2:.4f} "
                  f"(<=0.03), self-convergence {r3:.4f} (<=0.02)")


def test_criterion_03_matching_cubes(disk10):
    eps = 0.3
    bound = matching_size_bound(eps, DELTA)
    c = matching_distance_constant(eps)
    assert c == pytest.approx(5.0 * math.sqrt(2.0) + 16.0 / eps ** 2, rel=1e-12)
    qual = [k for k in disk10.indices(TAG_COMPLEMENT)
            if disk10.cube(k).side <= bound]
    unmatched = 0
    bad = 0
    for k in qual:
        q = disk10.cube(k)
        try:
            qs = matching_cube(disk10, q, eps, DELTA)
        except MatchingError:
            unmatched += 1
            continue
        ratio = qs.side / q.side
        if not (1.0 <= ratio <= 4.0
                and cube_gap(qs, q) <= c * q.side + 1e-9 * disk10.window.size):
            bad += 1
    ok = len(qual) > 0 and unmatched == 0 and bad == 0
    report(3, ok, f"{len(qual)} complement cubes at or below eps*delta/(16n)="
                  f"{bound:.3g}: unmatched {unmatched}, bound violations {bad}")


def test_criterion_04_k_function_bmo(disk1):
    graph = field_graph(disk1, DISK_WINDOW, 9)
    vals = []
    for dist in (0.5, 0.1, 0.02):
        f = qh_distance_field(graph, (1.0 - dist, 0.0))
        vals.append(bmo_homogeneous_norm(f, disk1).value)
    ratios = [vals[i + 1] / vals[i] for i in range(2)]
    ok = all(v <= 10.0 for v in vals) and all(r <= 1.5 for r in ratios)
    report(4, ok, "BMO norms " + ", ".join(f"{v:.3f}" for v in vals)
           + "; successive ratios " + ", ".join(f"{r:.3f}" for r in ratios))


def test_criterion_05_gap_and_log_growth(disk1):
    lam = 0.25
    dec = build_whitney(disk1, DISK_WINDOW, 7)
    ks = {}
    for level in (7, 8):
        suite = make_suite(disk1, DISK_WINDOW, 2.0 ** (-level), dec, seed=3)
        assert len(suite) == 20
        k1 = k2 = 0.0
        for name, f in suite:
            b = bmo_homogeneous_norm(f, disk1).value
            bl = bmo_lambda_norm(f, disk1, lam).value
            if b > 0:
                k1 = max(k1, adjacent_average_gap(f, dec) / b)
            if bl > 0:
                k2 = max(k2, log_growth_ratio(f, dec, lam) / bl)
        ks[level] = (k1, k2)
    (k1a, k2a), (k1b, k2b) = ks[7], ks[8]
    s1 = abs(k1a - k1b) / max(k1a, k1b)
    s2 = abs(k2a - k2b) / max(k2a, k2b)
    ok = (math.isfinite(k1a) and math.isfinite(k2a)
          and s1 <= 0.25 and s2 <= 0.25)
    report(5, ok, f"K1 = {k1a:.3f}/{k1b:.3f} (drift {s1:.3f}), "
                  f"K2 = {k2a:.3f}/{k2b:.3f} (drift {s2:.3f}), both <= 0.25")


def test_criterion_06_extension_stability(disk1, disk_classification):
    eps_hat = min(disk_classification.epsilon_hat, 1.0)
    lam_max = max_extension_scale(eps_hat, DELTA)
    lams = [lam_max, lam_max / 2.0, lam_max / 4.0]
    dec = build_whitney(disk1, DISK_WINDOW, 8)
    suite = make_suite(disk1, DISK_WINDOW, 1 / 256, dec, seed=3)
    rows = operator_norm_experiment(disk1, eps_hat, DELTA, lams, suite,
                                    1 / 256, 3, window=DISK_WINDOW, dec=dec)
    ratios = [max_suite_ratio(rows, lam) for lam in lams]
    spread = (max(ratios) - min(ratios)) / max(ratios)
    ok = all(math.isfinite(r) for r in ratios) and spread <= 0.20
    report(6, ok, f"eps_hat={eps_hat:g}, lam_max={lam_max:.3g}, max suite "
                  f"ratios {['%.4f' % r for r in ratios]}, spread {spread:.3f}")


def test_criterion_07_intro_counterexample():
    rows = counterexample_experiment([4, 16, 64], 2.0)
    seq = [r["ratio"] for r in rows]
    control = counterexample_experiment([4, 16, 64], 0.25)
    cseq = [r["ratio"] for r in control]
    ok = (seq[0] < seq[1] < seq[2]) and max(cseq) / min(cseq) <= 1.5
    report(7, ok, f"lam=2 ratios {['%.1f' % r for r in seq]} strictly "
                  f"increasing; lam=0.25 max/min {max(cseq) / min(cseq):.3f} <= 1.5")


def test_criterion_08_negative_geometry(disk_classification):
    slit = slit_disk(1.0, 0.5)
    rep = estimate_epsilon_delta(build_metric_graph(slit, DISK_WINDOW, 1 / 128), DELTA, 16,
                                 seed=SEED)
    tip_x = 0.5
    tips = [p for p in rep.pairs
            if p.kind == "adversarial" and p.x[1] * p.y[1] < 0
            and tip_x < p.x[0] <= tip_x + DELTA / 100.0
            and abs(p.x[1]) < 0.01]
    min_tip_eps = min((p.eps for p in tips), default=math.inf)
    il = classify(intro_lipschitz(), DELTA, 24, 1 / 128, seed=SEED,
                  window=IL_WINDOW)
    ok = (len(tips) > 0 and min_tip_eps < 0.05
          and rep.verdict == "evidence-against"
          and disk_classification.verdict == "consistent-with-(eps,delta)"
          and il.verdict == "consistent-with-(eps,delta)")
    report(8, ok, f"slit tip pairs {len(tips)} (min eps {min_tip_eps:.4f} < 0.05), "
                  f"slit verdict {rep.verdict}; disk {disk_classification.verdict}; "
                  f"intro {il.verdict}")


def test_criterion_09_uniformity_fit(disk1, disk_classification):
    c_f, d_f = disk_classification.cd_hat
    c_c, d_c = disk_classification.details["coarse_run"]["cd_hat"]
    # every observed sub-pair sits below the envelope a report is built with
    coarse = estimate_epsilon_delta(build_metric_graph(disk1, DISK_WINDOW, 1 / 128), DELTA, 24,
                                    seed=SEED)
    c2, d2 = coarse.cd_hat
    points = coarse.details["fit_points"]
    under = all(k <= c2 * j + d2 + 1e-9 for j, k in points)
    jmed = float(np.median([j for j, _ in points]))
    v_f = c_f * jmed + d_f
    v_c = c_c * jmed + d_c
    drift = abs(v_f - v_c) / max(v_f, v_c)
    ok = (under and (c2, d2) == (c_c, d_c) and c_f <= 10.0 and d_f <= 10.0
          and c_c <= 10.0 and d_c <= 10.0 and drift <= 0.20)
    report(9, ok, f"(c,d) fine ({c_f:g},{d_f:g}) coarse ({c_c:g},{d_c:g}); "
                  f"envelope drift at median j: {drift:.3f}; "
                  f"{len(points)} sub-pairs all under the envelope")


def test_criterion_10_oracle_equivalences(disk1):
    t0 = time.time()
    dec = build_whitney(disk1, DISK_WINDOW, 7)
    oracle, oracle_frontier = exhaustive_whitney(disk1, DISK_WINDOW, 7)
    cubes_match = (built_families(dec) == oracle
                   and frontier_cells(dec) == sorted(oracle_frontier))

    f = sample_grid_function(disk1, DISK_WINDOW, 7,
                             lambda p: np.sin(5 * p[:, 0]) - p[:, 1] ** 3)
    rng = np.random.default_rng(SEED)
    avg_exact = True
    checked = 0
    while checked < 10:
        lvl = int(rng.integers(2, 6))
        q = DyadicCube(lvl, tuple(int(v) for v in rng.integers(0, 1 << lvl, 2)),
                       DISK_WINDOW)
        try:
            got = cube_average(f, q)
        except ValueError:
            continue
        avg_exact &= (got == oracle_average(f, q))
        checked += 1
    elapsed = time.time() - t0
    ok = cubes_match and avg_exact and elapsed < 60.0
    report(10, ok, f"whitney build == exhaustive oracle: {cubes_match}; "
                   f"{checked} cube averages bit-equal to independent "
                   f"summation: {avg_exact}; total {elapsed:.1f}s (<60s)")
