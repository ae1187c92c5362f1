import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from bmoext import Polyline, cigar, disk, l_shape, slit_disk
from bmoext.cigar import (classify, curve_constants, envelope_fit,
                          epsilon_from_ab, epsilon_upper_bound,
                          estimate_epsilon_delta, mirror_pairs,
                          _monotone_divergence, _uniform_pairs)
from bmoext.errors import QuadratureError
from bmoext.qhyper import build_metric_graph, qh_distance
from tests.conftest import DISK_WINDOW, HP_WINDOW


def test_curve_epsilon_halfplane_segment(hp):
    seg = Polyline(np.array([[0.0, 1.0], [2.0, 1.0]]))
    # length factor 1, clearance quotient bottoms out at 2, clamp at 1
    assert curve_constants(hp, (0, 1), (2, 1), seg)[0] == 1.0


def test_curve_epsilon_rejects_degenerate_pair(hp):
    seg = Polyline(np.array([[0.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(ValueError):
        curve_constants(hp, (0, 1), (0, 1), seg)


def test_curve_epsilon_rejects_exiting_curve(hp):
    seg = Polyline(np.array([[0.0, 1.0], [1.0, -0.5], [2.0, 1.0]]))
    with pytest.raises(QuadratureError):
        curve_constants(hp, (0, 1), (2, 1), seg)


def test_curve_epsilon_requires_matching_endpoints(hp):
    seg = Polyline(np.array([[0.0, 1.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        curve_constants(hp, (0, 1), (2, 2), seg)


def test_length_cigar_halfplane(hp):
    _, a, b = curve_constants(hp, (0, 1), (2, 1),
                              Polyline(np.array([[0.0, 1.0], [2.0, 1.0]])))
    assert a == pytest.approx(1.0, rel=1e-9)
    assert b == pytest.approx(1.0, rel=1e-3)


def test_length_cigar_disk_chord_vs_dense_oracle(disk1):
    x, y = (-0.5, 0.0), (0.5, 0.0)
    _, a, b = curve_constants(disk1, x, y,
                              Polyline(np.array([x, y], dtype=float)))
    # dense sampling oracle along the chord
    t = np.linspace(0, 1, 400_001)
    z = np.array(x)[None, :] + t[:, None] * (np.array(y) - np.array(x))[None, :]
    arc = t * 1.0
    shorter = np.minimum(arc, 1.0 - arc)
    d = 1.0 - np.abs(z[:, 0])
    oracle_b = float(np.max(shorter / d))
    assert a == pytest.approx(1.0, rel=1e-9)
    assert b == pytest.approx(oracle_b, rel=1e-3)
    assert oracle_b == pytest.approx(0.5, rel=1e-6)


def test_epsilon_from_ab_values():
    assert epsilon_from_ab(2.0, 3.0) == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert epsilon_from_ab(1.0, 1.0) == 1.0
    assert epsilon_from_ab(4.0, 0.1) == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(ValueError):
        epsilon_from_ab(-1.0, 1.0)
    with pytest.raises(ValueError):
        epsilon_from_ab(0.5, 1.0)


def test_per_curve_consistency_with_ab(disk1, disk_graph, rng):
    # a curve certifies at least the epsilon its length-cigar constants imply
    done = 0
    while done < 40:
        x = rng.uniform(-0.9, 0.9, size=2)
        y = rng.uniform(-0.9, 0.9, size=2)
        if disk1.sd(x) < 0.05 or disk1.sd(y) < 0.05 or np.hypot(*(x - y)) < 0.05:
            continue
        _, pl = qh_distance(disk_graph, x, y)
        try:
            e, a, b = curve_constants(disk1, x, y, pl)
        except QuadratureError:
            continue
        assert e >= epsilon_from_ab(max(a, 1.0), b) - 1e-3
        done += 1


def test_upper_bound_dominates_curve_epsilon(disk1, disk_graph, rng):
    done = 0
    while done < 20:
        x = rng.uniform(-0.9, 0.9, size=2)
        y = rng.uniform(-0.9, 0.9, size=2)
        if disk1.sd(x) < 0.05 or disk1.sd(y) < 0.05 or np.hypot(*(x - y)) < 0.05:
            continue
        _, pl = qh_distance(disk_graph, x, y)
        try:
            e = curve_constants(disk1, x, y, pl)[0]
        except QuadratureError:
            continue
        assert epsilon_upper_bound(disk1, [x], [y])[0] >= e - 1e-9
        done += 1


@pytest.fixture(scope="module")
def slit_cap_pairs():
    """The slit disk and the (x, y) of every pair that classify at 1/128,
    24 pairs, seed 7 caps, as in the polygon-geodesic benchmark."""
    dom = slit_disk(1.0, 0.5)
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cigar, "epsilon_upper_bound",
                   lambda d, x, y: seen.append((np.asarray(x), np.asarray(y)))
                   or np.zeros(len(x)))
        cigar._sample_pairs(dom, dom.default_window, 0.5, 24, 1 / 128, 7)
    (x, y), = seen
    return dom, x, y


def test_caps_do_not_depend_on_the_budget(slit_cap_pairs, monkeypatch):
    dom, x, y = slit_cap_pairs
    sizes = []

    def sd_func(pts):
        sizes.append(len(pts))
        return dom.sd_func(pts)

    default = epsilon_upper_bound(dom, x, y)
    # cigar holds its own binding of EVAL_BUDGET: patch the one caps read
    monkeypatch.setattr(cigar, "EVAL_BUDGET", 1 << 30)
    whole = epsilon_upper_bound(dom, x, y)
    monkeypatch.setattr(cigar, "EVAL_BUDGET", 7 * 321)
    split = epsilon_upper_bound(dataclasses.replace(dom, sd_func=sd_func), x, y)
    assert len(x) > 100 * 7
    assert max(sizes) == 7 * 321
    assert np.array_equal(whole, default)
    assert np.array_equal(whole, split)


@pytest.mark.memory
def test_cap_memory_is_bounded(slit_cap_pairs):
    # the (pairs x 321) work arrays of all pairs at once took 41.5 MiB here
    dom, x, y = slit_cap_pairs
    tracemalloc.start()
    try:
        epsilon_upper_bound(dom, x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(x) > 1000
    assert peak < 8 * 2**20


def test_slit_tip_pair_arithmetic():
    # rounding the tip forces length at least the two tip legs
    dom = slit_disk(1.0, 0.5)
    tip = np.array([0.5, 0.0])
    for d in (0.05, 0.02, 0.005):
        s = d / 30.0
        u = np.array([0.5 + d, s])
        v = np.array([0.5 + d, -s])
        leg = np.hypot(*(u - tip)) + np.hypot(*(v - tip))
        arith = 2 * s / leg          # length-condition cap via the detour
        cap = epsilon_upper_bound(dom, [u], [v])[0]
        assert cap <= 3.0 * arith    # certified cap tracks the tip detour
        assert cap < 0.05


def test_mirror_pairs_found_only_on_pinched_domains(disk1):
    assert mirror_pairs(disk1, DISK_WINDOW, 0.5) == []
    slit = slit_disk(1.0, 0.5)
    pairs = mirror_pairs(slit, DISK_WINDOW, 0.5)
    assert len(pairs) > 100
    assert all(p.sep < 0.5 for p in pairs)
    scales = {p.scale_index for p in pairs}
    assert len(scales) >= 6


def test_monotone_divergence_detector():
    assert _monotone_divergence([(0, 0.3), (1, 0.15), (2, 0.07), (3, 0.03)])
    assert not _monotone_divergence([(0, 0.3), (1, 0.15)])
    assert not _monotone_divergence([(0, 0.5), (1, 0.6), (2, 0.7), (3, 0.8)])
    assert not _monotone_divergence([(0, 0.9), (1, 0.8), (2, 0.75), (3, 0.74)])


def test_estimate_halfplane_strong_epsilon(hp, hp_graph):
    rep = estimate_epsilon_delta(hp_graph, 0.5, 24, seed=3)
    # geodesic arcs certify the half-plane as a strong cigar domain
    assert rep.epsilon_hat >= 0.5
    # brute-force oracle on the same pairs: straight segments alone
    rng = np.random.default_rng(3)
    pairs = _uniform_pairs(hp, HP_WINDOW, 0.5, 24, rng,
                           math.sqrt(2) * HP_WINDOW.size / 256)
    for p in pairs:
        seg = Polyline(np.array([p.x, p.y]))
        seg_eps = curve_constants(hp, p.x, p.y, seg)[0]
        match = [q for q in rep.pairs if np.allclose(q.x, p.x) and np.allclose(q.y, p.y)]
        assert match and match[0].eps_curve >= seg_eps - 1e-9


def test_estimate_disk_two_resolutions(disk1):
    reps = [estimate_epsilon_delta(build_metric_graph(disk1, DISK_WINDOW, 1 / 128),
                                   0.5, 200, seed=11)]
    reps.append(estimate_epsilon_delta(build_metric_graph(disk1, DISK_WINDOW, 1 / 256),
                                       0.5, 200, seed=11, pairs=reps[0].pairs))
    for rep in reps:
        assert rep.epsilon_hat > 0.1
    assert abs(reps[0].epsilon_hat - reps[1].epsilon_hat) <= \
        0.2 * max(reps[0].epsilon_hat, reps[1].epsilon_hat)


def test_estimate_slit_divergence(disk1):
    slit = slit_disk(1.0, 0.5)
    rep = estimate_epsilon_delta(build_metric_graph(slit, DISK_WINDOW, 1 / 128),
                                 0.5, 16, seed=7)
    assert rep.verdict == "evidence-against"
    vals = [v for _, v in rep.cap_scale_minima]
    assert all(vals[i + 1] <= vals[i] * 1.1 for i in range(len(vals) - 1))
    assert vals[-1] < 0.01


def test_monotonicity_in_delta(disk1):
    l_dom = l_shape()
    graph = build_metric_graph(l_dom, l_dom.default_window, 1 / 128)
    reps = {}
    for delta in (0.5, 0.25):
        reps[delta] = estimate_epsilon_delta(graph, delta, 32, seed=5)
    assert reps[0.25].epsilon_hat >= reps[0.5].epsilon_hat - 0.15


def test_envelope_fit_basics():
    c, d = envelope_fit([(0.0, 0.0), (1.0, 2.0), (2.0, 4.0)])
    assert c * 2.0 + d >= 4.0 - 1e-12
    assert envelope_fit([]) == (pytest.approx(math.nan, nan_ok=True),
                                pytest.approx(math.nan, nan_ok=True))


def test_uniformity_fit_halfplane(hp_graph):
    rep = estimate_epsilon_delta(hp_graph, 0.5, 16, seed=3)
    c, d = rep.cd_hat
    # the report carries its envelope when built, not only through classify
    assert math.isfinite(c) and math.isfinite(d)
    assert c <= 3.0 and d <= 1.0
    points = rep.details["fit_points"]
    assert points
    # degenerate sub-pairs contribute nothing: all observations have j > 0
    assert all(j > 0 for j, _ in points)
    assert all(k <= c * j + d + 1e-9 for j, k in points)
    assert (c, d) == envelope_fit(points)


def test_classify_verdicts(disk1):
    rep = classify(disk1, 0.5, 24, 1 / 128, seed=7)
    assert rep.verdict == "consistent-with-(eps,delta)"
    slit = slit_disk(1.0, 0.5)
    rep2 = classify(slit, 0.5, 24, 1 / 128, seed=7)
    assert rep2.verdict == "evidence-against"


def test_classify_deterministic(disk1):
    a = classify(disk1, 0.5, 12, 1 / 128, seed=9)
    b = classify(disk1, 0.5, 12, 1 / 128, seed=9)
    assert a.epsilon_hat == b.epsilon_hat
    assert a.ab_hat == b.ab_hat and a.cd_hat == b.cd_hat


def test_prop_like_ratio_stable_on_disk(disk1):
    # a single constant dominates k/(j+1) over pairs, stable in resolution
    cs = []
    rep = None
    for res in (1 / 128, 1 / 256):
        rep = estimate_epsilon_delta(build_metric_graph(disk1, DISK_WINDOW, res), 0.5, 24,
                                     seed=3, pairs=rep.pairs if rep else None)
        vals = [p.k_xy / (p.j_xy + 1.0) for p in rep.pairs
                if p.k_xy is not None and p.j_xy is not None]
        cs.append(max(vals))
    assert all(math.isfinite(c) for c in cs)
    assert abs(cs[0] - cs[1]) <= 0.2 * max(cs)


def test_uniformity_fit_slit_offsets_grow():
    slit = slit_disk(1.0, 0.5)
    offs = estimate_epsilon_delta(build_metric_graph(slit, DISK_WINDOW, 1 / 128),
                                  0.5, 16, seed=7).fit_offsets
    assert len(offs) >= 3
    vals = [v for _, v in sorted(offs)]
    assert vals[-1] > vals[0]              # pinching inflates the offsets


def test_report_field_invariants(disk1):
    rep = classify(disk1, 0.5, 12, 1 / 128, seed=4)
    assert 0.0 < rep.epsilon_hat <= 1.0
    assert rep.ab_hat[0] >= 1.0 - 1e-9 and rep.ab_hat[1] > 0.0
    assert rep.cd_hat[0] >= 0.0 and rep.cd_hat[1] >= 0.0
    assert rep.pair_count == len(rep.pairs)


def _same_field(u, v) -> bool:
    if isinstance(u, Polyline):
        return (isinstance(v, Polyline) and np.array_equal(u.points, v.points)
                and u.qh_value == v.qh_value and u.qh_error == v.qh_error)
    if isinstance(u, np.ndarray):
        return np.array_equal(u, v)
    return u == v or (u != u and v != v)


def test_reused_pairs_keep_caps_and_leave_earlier_report_unchanged():
    slit = slit_disk(1.0, 0.5)
    first = estimate_epsilon_delta(build_metric_graph(slit, DISK_WINDOW, 1 / 64), 0.5, 6,
                                   seed=7)
    snapshot = copy.deepcopy(first.pairs)
    second = estimate_epsilon_delta(build_metric_graph(slit, DISK_WINDOW, 1 / 128), 0.5, 6,
                                    seed=7, pairs=first.pairs)
    assert any(p.kind == "adversarial" for p in first.pairs)
    for p, old in zip(first.pairs, snapshot, strict=True):
        for f in dataclasses.fields(p):
            assert _same_field(getattr(p, f.name), getattr(old, f.name)), f.name
    assert len(second.pairs) == len(first.pairs)
    for p, q in zip(first.pairs, second.pairs):
        assert q is not p
        assert np.array_equal(q.x, p.x) and np.array_equal(q.y, p.y)
        assert (q.kind, q.scale_index, q.sep) == (p.kind, p.scale_index, p.sep)
        assert q.eps_cap == p.eps_cap and q.j_xy == p.j_xy
    assert second.cap_scale_minima == first.cap_scale_minima
    # the curve evidence is measured afresh on the finer graph
    assert any(q.curve is not None and not _same_field(q.curve, p.curve)
               for p, q in zip(first.pairs, second.pairs))


def test_classify_samples_and_caps_each_pair_once(monkeypatch):
    # caps are batched, so count the rows capped rather than the calls
    calls = {"mirror": 0, "cap": 0}
    capped = []
    mirror, cap = cigar.mirror_pairs, cigar.epsilon_upper_bound

    def counted_mirror(*args, **kwargs):
        calls["mirror"] += 1
        return mirror(*args, **kwargs)

    def counted_cap(domain, x, y):
        calls["cap"] += 1
        capped.extend(tuple(np.concatenate([a, b])) for a, b in zip(x, y))
        return cap(domain, x, y)

    monkeypatch.setattr(cigar, "mirror_pairs", counted_mirror)
    monkeypatch.setattr(cigar, "epsilon_upper_bound", counted_cap)
    rep = classify(slit_disk(1.0, 0.5), 0.5, 6, 1 / 64, seed=7, window=DISK_WINDOW)
    assert any(p.kind == "adversarial" for p in rep.pairs)
    assert calls["mirror"] == 1
    assert len(capped) == rep.pair_count
    assert sorted(capped) == sorted(tuple(np.concatenate([p.x, p.y])) for p in rep.pairs)


def test_nonpositive_delta_is_rejected_before_any_graph(disk1, monkeypatch):
    def no_graph(*args, **kwargs):
        raise AssertionError("metric graph built for an invalid delta")

    graph = build_metric_graph(disk1, DISK_WINDOW, 1 / 64)
    monkeypatch.setattr(cigar, "build_metric_graph", no_graph)
    for delta in (-0.5, 0.0, math.nan):
        with pytest.raises(ValueError, match="delta must be positive"):
            estimate_epsilon_delta(graph, delta, 4, seed=0)
        with pytest.raises(ValueError, match="delta must be positive"):
            classify(disk1, delta, 4, 1 / 64, seed=0)
