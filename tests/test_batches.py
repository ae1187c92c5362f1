"""Batched curve refinement and batched certified caps against the one-pair
loops they replaced.

`reference_refine_path` is the curve-shortening loop for one path and
`reference_epsilon_upper_bound` the bisector cap for one pair, as they were
before classify handled its pairs in batches. The batched calls must agree
with them bit for bit on every path and every pair.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bmoext import cusp, disk, l_shape, polygon, qhyper, slit_disk
from bmoext.cigar import (CAP_SLACK, SQRT2, _measured, _uniform_pairs, epsilon_upper_bound,
                          mirror_pairs)
from bmoext.errors import QuadratureError
from bmoext.qhyper import (QUAD_TOL, REFINE_ROUNDS, REFINE_RTOL, _SD_FLOOR_FRAC,
                           _curve_segments, _panel_cost, _refine_paths, build_metric_graph,
                           grid_path, qh_length, segment_qh_batch)


def reference_refine_path(domain, pts, h):
    """One path's refinement; returns the path and the rounds it ran."""
    pts = np.array(pts, dtype=float)
    scale = max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1]), h)
    floor = _SD_FLOOR_FRAC * scale

    def total(p):
        v, ok = _panel_cost(domain, p[:-1], p[1:], floor=floor)
        return math.inf if not ok.all() else float(v.sum())

    def split_long(p, max_len):
        d = np.hypot(*(p[1:] - p[:-1]).T)
        if (d <= max_len).all():
            return p
        out = [p[0]]
        for k in range(len(p) - 1):
            if d[k] > max_len:
                m = int(math.ceil(d[k] / max_len))
                for t in range(1, m):
                    out.append(p[k] + (p[k + 1] - p[k]) * (t / m))
            out.append(p[k + 1])
        return np.asarray(out)

    pts = split_long(pts, 2.0 * h)
    prev = total(pts)
    rounds = 0
    for _ in range(REFINE_ROUNDS):
        rounds += 1
        for parity in (1, 0):
            idx = np.arange(1, len(pts) - 1)
            idx = idx[idx % 2 == parity]
            if idx.size == 0:
                continue
            p_prev = pts[idx - 1]
            p_next = pts[idx + 1]
            cur = pts[idx]
            mid = 0.5 * (p_prev + p_next)
            chord = p_next - p_prev
            clen = np.hypot(chord[:, 0], chord[:, 1])
            nrm = np.column_stack([-chord[:, 1], chord[:, 0]])
            nrm /= np.maximum(clen, 1e-300)[:, None]
            amp = np.maximum(0.5 * clen, 0.25 * h)[:, None]
            cands = np.stack([
                cur,
                mid,
                mid + 0.25 * amp * nrm,
                mid - 0.25 * amp * nrm,
                mid + 0.5 * amp * nrm,
                mid - 0.5 * amp * nrm,
                cur + 0.25 * amp * nrm,
                cur - 0.25 * amp * nrm,
            ])
            k_c, m_c, _ = cands.shape
            a = np.broadcast_to(p_prev, (k_c, m_c, 2)).reshape(-1, 2)
            b = cands.reshape(-1, 2)
            c = np.broadcast_to(p_next, (k_c, m_c, 2)).reshape(-1, 2)
            v1, ok1 = _panel_cost(domain, a, b, floor=floor)
            v2, ok2 = _panel_cost(domain, b, c, floor=floor)
            cost = np.where(ok1 & ok2, v1 + v2, np.inf).reshape(k_c, m_c)
            best = np.argmin(cost, axis=0)
            pts[idx] = cands[best, np.arange(m_c)]
        pts = split_long(pts, 2.0 * h)
        cur_total = total(pts)
        if not math.isfinite(cur_total) and not math.isfinite(prev):
            break
        if prev - cur_total <= REFINE_RTOL * max(abs(cur_total), 1e-12):
            break
        prev = cur_total
    return pts, rounds


def reference_epsilon_upper_bound(domain, x, y):
    """One pair's cap; returns the cap and the zoom rounds it ran."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    sep = float(np.hypot(*(x - y)))
    dx = max(domain.sd(x), 0.0)
    mid = 0.5 * (x + y)
    u = np.array([-(y - x)[1], (y - x)[0]]) / sep

    reach = max(256.0 * sep, 64.0 * (dx + domain.sd(y) + sep), 8.0)
    tg = np.geomspace(sep * 1e-3, reach, 160)
    ts = np.concatenate([-tg[::-1], [0.0], tg])

    def quotient(tvals):
        z = mid[None, :] + tvals[:, None] * u[None, :]
        sd = domain.signed_distance(z)
        rx = np.hypot(z[:, 0] - x[0], z[:, 1] - x[1])
        ry = np.hypot(z[:, 0] - y[0], z[:, 1] - y[1])
        return np.where(sd > 0.0, sd * sep / np.maximum(rx * ry, 1e-300), 0.0)

    q = quotient(ts)
    rounds = 0
    for _ in range(4):
        k = int(np.argmax(q))
        lo = ts[max(0, k - 1)]
        hi = ts[min(len(ts) - 1, k + 1)]
        if hi <= lo:
            break
        rounds += 1
        ts = np.linspace(lo, hi, 65)
        q_new = quotient(ts)
        best = max(float(q.max()), float(q_new.max()))
        ts = np.concatenate([ts, [ts[int(np.argmax(q_new))]]])
        q = np.concatenate([q_new, [best]])
    s_r = math.hypot(0.5 * sep, reach)
    tail = (dx + s_r) * sep / s_r ** 2
    return min(1.0, max(float(q.max()) * CAP_SLACK, tail)), rounds


DOMAINS = {"l_shape": l_shape(), "slit_disk": slit_disk(1.0, 0.5),
           "cusp(4)": cusp(4.0), "disk": disk(1.0),
           "square_hole": polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)],
                                  holes=[[(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)]])}
_GRAPHS = {}


def _graph(name):
    if name not in _GRAPHS:
        dom = DOMAINS[name]
        _GRAPHS[name] = build_metric_graph(dom, dom.default_window, 1 / 32)
    return _GRAPHS[name]


def _inside_point(dom, rng):
    w = dom.default_window
    while True:
        p = np.asarray(w.origin) + rng.uniform(0.0, w.size, size=2)
        if dom.sd(p) > 2.0 * w.size / 32:
            return p


# paths of the disk that stop in round 1 (two points; three collinear ones)
# and one that runs every round: a fine zigzag far from the geodesic
H_DISK = 2.5 / 128
STOP_AT_ONCE = [np.array([[-0.3, 0.1], [0.4, -0.2]]),
                np.array([[-0.1, 0.0], [0.0, 0.0], [0.1, 0.0]])]
_T = np.linspace(0.0, math.pi, 60)
ALL_ROUNDS = np.column_stack([-0.8 * np.cos(_T), 0.7 * np.sin(_T)
                              + 0.02 * (-1.0) ** np.arange(60)])


def test_fixed_paths_stop_where_intended():
    dom = DOMAINS["disk"]
    assert [reference_refine_path(dom, p, H_DISK)[1] for p in STOP_AT_ONCE] == [1, 1]
    assert reference_refine_path(dom, ALL_ROUNDS, H_DISK)[1] == REFINE_ROUNDS


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(DOMAINS)), st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from(["grid", "segment", "jitter"]), min_size=1, max_size=5))
@example("cusp(4)", 5, ["grid", "jitter", "grid", "segment"])
@example("square_hole", 6, ["grid", "jitter", "jitter", "grid"])
def test_refine_paths_match_one_path_loop(name, seed, kinds):
    dom, graph = DOMAINS[name], _graph(name)
    rng = np.random.default_rng(seed)
    paths = []
    for kind in kinds:
        x, y = _inside_point(dom, rng), _inside_point(dom, rng)
        raw = grid_path(graph, x, y)
        if kind == "segment":
            raw = raw[[0, -1]]
        elif kind == "jitter" and len(raw) > 2:
            raw = raw.copy()
            raw[1:-1] += rng.normal(scale=0.2 * graph.h, size=raw[1:-1].shape)
        paths.append(raw)
    if name == "disk":
        paths += STOP_AT_ONCE + [ALL_ROUNDS]
    h = H_DISK if name == "disk" else graph.h
    got = _refine_paths(dom, paths, h)
    assert len(got) == len(paths)
    for p, g in zip(paths, got):
        assert np.array_equal(g, reference_refine_path(dom, p, h)[0])


def test_refine_paths_split_mid_run_match_one_path_loop(monkeypatch):
    # chords of the disk near its boundary with vertices 1.9 h apart: moving
    # a vertex inward stretches its segments past 2 h, so _split_long cuts
    # them after a round; with them, grid paths of the cusp and the square
    # with a hole
    dom = DOMAINS["disk"]
    chords = []
    for y in (0.8, 0.88, 0.93):
        n = int(0.8 / (1.9 * H_DISK)) + 1
        chords.append(np.column_stack([np.linspace(-0.4, 0.4, n), np.full(n, y)]))
    cuts = []
    split_long = qhyper._split_long

    def spy(p, owners, max_len):
        out, owners, src = split_long(p, owners, max_len)
        cuts.append(int((src < 0).sum()))
        return out, owners, src

    monkeypatch.setattr(qhyper, "_split_long", spy)
    got = _refine_paths(dom, chords, H_DISK)
    # the first call splits all the inputs; later ones run mid-run
    assert sum(cuts[1:]) > 0
    for p, g in zip(chords, got):
        assert np.array_equal(g, reference_refine_path(dom, p, H_DISK)[0])
    for name in ("cusp(4)", "square_hole"):
        dom, graph = DOMAINS[name], _graph(name)
        rng = np.random.default_rng(7)
        paths = [grid_path(graph, _inside_point(dom, rng), _inside_point(dom, rng))
                 for _ in range(4)]
        for p, g in zip(paths, _refine_paths(dom, paths, graph.h)):
            assert np.array_equal(g, reference_refine_path(dom, p, graph.h)[0])


def _menu_curves(name):
    """Raw and refined grid paths of random pairs, a straight segment that
    crosses the boundary, and a curve that stops at one point outside."""
    dom, graph = DOMAINS[name], _graph(name)
    rng = np.random.default_rng(9)
    raws = [grid_path(graph, _inside_point(dom, rng), _inside_point(dom, rng)) for _ in range(6)]
    w = dom.default_window
    corner = np.asarray(w.origin)
    return raws + _refine_paths(dom, raws, graph.h) + [
        np.array([raws[0][0], corner + w.size]), np.array([corner, corner])]


@pytest.mark.parametrize("name", ["cusp(4)", "square_hole", "l_shape"])
def test_batched_menu_lengths_match_qh_length(name):
    dom = DOMAINS[name]
    curves = _menu_curves(name)
    got = _measured(dom, curves)
    failed = 0
    for c, pl in zip(curves, got):
        try:
            want = qh_length(dom, c, tol=QUAD_TOL)
        except QuadratureError:
            assert pl is None
            failed += 1
            continue
        assert (pl.qh_value, pl.qh_error) == want
        assert np.array_equal(pl.points, c)
    assert failed >= 2
    # the sub-pair batch: floor 0, rtol 1e-3, per-curve arrays
    for c, (v, e, ok) in zip(curves, _curve_segments(dom, curves, 1e-3, [0.0] * len(curves))):
        want = segment_qh_batch(dom, c[:-1], c[1:], rtol=1e-3)
        for w_, g_ in zip(want, (v, e, ok)):
            assert np.array_equal(w_, g_)


def test_refine_paths_leave_inputs_alone():
    dom = DOMAINS["disk"]
    before = ALL_ROUNDS.copy()
    _refine_paths(dom, [ALL_ROUNDS], H_DISK)
    assert np.array_equal(ALL_ROUNDS, before)
    assert _refine_paths(dom, [], H_DISK) == []


def _cap_pairs():
    rng = np.random.default_rng(3)
    out = []
    for name, dom in DOMAINS.items():
        w = dom.default_window
        pairs = _uniform_pairs(dom, w, 0.5, 12, rng, SQRT2 * w.size / 64)
        out += [(name, p.x, p.y) for p in pairs]
    slit = DOMAINS["slit_disk"]
    mirrored = mirror_pairs(slit, slit.default_window, 0.5)
    out += [("slit_disk", p.x, p.y) for p in mirrored[::4]]
    return out


def test_batched_caps_match_one_pair_loop():
    pairs = _cap_pairs()
    early = 0
    for name in DOMAINS:
        rows = [(x, y) for n, x, y in pairs if n == name]
        got = epsilon_upper_bound(DOMAINS[name], [x for x, _ in rows], [y for _, y in rows])
        assert got.shape == (len(rows),)
        for (x, y), cap in zip(rows, got.tolist()):
            want, rounds = reference_epsilon_upper_bound(DOMAINS[name], x, y)
            assert cap == want
            early += rounds < 4
    assert any(n == "slit_disk" for n, _, _ in pairs[-5:])
    assert early > 0            # some zooms stop when their bracket closes


def test_batched_caps_reject_a_degenerate_pair():
    with pytest.raises(ValueError):
        epsilon_upper_bound(DOMAINS["disk"], [(0.1, 0.2), (0.3, 0.3)], [(0.2, 0.2), (0.3, 0.3)])
    assert epsilon_upper_bound(DOMAINS["disk"], np.empty((0, 2)), np.empty((0, 2))).size == 0
