"""Cigar-condition diagnostics: per-curve constants, sampled per-pair
upper estimates (caps), sampled estimates of the best (epsilon, delta) fit,
and the quasi-hyperbolic uniformity envelope.

The per-pair estimate from a fixed curve menu is only an achieved value;
negative evidence uses a cap instead: every curve joining x and y crosses
the perpendicular bisector inside the domain, and on it the clearance
condition caps epsilon by d(z) |x-y| / (|z-x| |z-y|), here maximized over
samples, so a cap is an upper estimate, not a proven bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domains import Domain
from .dyadic import EVAL_BUDGET, Window, grid_centers
from .errors import GeometryError, QuadratureError
from .qhyper import (QUAD_TOL, MetricGraph, Polyline, _curve_segments, _length_floor,
                     _refine_paths, build_metric_graph, grid_path, j_distance)

ENDPOINT_EXCLUSION = 1e-3  # arclength fraction dropped around each endpoint
SQRT2 = math.sqrt(2.0)
CURVE_SAMPLES = 1000
C_GRID = [2.0 ** k / 8.0 for k in range(11)]   # envelope slopes scanned
CAP_SLACK = 1.05            # factor on the sampled bisector maximum
MIRROR_SCALES = 10          # adversarial separations delta/8 * 2^-k
MIRROR_PER_SCALE = 48       # adversarial pairs kept per scale and round
ZOOM_ROUNDS = 2             # sweeps re-seeded around the pairs found
CURVE_SCALES = (0, 1, 2)    # adversarial scales the grid resolves
CURVES_PER_SCALE = 12       # adversarial pairs given curves per scale
KEEP_WORST = 10             # pairs listed in a report
DIVERGENCE_FLOOR = 0.1      # cap minima must end at or below this
DIVERGENCE_FACTOR = 4.0     # ... and shrink by at least this factor
OFFSET_MIN_SCALES = 3       # envelope offsets need this many scales
OFFSET_MIN_GROWTH = 2.0     # ... and must grow by at least this much
SUBPAIR_SAMPLES = 8         # vertices along a curve that form sub-pairs


def _pair(x, y) -> tuple[np.ndarray, np.ndarray, float]:
    """The endpoints as arrays and their separation, which must be positive."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    sep = float(np.hypot(*(x - y)))
    if not sep > 0:
        raise ValueError("pair must have distinct endpoints")
    return x, y, sep


def curve_constants(domain: Domain, x, y, gamma) -> tuple[float, float, float]:
    """Cigar constants (eps, a, b) one curve certifies for the pair (x, y),
    from one oracle call at arclength steps s/1000.

    eps is the min of the length factor |x-y|/s and the worst clearance
    quotient along the curve, with the endpoint fractions excluded, clamped
    to 1; a = s/|x-y| and b = the worst ratio of the shorter arclength to
    the clearance are its length-cigar constants.
    """
    x, y, sep = _pair(x, y)
    pl = gamma if isinstance(gamma, Polyline) else Polyline(np.asarray(gamma, float))
    s = pl.euclidean_length
    pts = pl.resample(CURVE_SAMPLES + 1)
    t = np.linspace(0.0, 1.0, CURVE_SAMPLES + 1)
    if np.hypot(*(pts[0] - x)) > 1e-9 * max(1.0, sep) or \
       np.hypot(*(pts[-1] - y)) > 1e-9 * max(1.0, sep):
        raise ValueError("curve does not join the given endpoints")
    sd = domain.signed_distance(pts)
    if (sd <= 0.0).any():
        raise QuadratureError("curve exits the domain")
    inner = (t > ENDPOINT_EXCLUSION) & (t < 1.0 - ENDPOINT_EXCLUSION)
    dz_x = np.hypot(pts[inner, 0] - x[0], pts[inner, 1] - x[1])
    dz_y = np.hypot(pts[inner, 0] - y[0], pts[inner, 1] - y[1])
    john = sd[inner] * sep / np.maximum(dz_x * dz_y, 1e-300)
    arc = t * s
    shorter = np.minimum(arc, s - arc)
    b = float(np.max(shorter / np.maximum(sd, 1e-300)))
    return min(1.0, sep / s, float(john.min())), s / sep, b


def epsilon_from_ab(a: float, b: float) -> float:
    """Cigar epsilon guaranteed by length-cigar constants: min(1/a, 1/(ab))."""
    if not (a > 0 and b > 0):
        raise ValueError("length-cigar constants must be positive")
    if a < 1.0 - 1e-9:
        raise ValueError("a = s/|x-y| cannot be below 1")
    a = max(a, 1.0)
    return min(1.0, 1.0 / a, 1.0 / (a * b))


def epsilon_upper_bound(domain: Domain, x, y) -> np.ndarray:
    """Caps: sampled upper estimates of the cigar epsilon of (x[i], y[i]).

    Samples each pair's perpendicular bisector (which every joining curve
    must cross inside the domain), refines around the maximum, scales it by
    CAP_SLACK and adds a Lipschitz tail bound beyond the sampled reach; a
    peak between samples can exceed the cap. A cap depends only on its own
    pair, so the pairs go through the whole zoom in blocks of
    EVAL_BUDGET // 321 (a pair's first pass samples 321 points), with one
    oracle call per step of a block; a pair's zoom stops on its own when
    its bracket closes.
    """
    x = np.asarray(x, float).reshape(-1, 2)
    y = np.asarray(y, float).reshape(-1, 2)
    sep = np.hypot(x[:, 0] - y[:, 0], x[:, 1] - y[:, 1])
    if not (sep > 0).all():
        raise ValueError("pair must have distinct endpoints")
    if not len(x):
        return np.empty(0)
    step = max(1, EVAL_BUDGET // 321)
    return np.concatenate([_block_caps(domain, x[lo:lo + step], y[lo:lo + step],
                                       sep[lo:lo + step])
                           for lo in range(0, len(x), step)])


def _block_caps(domain: Domain, x: np.ndarray, y: np.ndarray,
                sep: np.ndarray) -> np.ndarray:
    """epsilon_upper_bound of one block of pairs with separations sep."""
    sd_x, sd_y = domain.signed_distance(x), domain.signed_distance(y)
    dx = np.where(0.0 > sd_x, 0.0, sd_x)        # max(sd(x), 0.0)
    mid = 0.5 * (x + y)
    u = np.column_stack([-(y - x)[:, 1], (y - x)[:, 0]]) / sep[:, None]

    reach = np.maximum(np.maximum(256.0 * sep, 64.0 * (dx + sd_y + sep)), 8.0)
    tg = np.geomspace(sep * 1e-3, reach, 160, axis=1)
    ts = np.concatenate([-tg[:, ::-1], np.zeros((len(x), 1)), tg], axis=1)

    def quotient(rows, tvals):
        z = mid[rows, None, :] + tvals[:, :, None] * u[rows, None, :]
        sd = domain.signed_distance(z.reshape(-1, 2)).reshape(tvals.shape)
        xr, yr, sr = x[rows, None, :], y[rows, None, :], sep[rows, None]
        rx = np.hypot(z[..., 0] - xr[..., 0], z[..., 1] - xr[..., 1])
        ry = np.hypot(z[..., 0] - yr[..., 0], z[..., 1] - yr[..., 1])
        return np.where(sd > 0.0, sd * sr / np.maximum(rx * ry, 1e-300), 0.0)

    rows = np.arange(len(x))
    q = quotient(rows, ts)
    q_max = np.zeros(len(x))
    for _ in range(4):
        k, at = np.argmax(q, axis=1), np.arange(len(rows))
        lo = ts[at, np.maximum(0, k - 1)]
        hi = ts[at, np.minimum(ts.shape[1] - 1, k + 1)]
        done = hi <= lo
        q_max[rows[done]] = q[done].max(axis=1)
        rows, lo, hi, q = rows[~done], lo[~done], hi[~done], q[~done]
        if not len(rows):
            break
        ts = np.linspace(lo, hi, 65, axis=1)
        q_new = quotient(rows, ts)
        a, b = q.max(axis=1), q_new.max(axis=1)
        ts = np.column_stack([ts, ts[np.arange(len(rows)), np.argmax(q_new, axis=1)]])
        q = np.column_stack([q_new, np.where(b > a, b, a)])     # max(a, b)
    q_max[rows] = q.max(axis=1)
    # the tail with math.hypot and Python floats, as the one-pair cap had
    # it: np.hypot can differ from math.hypot in the last bit
    caps = []
    for q_top, d, sp, r in zip((q_max * CAP_SLACK).tolist(), dx.tolist(),
                               sep.tolist(), reach.tolist()):
        s_r = math.hypot(0.5 * sp, r)
        caps.append(min(1.0, max(q_top, (d + s_r) * sp / s_r ** 2)))
    return np.array(caps)


# ---------------------------------------------------------------------------
# pair sampling

@dataclass
class PairSample:
    x: np.ndarray
    y: np.ndarray
    sep: float
    kind: str                      # "uniform" or "adversarial"
    scale_index: int | None = None
    eps_curve: float | None = None
    eps_cap: float | None = None
    a: float | None = None
    b: float | None = None
    j_xy: float | None = None
    k_xy: float | None = None
    curve: Polyline | None = None
    flagged: bool = False

    @property
    def eps(self) -> float:
        vals = [v for v in (self.eps_curve, self.eps_cap) if v is not None]
        return min(vals) if vals else math.nan


@dataclass
class ClassificationReport:
    domain_label: str
    delta: float
    epsilon_hat: float
    ab_hat: tuple[float, float]
    cd_hat: tuple[float, float]
    pair_count: int
    worst_pairs: list[PairSample]
    verdict: str
    cap_scale_minima: list[tuple[int, float]] = field(default_factory=list)
    fit_offsets: list[tuple[int, float]] = field(default_factory=list)
    flagged_pairs: int = 0
    resolution: float | None = None
    seed: int | None = None
    pairs: list[PairSample] = field(default_factory=list)
    details: dict = field(default_factory=dict)


def _uniform_pairs(domain: Domain, window: Window, delta: float, n_pairs: int,
                   rng, margin: float) -> list[PairSample]:
    """Seeded pairs with separation under delta and endpoint clearance above
    `margin`."""
    out = []
    tries = 0
    o = np.asarray(window.origin)
    while len(out) < n_pairs and tries < 200 * n_pairs:
        tries += 1
        x = o + rng.uniform(0.0, window.size, size=2)
        if domain.sd(x) <= margin:
            continue
        r = float(delta * 10 ** rng.uniform(-1.2, 0.0)) * 0.95
        th = float(rng.uniform(0.0, 2.0 * math.pi))
        y = x + r * np.array([math.cos(th), math.sin(th)])
        if not window.contains_point(y) or domain.sd(y) <= margin:
            continue
        sep = float(np.hypot(*(x - y)))
        if sep >= delta or sep <= 4.0 * margin:
            continue
        out.append(PairSample(x, y, sep, "uniform"))
    return out


def _gradient(domain: Domain, pts: np.ndarray, step: float) -> np.ndarray:
    e1 = np.array([step, 0.0])
    e2 = np.array([0.0, step])
    gx = domain.signed_distance(pts + e1) - domain.signed_distance(pts - e1)
    gy = domain.signed_distance(pts + e2) - domain.signed_distance(pts - e2)
    g = np.column_stack([gx, gy]) / (2.0 * step)
    norm = np.hypot(g[:, 0], g[:, 1])
    ok = norm > 0.1
    g[ok] /= norm[ok, None]
    return np.where(ok[:, None], g, np.nan)


def _boundary_cloud(domain: Domain, seeds: np.ndarray, spacing: float):
    """March seed points onto the boundary; returns (points, inward normals)."""
    step = max(1e-6 * spacing, 1e-12)
    sd = domain.signed_distance(seeds)
    band = np.abs(sd) < 4.0 * spacing
    pts = seeds[band]
    if len(pts) == 0:
        return np.empty((0, 2)), np.empty((0, 2))
    normals = np.full_like(pts, np.nan)
    for _ in range(6):
        sd = domain.signed_distance(pts)
        g = _gradient(domain, pts, step)
        ok = np.isfinite(g[:, 0])
        fresh = ok & (np.abs(sd) > 10.0 * step)
        normals[fresh] = g[fresh]
        pts = np.where((ok & (np.abs(sd) > 1e-9 * spacing))[:, None],
                       pts - sd[:, None] * np.where(np.isfinite(g), g, 0.0), pts)
    sd = domain.signed_distance(pts)
    good = (np.abs(sd) < 0.05 * spacing) & np.isfinite(normals[:, 0])
    return pts[good], normals[good]


def _segment_exits(domain: Domain, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    t = np.linspace(0.0, 1.0, 33)[1:-1]
    pts = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
    sd = domain.signed_distance(pts.reshape(-1, 2)).reshape(len(a), -1)
    return (sd <= 0.0).any(axis=1)


def mirror_pairs(domain: Domain, window: Window, delta: float) -> list[PairSample]:
    """Adversarial close pairs facing each other across a thin boundary
    piece, produced by reflecting near-boundary points; scales shrink
    geometrically and later rounds zoom onto the regions that produced
    small caps."""
    spacing = window.size / 128.0
    seeds = grid_centers(window, 7)         # centers of the cells of side spacing
    pairs: list[PairSample] = []
    hot: list[np.ndarray] = []

    for rnd in range(ZOOM_ROUNDS + 1):
        cloud, normals = _boundary_cloud(domain, seeds, spacing)
        if len(cloud) == 0:
            break
        for k in range(MIRROR_SCALES):
            sigma = delta / 8.0 * 2.0 ** (-k)
            u = cloud + sigma * normals
            sd_u = domain.signed_distance(u)
            ok = sd_u > 0.25 * sigma
            if not ok.any():
                continue
            uu = u[ok]
            gu = _gradient(domain, uu, max(1e-6 * sigma, 1e-14))
            vv = uu - 2.0 * sd_u[ok][:, None] * gu
            fine = np.isfinite(vv[:, 0])
            sd_v = np.where(fine, domain.signed_distance(np.nan_to_num(vv)), -1.0)
            sep = np.hypot(uu[:, 0] - vv[:, 0], uu[:, 1] - vv[:, 1])
            good = fine & (sd_v > 0.0) & (sep < 0.98 * delta) & (sep > 1e-12)
            if not good.any():
                continue
            uu, vv, sep = uu[good], vv[good], sep[good]
            exits = _segment_exits(domain, uu, vv)
            uu, vv, sep = uu[exits], vv[exits], sep[exits]
            if len(uu) == 0:
                continue
            stride = max(1, len(uu) // MIRROR_PER_SCALE)
            for idx in range(0, len(uu), stride):
                pairs.append(PairSample(uu[idx].copy(), vv[idx].copy(),
                                        float(sep[idx]), "adversarial",
                                        scale_index=k))
                hot.append(0.5 * (uu[idx] + vv[idx]))
        if rnd < ZOOM_ROUNDS and hot:
            centers = np.asarray(hot)
            order = np.lexsort((centers[:, 1], centers[:, 0]))
            # keep the extremes: the ends of a thin feature are where the
            # caps pinch hardest
            reps = centers[order[np.unique(np.linspace(0, len(order) - 1, 48).astype(int))]]
            spacing = spacing / 8.0
            sub = np.linspace(-6.0, 6.0, 13) * spacing
            offs = np.stack(np.meshgrid(sub, sub, indexing="ij"), axis=-1).reshape(-1, 2)
            seeds = (reps[:, None, :] + offs[None, :, :]).reshape(-1, 2)
    return pairs


# ---------------------------------------------------------------------------
# estimators

def _measured(domain: Domain, curves: list) -> list[Polyline | None]:
    """Each curve (point array) as a Polyline carrying its qh_length to
    QUAD_TOL, or None where qh_length would raise; one segment_qh_batch
    call for all of them."""
    parts = _curve_segments(domain, curves, QUAD_TOL, [_length_floor(c) for c in curves])
    return [Polyline(c, qh_value=float(v.sum()), qh_error=float(e.sum())) if ok.all() else None
            for c, (v, e, ok) in zip(curves, parts)]


def evaluate_pair(graph: MetricGraph, pairs: list[PairSample]):
    """Curve evidence on this graph for each pair. Its menu holds the
    straight segment when it stays inside, the raw grid geodesic and its
    shortened refinement, each measured to the quadrature tolerance of
    qh_distance; the grid geodesics come from one Dijkstra solve per pair
    and are refined together, and all of them are measured in one batch.
    The menu curve with the best epsilon sets eps_curve, a, b, curve and
    k_xy; with none the pair is flagged. A straight segment that wins is
    measured then, in one batch for all pairs."""
    if not pairs:
        return pairs
    domain = graph.domain
    segs = [Polyline(np.array([p.x, p.y])) for p in pairs]
    sd = domain.signed_distance(np.concatenate([seg.resample(64) for seg in segs]))
    inside = (sd.reshape(len(pairs), 64) > 0).all(axis=1)
    menus = [[seg] if ok else [] for seg, ok in zip(segs, inside)]
    raws = {}
    for i, p in enumerate(pairs):
        try:
            raws[i] = grid_path(graph, p.x, p.y)
        except (GeometryError, ValueError):
            pass
    refined = _refine_paths(domain, list(raws.values()), graph.h)
    curves = _measured(domain, [pts for raw, ref in zip(raws.values(), refined)
                                for pts in (raw, ref)])
    for i, both in zip(raws, zip(curves[::2], curves[1::2])):
        menus[i] += [c for c in both if c is not None]
    best = []
    for p, menu in zip(pairs, menus):
        top = None
        for curve in menu:
            try:
                e, a, b = curve_constants(domain, p.x, p.y, curve)
            except (GeometryError, ValueError):
                continue
            if top is None or e > top[0]:
                top = (e, a, b, curve)
        best.append(top)
    segs = [i for i, top in enumerate(best) if top is not None and top[3].qh_value is None]
    measured = dict(zip(segs, _measured(domain, [best[i][3].points for i in segs])))
    for i, (p, top) in enumerate(zip(pairs, best)):
        if top is None:
            p.flagged = True
            continue
        p.eps_curve, p.a, p.b, p.curve = top
        curve = measured.get(i, top[3])
        p.k_xy = None if curve is None else curve.qh_value
    return pairs


def _monotone_divergence(seq: list[tuple[int, float]]) -> bool:
    """True when per-scale minima decrease monotonically (10% slack) to a
    small final value over at least four scales."""
    vals = [v for _, v in sorted(seq)]
    if len(vals) < 4:
        return False
    mono = all(vals[i + 1] <= vals[i] * 1.10 for i in range(len(vals) - 1))
    return (mono and vals[-1] <= DIVERGENCE_FLOOR
            and vals[-1] * DIVERGENCE_FACTOR <= vals[0])


def _check_sampling(delta: float, n_pairs: int):
    if not delta > 0:
        raise ValueError("delta must be positive")
    if n_pairs < 1:
        raise ValueError("need at least one pair")


def _sample_pairs(domain: Domain, window: Window, delta: float, n_pairs: int,
                  resolution: float, seed: int) -> list[PairSample]:
    """Seeded uniform pairs plus the adversarial sweep, each with its
    cap and j-distance: everything about a pair that no grid
    changes."""
    rng = np.random.default_rng(seed)
    pairs = _uniform_pairs(domain, window, delta, n_pairs, rng,
                           SQRT2 * window.size * resolution)
    pairs += mirror_pairs(domain, window, delta)
    caps = epsilon_upper_bound(domain, [p.x for p in pairs], [p.y for p in pairs])
    for p, cap in zip(pairs, caps.tolist()):
        p.eps_cap = cap
        try:
            p.j_xy = j_distance(domain, p.x, p.y)
        except ValueError:
            p.j_xy = None
    return pairs


def _evaluate_all(graph: MetricGraph, pairs: list[PairSample]):
    """Curve evidence on this graph: every uniform pair gets the curve menu,
    adversarial pairs only at the coarse grid-resolvable scales (enough for
    the envelope offsets)."""
    counts: dict[int, int] = {}
    chosen = []
    for p in pairs:
        k = p.scale_index
        if p.kind == "adversarial":
            if k not in CURVE_SCALES or counts.get(k, 0) >= CURVES_PER_SCALE:
                continue
            counts[k] = counts.get(k, 0) + 1
        chosen.append(p)
    evaluate_pair(graph, chosen)
    for p in chosen:
        if p.kind == "adversarial":
            p.flagged = False   # adversarial pairs never gate the verdict


def estimate_epsilon_delta(graph: MetricGraph, delta: float, n_pairs: int, seed: int,
                           pairs: list[PairSample] | None = None) -> ClassificationReport:
    """Sampled lower estimate of the best cigar epsilon at reach delta in
    the graph's domain and window, sampled caps from the adversarial sweep,
    and the uniformity envelope (c, d) with its per-scale offsets, fitted to
    the (j, k) points kept in details["fit_points"]. Given the `pairs` of an
    earlier report (same domain, window and delta), it copies them with
    their caps and j-distances and measures only their curve evidence on
    this graph; n_pairs and seed then go unused."""
    _check_sampling(delta, n_pairs)
    domain = graph.domain
    resolution = 2.0 ** -graph.level
    if pairs is None:
        pairs = _sample_pairs(domain, graph.window, delta, n_pairs, resolution, seed)
    else:
        pairs = [PairSample(p.x, p.y, p.sep, p.kind, p.scale_index,
                            eps_cap=p.eps_cap, j_xy=p.j_xy) for p in pairs]
    _evaluate_all(graph, pairs)

    found = [p.eps_curve for p in pairs if p.eps_curve is not None]
    eps_hat = min(found) if found else math.nan
    a_hat = max((p.a for p in pairs if p.a is not None), default=math.nan)
    b_hat = max((p.b for p in pairs if p.b is not None), default=math.nan)
    cd_hat, fit_points, fit_offsets = _uniformity_envelope(domain, pairs)

    by_scale: dict[int, float] = {}
    for p in pairs:
        if p.kind == "adversarial" and p.eps_cap is not None:
            k = p.scale_index
            by_scale[k] = min(by_scale.get(k, math.inf), p.eps_cap)
    cap_minima = sorted(by_scale.items())
    flagged = sum(1 for p in pairs if p.flagged and p.kind == "uniform")

    if _monotone_divergence(cap_minima):
        verdict = "evidence-against"
    elif flagged == 0 and found:
        verdict = "consistent-with-(eps,delta)"
    else:
        verdict = "inconclusive"

    ranked = sorted((p for p in pairs if not math.isnan(p.eps)),
                    key=lambda p: p.eps)
    return ClassificationReport(
        domain.label, delta, eps_hat, (a_hat, b_hat), cd_hat,
        len(pairs), ranked[:KEEP_WORST], verdict,
        cap_scale_minima=cap_minima, fit_offsets=fit_offsets,
        flagged_pairs=flagged, resolution=resolution, seed=seed, pairs=pairs,
        details={"fit_points": fit_points})


def _subpair_points(domain: Domain, pl: Polyline, vals, ok):
    """(j, k) observations for sub-pairs along a geodesic, where k is the
    quadrature length of the sub-curve (geodesic sub-curves are geodesics),
    from the segment values, and their validity, of the curve."""
    if not ok.all():
        return []
    pts = pl.points
    prefix = np.concatenate([[0.0], np.cumsum(vals)])
    n = len(pts)
    idx = np.unique(np.linspace(0, n - 1, SUBPAIR_SAMPLES).astype(int))
    out = []
    for ai in range(len(idx)):
        for bi in range(ai + 1, len(idx)):
            z, w = pts[idx[ai]], pts[idx[bi]]
            if np.hypot(*(z - w)) < 1e-12:
                continue
            k_val = float(prefix[idx[bi]] - prefix[idx[ai]])
            try:
                out.append((j_distance(domain, z, w), k_val))
            except ValueError:
                continue
    return out


def envelope_fit(points: list[tuple[float, float]]):
    """Smallest-area line k <= c j + d dominating the observations, with c
    scanned over a fixed geometric grid."""
    if not points:
        return math.nan, math.nan
    js = np.array([p[0] for p in points])
    ks = np.array([p[1] for p in points])
    jmax = max(float(js.max()), 1e-9)
    best = None
    for c in C_GRID:
        d = max(0.0, float(np.max(ks - c * js)))
        area = c * jmax ** 2 / 2.0 + d * jmax
        cand = (area, c, d)
        if best is None or cand < best:
            best = cand
    return best[1], best[2]


def _uniformity_envelope(domain: Domain, pairs: list[PairSample]):
    """(j, k) observations of the pairs and of sub-pairs along the uniform
    pairs' curves, the (c, d) dominating k <= c j + d over them, and the
    per-scale envelope offsets of adversarial pairs, whose growth is the
    divergence signature of a pinched geometry."""
    curves = [p.curve for p in pairs if p.kind == "uniform" and p.curve is not None]
    # the segment values of every such curve from one batch, floor 0
    parts = iter(_curve_segments(domain, [c.points for c in curves], 1e-3, [0.0] * len(curves)))
    points = []
    for p in pairs:
        if p.kind == "uniform" and p.curve is not None:
            vals, _, ok = next(parts)
            points.extend(_subpair_points(domain, p.curve, vals, ok))
        if p.j_xy is not None and p.k_xy is not None:
            points.append((p.j_xy, p.k_xy))
    c_hat, d_hat = envelope_fit(points)

    offsets: dict[int, float] = {}
    for p in pairs:
        if (p.kind == "adversarial" and p.scale_index is not None
                and p.j_xy is not None and p.k_xy is not None):
            need = p.k_xy - c_hat * p.j_xy
            k = p.scale_index
            offsets[k] = max(offsets.get(k, -math.inf), need)
    return (c_hat, d_hat), points, sorted(offsets.items())


def _offset_growth(fit_offsets: list[tuple[int, float]]) -> bool:
    vals = [v for _, v in sorted(fit_offsets) if math.isfinite(v)]
    if len(vals) < OFFSET_MIN_SCALES:
        return False
    mono = all(vals[i + 1] >= vals[i] - 0.2 for i in range(len(vals) - 1))
    return mono and vals[-1] - vals[0] >= OFFSET_MIN_GROWTH


def _rel_change(u: float, v: float) -> float:
    if not (math.isfinite(u) and math.isfinite(v)):
        return math.inf
    return abs(u - v) / max(abs(u), abs(v), 1e-12)


def classify(domain: Domain, delta: float, budget: int, resolution: float,
             seed: int, window: Window | None = None) -> ClassificationReport:
    """Run the cigar estimators at two resolutions and return a verdict.

    evidence-against requires a monotone divergence sequence (sampled
    caps shrinking scale by scale, or adversarial envelope offsets growing);
    consistent-with requires every estimator stable within 20% across the
    two resolutions with no flagged pairs; otherwise inconclusive. Both
    runs share the pairs, caps and j-distances of the coarse run; only the
    curve evidence is measured again on the fine grid.
    """
    _check_sampling(delta, budget)
    window = window or domain.default_window
    runs = []
    for res in (resolution, resolution / 2.0):
        runs.append(estimate_epsilon_delta(build_metric_graph(domain, window, res), delta,
                                           budget, seed, pairs=runs[0].pairs if runs else None))

    fine = runs[1]
    divergent = (_monotone_divergence(fine.cap_scale_minima)
                 or _offset_growth(fine.fit_offsets))
    jmed = np.median([p.j_xy for p in fine.pairs
                      if p.j_xy is not None]) if fine.pairs else 1.0
    stable = (
        _rel_change(runs[0].epsilon_hat, runs[1].epsilon_hat) <= 0.20
        and _rel_change(runs[0].ab_hat[0], runs[1].ab_hat[0]) <= 0.20
        and _rel_change(runs[0].ab_hat[1], runs[1].ab_hat[1]) <= 0.20
        and _rel_change(runs[0].cd_hat[0] * jmed + runs[0].cd_hat[1],
                        runs[1].cd_hat[0] * jmed + runs[1].cd_hat[1]) <= 0.20
    )
    flagged = runs[0].flagged_pairs + runs[1].flagged_pairs

    if divergent:
        verdict = "evidence-against"
    elif stable and flagged == 0:
        verdict = "consistent-with-(eps,delta)"
    else:
        verdict = "inconclusive"

    out = fine
    out.verdict = verdict
    out.details["coarse_run"] = {
        "epsilon_hat": runs[0].epsilon_hat, "ab_hat": runs[0].ab_hat,
        "cd_hat": runs[0].cd_hat, "resolution": runs[0].resolution,
    }
    out.details["stable"] = stable
    out.details["divergent"] = divergent
    return out
