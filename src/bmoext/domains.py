"""Planar domains given by vectorized signed-distance oracles.

Sign convention: positive inside the open set, negative in the interior of
the complement, zero on the boundary. Every oracle accepts an (M, 2) array
of points and returns an (M,) array; all built-ins are exact distances and
therefore 1-Lipschitz.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dyadic import Window
from .errors import PolygonError


@dataclass(frozen=True)
class Domain:
    """An open planar set reachable only through its signed distance."""

    sd_func: object
    bounding_box: tuple[float, float, float, float]  # (x0, y0, x1, y1)
    label: str
    default_window: Window | None = None
    features: dict = field(default_factory=dict)

    def signed_distance(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.sd_func(pts)

    def sd(self, p) -> float:
        return float(self.signed_distance(np.asarray(p, dtype=float).reshape(1, 2))[0])

    def inside(self, p) -> bool:
        return self.sd(p) > 0.0

    def window_inside_bbox(self, window: Window) -> bool:
        x0, y0, x1, y1 = self.bounding_box
        wx, wy = window.origin
        return x0 <= wx and y0 <= wy and wx + window.size <= x1 and wy + window.size <= y1


def distance_to_boundary(domain: Domain, p) -> float:
    """Unsigned distance to the boundary, valid inside and outside."""
    return abs(domain.sd(p))


@dataclass(frozen=True)
class DomainSpec:
    shape: str
    params: tuple = ()
    outer: tuple | None = None   # polygon vertex loop, ((x, y), ...)
    holes: tuple = ()            # hole loops


# ---------------------------------------------------------------------------
# shape constructors

def half_plane() -> Domain:
    def sd(pts):
        return pts[:, 1].astype(float)

    big = 1024.0
    return Domain(sd, (-big, -big, big, big), "half_plane",
                  default_window=Window((-2.0, -2.0), 4.0))


def disk(r: float = 1.0) -> Domain:
    if not r > 0:
        raise ValueError("disk radius must be positive")

    def sd(pts):
        return r - np.hypot(pts[:, 0], pts[:, 1])

    m = 1.25 * r
    return Domain(sd, (-2 * r, -2 * r, 2 * r, 2 * r), f"disk({r:g})",
                  default_window=Window((-m, -m), 2 * m))


def square(s: float = 2.0) -> Domain:
    """Axis-parallel open square (-s/2, s/2)^2."""
    if not s > 0:
        raise ValueError("square side must be positive")
    b = s / 2.0

    def sd(pts):
        dx = np.abs(pts[:, 0]) - b
        dy = np.abs(pts[:, 1]) - b
        outside = np.hypot(np.maximum(dx, 0.0), np.maximum(dy, 0.0))
        inside = np.minimum(np.maximum(dx, dy), 0.0)
        return -(outside + inside)

    m = 0.75 * s
    return Domain(sd, (-s, -s, s, s), f"square({s:g})",
                  default_window=Window((-m, -m), 2 * m))


def _segment_distances(pts: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray,
                       chunk: int = 1 << 16) -> np.ndarray:
    """Min distance from each point to a set of segments; chunked over points."""
    out = np.empty(len(pts))
    ab = seg_b - seg_a                       # (M, 2)
    den = np.maximum(np.einsum("md,md->m", ab, ab), 1e-300)
    for lo in range(0, len(pts), chunk):
        p = pts[lo:lo + chunk]               # (P, 2)
        ap = p[:, None, :] - seg_a[None, :, :]        # (P, M, 2)
        t = np.clip(np.einsum("pmd,md->pm", ap, ab) / den, 0.0, 1.0)
        close = seg_a[None, :, :] + t[:, :, None] * ab[None, :, :]
        d = np.hypot(p[:, None, 0] - close[:, :, 0], p[:, None, 1] - close[:, :, 1])
        out[lo:lo + chunk] = d.min(axis=1)
    return out


def _crossings_parity(pts: np.ndarray, loops: list[np.ndarray],
                      chunk: int = 1 << 16) -> np.ndarray:
    """Even-odd point-in-polygon over all loops (holes flip parity)."""
    inside = np.zeros(len(pts), dtype=bool)
    for lo in range(0, len(pts), chunk):
        p = pts[lo:lo + chunk]
        cnt = np.zeros(len(p), dtype=np.int64)
        for loop in loops:
            a = loop
            b = np.roll(loop, -1, axis=0)
            ya, yb = a[None, :, 1], b[None, :, 1]
            py = p[:, 1:2]
            cond = (ya <= py) != (yb <= py)
            # x of edge at height py, guarded where cond is false
            with np.errstate(divide="ignore", invalid="ignore"):
                xs = a[None, :, 0] + (py - ya) * (b[None, :, 0] - a[None, :, 0]) / (yb - ya)
            cnt += np.sum(cond & (xs > p[:, 0:1]), axis=1)
        inside[lo:lo + chunk] = (cnt % 2) == 1
    return inside


def _segments_properly_intersect(a1, a2, b1, b2) -> bool:
    def orient(p, q, r):
        v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return 0 if abs(v) < 1e-15 else (1 if v > 0 else -1)

    o1, o2 = orient(a1, a2, b1), orient(a1, a2, b2)
    o3, o4 = orient(b1, b2, a1), orient(b1, b2, a2)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def _validate_loop(loop: np.ndarray, name: str):
    m = len(loop)
    if m < 3:
        raise PolygonError(f"{name}: needs at least 3 vertices, got {m}")
    segs = [(loop[i], loop[(i + 1) % m]) for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if j == i + 1 or (i == 0 and j == m - 1):
                continue  # consecutive edges share an endpoint
            if _segments_properly_intersect(*segs[i], *segs[j]):
                raise PolygonError(
                    f"{name}: edges {i} and {j} intersect (self-intersecting loop)")


def polygon(outer, holes=(), label: str = "polygon") -> Domain:
    """Simple polygon with optional holes; exact distance to the boundary
    polyline, signed by even-odd parity."""
    loops = [np.asarray(outer, dtype=float)]
    _validate_loop(loops[0], "outer loop")
    for k, h in enumerate(holes):
        hv = np.asarray(h, dtype=float)
        _validate_loop(hv, f"hole {k}")
        if not _crossings_parity(hv, [loops[0]]).all():
            raise PolygonError(f"hole {k} is not inside the outer loop")
        loops.append(hv)

    seg_a = np.concatenate([lp for lp in loops])
    seg_b = np.concatenate([np.roll(lp, -1, axis=0) for lp in loops])

    def sd(pts):
        d = _segment_distances(pts, seg_a, seg_b)
        sign = np.where(_crossings_parity(pts, loops), 1.0, -1.0)
        return sign * d

    allv = np.concatenate(loops)
    x0, y0 = allv.min(axis=0)
    x1, y1 = allv.max(axis=0)
    m = 0.5 * max(x1 - x0, y1 - y0)
    side = max(x1 - x0, y1 - y0) * 1.5
    cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
    win = Window((cx - side / 2, cy - side / 2), side)
    return Domain(sd, (x0 - 2 * m, y0 - 2 * m, x1 + 2 * m, y1 + 2 * m),
                  label, default_window=win)


def l_shape(w: float = 2.0, h: float = 2.0) -> Domain:
    """L-shaped hexagon: the rectangle [0,w]x[0,h] minus its top-right quadrant."""
    if not (w > 0 and h > 0):
        raise ValueError("l_shape arm lengths must be positive")
    verts = [(0, 0), (w, 0), (w, h / 2), (w / 2, h / 2), (w / 2, h), (0, h)]
    dom = polygon(verts, label=f"l_shape({w:g},{h:g})")
    return Domain(dom.sd_func, dom.bounding_box, dom.label,
                  default_window=dom.default_window,
                  features={"reflex_corner": (w / 2, h / 2)})


def slit_disk(r: float = 1.0, slit: float = 0.5) -> Domain:
    """Open disk of radius r minus the radial slit from (r-slit, 0) to (r, 0)."""
    if not (r > 0 and 0 < slit < r):
        raise ValueError("need r > 0 and 0 < slit < r")
    tip = r - slit

    def sd(pts):
        circ = r - np.hypot(pts[:, 0], pts[:, 1])
        t = np.clip(pts[:, 0], tip, r)
        seg = np.hypot(pts[:, 0] - t, pts[:, 1])
        return np.where(circ > 0.0, np.minimum(circ, seg), circ)

    m = 1.25 * r
    return Domain(sd, (-2 * r, -2 * r, 2 * r, 2 * r), f"slit_disk({r:g},{slit:g})",
                  default_window=Window((-m, -m), 2 * m),
                  features={"slit_tip": (tip, 0.0), "slit_end": (r, 0.0)})


def cusp(p: float = 2.0, n_side: int = 160) -> Domain:
    """Outward power cusp {0 < x < 1, |y| < x^p}, realized as a polygon whose
    walls sample y = +-x^p geometrically toward the tip."""
    if not p > 1:
        raise ValueError("cusp exponent must be > 1")
    xs = np.geomspace(1e-3, 1.0, n_side)
    lower = [(0.0, 0.0)] + [(x, -x ** p) for x in xs]
    upper = [(x, x ** p) for x in xs[::-1]]
    dom = polygon(lower + upper, label=f"cusp({p:g})")
    return Domain(dom.sd_func, dom.bounding_box, dom.label,
                  default_window=Window((-0.25, -1.0), 2.0),
                  features={"cusp_tip": (0.0, 0.0)})


def intro_lipschitz() -> Domain:
    """The strip-plus-wedge {(x, y): 0 < y < max(1, 1 - x)}."""

    def sd(pts):
        x, y = pts[:, 0], pts[:, 1]
        d_bottom = np.abs(y)
        # distance to the horizontal ray {(t, 1): t >= 0}
        d_flat = np.where(x >= 0.0, np.abs(y - 1.0), np.hypot(x, y - 1.0))
        # distance to the slanted ray {(t, 1 - t): t <= 0}
        tproj = np.minimum((x - y + 1.0) / 2.0, 0.0)
        d_slant = np.hypot(x - tproj, y - (1.0 - tproj))
        d = np.minimum(d_bottom, np.minimum(d_flat, d_slant))
        inside = (y > 0.0) & (y < np.maximum(1.0, 1.0 - x))
        return np.where(inside, d, -d)

    big = 1024.0
    return Domain(sd, (-big, -big, big, big), "intro_lipschitz",
                  default_window=Window((-4.0, -3.0), 8.0),
                  features={"reflex_corner": (0.0, 1.0)})


_BUILDERS = {
    "half_plane": (half_plane, 0),
    "disk": (disk, 1),
    "square": (square, 1),
    "l_shape": (l_shape, 2),
    "slit_disk": (slit_disk, 2),
    "cusp": (cusp, 1),
    "intro_lipschitz": (intro_lipschitz, 0),
}


def make_domain(spec: DomainSpec) -> Domain:
    """Build a Domain from a DomainSpec; rejects invalid parameters."""
    if spec.shape == "polygon":
        if spec.outer is None:
            raise PolygonError("polygon spec requires an outer vertex loop")
        return polygon(spec.outer, spec.holes)
    if spec.shape not in _BUILDERS:
        raise ValueError(f"unknown domain shape {spec.shape!r}")
    builder, max_args = _BUILDERS[spec.shape]
    if len(spec.params) > max_args:
        raise ValueError(f"{spec.shape} takes at most {max_args} parameters")
    return builder(*spec.params)


# ---------------------------------------------------------------------------
# textual domain specs: "disk:1", "slit_disk:1,0.5", or a key/value file

def parse_domain_arg(text: str) -> Domain:
    """Parse "<builtin>[:p1,p2,...]" into a Domain."""
    name, _, args = text.partition(":")
    params = tuple(float(a) for a in args.split(",") if a.strip()) if args else ()
    return make_domain(DomainSpec(name.strip(), params))


def parse_domain_file(text: str) -> Domain:
    """Key/value domain file.

    Grammar (one statement per line, '#' starts a comment):
        shape: <name>
        params: p1 p2 ...
        outer: x1 y1 x2 y2 ...
        hole: x1 y1 x2 y2 ...      (repeatable)
    """
    shape = None
    params: tuple = ()
    outer = None
    holes = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, val = line.partition(":")
        key = key.strip().lower()
        if key == "shape":
            shape = val.strip()
        elif key == "params":
            params = tuple(float(v) for v in val.split())
        elif key in ("outer", "hole"):
            nums = [float(v) for v in val.split()]
            if len(nums) % 2 != 0:
                raise PolygonError(f"{key} list needs an even number of coordinates")
            loop = tuple(zip(nums[0::2], nums[1::2]))
            if key == "outer":
                outer = loop
            else:
                holes.append(loop)
        else:
            raise ValueError(f"unknown domain-file key {key!r}")
    if shape is None:
        raise ValueError("domain file must set 'shape'")
    return make_domain(DomainSpec(shape, params, outer=outer, holes=tuple(holes)))
