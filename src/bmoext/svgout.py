"""Dependency-free SVG figures: cube layouts, curves, grids and the
boundary contour traced by marching squares."""

from __future__ import annotations

import numpy as np

from .domains import Domain
from .dyadic import Window

FIGURE_PX = 800                 # side of a curve or heatmap figure
DECOMPOSITION_PX = 900          # side of a cube-layout figure
MARKER_PX = 3.0                 # radius of a curve endpoint marker
BOUNDARY_SAMPLES = 256          # marching-squares cells per window side
HEATMAP_BLOCKS = 256            # heatmap blocks per side at most
CURVE_COLORS = ("#c02020", "#2020c0", "#20a020", "#c0a000")


class SvgCanvas:
    def __init__(self, window: Window, px: int = FIGURE_PX):
        self.window = window
        self.px = px
        self.parts: list[str] = []

    def _xy(self, p):
        s = self.px / self.window.size
        x = (p[0] - self.window.origin[0]) * s
        y = self.px - (p[1] - self.window.origin[1]) * s
        return x, y

    def rect(self, lower, side, fill, stroke="none", opacity=1.0, stroke_width=0.5):
        x, y = self._xy((lower[0], lower[1] + side))
        w = side * self.px / self.window.size
        self.parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{w:.2f}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="{stroke_width}" '
            f'fill-opacity="{opacity}"/>')

    def polyline(self, pts, stroke="black", width=1.5):
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in (self._xy(p) for p in pts))
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"/>')

    def circle(self, p, fill="red"):
        x, y = self._xy(p)
        self.parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{MARKER_PX}" fill="{fill}"/>')

    def save(self, path):
        body = "\n".join(self.parts)
        defs = ('<defs><pattern id="hatch" width="6" height="6" '
                'patternUnits="userSpaceOnUse" patternTransform="rotate(45)">'
                '<line x1="0" y1="0" x2="0" y2="6" stroke="#808080" '
                'stroke-width="1.2"/></pattern></defs>')
        with open(path, "w") as fh:
            fh.write(
                f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.px}" '
                f'height="{self.px}" viewBox="0 0 {self.px} {self.px}">\n{defs}\n'
                f'<rect width="100%" height="100%" fill="white"/>\n{body}\n</svg>\n')


# corner offsets of a cell in the order its edges are walked: edge k runs
# from corner k to corner k + 1
_CORNERS = np.array([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])


def boundary_segments(domain: Domain, window: Window):
    """Zero-contour segments of the signed distance on an n x n sampling,
    n = BOUNDARY_SAMPLES.

    Cells are taken in (i, j) order and a cell's edges in corner order; a
    cell with two sign changes gives one segment, a saddle with four gives
    two, joining its crossings in that order."""
    n = BOUNDARY_SAMPLES
    xs = np.linspace(window.origin[0], window.origin[0] + window.size, n + 1)
    ys = np.linspace(window.origin[1], window.origin[1] + window.size, n + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    sd = domain.signed_distance(np.column_stack([gx.ravel(), gy.ravel()]))
    sd = sd.reshape(n + 1, n + 1)
    pos = sd > 0
    corner = [pos[di:n + di, dj:n + dj] for di, dj in _CORNERS]
    i, j, k = np.nonzero(np.stack([corner[e] != corner[e + 1] for e in range(4)], axis=-1))
    ia, ja = i + _CORNERS[k, 0], j + _CORNERS[k, 1]
    ib, jb = i + _CORNERS[k + 1, 0], j + _CORNERS[k + 1, 1]
    va, vb = sd[ia, ja], sd[ib, jb]
    t = va / (va - vb)          # a sign change implies va != vb
    x = xs[ia] + t * (xs[ib] - xs[ia])
    y = ys[ja] + t * (ys[jb] - ys[ja])
    return [((x0, y0), (x1, y1)) for x0, y0, x1, y1
            in np.column_stack([x, y]).reshape(-1, 4).tolist()]


def draw_boundary(canvas: SvgCanvas, domain: Domain):
    for a, b in boundary_segments(domain, canvas.window):
        canvas.polyline([a, b], stroke="black", width=1.0)


def render_decomposition(dec, path):
    from .whitney import TAG_DOMAIN

    w = dec.window
    canvas = SvgCanvas(w, DECOMPOSITION_PX)
    for tag, level, i, j, _, _ in dec.cubes.tolist():
        side = w.cell_size(level)
        lower = (w.origin[0] + i * side, w.origin[1] + j * side)
        fill = "#7fbf7f" if tag == TAG_DOMAIN else "#7f9fff"
        canvas.rect(lower, side, fill, stroke="#404040", opacity=0.8,
                    stroke_width=0.3)
    side = w.cell_size(dec.max_depth)
    for _, i, j in dec.frontier.tolist():
        lower = (w.origin[0] + i * side, w.origin[1] + j * side)
        canvas.rect(lower, side, "url(#hatch)", opacity=0.9)
    draw_boundary(canvas, dec.domain)
    canvas.save(path)


def render_curves(domain: Domain, window: Window, curves, path):
    canvas = SvgCanvas(window)
    draw_boundary(canvas, domain)
    for k, pl in enumerate(curves):
        pts = pl.points if hasattr(pl, "points") else np.asarray(pl)
        canvas.polyline(pts, stroke=CURVE_COLORS[k % len(CURVE_COLORS)], width=1.8)
        canvas.circle(pts[0], fill="#202020")
        canvas.circle(pts[-1], fill="#202020")
    canvas.save(path)


def render_grid(gf, domain: Domain | None, path):
    """Grayscale heatmap of a grid function (downsampled for large grids)."""
    canvas = SvgCanvas(gf.window)
    n = gf.n_cells
    step = max(1, n // HEATMAP_BLOCKS)
    vals = gf.values
    finite = np.isfinite(vals)
    if finite.any():
        lo, hi = np.nanpercentile(vals[finite], [2, 98])
    else:
        lo, hi = 0.0, 1.0
    span = max(hi - lo, 1e-12)
    for i in range(0, n, step):
        for j in range(0, n, step):
            blk = vals[i:i + step, j:j + step]
            ok = np.isfinite(blk)
            if not ok.any():
                continue
            v = float(blk[ok].mean())
            g = int(round(255 * min(max((v - lo) / span, 0.0), 1.0)))
            side = gf.h * step
            lower = (gf.window.origin[0] + i * gf.h, gf.window.origin[1] + j * gf.h)
            canvas.rect(lower, side, f"rgb({g},{128 + g // 2},{255 - g})")
    if domain is not None:
        draw_boundary(canvas, domain)
    canvas.save(path)
