"""Dependency-free SVG figures: cube layouts, curves, grids and the
boundary contour traced by marching squares."""

from __future__ import annotations

import numpy as np

from .domains import Domain
from .dyadic import Window


class SvgCanvas:
    def __init__(self, window: Window, px: int = 800):
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

    def circle(self, p, r_px=3.0, fill="red"):
        x, y = self._xy(p)
        self.parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r_px}" fill="{fill}"/>')

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


def boundary_segments(domain: Domain, window: Window, n: int = 256):
    """Zero-contour segments of the signed distance on an n x n sampling."""
    xs = np.linspace(window.origin[0], window.origin[0] + window.size, n + 1)
    ys = np.linspace(window.origin[1], window.origin[1] + window.size, n + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    sd = domain.signed_distance(np.column_stack([gx.ravel(), gy.ravel()]))
    sd = sd.reshape(n + 1, n + 1)
    segs = []

    def interp(pa, va, pb, vb):
        t = va / (va - vb) if va != vb else 0.5
        return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))

    for i in range(n):
        for j in range(n):
            corners = [(xs[i], ys[j]), (xs[i + 1], ys[j]),
                       (xs[i + 1], ys[j + 1]), (xs[i], ys[j + 1])]
            vals = [sd[i, j], sd[i + 1, j], sd[i + 1, j + 1], sd[i, j + 1]]
            pts = []
            for k in range(4):
                va, vb = vals[k], vals[(k + 1) % 4]
                if (va > 0) != (vb > 0):
                    pts.append(interp(corners[k], va, corners[(k + 1) % 4], vb))
            if len(pts) >= 2:
                segs.append((pts[0], pts[1]))
            if len(pts) == 4:
                segs.append((pts[2], pts[3]))
    return segs


def draw_boundary(canvas: SvgCanvas, domain: Domain, n: int = 256,
                  stroke="black", width=1.0):
    for a, b in boundary_segments(domain, canvas.window, n):
        canvas.polyline([a, b], stroke=stroke, width=width)


def render_decomposition(dec, path, px: int = 900):
    from .whitney import TAG_DOMAIN

    w = dec.window
    canvas = SvgCanvas(w, px)
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


def render_curves(domain: Domain, window: Window, curves, path, px: int = 800,
                  colors=("#c02020", "#2020c0", "#20a020", "#c0a000")):
    canvas = SvgCanvas(window, px)
    draw_boundary(canvas, domain)
    for k, pl in enumerate(curves):
        pts = pl.points if hasattr(pl, "points") else np.asarray(pl)
        canvas.polyline(pts, stroke=colors[k % len(colors)], width=1.8)
        canvas.circle(pts[0], fill="#202020")
        canvas.circle(pts[-1], fill="#202020")
    canvas.save(path)


def render_grid(gf, domain: Domain | None, path, px: int = 800,
                max_blocks: int = 256):
    """Grayscale heatmap of a grid function (downsampled for large grids)."""
    canvas = SvgCanvas(gf.window, px)
    n = gf.n_cells
    step = max(1, n // max_blocks)
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
