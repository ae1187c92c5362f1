"""Dependency-free SVG figures: cube layouts, curves, grids and the
boundary contour traced by marching squares."""

from __future__ import annotations

import os
import shutil

import numpy as np

from .domains import Domain
from .dyadic import EVAL_BUDGET, Window
from .whitney import TAG_DOMAIN

FIGURE_PX = 800                 # side of a curve or heatmap figure
DECOMPOSITION_PX = 900          # side of a cube-layout figure
MARKER_PX = 3.0                 # radius of a curve endpoint marker
BOUNDARY_SAMPLES = 256          # marching-squares cells per window side
HEATMAP_BLOCKS = 256            # heatmap blocks per side at most
CURVE_COLORS = ("#c02020", "#2020c0", "#20a020", "#c0a000")
SQUARE_FIELDS = 5               # printed fields of a square: x, y, width, height, fill


class _Parts:
    """The open document's body: `append` writes a part to the file at once,
    after a newline unless it is the first."""

    def __init__(self, fh):
        self.fh = fh
        self.empty = True

    def append(self, part: str):
        if not self.empty:
            self.fh.write("\n")
        self.fh.write(part)
        self.empty = False


class SvgCanvas:
    """An SVG document written to its file as it is drawn: the header when
    the canvas opens, each part when it is made, the closing tag when `save`
    closes the file. The text goes to the target's name plus ".part", and
    `save` renames it into place. Used as a context manager, the canvas
    saves itself on a clean exit and removes its file when drawing raises,
    so a failed figure leaves no file behind."""

    def __init__(self, window: Window, px: int = FIGURE_PX, *, path):
        self.window = window
        self.px = px
        self.path = path
        self._file = f"{path}.part"
        fh = open(self._file, "w")
        defs = ('<defs><pattern id="hatch" width="6" height="6" '
                'patternUnits="userSpaceOnUse" patternTransform="rotate(45)">'
                '<line x1="0" y1="0" x2="0" y2="6" stroke="#808080" '
                'stroke-width="1.2"/></pattern></defs>')
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{px}" '
                 f'height="{px}" viewBox="0 0 {px} {px}">\n{defs}\n'
                 f'<rect width="100%" height="100%" fill="white"/>\n')
        self.parts = _Parts(fh)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.save()
        else:
            self.parts.fh.close()
            os.remove(self._file)

    def _xy(self, p):
        s = self.px / self.window.size
        x = (p[0] - self.window.origin[0]) * s
        y = self.px - (p[1] - self.window.origin[1]) * s
        return x, y

    def rects(self, x0, y0, side, fill, stroke="none", opacity=1.0, stroke_width=0.5):
        """Squares with lower-left corners (x0, y0) and sides `side`, given
        as arrays or scalars; `fill` is one color or one per square. The
        pixel coordinates are the float expressions of `_xy`, in its order,
        so they print the same digits as a point-by-point mapping. A pass
        prints EVAL_BUDGET fields, EVAL_BUDGET // SQUARE_FIELDS squares."""
        x0, y0, side = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x0, y0, side)))
        fill = np.broadcast_to(np.asarray(fill), x0.shape)
        s = self.px / self.window.size
        tail = f'stroke="{stroke}" stroke-width="{stroke_width}" fill-opacity="{opacity}"/>'
        template = ('<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" '
                    + tail.replace("%", "%%"))
        step = max(1, EVAL_BUDGET // SQUARE_FIELDS)
        for lo in range(0, len(x0), step):
            cut = slice(lo, lo + step)
            x = (x0[cut] - self.window.origin[0]) * s
            y = self.px - (y0[cut] + side[cut] - self.window.origin[1]) * s
            w = (side[cut] * self.px / self.window.size).tolist()
            self.parts.append("\n".join(map(
                template.__mod__, zip(x.tolist(), y.tolist(), w, w, fill[cut].tolist()))))

    def polyline(self, pts, stroke="black", width=1.5):
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in (self._xy(p) for p in pts))
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"/>')

    def circle(self, p, fill="red"):
        x, y = self._xy(p)
        self.parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{MARKER_PX}" fill="{fill}"/>')

    def save(self):
        """Write the closing tag and move the file to the target the canvas
        was opened with."""
        self.parts.fh.write("\n</svg>\n")
        self.parts.fh.close()
        shutil.move(self._file, self.path)


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
    """The cubes, then the frontier cells, then the boundary; the cube table
    and the frontier are read one pass of `rects` at a time."""
    w = dec.window
    step = max(1, EVAL_BUDGET // SQUARE_FIELDS)
    with SvgCanvas(w, DECOMPOSITION_PX, path=path) as canvas:
        for lo in range(0, len(dec.cubes), step):
            c = dec.cubes[lo:lo + step]
            side = w.cell_sizes(c["level"])
            canvas.rects(w.origin[0] + c["i"] * side, w.origin[1] + c["j"] * side, side,
                         np.where(c["tag"] == TAG_DOMAIN, "#7fbf7f", "#7f9fff"),
                         stroke="#404040", opacity=0.8, stroke_width=0.3)
        side = w.cell_size(dec.max_depth)
        for lo in range(0, len(dec.frontier), step):
            fr = dec.frontier[lo:lo + step]
            canvas.rects(w.origin[0] + fr[:, 1] * side, w.origin[1] + fr[:, 2] * side, side,
                         "url(#hatch)", opacity=0.9)
        draw_boundary(canvas, dec.domain)


def render_curves(domain: Domain, window: Window, curves, path):
    with SvgCanvas(window, path=path) as canvas:
        draw_boundary(canvas, domain)
        for k, pl in enumerate(curves):
            pts = pl.points if hasattr(pl, "points") else np.asarray(pl)
            canvas.polyline(pts, stroke=CURVE_COLORS[k % len(CURVE_COLORS)], width=1.8)
            canvas.circle(pts[0], fill="#202020")
            canvas.circle(pts[-1], fill="#202020")


def render_grid(gf, domain: Domain | None, path):
    """Grayscale heatmap of a grid function (downsampled for large grids)."""
    n = gf.n_cells
    step = max(1, n // HEATMAP_BLOCKS)
    vals = gf.values
    finite = np.isfinite(vals)
    if finite.any():
        lo, hi = np.nanpercentile(vals[finite], [2, 98])
    else:
        lo, hi = 0.0, 1.0
    span = max(hi - lo, 1e-12)
    x0, y0, fill = [], [], []
    for i in range(0, n, step):
        for j in range(0, n, step):
            blk = vals[i:i + step, j:j + step]
            ok = np.isfinite(blk)
            if not ok.any():
                continue
            v = float(blk[ok].mean())
            g = int(round(255 * min(max((v - lo) / span, 0.0), 1.0)))
            x0.append(gf.window.origin[0] + i * gf.h)
            y0.append(gf.window.origin[1] + j * gf.h)
            fill.append(f"rgb({g},{128 + g // 2},{255 - g})")
    with SvgCanvas(gf.window, path=path) as canvas:
        canvas.rects(x0, y0, gf.h * step, fill)
        if domain is not None:
            draw_boundary(canvas, domain)
