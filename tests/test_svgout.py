import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from bmoext import (Window, build_whitney, cusp, disk, half_plane, intro_lipschitz, l_shape,
                    polygon, slit_disk, square, svgout)
from bmoext.bmo import GridFunction
from bmoext.svgout import (DECOMPOSITION_PX, SvgCanvas, boundary_segments, draw_boundary,
                           render_curves, render_decomposition, render_grid)
from bmoext.whitney import TAG_DOMAIN
from tests.conftest import DISK_WINDOW


def reference_boundary_segments(domain, window, n=256):
    """Marching squares one cell at a time: the cells in (i, j) order, the
    four edges of a cell in corner order."""
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


DOMAINS = [half_plane(), disk(1.0), square(2.0), l_shape(), slit_disk(1.0, 0.5), cusp(4.0),
           intro_lipschitz(),
           polygon([(0, 0), (4, 0), (4, 4), (0, 4)], holes=[[(1, 1), (3, 1), (3, 3), (1, 3)]])]


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.label)
def test_boundary_segments_match_cell_loop(dom):
    got = boundary_segments(dom, dom.default_window)
    want = reference_boundary_segments(dom, dom.default_window)
    assert len(got) == len(want) > 0
    # bit for bit, so the SVG coordinates print the same
    assert np.array_equal(np.array(got).view(np.int64), np.array(want, dtype=float).view(np.int64))


def reference_rect(canvas, lower, side, fill, stroke="none", opacity=1.0, stroke_width=0.5):
    """One square mapped corner by corner through `_xy`."""
    x, y = canvas._xy((lower[0], lower[1] + side))
    w = side * canvas.px / canvas.window.size
    canvas.parts.append(
        f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{w:.2f}" '
        f'fill="{fill}" stroke="{stroke}" stroke-width="{stroke_width}" '
        f'fill-opacity="{opacity}"/>')


def reference_render_decomposition(dec, path):
    """One `reference_rect` per cube, then one per frontier cell."""
    w = dec.window
    canvas = SvgCanvas(w, DECOMPOSITION_PX, path=path)
    for tag, level, i, j, _, _ in dec.cubes.tolist():
        side = w.cell_size(level)
        lower = (w.origin[0] + i * side, w.origin[1] + j * side)
        fill = "#7fbf7f" if tag == TAG_DOMAIN else "#7f9fff"
        reference_rect(canvas, lower, side, fill, stroke="#404040", opacity=0.8,
                       stroke_width=0.3)
    side = w.cell_size(dec.max_depth)
    for _, i, j in dec.frontier.tolist():
        lower = (w.origin[0] + i * side, w.origin[1] + j * side)
        reference_rect(canvas, lower, side, "url(#hatch)", opacity=0.9)
    draw_boundary(canvas, dec.domain)
    canvas.save()


def reference_save(canvas, path):
    """The whole document as one string: the parts joined by newlines
    inside one f-string."""
    body = "\n".join(canvas.parts)
    defs = ('<defs><pattern id="hatch" width="6" height="6" '
            'patternUnits="userSpaceOnUse" patternTransform="rotate(45)">'
            '<line x1="0" y1="0" x2="0" y2="6" stroke="#808080" '
            'stroke-width="1.2"/></pattern></defs>')
    with open(path, "w") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{canvas.px}" '
            f'height="{canvas.px}" viewBox="0 0 {canvas.px} {canvas.px}">\n{defs}\n'
            f'<rect width="100%" height="100%" fill="white"/>\n{body}\n</svg>\n')


@pytest.mark.parametrize("n_parts", [0, 1, 3])
def test_save_matches_joined_document(tmp_path, n_parts):
    # the streamed file against the parts it was sent, joined by the reference
    got = tmp_path / "got.svg"
    canvas = SvgCanvas(Window((-1.0, -1.0), 2.0), path=got)
    sent = SimpleNamespace(px=canvas.px, parts=[])
    write = canvas.parts.append
    canvas.parts.append = lambda part: (sent.parts.append(part), write(part))
    for k in range(n_parts):
        canvas.circle((0.1 * k, -0.2 * k))
    if n_parts == 3:
        canvas.rects([0.0, 0.5], [0.0, -0.5], 0.25, ["#ff0000", "#00ff00"])
    canvas.save()
    reference_save(sent, tmp_path / "want.svg")
    assert got.read_bytes() == (tmp_path / "want.svg").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["got.svg", "want.svg"]


def test_canvas_writes_parts_as_they_are_drawn(tmp_path):
    canvas = SvgCanvas(Window((-1.0, -1.0), 2.0), path=tmp_path / "fig.svg")
    with mock.patch.object(svgout, "EVAL_BUDGET", 10):
        canvas.rects(np.zeros(30), 0.0, 0.5, "#ff0000")
    canvas.parts.fh.flush()
    assert (tmp_path / "fig.svg.part").read_text().count("<rect ") == 31
    assert not (tmp_path / "fig.svg").exists()
    canvas.save()
    assert (tmp_path / "fig.svg").read_text().endswith('fill-opacity="1.0"/>\n</svg>\n')
    assert not (tmp_path / "fig.svg.part").exists()


@pytest.mark.parametrize("figure", ["decomposition", "curves", "grid"])
def test_failed_render_leaves_no_file(tmp_path, figure):
    dom = disk(1.0)
    render = {
        "decomposition": lambda path: render_decomposition(
            build_whitney(dom, dom.default_window, 5), path),
        "curves": lambda path: render_curves(dom, dom.default_window, [[(0, 0), (0.5, 0)]], path),
        "grid": lambda path: render_grid(
            GridFunction(dom.default_window, 3, np.ones((8, 8)), np.ones((8, 8), np.int8)),
            dom, path),
    }[figure]
    with mock.patch.object(svgout, "boundary_segments", side_effect=RuntimeError("halfway")):
        with pytest.raises(RuntimeError, match="halfway"):
            render(tmp_path / "fig.svg")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.memory
def test_render_decomposition_memory_is_bounded(tmp_path):
    # joining the parts into one document peaked at 64 MB over entry here
    dec = build_whitney(disk(1.0), disk(1.0).default_window, 12)
    tracemalloc.start()
    try:
        render_decomposition(dec, tmp_path / "dec.svg")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.memory
def test_render_decomposition_streams_its_text(tmp_path):
    # holding the formatted parts until the save peaked at 21.2 MiB here;
    # streamed with passes of EVAL_BUDGET squares over whole-table corner
    # and fill arrays, 13.2 MiB; passes of EVAL_BUDGET printed fields from
    # slices of the table measured 3.0 MiB
    dec = build_whitney(disk(1.0), DISK_WINDOW, 12)
    tracemalloc.start()
    try:
        render_decomposition(dec, tmp_path / "dec.svg")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


SQUARE_HOLE = polygon([(0, 0), (4, 0), (4, 4), (0, 4)], holes=[[(1, 1), (3, 1), (3, 3), (1, 3)]])


@pytest.mark.parametrize("dom", [disk(1.0), slit_disk(1.0, 0.5), cusp(4.0), SQUARE_HOLE],
                         ids=lambda d: d.label)
def test_decomposition_svg_matches_rect_loop(tmp_path, dom):
    dec = build_whitney(dom, dom.default_window, 8)
    assert len(dec.frontier) > 0
    with mock.patch.object(svgout, "EVAL_BUDGET", 1000):
        render_decomposition(dec, tmp_path / "got.svg")
    reference_render_decomposition(dec, tmp_path / "want.svg")
    assert (tmp_path / "got.svg").read_bytes() == (tmp_path / "want.svg").read_bytes()


def reference_render_grid(gf, domain, path):
    """The heatmap with one `reference_rect` per block."""
    canvas = SvgCanvas(gf.window, path=path)
    n = gf.n_cells
    step = max(1, n // svgout.HEATMAP_BLOCKS)
    vals = gf.values
    finite = np.isfinite(vals)
    lo, hi = np.nanpercentile(vals[finite], [2, 98]) if finite.any() else (0.0, 1.0)
    span = max(hi - lo, 1e-12)
    for i in range(0, n, step):
        for j in range(0, n, step):
            blk = vals[i:i + step, j:j + step]
            ok = np.isfinite(blk)
            if not ok.any():
                continue
            v = float(blk[ok].mean())
            g = int(round(255 * min(max((v - lo) / span, 0.0), 1.0)))
            lower = (gf.window.origin[0] + i * gf.h, gf.window.origin[1] + j * gf.h)
            reference_rect(canvas, lower, gf.h * step, f"rgb({g},{128 + g // 2},{255 - g})")
    if domain is not None:
        draw_boundary(canvas, domain)
    canvas.save()


@pytest.mark.parametrize("blocks", [256, 4])
def test_grid_svg_matches_rect_loop(tmp_path, blocks):
    values = np.random.default_rng(2).normal(size=(16, 16))
    values[:5, :5] = np.nan
    values[8, 8] = np.inf
    gf = GridFunction(Window((-1.1, 0.3), 2.5), 4, values, np.ones((16, 16), np.int8))
    with mock.patch.object(svgout, "HEATMAP_BLOCKS", blocks), \
            mock.patch.object(svgout, "EVAL_BUDGET", 50):
        render_grid(gf, disk(1.0), tmp_path / "got.svg")
        reference_render_grid(gf, disk(1.0), tmp_path / "want.svg")
    assert (tmp_path / "got.svg").read_bytes() == (tmp_path / "want.svg").read_bytes()
