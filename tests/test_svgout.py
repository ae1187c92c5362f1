import numpy as np
import pytest

from bmoext import cusp, disk, half_plane, intro_lipschitz, l_shape, polygon, slit_disk, square
from bmoext.svgout import boundary_segments


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
