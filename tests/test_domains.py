import numpy as np
import pytest
from scipy import ndimage

from bmoext import (cusp, disk, half_plane, intro_lipschitz, l_shape,
                    parse_domain_arg, parse_domain_file, polygon, slit_disk, square)
from bmoext.errors import PolygonError

ALL_BUILTINS = [half_plane(), disk(1.0), square(2.0), l_shape(), slit_disk(1.0, 0.5),
                cusp(4.0), intro_lipschitz()]


# -- brute-force boundary sampling oracle -----------------------------------

def _poly_loops(domain_label):
    if domain_label.startswith("l_shape"):
        return [[(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]]
    raise KeyError(domain_label)


def sampled_boundary_distance(loops, p, per_edge=200_000):
    """Min distance to densely sampled boundary segments."""
    best = np.inf
    p = np.asarray(p, float)
    for loop in loops:
        loop = np.asarray(loop, float)
        for k in range(len(loop)):
            a, b = loop[k], loop[(k + 1) % len(loop)]
            t = np.linspace(0.0, 1.0, per_edge)
            pts = a[None, :] + t[:, None] * (b - a)[None, :]
            best = min(best, float(np.hypot(pts[:, 0] - p[0], pts[:, 1] - p[1]).min()))
    return best


def test_half_plane_point():
    assert half_plane().sd((0.0, 3.0)) == 3.0


def test_disk_center_and_exterior():
    d = disk(1.0)
    assert d.sd((0.0, 0.0)) == 1.0
    assert abs(d.sd((2.0, 0.0))) == pytest.approx(1.0, abs=1e-15)


def test_intro_lipschitz_strip_point():
    assert intro_lipschitz().sd((-5.0, 0.5)) == pytest.approx(0.5, abs=1e-12)


def test_l_shape_interior_probe_against_boundary_sampling():
    dom = l_shape()
    for p in [(0.3, 0.4), (1.5, 0.5), (0.7, 1.7), (0.95, 0.9)]:
        oracle = sampled_boundary_distance(_poly_loops(dom.label), p)
        assert dom.sd(p) == pytest.approx(oracle, abs=1e-9)


def test_slit_disk_point_adjacent_to_slit():
    dom = slit_disk(1.0, 0.5)
    # circle sampled densely plus the slit segment
    th = np.linspace(0, 2 * np.pi, 2_000_000, endpoint=False)
    circle = np.column_stack([np.cos(th), np.sin(th)])
    t = np.linspace(0.5, 1.0, 500_000)
    seg = np.column_stack([t, np.zeros_like(t)])
    bnd = np.vstack([circle, seg])
    for p in [(0.7, 0.01), (0.55, -0.02), (0.4, 0.005)]:
        oracle = float(np.hypot(bnd[:, 0] - p[0], bnd[:, 1] - p[1]).min())
        assert abs(dom.sd(p)) == pytest.approx(oracle, abs=1e-9)


def test_intro_lipschitz_wedge_geometry():
    dom = intro_lipschitz()
    # inside the wedge the nearest wall is the slanted ray x + y = 1
    assert dom.sd((-3.0, 3.0)) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert dom.sd((1.0, 2.0)) == pytest.approx(-1.0, abs=1e-12)   # above the flat wall


@pytest.mark.parametrize("dom", ALL_BUILTINS, ids=lambda d: d.label)
def test_lipschitz_property(dom, rng):
    w = dom.default_window
    o = np.asarray(w.origin)
    x = o + rng.uniform(0, w.size, size=(10_000, 2))
    y = o + rng.uniform(0, w.size, size=(10_000, 2))
    sx = dom.signed_distance(x)
    sy = dom.signed_distance(y)
    gap = np.hypot(x[:, 0] - y[:, 0], x[:, 1] - y[:, 1])
    assert (np.abs(sx - sy) <= gap + 1e-12).all()


@pytest.mark.parametrize("dom", ALL_BUILTINS, ids=lambda d: d.label)
def test_interior_ball_property(dom, rng):
    w = dom.default_window
    o = np.asarray(w.origin)
    x = o + rng.uniform(0, w.size, size=(10_000, 2))
    sx = dom.signed_distance(x)
    x, sx = x[sx > 0], sx[sx > 0]
    th = rng.uniform(0, 2 * np.pi, size=(len(x), 100))
    r = 0.99 * sx[:, None] * np.sqrt(rng.uniform(0, 1, size=(len(x), 100)))
    pts = np.stack([x[:, 0, None] + r * np.cos(th), x[:, 1, None] + r * np.sin(th)], -1)
    sd = dom.signed_distance(pts.reshape(-1, 2))
    assert (sd > 0).all()


@pytest.mark.parametrize("dom", ALL_BUILTINS, ids=lambda d: d.label)
def test_connectedness_flood_fill(dom):
    n = 256
    w = dom.default_window
    o = np.asarray(w.origin)
    h = w.size / n
    g = (np.arange(n) + 0.5) * h
    pts = o + np.stack(np.meshgrid(g, g, indexing="ij"), -1).reshape(-1, 2)
    inside = (dom.signed_distance(pts) > 0).reshape(n, n)
    _, ncomp = ndimage.label(inside)
    assert ncomp == 1


def test_polygon_rejects_self_intersection():
    with pytest.raises(PolygonError):
        polygon([(0, 0), (1, 1), (1, 0), (0, 1)])


@pytest.mark.parametrize("outer", [[(0, 0), (1, 0), (2, 0), (3, 0)], [(0, 0)] * 4],
                         ids=["collinear", "coincident"])
def test_polygon_rejects_outer_loop_without_area(outer):
    with pytest.raises(PolygonError, match="outer loop: encloses no area"):
        polygon(outer)


def test_polygon_keeps_a_hole_without_area_as_a_slit():
    dom = polygon([(0, 0), (4, 0), (4, 4), (0, 4)], holes=[[(1, 1), (2, 2), (3, 3)]])
    assert (dom.signed_distance(np.array([[2.0, 2.5], [2.5, 2.0]])) > 0).all()
    assert dom.sd((2.0, 2.0)) == 0.0


def test_polygon_rejects_outside_hole():
    with pytest.raises(PolygonError):
        polygon([(0, 0), (1, 0), (1, 1), (0, 1)],
                holes=[[(2, 2), (3, 2), (3, 3)]])


def test_polygon_with_hole_sign():
    dom = polygon([(0, 0), (4, 0), (4, 4), (0, 4)],
                  holes=[[(1, 1), (3, 1), (3, 3), (1, 3)]])
    assert dom.sd((0.5, 0.5)) > 0          # in the rim
    assert dom.sd((2.0, 2.0)) < 0          # inside the hole
    assert dom.sd((2.0, 2.0)) == pytest.approx(-1.0, abs=1e-12)


def test_domain_specs_validate_parameters():
    for shape, params, match in [("disk", "-1", "disk radius must be positive"),
                                 ("cusp", "0.5", "cusp exponent must be > 1"),
                                 ("disk", "1 2", "disk takes at most 1 parameters"),
                                 ("no_such_shape", "", "unknown domain shape 'no_such_shape'")]:
        with pytest.raises(ValueError, match=match):
            parse_domain_arg(f"{shape}:{params.replace(' ', ',')}")
        with pytest.raises(ValueError, match=match):
            parse_domain_file(f"shape: {shape}\nparams: {params}\n")


def test_polygon_spec_needs_an_outer_loop():
    for make in (lambda: parse_domain_arg("polygon"),
                 lambda: parse_domain_file("shape: polygon\n")):
        with pytest.raises(PolygonError, match="requires an outer vertex loop"):
            make()


@pytest.mark.parametrize("text, match", [
    ("shape: disk\nparams: 1\nouter: 0 0 1 0 0 1", "disk takes params, not outer or hole"),
    ("shape: l_shape\nhole: 0 0 1 0 0 1", "l_shape takes params, not outer or hole"),
    ("shape: polygon\nparams: 5\nouter: 0 0 4 0 4 4 0 4", "polygon takes no params"),
    ("shape: disk\nshape: square", "key 'shape' is given twice"),
    ("shape: disk\nparams: 1\nparams: 2", "key 'params' is given twice"),
    ("shape: polygon\nouter: 0 0 4 0 4 4\nouter: 0 0 1 0 0 1", "key 'outer' is given twice"),
], ids=["outer-with-builtin", "hole-with-builtin", "params-with-polygon",
        "repeated-shape", "repeated-params", "repeated-outer"])
def test_domain_file_keeps_every_key_or_refuses(text, match):
    with pytest.raises(ValueError, match=match):
        parse_domain_file(text)


def test_parse_domain_arg_and_file():
    d = parse_domain_arg("slit_disk:1,0.5")
    assert d.label == "slit_disk(1,0.5)"
    text = """
    # a square with a square hole
    shape: polygon
    outer: 0 0 4 0 4 4 0 4
    hole: 1 1 3 1 3 3 1 3
    """
    d2 = parse_domain_file(text)
    assert d2.sd((0.5, 0.5)) > 0 and d2.sd((2, 2)) < 0
    # hole is the one key that repeats
    d3 = parse_domain_file(text + "hole: 0.2 0.2 0.8 0.2 0.8 0.8\n")
    assert d3.sd((0.5, 0.3)) < 0 and d3.sd((2, 2)) < 0 and d3.sd((3.5, 3.5)) > 0


def test_cusp_pinches():
    dom = cusp(4.0)
    assert dom.sd((0.5, 0.0)) > 0
    assert dom.sd((0.01, 0.0)) < 2e-8 * 1.5  # clearance collapses at the tip
    assert dom.sd((0.5, 0.5)) < 0
