import contextlib
import csv
import hashlib
import inspect
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bmoext
from bmoext import Window, cli, disk
from bmoext.bmo import GridFunction, sample_grid_function
from bmoext.cli import main, read_csv, read_grid, write_csv, write_grid
from bmoext.domains import _first_crossing


def reference_fmt(v):
    if v is None:
        return "NA"
    if isinstance(v, float):
        if math.isnan(v):
            return "NA"
        return f"{v:.12g}"
    return str(v)


def reference_write_csv(path, schema, header, rows):
    """One csv.writer row per table row, one `reference_fmt` per value."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# bmoext-csv v1 schema={schema}\n")
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([reference_fmt(v) for v in row])


def reference_write_grid(path, gf):
    """One repr per value, one str per mask cell, a line at a time."""
    with open(path, "w") as fh:
        fh.write("# bmoext-grid v1\n")
        fh.write(f"# window: {gf.window.origin[0]!r} {gf.window.origin[1]!r} "
                 f"{gf.window.size!r}\n")
        fh.write(f"# cells: {gf.n_cells}\n")
        fh.write("# block: values (line index = x cell index)\n")
        for i in range(gf.n_cells):
            fh.write(",".join(repr(float(v)) for v in gf.values[i]) + "\n")
        fh.write("# block: mask (0 outside, 1 inside, 2 straddling)\n")
        for i in range(gf.n_cells):
            fh.write(",".join(str(int(v)) for v in gf.mask[i]) + "\n")


def run(args):
    return main(args)


def test_package_all_lists_exactly_what_the_package_binds():
    assert len(set(bmoext.__all__)) == len(bmoext.__all__)
    assert [name for name in bmoext.__all__ if not hasattr(bmoext, name)] == []
    bound = {name for name, value in vars(bmoext).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert bound == set(bmoext.__all__)


def test_decompose_smoke(tmp_path):
    out = tmp_path / "d"
    assert run(["decompose", "--domain", "disk:1", "--resolution", "1/256",
                "--max-depth", "7", "--outdir", str(out)]) == 0
    assert (out / "cubes.csv").exists() and (out / "decomposition.svg").exists()
    schema, header, rows = read_csv(out / "cubes.csv")
    assert schema == "whitney-cubes" and len(rows) > 100
    assert header[0] == "tag"


def test_geodesic_smoke(tmp_path):
    out = tmp_path / "g"
    assert run(["geodesic", "--domain", "half_plane",
                "--window=-2,0,4", "--from=0,1", "--to=0,2",
                "--resolution", "1/128", "--outdir", str(out)]) == 0
    _, header, rows = read_csv(out / "geodesic.csv")
    val = float(rows[0][header.index("qh_length")])
    assert val == pytest.approx(math.log(2), rel=0.05)
    assert rows[0][header.index("err_bound")] != "NA"


def test_classify_determinism(tmp_path):
    args = ["classify", "--domain", "l_shape", "--delta", "0.5", "--seed", "7",
            "--pairs", "6", "--resolution", "1/64"]
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert run(args + ["--outdir", str(out1)]) == 0
    assert run(args + ["--outdir", str(out2)]) == 0
    for name in ("classify_pairs.csv", "classify_report.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_norm_and_grid_roundtrip(tmp_path):
    out = tmp_path / "n"
    assert run(["norm", "--domain", "disk:1", "--function", "const:2",
                "--lambda", "0.25", "--resolution", "1/64",
                "--outdir", str(out)]) == 0
    f = read_grid(out / "function_grid.csv")
    assert f.n_cells == 64
    ins = f.mask == 1
    assert np.all(f.values[ins] == 2.0)
    # norm of the round-tripped grid matches the report
    _, header, rows = read_csv(out / "norm.csv")
    lam_rows = [r for r in rows if r[0] == "bmo_lambda"]
    assert float(lam_rows[0][header.index("value")]) == pytest.approx(2.0)


def test_grid_write_read_exact(tmp_path, disk1):
    f = sample_grid_function(disk1, Window((-1.25, -1.25), 2.5), 5,
                             lambda p: np.sin(p[:, 0] * 3.7))
    path = tmp_path / "grid.csv"
    write_grid(path, f)
    g = read_grid(path)
    assert g.window == f.window and g.level == f.level
    same = np.isfinite(f.values) == np.isfinite(g.values)
    assert same.all()
    ok = np.isfinite(f.values)
    assert np.array_equal(f.values[ok], g.values[ok])   # repr round-trip
    assert np.array_equal(f.mask, g.mask)


def test_extend_cli_smoke(tmp_path):
    out = tmp_path / "e"
    assert run(["extend", "--domain", "disk:1", "--function", "const:1",
                "--lambda", "0.1", "--epsilon", "0.3", "--delta", "0.5",
                "--resolution", "1/128", "--max-depth", "7",
                "--outdir", str(out)]) == 0
    _, header, rows = read_csv(out / "extend_summary.csv")
    assert float(rows[0][header.index("ratio")]) > 0


def test_report_aggregates_and_recomputes(tmp_path):
    d1 = tmp_path / "exp1"
    d2 = tmp_path / "exp2"
    run(["extend", "--domain", "disk:1", "--function", "const:1",
         "--lambda", "0.1", "--epsilon", "0.3", "--delta", "0.5",
         "--resolution", "1/64", "--max-depth", "6", "--outdir", str(d1)])
    run(["norm", "--domain", "disk:1", "--function", "const:3",
         "--lambda", "0.25", "--resolution", "1/64", "--outdir", str(d2)])
    out = tmp_path / "rep"
    assert run(["report", "--results", str(tmp_path), "--outdir", str(out)]) == 0
    schema, header, rows = read_csv(out / "summary.csv")
    assert schema == "report-summary"
    # recomputation oracle: re-derive each aggregate from the underlying CSVs
    for row in rows:
        rel, sch, count, note = row
        _, h2, r2 = read_csv(tmp_path / rel)
        assert int(count) == len(r2)
        if sch == "extend-summary" and note.startswith("max_ratio="):
            idx = h2.index("ratio")
            vals = [float(r[idx]) for r in r2 if r[idx] != "NA"]
            assert float(note.split("=")[1]) == pytest.approx(max(vals), rel=1e-9)
        if sch == "norm-report" and note.startswith("max_value="):
            idx = h2.index("value")
            vals = [float(r[idx]) for r in r2 if r[idx] != "NA"]
            assert float(note.split("=")[1]) == pytest.approx(max(vals), rel=1e-9)


@pytest.mark.parametrize("schema, header, row, column", [
    ("extend-summary", "lam,ratio", "0.1", "ratio"),       # a short row
    ("norm-report", "lam,norm", "0.1,2.0", "value"),      # no such column
])
def test_report_on_a_malformed_file_is_a_usage_error(tmp_path, capsys, schema, header,
                                                      row, column):
    results = tmp_path / "res"
    results.mkdir()
    (results / "bad.csv").write_text(f"# bmoext-csv v1 schema={schema}\n{header}\n{row}\n")
    assert run(["report", "--results", str(results), "--outdir", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "bad.csv" in err and repr(column) in err


def test_bad_config_exit_codes(tmp_path, capsys):
    for text in ("1/3", "1/0", "3/8"):
        with pytest.raises(SystemExit) as exc:
            run(["decompose", "--domain", "disk:1", "--resolution", text,
                 "--outdir", str(tmp_path)])
        assert exc.value.code == 2
        assert "resolution must be 1/2^k" in capsys.readouterr().err
    assert run(["decompose", "--domain", "no_such_domain",
                "--outdir", str(tmp_path)]) == 2
    capsys.readouterr()
    for spec in ("dipole:1,2", "nosuch", "coord:z"):
        assert run(["norm", "--domain", "disk:1", f"--function={spec}",
                    "--outdir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("usage error: ")


@pytest.mark.parametrize("args", ["0.3", "0.3,0,1"])
def test_qh_spec_arity_is_checked(tmp_path, capsys, args):
    assert run(["norm", "--domain", "disk:1", f"--function=qh:{args}",
                "--resolution", "1/32", "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"usage error: qh takes ax,ay, got {args!r}\n"


def test_malformed_polygon_is_a_usage_error(tmp_path, capsys):
    odd, bowtie = tmp_path / "odd.dom", tmp_path / "bowtie.dom"
    collinear = tmp_path / "collinear.dom"
    odd.write_text("shape: polygon\nouter: 0 0 1 0 0\n")
    bowtie.write_text("shape: polygon\nouter: 0 0 1 1 1 0 0 1\n")
    collinear.write_text("shape: polygon\nouter: 0 0 1 0 2 0 3 0\n")
    for domain in (str(odd), str(bowtie), str(collinear), "polygon"):
        assert run(["decompose", "--domain", domain, "--outdir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("usage error: ")


def domain_file(path, outer, holes=()):
    lines = ["shape: polygon", "outer: " + " ".join(map(repr, np.ravel(outer).tolist()))]
    lines += ["hole: " + " ".join(map(repr, np.ravel(h).tolist())) for h in holes]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


SMALL_SQUARE = 0.05 * np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]])


@st.composite
def star_polygons(draw):
    """5-16 vertices at sorted angles with gaps below 2 pi / 3 and radii in
    [0.5, 1], so the loop is simple and keeps 0.25 from the origin; half of
    them get a square hole of side 0.1 around the origin."""
    n = draw(st.integers(5, 16))
    w = np.array(draw(st.lists(st.floats(1.0, 1.9), min_size=n, max_size=n)))
    th = draw(st.floats(0.0, 2 * np.pi)) + 2 * np.pi * np.cumsum(w) / w.sum()
    r = np.array(draw(st.lists(st.floats(0.5, 1.0), min_size=n, max_size=n)))
    outer = np.column_stack([r * np.cos(th), r * np.sin(th)])
    return outer, [SMALL_SQUARE] if draw(st.booleans()) else []


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(star_polygons())
def test_polygon_files_decompose_deterministically(tmp_path_factory, case):
    outer, holes = case
    d = tmp_path_factory.mktemp("star")
    spec = domain_file(d / "star.dom", outer, holes)
    for name in ("a", "b"):
        assert run(["decompose", "--domain", spec, "--max-depth", "5",
                    "--outdir", str(d / name)]) == 0
    for name in ("cubes.csv", "decomposition.svg"):
        assert (d / "a" / name).read_bytes() == (d / "b" / name).read_bytes()
    # the first swap of two vertices after which two edges cross, and a
    # hole around a vertex, which two edges of the outer loop leave
    swapped = []
    for i in range(len(outer)):
        for j in range(i + 1, len(outer)):
            loop = outer.copy()
            loop[[i, j]] = loop[[j, i]]
            swapped.append(loop)
    bowtie = next(lp for lp in swapped if _first_crossing([lp]) is not None)
    for bad in (domain_file(d / "bowtie.dom", bowtie, holes),
                domain_file(d / "cross.dom", outer, [*holes, outer[0] + SMALL_SQUARE])):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(["decompose", "--domain", bad, "--max-depth", "5",
                        "--outdir", str(d / "bad")]) == 2
        assert err.getvalue().startswith("usage error: ")


def test_decimal_resolution_writes_the_same_files(tmp_path):
    for name, text in (("frac", "1/256"), ("dec", "0.00390625")):
        assert run(["norm", "--domain", "disk:1", "--function", "qh:0.3,0",
                    "--lambda", "0.25", "--resolution", text,
                    "--outdir", str(tmp_path / name)]) == 0
    for name in ("norm.csv", "norm_report.txt", "function_grid.csv"):
        assert (tmp_path / "frac" / name).read_bytes() == (tmp_path / "dec" / name).read_bytes()


def test_max_depth_zero_builds_only_the_root(tmp_path):
    out = tmp_path / "d0"
    assert run(["decompose", "--domain", "disk:1", "--max-depth", "0",
                "--outdir", str(out)]) == 0
    _, header, rows = read_csv(out / "cubes.csv")
    assert [r[:4] for r in rows] == [["frontier", "0", "0", "0"]]


def test_classify_rejects_nonpositive_delta(tmp_path, capsys):
    for delta in ("-0.5", "0", "nan"):
        assert run(["classify", "--domain", "disk:1", "--delta", delta,
                    "--outdir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("usage error: delta must be positive")


def test_extend_rejects_nan_delta(tmp_path, capsys):
    assert run(["extend", "--domain", "disk:1", "--function", "const:2",
                "--lambda", "0.1", "--epsilon", "0.3", "--delta", "nan",
                "--resolution", "1/32", "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("usage error: delta must be positive")
    assert not (tmp_path / "extend_summary.csv").exists()


def test_missing_csv_function_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "nosuch.csv"
    assert run(["norm", "--domain", "disk:1", f"--function=csv:{missing}",
                "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "nosuch.csv" in err


@pytest.mark.parametrize("cells, width", [(6, 6), (8, 7)])
def test_read_grid_rejects_malformed_size(tmp_path, cells, width):
    # 6 cells per side is no dyadic grid; 7 entries in rows of an 8-cell grid
    values = [",".join(["0.0"] * width)] * cells
    masks = [",".join(["1"] * width)] * cells
    path = tmp_path / "grid.csv"
    path.write_text("\n".join(["# bmoext-grid v1", "# window: 0.0 0.0 1.0",
                               f"# cells: {cells}", "# block: values", *values,
                               "# block: mask", *masks]) + "\n")
    with pytest.raises(ValueError, match="malformed grid file"):
        read_grid(path)


@pytest.mark.parametrize("code", ["7", "-3"])
def test_read_grid_rejects_unknown_mask_codes(tmp_path, code):
    # a mask cell is 0 outside, 1 inside or 2 straddling; nothing else
    masks = [",".join(["1"] * 8)] * 7 + [",".join(["0"] * 7 + [code])]
    path = tmp_path / "grid.csv"
    path.write_text("\n".join(["# bmoext-grid v1", "# window: 0.0 0.0 1.0", "# cells: 8",
                               "# block: values", *[",".join(["0.0"] * 8)] * 8,
                               "# block: mask", *masks]) + "\n")
    with pytest.raises(ValueError, match="malformed grid file"):
        read_grid(path)


@pytest.mark.parametrize("command", ["norm", "extend"])
def test_csv_function_must_match_the_command_grid(tmp_path, capsys, command):
    dom = disk(1.0)
    path = tmp_path / "grid.csv"
    write_grid(path, sample_grid_function(dom, dom.default_window, 3, lambda p: p[:, 0]))
    extra = ["--lambda", "0.1"] + (["--epsilon", "0.3", "--delta", "0.5"]
                                   if command == "extend" else [])
    base = [command, "--domain", "disk:1", f"--function=csv:{path}", *extra,
            "--outdir", str(tmp_path / "out")]
    for wrong in (["--resolution", "1/16"], ["--resolution", "1/8", "--window=-1,-1,2"]):
        assert run(base + wrong) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: grid file ") and "grid.csv" in err
    assert not (tmp_path / "out" / f"{command}.csv").exists()
    assert not (tmp_path / "out" / "extend_summary.csv").exists()
    assert run(base + ["--resolution", "1/8"]) == 0


def test_grid_roundtrip_with_polygon_window(tmp_path):
    # polygon windows are built from numpy reductions; the header must still
    # round-trip through plain floats
    from bmoext import l_shape
    dom = l_shape()
    f = sample_grid_function(dom, dom.default_window, 5,
                             lambda p: p[:, 0] + p[:, 1])
    path = tmp_path / "poly_grid.csv"
    write_grid(path, f)
    g = read_grid(path)
    assert g.window == f.window


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1e300, -1e300, 1e-300, 0.1, 123456789012345.0]
TEXT = st.text(alphabet=st.sampled_from(list('ab ,"\n\r%\'é')), max_size=4)
FLOATS = st.one_of(st.floats(width=64), st.sampled_from(SPECIAL_FLOATS))
SCALARS = st.one_of(st.none(), FLOATS, st.integers(-2 ** 70, 2 ** 70), st.booleans(), TEXT)


@st.composite
def tables(draw):
    """Header and columns of a random table: numpy float, int, bool and
    string columns, and plain lists of mixed values."""
    n_cols, n_rows = draw(st.integers(1, 5)), draw(st.integers(0, 12))
    cols = []
    for _ in range(n_cols):
        kind = draw(st.sampled_from(["float", "int", "bool", "str", "mixed"]))
        if kind == "mixed":
            cols.append(draw(st.lists(SCALARS, min_size=n_rows, max_size=n_rows)))
            continue
        elem = {"float": FLOATS, "int": st.integers(-2 ** 63, 2 ** 63 - 1),
                "bool": st.booleans(), "str": TEXT}[kind]
        dtype = {"float": np.float64, "int": np.int64, "bool": bool, "str": str}[kind]
        cols.append(np.array(draw(st.lists(elem, min_size=n_rows, max_size=n_rows)),
                             dtype=dtype))
    header = draw(st.lists(TEXT, min_size=n_cols, max_size=n_cols))
    return header, cols, draw(st.integers(1, 5))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tables())
def test_write_csv_matches_row_loop(tmp_path_factory, table):
    header, cols, chunk = table
    d = tmp_path_factory.mktemp("csv")
    with mock.patch.object(cli, "EVAL_BUDGET", chunk):
        write_csv(d / "got.csv", "t", header, cols)
    reference_write_csv(d / "want.csv", "t", header, zip(*cols))
    assert (d / "got.csv").read_bytes() == (d / "want.csv").read_bytes()
    if len(cols[0]) == 0:       # rows transposed from an empty list
        write_csv(d / "none.csv", "t", header, [])
        assert (d / "none.csv").read_bytes() == (d / "want.csv").read_bytes()


@pytest.mark.parametrize("chunk", [1 << 14, 16, 3])
def test_write_grid_matches_line_loop(tmp_path, chunk):
    values = np.random.default_rng(5).normal(size=(8, 8)) * 10.0 ** np.arange(-4, 4)
    values[0, :4] = [np.nan, -0.0, np.inf, -np.inf]
    values[3, 3] = 5e-324
    mask = np.random.default_rng(6).integers(0, 3, size=(8, 8)).astype(np.int8)
    gf = GridFunction(Window((-1.25, 0.1), 2.5), 3, values, mask)
    with mock.patch.object(cli, "EVAL_BUDGET", chunk):
        write_grid(tmp_path / "got.csv", gf)
    reference_write_grid(tmp_path / "want.csv", gf)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# SHA-256 of every CSV each command writes, recorded before metric-graph
# queries took the graph in place of its domain, resolution and window; the
# SVG digests and the decompose case were recorded before the graph's matrix,
# the Whitney adjacency and the SVG writer were rebuilt to hold fewer copies
CLI_DIGESTS = {
    "geodesic": (["geodesic", "--domain", "disk:1", "--from=-0.6,0.2", "--to=0.5,-0.3",
                  "--resolution", "1/64"], {
        "geodesic.csv": "95969a26702d2338e4fa97aeb977ee6adba143c4c0712734f4b7e0651b03b3c8",
        "geodesic.svg": "bdbd7166f69838072e6e59528704ee122971c30cdafb730c1e608b445bb7f4ae",
        "geodesic_points.csv": "5c920ff6d4cd54f6ee67dafe84a7da3abbba1b5099f691d014198b12db75492b",
    }),
    "classify": (["classify", "--domain", "l_shape", "--resolution", "1/64", "--pairs", "6",
                  "--seed", "7"], {
        "classify_pairs.csv": "223f2d812ea998b891c8c299fe0257ddab8da96d6fa9decc032819e8de2cbb7c",
        "worst_pairs.svg": "042b0f0e17b33c65f6c5fe2c6db35065d72c8ed861c8a45cea9b369a69d7b4eb",
    }),
    "norm_qh": (["norm", "--domain", "disk:1", "--function", "qh:0.3,0", "--lambda", "0.25",
                 "--resolution", "1/64"], {
        "function_grid.csv": "b066d19e483a51fbc2bd278798e114e00635cb3a9e95ba1f05691ded5af1a4e7",
        "norm.csv": "253f55af6d33bc91688ea3d390a3170b5f99b7d07cb40fc83bd3ad93aca2990c",
    }),
    "norm_dipole": (["norm", "--domain", "disk:1", "--function", "dipole:-0.5,0,0.5,0,1.5,1",
                     "--lambda", "0.25", "--resolution", "1/64"], {
        "function_grid.csv": "64adb8358eee0ef72dd062d188132642ed380080e3931a6b861813fdab3ddb4d",
        "norm.csv": "9cb2a2fb88296ff47426e5415b79f754706850a8c1a14a36bbe729a3aa8f6055",
    }),
    "extend_qh": (["extend", "--domain", "disk:1", "--function", "qh:0.3,0", "--lambda", "0.1",
                   "--epsilon", "0.3", "--delta", "0.5", "--resolution", "1/64"], {
        "assignment.csv": "cf00c687ce4323ec60a27dcb62fe032d7f8f673591ba2c35ebfe9debceb0c1e8",
        "extend.svg": "08476f13a64508f3e53557794eea38e18bb03d37e56c24dde0659ad6c8ba36a7",
        "extend_grid.csv": "e18fc1cee5e042656dcdf0bb8cabaee956c71e0cbba706b5e00474988492db42",
        "extend_summary.csv": "fc415335fe976feb367536c60a9610878c0381a4f8c8efda3501ee138577c5ce",
    }),
    "decompose": (["decompose", "--domain", "slit_disk", "--max-depth", "8"], {
        "cubes.csv": "bf8217430c8d40b8531256da0033e91420c3c17e4278edf769f51fbc64e2819c",
        "decomposition.svg": "402f6706fbf359da6f6eeaa6be189f55688efebd5c2593fe027c6e5e7b1b288c",
    }),
}


@pytest.mark.parametrize("case", sorted(CLI_DIGESTS))
def test_cli_outputs_match_recorded_digests(tmp_path, case):
    argv, want = CLI_DIGESTS[case]
    assert run(argv + ["--outdir", str(tmp_path)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir()) if p.suffix in (".csv", ".svg")}
    assert got == want
