import math

import numpy as np
import pytest

from bmoext import Window, disk
from bmoext.bmo import sample_grid_function
from bmoext.cli import main, read_csv, read_grid, write_grid


def run(args):
    return main(args)


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


def test_bad_config_exit_codes(tmp_path, capsys):
    with pytest.raises(SystemExit):
        run(["decompose", "--domain", "disk:1", "--resolution", "1/3",
             "--outdir", str(tmp_path)])
    assert run(["decompose", "--domain", "no_such_domain",
                "--outdir", str(tmp_path)]) == 2


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
