"""The bench tracer wraps library functions by name; a renamed or removed
traced function must fail here, not only in a traced bench run."""

import importlib.util
from pathlib import Path

import bmoext.cli
import bmoext.svgout  # noqa: F401  (the tracer patches every bmoext module)

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.Tracer("tier1")


def test_tracer_binds_every_traced_function():
    tracer = load_tracer()
    try:
        tracer.install()
        assert tracer.missed() == []
    finally:
        tracer.uninstall()


def test_tracer_counts_every_cli_output_file(tmp_path):
    # cli.bytes_written sums the files passed to write_csv and write_grid; a
    # writer that bypasses them drops its file from the count
    dec, norm = tmp_path / "dec", tmp_path / "norm"
    tracer = load_tracer()
    try:
        tracer.install()
        assert bmoext.cli.main(["decompose", "--domain", "disk:1", "--max-depth", "6",
                                "--outdir", str(dec)]) == 0
        assert bmoext.cli.main(["norm", "--domain", "disk:1", "--function", "qh:0.3,0",
                                "--lambda", "0.25", "--resolution", "1/32",
                                "--outdir", str(norm)]) == 0
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["cli.commands"] == 2
    assert m["cli.write_s"] > 0 and m["svgout.render_s"] > 0
    files = [dec / "cubes.csv", norm / "norm.csv", norm / "function_grid.csv"]
    assert m["cli.bytes_written"] == sum(p.stat().st_size for p in files)
