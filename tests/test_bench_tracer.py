"""The bench tracer wraps library functions by name; a renamed or removed
traced function must fail here, not only in a traced bench run."""

import importlib.util
from pathlib import Path

import bmoext.cli  # noqa: F401  (the tracer patches every bmoext module)
import bmoext.svgout  # noqa: F401

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_tracer_binds_every_traced_function():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = layers.Tracer("tier1")
    try:
        tracer.install()
        assert tracer.missed() == []
    finally:
        tracer.uninstall()
