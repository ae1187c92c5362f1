"""The four benchmark workloads: inputs made from a seed, the operations one
pass runs, and the correctness check of every operation.

Each workload is a closed loop with a single client: its operations run back
to back in one thread. The library receives only the generated inputs. At
DEFAULT_SEED the inputs are the canonical ones the acceptance tests use
(classify seed 7, make_suite seed 3), so outputs can be compared with the
references in reference.json. Other seeds draw new inputs; of the counts the
traced runs repeat, only polygon-geodesic's oracle points change with the
seed (by up to 6%).

Why each workload exists:

- window-growth: one decomposition per window serves one function on a large
  grid, so every matching_cube call is for a new cube and matching is most of
  the pass; extension's per-cube loop and frontier fill, the Whitney build and
  the whole-grid re-mask in cube_average are smaller shares. The grids set
  peak memory.
- suite-ratio: one decomposition serves 40 extensions on a small grid, so
  repeated matching dominates while grid re-masking costs little.
- polygon-geodesic: the polygon oracle, metric-graph build, Dijkstra, path
  refinement and the cigar estimators; no Whitney, bmo or extension work.
- decompose-deep: Whitney build with adjacency and invariant check, CSV and
  SVG writing; no matching, no extension, only cheap analytic oracles.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import bmoext
from bmoext import cli, extension, qhyper, whitney

DEFAULT_SEED = 0
CLASSIFY_SEED = 7          # acceptance-test seed of classify
SUITE_SEED = 3             # acceptance-test seed of make_suite
QH_TOL = 0.03              # criterion-02 tolerance on closed forms
RATIO_RTOL = 1e-9          # experiment rows against their references
WINDOWS = [4, 8, 16]       # window-growth half-sides

REFERENCE_PATH = Path(__file__).with_name("reference.json")

HALF_PLANE_TRUTH = math.acosh(1.5)             # k((0,1), (1,1)) in y > 0
DISK_DIAMETER_TRUTH = 2.0 * math.log(10.0)     # k((-0.9,0), (0.9,0)) in the unit disk

SQUARE_HOLE_FILE = """\
shape: polygon
outer: -1 -1  1 -1  1 1  -1 1
hole: -0.4 -0.4  0.4 -0.4  0.4 0.4  -0.4 0.4
"""


@dataclass
class Op:
    """One operation of a workload.

    `run` does the library work and returns its result. `checks` return
    failure messages for a result and hold for every seed. `fingerprint`
    reduces a result to what reference.json records under `key`; the key
    names every input, so a reference applies exactly when the inputs are
    the recorded ones, and `compare` returns the differences."""

    key: str
    run: Callable[[], object]
    checks: list = field(default_factory=list)
    fingerprint: Callable[[object], object] = lambda result: None
    compare: Callable[[object, object], list] = lambda got, want: (
        [] if got == want else [f"{got!r} != reference {want!r}"])

    def verify(self, result, refs: dict) -> list:
        errs = [m for c in self.checks for m in c(result)]
        if self.key in refs:
            errs += self.compare(self.fingerprint(result), refs[self.key])
        return errs


def load_references() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _rows_fingerprint(rows, scale: float = 1.0) -> list:
    """Experiment rows as plain JSON values, norms divided by the input
    amplitude `scale` (the norms are positively homogeneous)."""
    out = []
    for row in rows:
        r = {k: (v.item() if isinstance(v, np.generic) else v) for k, v in row.items()}
        for col in ("input_norm", "output_norm"):
            r[col] = r[col] / scale
        out.append(r)
    return out


def _same_rows(rows, ref_rows) -> list:
    """Floats agree within RATIO_RTOL, everything else exactly."""
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    errs = []
    for k, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col, want in ref.items():
            got = row.get(col)
            if isinstance(want, float) and isinstance(got, float):
                ok = (got == want or _rel(got, want) <= RATIO_RTOL
                      or (math.isnan(got) and math.isnan(want)))
            else:
                ok = got == want
            if not ok:
                errs.append(f"row {k} {col}: {got!r} != reference {want!r}")
    return errs


# ---------------------------------------------------------------------------
# window-growth

def window_growth(seed: int, outdir: Path) -> list[Op]:
    """counterexample_experiment([4, 8, 16], lam) for lam = 2 then 0.25 on
    intro_lipschitz, cell size 1/16 (grids up to 512^2). The seed sets the
    ramp's amplitude; the extension is linear and the norms homogeneous, so
    the amplitude-scaled rows are compared with the references at every
    seed."""
    amp = 1.0 if seed == DEFAULT_SEED else float(
        2.0 ** np.random.default_rng(seed).uniform(-1.0, 1.0))

    def ramp(p):
        return amp * np.maximum(p[:, 0], 0.0)

    def experiment(lam):
        return lambda: extension.counterexample_experiment(WINDOWS, lam, field=ramp)

    def shape(lam):
        def _check(rows):
            ratios = [r["ratio"] for r in rows]
            if not all(r is not None and math.isfinite(r) for r in ratios):
                return [f"lam={lam}: non-finite ratio in {ratios}"]
            if lam > 1.0 and not all(a < b for a, b in zip(ratios, ratios[1:])):
                return [f"lam={lam}: ratios {ratios} not strictly increasing"]
            if lam < 1.0 and max(ratios) / min(ratios) > 1.5:
                return [f"lam={lam}: max/min {max(ratios) / min(ratios):.3f} > 1.5"]
            return []
        return _check

    return [Op(f"window-growth windows={WINDOWS} lam={lam}", experiment(lam), [shape(lam)],
               lambda rows: _rows_fingerprint(rows, amp), _same_rows)
            for lam in (2.0, 0.25)]


# ---------------------------------------------------------------------------
# suite-ratio

def suite_ratio(seed: int, outdir: Path) -> list[Op]:
    """Disk(1), build_whitney at depth 6, make_suite at 1/64 (20 functions),
    then operator_norm_experiment with eps 0.3, delta 0.5, lam 0.1 and 0.05."""
    domain = bmoext.disk(1.0)
    window = domain.default_window
    suite_seed = SUITE_SEED + seed - DEFAULT_SEED
    res = 1 / 64
    state = {}

    def build():
        state["dec"] = whitney.build_whitney(domain, window, 6)
        return state["dec"]

    def suite():
        state["suite"] = extension.make_suite(domain, window, res, state["dec"],
                                              seed=suite_seed)
        return state["suite"]

    def twenty(suite):
        return [] if len(suite) == 20 else [f"suite has {len(suite)} functions, not 20"]

    def experiment(lam):
        return lambda: extension.operator_norm_experiment(
            domain, 0.3, 0.5, [lam], state["suite"], res, suite_seed,
            window=window, dec=state["dec"])

    def ratios(rows):
        errs = []
        for r in rows:
            if r["function"] == "zero":
                if r["ratio"] is not None:
                    errs.append(f"zero function ratio {r['ratio']} is not None")
            elif r["ratio"] is None or not math.isfinite(r["ratio"]):
                errs.append(f"{r['function']} ratio {r['ratio']} not finite")
        return errs

    return ([Op("suite-ratio disk:1 depth=6", build, [],
                lambda dec: len(dec.cubes)),
             Op(f"suite-ratio make_suite 1/64 seed={suite_seed}", suite, [twenty],
                lambda s: [name for name, _ in s])]
            + [Op(f"suite-ratio 1/64 lam={lam} seed={suite_seed}", experiment(lam), [ratios],
                  _rows_fingerprint, _same_rows)
               for lam in (0.1, 0.05)])


# ---------------------------------------------------------------------------
# CLI workloads

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_rows(path: Path) -> list[dict]:
    with open(path) as fh:
        fh.readline()                      # schema comment
        return list(csv.DictReader(fh))


def _pt(p) -> str:
    return f"{p[0]!r},{p[1]!r}"


def _cli_op(outdir: Path, name: str, argv: list[str], checks) -> Op:
    """One `bmoext` command run in-process, writing into its own directory.
    The key is the command line with the output root abstracted, and the
    fingerprint holds the digests of the command's CSV outputs."""
    d = outdir / name

    def run():
        code = cli.main(argv + ["--outdir", str(d)])
        if code != 0:
            raise RuntimeError(f"bmoext {argv[0]} exited with {code}")
        return d

    def fingerprint(d):
        return {f: _sha256(d / f) for f in REFERENCE_FILES[argv[0]]}

    return Op(" ".join(argv).replace(str(outdir), "<out>"), run, checks, fingerprint)


def _geodesic_value(d: Path) -> float:
    return float(_read_rows(d / "geodesic.csv")[0]["qh_length"])


def _near(truth: float, label: str):
    def _check(d: Path):
        v = _geodesic_value(d)
        return [] if _rel(v, truth) <= QH_TOL else \
            [f"{label}: qh length {v:.6g} not within {QH_TOL:.0%} of {truth:.6g}"]
    return _check


def _above_j(domain, x, y, label: str):
    """k(x, y) >= j(x, y): the geodesic cannot be shorter than the j-distance."""
    j = qhyper.j_distance(domain, x, y)

    def _check(d: Path):
        v = _geodesic_value(d)
        return [] if math.isfinite(v) and v >= (1.0 - QH_TOL) * j else \
            [f"{label}: qh length {v:.6g} below j-distance {j:.6g}"]
    return _check


def _verdict(want: str, label: str):
    def _check(d: Path):
        lines = (d / "classify_report.txt").read_text().splitlines()
        got = next((ln.split(":", 1)[1].strip() for ln in lines
                    if ln.startswith("verdict:")), None)
        return [] if got == want else [f"{label}: verdict {got}, expected {want}"]
    return _check


def polygon_geodesic(seed: int, outdir: Path) -> list[Op]:
    """CLI geodesics on cusp:4 (1/64), a square with a square hole (1/256),
    the half plane (1/512) and the unit disk (1/512), then CLI classify on
    l_shape and slit_disk:1,0.5 at 1/128 with 24 pairs."""
    rng = np.random.default_rng(seed)
    if seed == DEFAULT_SEED:
        cusp_a, cusp_b = (0.95, 0.0), (0.55, 0.0)
        sq_a, sq_b = (-0.7, 0.0), (0.7, 0.0)
    else:
        cusp_a = (float(rng.uniform(0.88, 0.96)), 0.0)
        cusp_b = (float(rng.uniform(0.55, 0.62)), 0.0)
        sq_a = (float(rng.uniform(-0.75, -0.65)), float(rng.uniform(-0.2, 0.2)))
        sq_b = (float(rng.uniform(0.65, 0.75)), float(rng.uniform(-0.2, 0.2)))
    cls_seed = str(CLASSIFY_SEED + seed - DEFAULT_SEED)

    # building and validating the domains is set-up work: the check needs
    # them, and a malformed domain file fails here before any timing
    square_file = outdir / "square_hole.dom"
    square_file.write_text(SQUARE_HOLE_FILE)
    cusp = bmoext.parse_domain_arg("cusp:4")
    square = bmoext.parse_domain_file(SQUARE_HOLE_FILE)
    bmoext.parse_domain_arg("l_shape")
    bmoext.parse_domain_arg("slit_disk:1,0.5")

    geo = ["geodesic", "--domain"]
    return [
        _cli_op(outdir, "cusp", geo + ["cusp:4", "--resolution", "1/64",
                                     f"--from={_pt(cusp_a)}", f"--to={_pt(cusp_b)}"],
              [_above_j(cusp, cusp_a, cusp_b, "cusp:4")]),
        _cli_op(outdir, "square_hole", geo + [str(square_file), "--resolution", "1/256",
                                            f"--from={_pt(sq_a)}", f"--to={_pt(sq_b)}"],
              [_above_j(square, sq_a, sq_b, "square hole")]),
        _cli_op(outdir, "half_plane", geo + ["half_plane", "--window=-2,0,4",
                                           "--resolution", "1/512",
                                           "--from=0,1", "--to=1,1"],
              [_near(HALF_PLANE_TRUTH, "half_plane")]),
        _cli_op(outdir, "disk", geo + ["disk:1", "--resolution", "1/512",
                                     "--from=-0.9,0", "--to=0.9,0"],
              [_near(DISK_DIAMETER_TRUTH, "disk diameter")]),
        _cli_op(outdir, "l_shape", ["classify", "--domain", "l_shape", "--resolution", "1/128",
                                  "--pairs", "24", "--delta", "0.5", "--seed", cls_seed],
              [_verdict("consistent-with-(eps,delta)", "l_shape")]),
        _cli_op(outdir, "slit_disk", ["classify", "--domain", "slit_disk:1,0.5",
                                    "--resolution", "1/128", "--pairs", "24",
                                    "--delta", "0.5", "--seed", cls_seed],
              [_verdict("evidence-against", "slit_disk")]),
    ]


def _cube_count(want: int, label: str):
    def _check(d: Path):
        got = sum(1 for r in _read_rows(d / "cubes.csv") if r["tag"] != "frontier")
        return [] if got == want else [f"{label}: {got} cubes, expected {want}"]
    return _check


def _norm_sane(d: Path):
    rows = {r["estimator"]: r for r in _read_rows(d / "norm.csv")}
    errs = []
    for name in ("bmo_homogeneous", "bmo_lambda"):
        v = float(rows[name]["value"]) if name in rows else math.nan
        if not (0.0 < v <= 10.0):
            errs.append(f"norm: {name} value {v} outside (0, 10]")
    return errs


def decompose_deep(seed: int, outdir: Path) -> list[Op]:
    """CLI decompose on disk:1 at depth 12 and slit_disk:1,0.5 at depth 11,
    then CLI norm of a quasi-hyperbolic distance field on disk:1 at 1/512."""
    if seed == DEFAULT_SEED:
        src = (0.3, 0.0)
    else:
        rng = np.random.default_rng(seed)
        r, th = float(rng.uniform(0.2, 0.4)), float(rng.uniform(0.0, 2.0 * math.pi))
        src = (r * math.cos(th), r * math.sin(th))
    return [
        _cli_op(outdir, "disk12", ["decompose", "--domain", "disk:1", "--max-depth", "12"],
              [_cube_count(87328, "disk:1 depth 12")]),
        _cli_op(outdir, "slit11", ["decompose", "--domain", "slit_disk:1,0.5",
                                 "--max-depth", "11"],
              [_cube_count(46866, "slit_disk depth 11")]),
        _cli_op(outdir, "norm", ["norm", "--domain", "disk:1", f"--function=qh:{_pt(src)}",
                               "--lambda", "0.25", "--resolution", "1/512"],
              [_norm_sane]),
    ]


WORKLOADS = {
    "window-growth": window_growth,
    "suite-ratio": suite_ratio,
    "polygon-geodesic": polygon_geodesic,
    "decompose-deep": decompose_deep,
}

# CSV outputs whose bytes are recorded for each CLI command.
REFERENCE_FILES = {
    "geodesic": ["geodesic.csv", "geodesic_points.csv"],
    "classify": ["classify_pairs.csv"],
    "decompose": ["cubes.csv"],
    "norm": ["norm.csv", "function_grid.csv"],
}
