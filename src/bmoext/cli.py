"""Command-line front end: reproducible experiments with CSV and SVG output.

Subcommands: decompose, geodesic, classify, norm, extend, report. A fixed
seed makes every output byte-identical across runs; numeric rows always
carry the resolution and, where applicable, an error-bound column.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import bmo, cigar, extension, svgout
from .domains import Domain, parse_domain_arg, parse_domain_file
from .dyadic import EVAL_BUDGET, Window, resolution_level
from .errors import GeometryError, PolygonError
from .qhyper import build_metric_graph, qh_distance
from .whitney import FRONTIER, build_whitney

CSV_VERSION = "bmoext-csv v1"
GRID_VERSION = "bmoext-grid v1"


def _fmt(v):
    if v is None:
        return "NA"
    if isinstance(v, float):
        if math.isnan(v):
            return "NA"
        return f"{v:.12g}"
    return str(v)


def _needs_quotes(text: str, alone: bool) -> bool:
    """Whether csv.writer (excel dialect) quotes a field: it holds a comma,
    a quote or a line break, or it is empty and alone in its row."""
    return (alone and not text) or any(ch in text for ch in ',"\r\n')


def _cells(col, alone: bool) -> tuple[str, list]:
    """A %-code and the values it prints, so that each entry of a column
    prints as `_fmt` prints it, quoted where csv.writer quotes it. Numpy
    columns are read by `tolist()`, which gives the digits of their scalars."""
    if isinstance(col, np.ndarray) and col.dtype.kind in "iu":
        return "%d", col.tolist()
    if isinstance(col, np.ndarray) and col.dtype == np.float64:
        values = col.tolist()
        nan = np.flatnonzero(np.isnan(col)).tolist()
        if not nan:
            return "%.12g", values
        text = list(map("%.12g".__mod__, values))
        for k in nan:
            text[k] = "NA"
        return "%s", text
    if isinstance(col, np.ndarray) and col.dtype.kind in "bU":
        text = list(map(str, col.tolist()))
    else:
        text = list(map(_fmt, col))
    if _needs_quotes("".join(text), alone) or (alone and "" in text):
        text = ['"' + t.replace('"', '""') + '"' if _needs_quotes(t, alone) else t
                for t in text]
    return "%s", text


def _csv_rows(columns) -> str:
    """Rows of one or more equal-length columns, as csv.writer writes them."""
    codes, values = zip(*(_cells(c, len(columns) == 1) for c in columns))
    return "".join(map((",".join(codes) + "\r\n").__mod__, zip(*values)))


def write_csv(path, schema: str, header: list[str], columns):
    """Write a table given as equal-length columns (arrays or sequences),
    a chunk of rows at a time; each value prints as `_fmt` prints it."""
    n = len(columns[0]) if len(columns) else 0
    step = EVAL_BUDGET
    with open(path, "w", newline="") as fh:
        fh.write(f"# {CSV_VERSION} schema={schema}\n")
        fh.write(_csv_rows([[h] for h in header]))
        for lo in range(0, n, step):
            fh.write(_csv_rows([c[lo:lo + step] for c in columns]))


def read_csv(path):
    with open(path) as fh:
        first = fh.readline()
        schema = None
        if first.startswith("#"):
            for tok in first.split():
                if tok.startswith("schema="):
                    schema = tok.split("=", 1)[1]
        else:
            fh.seek(0)
        rows = list(csv.reader(fh))
    return schema, rows[0], rows[1:]


def write_grid(path, gf: bmo.GridFunction):
    step = max(1, EVAL_BUDGET // gf.n_cells)     # grid lines per pass
    with open(path, "w") as fh:
        fh.write(f"# {GRID_VERSION}\n")
        fh.write(f"# window: {gf.window.origin[0]!r} {gf.window.origin[1]!r} "
                 f"{gf.window.size!r}\n")
        fh.write(f"# cells: {gf.n_cells}\n")
        for title, block, kind in (("values (line index = x cell index)", gf.values, float),
                                   ("mask (0 outside, 1 inside, 2 straddling)", gf.mask, int)):
            fh.write(f"# block: {title}\n")
            for lo in range(0, gf.n_cells, step):
                lines = block[lo:lo + step].astype(kind).tolist()
                fh.write("".join(",".join(map(repr, line)) + "\n" for line in lines))


def read_grid(path) -> bmo.GridFunction:
    window = None
    n = None
    values = []
    masks = []
    block = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# window:"):
                    x0, y0, size = (float(t) for t in line.split(":")[1].split())
                    window = Window((x0, y0), size)
                elif line.startswith("# cells:"):
                    n = int(line.split(":")[1])
                elif "block: values" in line:
                    block = values
                elif "block: mask" in line:
                    block = masks
                continue
            if block is not None:
                block.append(line.split(","))
    if (window is None or n is None or n < 1 or n & (n - 1) or len(values) != n
            or len(masks) != n or any(len(row) != n for row in values + masks)):
        raise ValueError(f"malformed grid file {path}")
    codes = [[int(v) for v in row] for row in masks]
    if not {c for row in codes for c in row} <= {0, 1, 2}:
        raise ValueError(f"malformed grid file {path}")
    vals = np.array([[float(v) for v in row] for row in values])
    return bmo.GridFunction(window, resolution_level(1.0 / n), vals,
                            np.array(codes, dtype=np.int8))


# ---------------------------------------------------------------------------
# argument parsing helpers

def _parse_resolution(text: str) -> float:
    try:
        return 2.0 ** -resolution_level(float(Fraction(text)))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"resolution must be 1/2^k, got {text}") from exc


def _parse_window(text: str) -> Window:
    parts = [float(t) for t in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("window is x0,y0,side")
    return Window((parts[0], parts[1]), parts[2])


def _parse_point(text: str):
    parts = [float(t) for t in text.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("point is x,y")
    return np.array(parts)


def _load_domain(text: str) -> Domain:
    if text.startswith("@") or os.path.exists(text):
        return parse_domain_file(Path(text.removeprefix("@")).read_text())
    return parse_domain_arg(text)


def _make_function(spec: str, domain, window, resolution, seed):
    """Builtin generators: const:c, ramp, coord:x|y, qh:ax,ay,
    dipole:x1,y1,x2,y2,r1,r2, cellwise:depth, or csv:path."""
    name, _, args = spec.partition(":")
    level = resolution_level(resolution)
    if name == "const":
        c = float(args or 1.0)
        return bmo.sample_grid_function(domain, window, level,
                                        lambda p: np.full(len(p), c), everywhere=True)
    if name == "ramp":
        return bmo.sample_grid_function(domain, window, level,
                                        lambda p: np.maximum(p[:, 0], 0.0),
                                        everywhere=True)
    if name == "coord":
        if (args or "x") not in ("x", "y"):
            raise ValueError(f"coord axis must be x or y, got {args!r}")
        axis = 0 if (args or "x") == "x" else 1
        return bmo.sample_grid_function(domain, window, level,
                                        lambda p: p[:, axis], everywhere=True)
    if name == "qh":
        a = [float(t) for t in args.split(",")]
        if len(a) != 2:
            raise ValueError(f"qh takes ax,ay, got {args!r}")
        return bmo.qh_distance_field(bmo.field_graph(domain, window, level), a)
    if name == "dipole":
        v = [float(t) for t in args.split(",")]
        if len(v) != 6:
            raise ValueError(f"dipole takes x1,y1,x2,y2,r1,r2, got {args!r}")
        return bmo.dipole_field(bmo.field_graph(domain, window, level),
                                v[0:2], v[2:4], v[4], v[5])
    if name == "cellwise":
        depth = int(args or level)
        dec = build_whitney(domain, window, depth)
        return bmo.whitney_cellwise_field(dec, level, np.random.default_rng(seed))
    if name == "csv":
        f = read_grid(args)
        if (f.window, f.level) != (window, level):
            raise ValueError(f"grid file {args} holds {f.window} at {f.n_cells} cells per "
                             f"side; the command asks for {window} at {1 << level}")
        return f
    raise ValueError(f"unknown function spec {spec!r}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_decompose(args, domain: Domain, window: Window, out: Path):
    depth = resolution_level(args.resolution) if args.max_depth is None else args.max_depth
    dec = build_whitney(domain, window, depth)
    c, fr = dec.cubes, dec.frontier
    level = np.concatenate([c["level"], fr[:, 0]])
    unknown = np.full(len(fr), np.nan)          # frontier cells carry no distances
    write_csv(out / "cubes.csv", "whitney-cubes",
              ["tag", "level", "i", "j", "side", "dist_lo", "dist_hi"],
              [np.concatenate([c["tag"], np.full(len(fr), FRONTIER)]), level,
               np.concatenate([c["i"], fr[:, 1]]), np.concatenate([c["j"], fr[:, 2]]),
               window.cell_sizes(level), np.concatenate([c["dist_lo"], unknown]),
               np.concatenate([c["dist_hi"], unknown])])
    svgout.render_decomposition(dec, out / "decomposition.svg")
    print(f"{len(dec.cubes)} cubes, frontier fraction "
          f"{dec.frontier_volume_fraction:.3e} -> {out}")
    return 0


def cmd_geodesic(args, domain: Domain, window: Window, out: Path):
    value, pl = qh_distance(build_metric_graph(domain, window, args.resolution),
                            args.frm, args.to)
    row = (args.resolution, value, pl.qh_error, pl.euclidean_length, len(pl.points))
    write_csv(out / "geodesic.csv", "geodesic",
              ["resolution", "qh_length", "err_bound", "euclid_length",
               "vertices"], [[v] for v in row])
    write_csv(out / "geodesic_points.csv", "geodesic-points", ["x", "y"],
              [pl.points[:, 0], pl.points[:, 1]])
    svgout.render_curves(domain, window, [pl], out / "geodesic.svg")
    print(f"qh distance {value:.6g} (err bound {pl.qh_error:.2g}) -> {out}")
    return 0


def cmd_classify(args, domain: Domain, window: Window, out: Path):
    rep = cigar.classify(domain, args.delta, args.pairs, args.resolution,
                         args.seed, window=window)
    rows = [(p.kind, p.scale_index, p.x[0], p.x[1], p.y[0], p.y[1], p.sep,
             p.eps_curve, p.eps_cap, p.a, p.b, p.j_xy, p.k_xy,
             args.resolution)
            for p in rep.pairs]
    write_csv(out / "classify_pairs.csv", "classify-pairs",
              ["kind", "scale", "x0", "x1", "y0", "y1", "sep", "eps_curve",
               "eps_cap", "a", "b", "j", "k", "resolution"], list(zip(*rows)))
    with open(out / "classify_report.txt", "w") as fh:
        fh.write(f"domain: {rep.domain_label}\n")
        fh.write(f"delta: {_fmt(rep.delta)}\nverdict: {rep.verdict}\n")
        fh.write(f"epsilon_hat: {_fmt(rep.epsilon_hat)}\n")
        fh.write(f"ab_hat: {_fmt(rep.ab_hat[0])} {_fmt(rep.ab_hat[1])}\n")
        fh.write(f"cd_hat: {_fmt(rep.cd_hat[0])} {_fmt(rep.cd_hat[1])}\n")
        fh.write(f"pairs: {rep.pair_count}\nflagged: {rep.flagged_pairs}\n")
        fh.write("cap_scale_minima: " + " ".join(
            f"{k}:{_fmt(v)}" for k, v in rep.cap_scale_minima) + "\n")
        fh.write("fit_offsets: " + " ".join(
            f"{k}:{_fmt(v)}" for k, v in rep.fit_offsets) + "\n")
    curves = [p.curve for p in rep.worst_pairs if p.curve is not None][:4]
    if curves:
        svgout.render_curves(domain, window, curves, out / "worst_pairs.svg")
    print(f"verdict: {rep.verdict} (eps_hat {_fmt(rep.epsilon_hat)}) -> {out}")
    return 0


def cmd_norm(args, domain: Domain, window: Window, out: Path):
    f = _make_function(args.function, domain, window, args.resolution, args.seed)
    reports = [("bmo_homogeneous", bmo.bmo_homogeneous_norm(f, domain))]
    if args.lam is not None:
        reports.append(("bmo_lambda", bmo.bmo_lambda_norm(f, domain, args.lam)))
        try:
            reports.append(("dyadic_abc", bmo.dyadic_abc_norm(f, args.lam)))
        except ValueError:
            pass  # function only defined on the domain side
    rows = []
    with open(out / "norm_report.txt", "w") as fh:
        for name, rep in reports:
            fh.write(f"[{name}] value={_fmt(rep.value)} "
                     f"small={_fmt(rep.small_scale_part)} "
                     f"large={_fmt(rep.large_scale_part)} "
                     f"lam={_fmt(rep.lam)} attaining={rep.attaining_cube} "
                     f"abc={rep.abc} degenerate={rep.degenerate} "
                     f"excluded={_fmt(rep.excluded_volume_fraction)}\n")
            a, b, c = rep.abc if rep.abc else (None, None, None)
            rows.append((name, rep.value, rep.small_scale_part,
                         rep.large_scale_part, rep.lam, a, b, c,
                         rep.degenerate, rep.excluded_volume_fraction,
                         args.resolution))
    write_csv(out / "norm.csv", "norm-report",
              ["estimator", "value", "small_part", "large_part", "lam",
               "a", "b", "c", "degenerate", "excluded_fraction",
               "resolution"], list(zip(*rows)))
    write_grid(out / "function_grid.csv", f)
    print(f"norms written -> {out}")
    return 0


def cmd_extend(args, domain: Domain, window: Window, out: Path):
    depth = resolution_level(args.resolution) if args.max_depth is None else args.max_depth
    dec = build_whitney(domain, window, depth)
    f = _make_function(args.function, domain, window, args.resolution, args.seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plan = extension.plan_extension(dec, f.mask, args.lam, args.epsilon,
                                        args.delta, best_effort=args.best_effort)
    res = extension.extend(f, plan)
    write_grid(out / "extend_grid.csv", res.extended)
    a = res.assignment
    write_csv(out / "assignment.csv", "extend-assignment",
              ["level", "i", "j", "star_level", "star_i", "star_j"],
              a[np.lexsort(a.T[::-1])].T)           # rows in lexicographic order
    row = (args.lam, args.epsilon, args.delta, args.resolution,
           res.input_norm, res.output_norm, res.ratio,
           len(res.assignment), len(res.zero_region), len(res.failed),
           res.frontier_filled)
    write_csv(out / "extend_summary.csv", "extend-summary",
              ["lam", "epsilon", "delta", "resolution", "input_norm",
               "output_norm", "ratio", "assigned", "zeroed", "failed",
               "frontier_filled"], [[v] for v in row])
    svgout.render_grid(res.extended, domain, out / "extend.svg")
    print(f"extension ratio {_fmt(res.ratio)} -> {out}")
    return 0


# schema -> (column, reduction, note label, note when the column is all NA)
REPORT_NOTES = {
    "extend-summary": ("ratio", max, "max_ratio", "all NA"),
    "classify-pairs": ("eps_cap", min, "min_cap", ""),
    "norm-report": ("value", max, "max_value", ""),
}


def cmd_report(args, out: Path):
    results = Path(args.results)
    lines = []
    summary = []
    for p in sorted(results.rglob("*.csv")):
        try:
            schema, header, rows = read_csv(p)
        except Exception:
            continue
        if schema is None:
            continue
        entry = [str(p.relative_to(results)), schema, len(rows)]
        note = ""
        if schema in REPORT_NOTES and rows:
            col, pick, label, empty = REPORT_NOTES[schema]
            try:
                idx = header.index(col)
                vals = [float(r[idx]) for r in rows if r[idx] != "NA"]
            except (ValueError, IndexError):
                raise ValueError(f"{p}: schema {schema} needs a numeric {col!r} "
                                 "column in every row") from None
            note = f"{label}={_fmt(pick(vals))}" if vals else empty
        summary.append(entry + [note])
        lines.append(f"{entry[0]}: schema={schema} rows={len(rows)} {note}")
    write_csv(out / "summary.csv", "report-summary",
              ["file", "schema", "rows", "note"], list(zip(*summary)))
    with open(out / "report.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{len(summary)} result files -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bmoext",
        description="Whitney decompositions, quasi-hyperbolic geodesics, "
                    "bmo-scale norms and boundary extensions on planar domains")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--domain", required=True,
                       help="builtin[:params] or a domain spec file")
        p.add_argument("--window", type=_parse_window, default=None,
                       help="x0,y0,side (default: the domain's window)")
        p.add_argument("--resolution", type=_parse_resolution, default=1 / 256)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--outdir", default=os.environ.get("BMOEXT_OUTDIR", "out"))

    p = sub.add_parser("decompose", help="build the Whitney families")
    common(p)
    p.add_argument("--max-depth", type=int, default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("geodesic", help="quasi-hyperbolic distance and curve")
    common(p)
    p.add_argument("--from", dest="frm", type=_parse_point, required=True)
    p.add_argument("--to", dest="to", type=_parse_point, required=True)
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("classify", help="cigar-condition diagnostics")
    common(p)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--pairs", type=int, default=48)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("norm", help="bmo norm estimates of a grid function")
    common(p)
    p.add_argument("--function", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("extend", help="extend a function across the boundary")
    common(p)
    p.add_argument("--function", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--best-effort", action="store_true")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("report", help="aggregate result CSVs")
    p.add_argument("--results", required=True)
    p.add_argument("--outdir", default=os.environ.get("BMOEXT_OUTDIR", "out"))
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        if args.command == "report":
            return args.func(args, out)
        domain = _load_domain(args.domain)
        return args.func(args, domain, args.window or domain.default_window, out)
    except (PolygonError, ValueError, KeyError, FileNotFoundError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
