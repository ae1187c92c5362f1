"""Benchmark driver for bmoext.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every pass of the workload runs in a fresh
child process (bench/worker.py), one after another, never two at once, with
numpy and scipy held to one thread. Passes repeat until S seconds have gone
(at least one). The last line of standard output is one JSON object:

- --trace 0: the end-to-end metrics, measured untraced. wall_s and
  peak_rss_mb are medians over the passes; setup_s is the median over the
  passes plus SETUP_REPEATS set-up-only children before the passes and as
  many after them, so the set-up samples span the run as the passes do;
  ok_frac counts operations whose result passed its check.
- --trace 1: the per-layer metrics of bench/layers.py from traced passes,
  each traced pass paired with an untraced one for bench.trace_overhead.

The metric and workload names emitted must match BENCHMARK.json one to one,
and a traced pass fails if a layer the workload is meant to exercise never
fired. Outputs of the CLI operations go to .bench_out/ and are removed after
each pass; the spans of the last traced pass are kept in .bench_out/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402  (standard library only; bmoext is imported by workers)

ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = ["window-growth", "suite-ratio", "polygon-geodesic", "decompose-deep"]
END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "ok_frac": "ratio"}
SETUP_REPEATS = 4          # set-up-only children before the passes, and again after
RUN_BUDGET_S = 170.0       # a run must end within 180 s
CHILD_TIMEOUT_S = 160.0


class BenchError(Exception):
    pass


def check_spec(spec: dict):
    """Harness self-test: names are well formed and the names in
    BENCHMARK.json match the ones this driver emits, one to one."""
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    bad = [n for n in names if not NAME_RE.fullmatch(n)]
    if bad:
        raise BenchError(f"malformed names in BENCHMARK.json: {bad}")
    pairs = [("workloads", [w["name"] for w in spec["workloads"]], WORKLOADS),
             ("end_to_end", [m["name"] for m in spec["end_to_end"]], list(END_TO_END)),
             ("per_layer", [m["name"] for m in spec["per_layer"]], list(layers.METRICS))]
    for key, declared, emitted in pairs:
        if sorted(declared) != sorted(emitted) or len(set(declared)) != len(declared):
            raise BenchError(f"BENCHMARK.json {key} {sorted(declared)} != "
                             f"driver's {sorted(emitted)}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    driver_units = {**END_TO_END, **layers.METRICS}
    wrong = {n: (units[n], driver_units[n]) for n in units if units[n] != driver_units[n]}
    if wrong:
        raise BenchError(f"units differ between BENCHMARK.json and the driver: {wrong}")


def child(workload: str, seed: int, mode: str, deadline: float, tag: str) -> dict:
    """Run one worker to completion and return its JSON line."""
    outdir = OUT / f"{os.getpid()}-{tag}"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--outdir", str(outdir)]
    if mode == "trace":
        cmd += ["--spans", str(OUT / "spans" / f"{workload}-seed{seed}.json")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    timeout = min(CHILD_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        raise BenchError("run budget exhausted before the pass could start")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} pass exceeded {timeout:.0f} s") from None
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} pass exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    res = json.loads(lines[-1])
    here = (ROOT / "src" / "bmoext" / "__init__.py").resolve()
    if Path(res["bmoext"]).resolve() != here:
        raise BenchError(f"worker imported {res['bmoext']}, not the checkout's {here}")
    for msg in res.get("failures", []):
        print(f"check failed: {msg}", file=sys.stderr)
    return res


def run_untraced(workload, seed, seconds, deadline):
    def setup_only(tag):
        return [child(workload, seed, "setup", deadline, f"{tag}{k}")["setup_s"]
                for k in range(SETUP_REPEATS)]

    setups = setup_only("setup-before")
    passes = []
    start = time.monotonic()
    while not passes or (time.monotonic() - start < seconds
                         and time.monotonic() + passes[-1]["wall_s"] * 1.5 < deadline):
        passes.append(child(workload, seed, "run", deadline, f"run{len(passes)}"))
    setups += setup_only("setup-after") + [p["setup_s"] for p in passes]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setups),
        "ok_frac": (attempted - failed) / attempted,
    }
    return metrics, END_TO_END, attempted, failed, []


def run_traced(workload, seed, seconds, deadline):
    plain, traced = [], []
    start = time.monotonic()
    while not traced or (time.monotonic() - start < seconds
                         and time.monotonic() + 3.0 * traced[-1]["wall_s"] < deadline):
        plain.append(child(workload, seed, "run", deadline, f"run{len(plain)}"))
        traced.append(child(workload, seed, "trace", deadline, f"trace{len(traced)}"))
    problems = [f"unwrapped binding {b}" for t in traced for b in t["unpatched"]]
    metrics = {name: statistics.median(t["layers"][name] for t in traced)
               for name in layers.METRICS if name != "bench.trace_overhead"}
    metrics["bench.trace_overhead"] = (statistics.median(t["wall_s"] for t in traced)
                                       / statistics.median(p["wall_s"] for p in plain) - 1.0)
    problems += [f"{name} never fired on {workload}"
                 for name in layers.EXPECTED[workload]
                 if any(t["layers"][name] <= 0 for t in traced)]
    passes = plain + traced
    return (metrics, layers.METRICS, sum(p["attempted"] for p in passes),
            sum(p["failed"] for p in passes), problems)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if not (ROOT / "src" / "bmoext" / "__init__.py").is_file():
            raise BenchError(f"no bmoext sources under {ROOT / 'src'}; "
                             "run from the root of a checkout")
        spec_path = ROOT / "BENCHMARK.json"
        if not spec_path.is_file():
            raise BenchError(f"{spec_path} is missing")
        check_spec(json.loads(spec_path.read_text()))
        run = run_traced if args.trace else run_untraced
        metrics, units, attempted, failed, problems = run(
            args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if set(metrics) != set(units):
        print(f"bench: emitted {sorted(metrics)} != declared {sorted(units)}", file=sys.stderr)
        return 2
    for msg in problems:
        print(f"trace check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
