"""Print every metric of every workload and check that outputs are correct;
optionally write the results as a baseline.

    python3 bench/baseline.py [--out FILE] [--against FILE]

For each workload in BENCHMARK.json this runs `bench/run.py` once untraced
and once traced at each of the seeds 0..RUNS-1, one run at a time. It
prints each end-to-end metric's median, quartiles and spread (quartile
distance over median) next to its bound from BENCHMARK.json, then every
per-layer metric of the traced run at seed 0, then the counts in
layers.REPEAT_COUNTS at every seed, which show how much the work itself
changes from seed to seed. With --against it also compares each median with
the one in an earlier results file, and the counts seed by seed for exact
equality. It exits with 1 if any run reported an incorrect output, a spread
exceeded its bound, a median got worse by more than its bound, or a count
did not repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
sys.path.insert(0, str(RUN.parent))

from layers import REPEAT_COUNTS  # noqa: E402

RUNS = 10  # seeds 0..9, one untraced and one traced run each


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited with "
                         f"{proc.returncode}:\n{proc.stderr}")
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> str:
    mem_gb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return f"{os.cpu_count()} vCPU, {mem_gb:.0f} GB, numpy/scipy single-threaded"


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=None, help="write the results here as JSON")
    ap.add_argument("--against", default=None, help="earlier results to compare with")
    args = ap.parse_args()
    before = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    ok = True
    result = {"machine": machine(), "run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for w in (wl["name"] for wl in spec["workloads"]):
        t0 = time.monotonic()
        runs = [bench(w, seed, seconds, 0) for seed in range(RUNS)]
        ok &= all(r["correct"] for r in runs)
        entry = {"end_to_end": {}, "correct": [r["correct"] for r in runs]}
        print(f"\n{w}: {RUNS} untraced runs, correct {sum(r['correct'] for r in runs)}"
              f"/{len(runs)}, {time.monotonic() - t0:.0f} s")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            ok &= spread <= bound
            flag = ("  <-- over bound" if spread > bound
                    else "  <-- over a third of bound" if spread > bound / 3.0 else "")
            print(f"  {name:<14} median {med:12.6g} {unit:<6} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f} bound {bound}{flag}")
            entry["end_to_end"][name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                                         "spread": spread, "values": vals}
            if w in before:
                old = before[w]["end_to_end"][name]["median"]
                worse = (med - old) / old if better[name] == "lower" else (old - med) / old
                ok &= worse <= bound
                print(f"  {'':<14} earlier median {old:.6g}: worse by {worse:+.4f} "
                      f"(bound {bound}){'' if worse <= bound else '  <-- regression'}")

        traced = [bench(w, seed, seconds, 1) for seed in range(RUNS)]
        ok &= all(t["correct"] for t in traced)
        entry["per_layer"] = traced[0]["metrics"]
        entry["per_layer_correct"] = [t["correct"] for t in traced]
        entry["repeat_counts"] = {name: [t["metrics"][name]["value"] for t in traced]
                                  for name in REPEAT_COUNTS}
        print(f"  traced runs, correct {sum(t['correct'] for t in traced)}/{RUNS}; "
              f"per-layer metrics at seed 0:")
        for name, m in traced[0]["metrics"].items():
            print(f"    {name:<30} {m['value']:14.6g} {m['unit']}")
        print(f"  counts at seeds 0..{RUNS - 1} (max/min - 1 across seeds):")
        for name, vals in entry["repeat_counts"].items():
            lo, hi = min(vals), max(vals)
            change = hi / lo - 1.0 if lo else 0.0
            print(f"    {name:<26} {lo:g}..{hi:g} ({change:+.4f})")
            if w in before:
                old = before[w]["repeat_counts"][name]
                ok &= old == vals
                print(f"    {'':<26} {'repeat' if old == vals else 'DIFFER'} "
                      f"seed by seed against the earlier results")
        result["workloads"][w] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
