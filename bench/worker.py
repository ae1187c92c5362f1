"""One pass of one workload in a fresh process; prints one JSON line.

    python3 bench/worker.py --workload NAME --seed N --mode MODE --outdir DIR

MODE is `setup` (set up and stop), `run` (one untraced pass), `trace` (one
traced pass, spans written to --spans) or `record` (one untraced pass that
writes the outputs' fingerprints to reference.json). The driver, run.py,
starts this script with the checkout's `src` on PYTHONPATH.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (imports bmoext: part of set-up time)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "run", "trace", "record"])
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.WORKLOADS[args.workload](args.seed, outdir)
    setup_s = time.perf_counter() - T0
    out = {"setup_s": setup_s, "bmoext": workloads.bmoext.__file__}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "trace":
        import layers
        tracer = layers.Tracer(f"{args.workload}/seed={args.seed}")
        tracer.install()
    results = []
    start = time.perf_counter()
    for op in ops:
        try:
            with tracer.span("bench.op") if tracer else contextlib.nullcontext():
                results.append((True, op.run()))
        except Exception:  # an operation that raises counts as failed
            results.append((False, traceback.format_exc(limit=3)))
    wall_s = time.perf_counter() - start
    # before the checks, which read the outputs back
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["unpatched"] = tracer.missed()
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        if args.spans:
            tracer.dump(Path(args.spans))

    refs = {} if args.mode == "record" else workloads.load_references()
    failures = []
    failed_ops = 0
    record = {}
    for op, (ok, result) in zip(ops, results):
        if ok:
            try:
                errs = op.verify(result, refs)
            except Exception:  # a check that cannot read the output fails the operation
                errs = [f"check raised\n{traceback.format_exc(limit=3)}"]
        else:
            errs = [f"raised\n{result}"]
        if ok and args.mode != "record" and args.seed == workloads.DEFAULT_SEED \
                and op.key not in refs:
            errs.append("no reference recorded for the default seed")
        if errs:
            failed_ops += 1
            failures += [f"{op.key}: {e}" for e in errs]
        elif args.mode == "record":
            record[op.key] = op.fingerprint(result)
    if args.mode == "record":
        old = workloads.load_references() if workloads.REFERENCE_PATH.exists() else {}
        merged = {**old, **record}
        workloads.REFERENCE_PATH.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")

    out.update({
        "wall_s": wall_s,
        "attempted": len(ops),
        "failed": failed_ops,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
