"""One benchmark process: set-up, then whole passes over one workload.

Started by ``run.py``; not meant to be run by hand.  Set-up is everything
before the first timed operation: interpreter start, ``import blc_lab``,
input generation from the seed and a warm-up on reduced inputs.  The
process prints the monotonic clock reading at the end of set-up, so the
parent can time set-up from the moment it launched the process.

An untraced run is split over ``WORKERS`` processes.  Each runs whole
passes over the workload's inputs until its timed operations add up to
``--seconds / WORKERS`` and it attempted its share of ``MIN_OPS``, and
prints its operation times; the parent pools them.  With ``--trace 1`` one
process alternates untraced and traced passes, in process, and reports
per-layer figures and the tracing overhead instead.

Reference values are computed in the first process of a run and handed to
the next ones through a pickle in the run's own work directory.
"""
from __future__ import annotations

import argparse
import json
import math
import pickle
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import WALL_CAP_S, WORKERS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_OPS = 40  # a tail percentile needs at least ten samples beyond it


def run_passes(workload, seconds, passes=None, in_process=False, tracer=None, min_ops=0,
               wall_cap=WALL_CAP_S):
    """Whole passes until ``seconds`` of timed work and ``min_ops`` operations
    (or exactly ``passes`` passes); no pass starts after ``wall_cap`` seconds."""
    lat, failed, errors, done = [], 0, [], 0
    start = time.monotonic()
    while True:
        if passes is not None and done >= passes:
            break
        if passes is None and sum(lat) >= seconds and len(lat) >= min_ops:
            break
        if passes is None and time.monotonic() - start > wall_cap:
            break
        for item in workload.items:
            workload.before(item)
            if tracer is not None:
                tracer.op += 1
            t0 = time.perf_counter()
            try:
                out = workload.run_traced(item) if in_process else workload.run(item)
            except Exception as exc:  # an operation that raises counts as failed
                lat.append(time.perf_counter() - t0)
                failed += 1
                errors.append(f"{item.kind}: raised {type(exc).__name__}: {exc}")
                continue
            lat.append(time.perf_counter() - t0)
            if tracer is not None and hasattr(workload, "artifact_bytes"):
                tracer.count("cli.emit_bytes", workload.artifact_bytes(item))
            if workload.failed(item, out):
                failed += 1
                if not item.known_fault:
                    errors.append(f"{item.kind}: failed with {out}")
            else:
                errors.extend(workload.check(item, out))
        done += 1
    return lat, failed, errors, done


def import_seconds(samples=3) -> float:
    """Median time of ``import blc_lab`` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import blc_lab; print(time.perf_counter() - t)")
    times = []
    for _ in range(samples):
        out = subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                             stdout=subprocess.PIPE, text=True, timeout=60).stdout
        times.append(float(out.strip()))
    return statistics.median(times)


def end_to_end(workload, seconds):
    lat, failed, errors, _ = run_passes(workload, seconds / WORKERS,
                                        min_ops=math.ceil(MIN_OPS / WORKERS),
                                        wall_cap=WALL_CAP_S / WORKERS)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return {"latencies_ms": [t * 1e3 for t in lat], "tail_pct": workload.tail_pct,
            "pass_len": len(workload.items), "per_input_mean": workload.per_input_mean,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            "attempted": len(lat), "failed": failed}, errors


def traced(workload, seconds, blc, trace_path):
    """Alternate untraced and traced passes of the in-process operations.

    Alternating makes slow drift of the machine cancel out of the overhead
    estimate; per-layer figures come from the traced passes only.
    """
    from tracer import Tracer
    tracer = Tracer(blc)
    base, lat, failed, errors = [], [], 0, []
    start = time.monotonic()
    while sum(base) < seconds / 2 and time.monotonic() - start < WALL_CAP_S:
        b, f0, e0, _ = run_passes(workload, 0, passes=1, in_process=True)
        tracer.install()
        try:
            t, f1, e1, _ = run_passes(workload, 0, passes=1, in_process=True, tracer=tracer)
        finally:
            tracer.uninstall()
        base, lat, failed, errors = base + b, lat + t, failed + f0 + f1, errors + e0 + e1
    tracer.dump(trace_path)
    metrics = tracer.metrics(len(lat))
    metrics["trace.overhead_pct"] = (100.0 * (sum(lat) / sum(base) - 1.0), "%")
    metrics["cli.import_s"] = (import_seconds(), "s")
    return len(base) + len(lat), failed, errors, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import blc_lab
    import blc_lab.cli  # noqa: F401  (the cli workload's in-process form)
    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload](blc_lab, args.seed, workdir)
    workload.warm_up()
    ready = time.monotonic()

    workdir.mkdir(parents=True, exist_ok=True)
    refs = workdir / "refs.pkl"
    if refs.exists():
        with open(refs, "rb") as fh:
            for item, ref in zip(workload.items, pickle.load(fh)):
                item.ref = ref
    if args.trace:
        trace_path = workdir.parent / f"trace-{args.workload}-seed{args.seed}.json"
        attempted, failed, errors, metrics = traced(workload, args.seconds, blc_lab, trace_path)
        result = {"attempted": attempted, "failed": failed,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    else:
        result, errors = end_to_end(workload, args.seconds)
    if not refs.exists():
        with open(refs, "wb") as fh:
            pickle.dump([item.ref for item in workload.items], fh)
    for e in sorted(set(errors)):
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({"ready": ready, "correct": not errors, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
