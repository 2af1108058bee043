"""Benchmark of blc_lab: one seeded, closed-loop workload per call.

    python3 perfbench/run.py --workload certify_1d --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it uses the package in ``src/``.
Workloads: certify_1d, convolution, scan_nd, cli (see perfbench/README.md).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured untraced; with ``--trace 1``
they are the per-layer figures of a traced run and its overhead.

An untraced run is split over ``WORKERS`` worker processes run one after
another, each measuring an equal share of ``--seconds``; their operation
times are pooled, so no single process's luck (memory layout, a busy
moment of the machine) decides a run.  Set-up is measured from the launch
of a worker to its first timed operation, and ``setup_s`` is the median
over the workers.  All workers of a run share one wall-time budget; when
the program is so slow that the next worker would not finish within it,
the run pools the workers that did finish instead of failing.  This
launcher imports nothing but the standard library.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("certify_1d", "convolution", "scan_nd", "cli")
WORKERS = 5
BUDGET_S = 170.0     # wall time of all workers of one run together
WALL_CAP_S = 100.0   # measuring time of a run; no worker starts a pass after its share
MAX_SECONDS = 60.0   # leaves room under WALL_CAP_S for the checks between operations
# numpy's BLAS would run two threads on the 2-core host; its speed then follows
# the load on the other core (see the README), so workers and their children use one
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def spawn(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run one worker; return its set-up time and its result line."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                          env={**os.environ, **ONE_BLAS_THREAD},
                          stdout=subprocess.PIPE, text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc.pop("ready") - t0, doc


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def untraced(args: list[str]) -> list[tuple[float, dict]]:
    """Run the workers one after another within ``BUDGET_S``.

    A worker is not started when the time left is shorter than the longest
    worker so far, and one that runs past the budget is stopped; the run
    then keeps the workers that finished, which did whole passes too.
    """
    deadline = time.monotonic() + BUDGET_S
    parts, longest = [], 0.0
    for _ in range(WORKERS):
        left = deadline - time.monotonic()
        if parts and left < longest:
            break
        t0 = time.monotonic()
        try:
            parts.append(spawn(args, left))
        except subprocess.TimeoutExpired:
            if not parts:
                raise
            break
        longest = max(longest, time.monotonic() - t0)
    return parts


def pooled(parts: list[tuple[float, dict]]) -> dict:
    """One result line from the workers' set-up times and operation times.

    The latency metrics come from every operation time, or, for a workload
    that sets ``per_input_mean``, from each input's mean time over all passes
    of all workers.

    The first worker also computes the reference values for the checks,
    which the later ones load, so peak memory is taken from the later ones.
    """
    docs = [doc for _, doc in parts]
    lat = sorted(t for doc in docs for t in doc["latencies_ms"])
    typical = lat
    if docs[0]["per_input_mean"]:
        # workers run whole passes, so the k-th time of a worker is input k % n
        n = docs[0]["pass_len"]
        typical = sorted(statistics.fmean(t for doc in docs for t in doc["latencies_ms"][i::n])
                         for i in range(n))
    metrics = {
        "setup_s": (statistics.median(s for s, _ in parts), "s"),
        "ops_per_s": (1e3 * len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (percentile(typical, 50.0), "ms"),
        "latency_tail_ms": (percentile(typical, docs[0]["tail_pct"]), "ms"),
        "peak_rss_mb": (max(doc["peak_rss_mb"] for doc in docs[1:] or docs), "MB"),
    }
    print(f"{len(lat)} operations from {len(docs)} workers, tail at p{docs[0]['tail_pct']:g}"
          + (f" of {len(typical)} per-input means" if typical is not lat else "")
          + "; setup_s samples: "
          + " ".join(f"{s:.3f}" for s, _ in parts), file=sys.stderr)
    return {"correct": all(doc["correct"] for doc in docs),
            "attempted": sum(doc["attempted"] for doc in docs),
            "failed": sum(doc["failed"] for doc in docs),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        ap.error(f"--seconds must be above 0 and at most {MAX_SECONDS:g}")
    if not (ROOT / "src" / "blc_lab" / "__init__.py").is_file():
        print(f"run.py: no blc_lab package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = OUT / f"run-{args.workload}-seed{args.seed}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--workdir", str(workdir)]
    try:
        if args.trace:
            _, doc = spawn(common + ["--trace", "1"], BUDGET_S)
        else:
            doc = pooled(untraced(common))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
