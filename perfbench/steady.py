"""Steadiness check: two sets of runs of the same code, judged by the bounds.

    python3 perfbench/steady.py     # 2 sets x 10 seeds x every workload
    python3 perfbench/steady.py --report .perfbench_out/steady-<stamp>.jsonl

Set A uses seeds 1 to 10 and set B seeds 11 to 20; within a set the
workloads take turns seed by seed, and set B starts only after set A has
finished, so drift of the machine between the sets shows.  Every run's
result line is appended to a JSON-lines file as it arrives.  The report
gives, per workload and end-to-end metric, the median and quartiles of each
set, the spread (Q3 - Q1) / median, and whether

* each set's spread is within the metric's bound,
* set B's median is no worse than set A's by more than the bound,
* the share of failed operations is exactly the same in both sets.

The workloads, the run length and the bounds come from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # seeds per set
SETS = 2


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def collect(bench, log_path):
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    with open(log_path, "a", encoding="utf-8") as log:
        for s in range(SETS):
            for i in range(RUNS):
                seed = 1 + s * RUNS + i
                for w in workloads:
                    t0 = time.monotonic()
                    proc = subprocess.run(
                        [sys.executable, str(HERE / "run.py"), "--workload", w,
                         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
                    wall = time.monotonic() - t0
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
                    rec = {"set": s, "workload": w, "seed": seed, "wall_s": wall,
                           "exit": proc.returncode, "result": result}
                    log.write(json.dumps(rec) + "\n")
                    log.flush()
                    print(f"set {'AB'[s]} seed {seed:3d} {w:12s} exit {proc.returncode} "
                          f"wall {wall:5.1f}s correct "
                          f"{result and result['correct']}", file=sys.stderr)


def report(bench, log_path) -> bool:
    recs = [json.loads(line) for line in open(log_path, encoding="utf-8")]
    ok = True
    workloads = [w["name"] for w in bench["workloads"]]
    for w in workloads:
        mine = [r for r in recs if r["workload"] == w]
        if not mine:
            continue
        sets = sorted({r["set"] for r in mine})
        bad = [r for r in mine if r["result"] is None or not r["result"]["correct"]]
        shares = {s: {r["result"]["failed"] / r["result"]["attempted"]
                      for r in mine if r["set"] == s and r["result"]} for s in sets}
        walls = [r["wall_s"] for r in mine]
        print(f"\n{w}: {len(mine)} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"failed share {sorted(set().union(*shares.values()))}, "
              f"{len(bad)} runs not correct")
        ok &= not bad and len(set().union(*shares.values())) == 1
        print(f"  {'metric':16s} {'set':3s} {'Q1':>11s} {'median':>11s} {'Q3':>11s} "
              f"{'spread':>7s} {'bound':>6s}  verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in sets:
                vals = [r["result"]["metrics"][name]["value"] for r in mine
                        if r["set"] == s and r["result"]]
                if len(vals) < 2:
                    continue
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med
                medians.append(med)
                verdict = "ok" if spread <= bound else "SPREAD"
                ok &= verdict == "ok"
                print(f"  {name:16s} {'AB'[s]:3s} {q1:11.5g} {med:11.5g} {q3:11.5g} "
                      f"{spread:7.3f} {bound:6.3f}  {verdict}")
            if len(medians) < SETS:
                ok = False
                print(f"  {name:16s} B/A  no drift check: both sets need two runs  MISSING")
            else:
                a, b = medians
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                verdict = "ok" if worse <= bound else "DRIFT"
                ok &= verdict == "ok"
                print(f"  {name:16s} B/A  median change {worse:+.3f} (worse is +), "
                      f"bound {bound}  {verdict}")
    print("\nsteady: " + ("all within bounds" if ok else "NOT within bounds"))
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--report", default=None, help="summarize an existing JSON-lines file")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.report:
        return 0 if report(bench, args.report) else 1
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    log_path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.jsonl"
    print(f"steady: writing {log_path}", file=sys.stderr)
    collect(bench, log_path)
    return 0 if report(bench, log_path) else 1


if __name__ == "__main__":
    sys.exit(main())
