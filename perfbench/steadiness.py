#!/usr/bin/env python3
"""Steadiness check for the campaign benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--json PATH]

Runs two interleaved sets (A and B) of --runs runs of every workload in
BENCHMARK.json, for its run_seconds each.  Both sets use seeds 1..--runs,
so they run the same injections and differ only in when they ran.  Prints
for every end-to-end metric of every workload each set's median and
quartiles, the spread (Q3 - Q1) / median, and how far set B's median lies
from set A's.  A metric passes when both spreads stay within its bound in
BENCHMARK.json and B's median is not worse than A's by more than the
bound; the failed share of attempted operations must match.  The bounds in
BENCHMARK.json come from this output.  Exit code 1 if any check fails.
Raw results go to --json (default .bench_out/steadiness.json).
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--json", default=str(ROOT / ".bench_out" / "steadiness.json"))
    args = ap.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            # Alternate which set goes first, so drift hits both alike.
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for s in order:
                seed = 1 + i
                r = run_once(w, seed, bench["run_seconds"])
                results[w][s].append(r)
                print(f"[{i + 1}/{args.runs}] {w} set {s} seed {seed}: "
                      f"{r['elapsed_s']:.1f}s "
                      + " ".join(f"{k}={v['value']:.6g}"
                                 for k, v in r["metrics"].items()),
                      flush=True)

    Path(args.json).parent.mkdir(parents=True, exist_ok=True)
    Path(args.json).write_text(json.dumps(results, indent=1))

    ok = True
    print()
    print(f"{'workload':14} {'metric':26} {'set':3} {'median':>14} {'Q1':>14} "
          f"{'Q3':>14} {'spread':>7} {'bound':>6}")
    for w in workloads:
        for name, spec in bounds.items():
            med = {}
            for s in ("A", "B"):
                values = [r["metrics"][name]["value"] for r in results[w][s]]
                m, q1, q3, spread = summary(values)
                med[s] = m
                within = spread <= spec["bound"]
                ok = ok and within
                print(f"{w:14} {name:26} {s:3} {m:14.6g} {q1:14.6g} {q3:14.6g} "
                      f"{spread:7.3f} {spec['bound']:6.2f}"
                      + ("" if within else "  SPREAD ABOVE BOUND"))
            worse = (med["B"] - med["A"]) / med["A"]
            if spec["better"] == "higher":
                worse = -worse
            within = worse <= spec["bound"]
            ok = ok and within
            print(f"{w:14} {name:26} B vs A: {100 * worse:+.1f}% worse"
                  + ("" if within else "  SHIFT ABOVE BOUND"))
        shares = {s: sum(r["failed"] for r in results[w][s]) /
                  sum(r["attempted"] for r in results[w][s]) for s in ("A", "B")}
        same = shares["A"] == shares["B"]
        ok = ok and same
        elapsed = [r["elapsed_s"] for s in ("A", "B") for r in results[w][s]]
        print(f"{w:14} failed share A={shares['A']:.4f} B={shares['B']:.4f}"
              f"{'' if same else '  DIFFER'}; run wall time median "
              f"{statistics.median(elapsed):.1f}s max {max(elapsed):.1f}s")
    print("steadiness:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
