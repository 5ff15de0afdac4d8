#!/usr/bin/env python3
"""Campaign benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  The first call builds the kfisim
libraries, the fabric tools and kfi_perfbench from source into
.bench_build (or $CARGO_TARGET_DIR); later calls rebuild only what
changed.  The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}.

--smoke runs every workload at a size that takes seconds, in both modes,
with every check, and exits nonzero if any run fails.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["masked", "manifesting", "fabric_local", "fabric_remote"]
RUN_TIMEOUT_S = 175


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configure once, then build incrementally.  Build output goes to
    stderr so standard output ends with the result line."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "Makefile").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out


def run_bench(out, workload, seed, seconds, trace, smoke=False, capture=False):
    """Run kfi_perfbench in its own process group, so that every process
    it starts is gone when this returns, even after a timeout."""
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    cmd = [str(out / "kfi_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--tools", str(out / "kfi_tools"), "--work", str(work),
           "--out", str(ROOT / ".bench_out")]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write(f"perfbench: {workload} timed out\n")
        return 1, None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, stdout


def smoke(out):
    failures = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            rc, stdout = run_bench(out, workload, 1, 5, trace, smoke=True,
                                    capture=True)
            result = None
            if stdout:
                lines = stdout.decode().strip().splitlines()
                result = json.loads(lines[-1]) if lines else None
            ok = (rc == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] > 0)
            failures += 0 if ok else 1
            print(f"smoke {workload} trace={int(trace)}: "
                  f"{'ok' if ok else 'FAILED'}"
                  + (f" ({len(result['metrics'])} metrics,"
                     f" {result['attempted']} attempted)" if result else ""))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    out = build()
    if args.smoke:
        return smoke(out)
    rc, _ = run_bench(out, args.workload, args.seed, args.seconds,
                       args.trace == 1)
    return rc


if __name__ == "__main__":
    sys.exit(main())
