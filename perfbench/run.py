#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload train_sync --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the repo's src/ libraries from source) in
Release mode under $CARGO_TARGET_DIR, or .bench_build when unset, then runs
the workload in its own process. Everything the binary prints is passed
through; its last line is the JSON result. Every run is also appended, with
its provenance and per-pass values, to perfbench-runs.jsonl in the build
root, so bounds can be set from the spread of runs of the same code.

Exit code: the workload's (0 only when every correctness gate held), or 1
when the build fails, in which case no result is printed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_sync", "fleet_tcp", "serve_zipf")
RUN_TIMEOUT_S = 175


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(jobs):
    """Configure once, then build incrementally; returns the binary path."""
    out = build_root() / "perfbench"
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", str(jobs)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", type=int, choices=(0, 1), default=0,
                    help="small passes, for the benchmark's own test")
    args = ap.parse_args()

    jobs = max(1, min(4, len(os.sched_getaffinity(0))))
    try:
        binary = build(jobs)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--smoke", str(args.smoke),
           "--out-dir", str(build_root() / "perfbench-out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: workload timed out", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()

    lines = proc.stdout.strip().splitlines()
    record = {"time": time.time(), "args": vars(args),
              "exit_code": proc.returncode}
    try:
        record.update(json.loads(lines[-2]))
        record["result"] = json.loads(lines[-1])
    except (IndexError, ValueError):
        record["result"] = None
    with open(build_root() / "perfbench-runs.jsonl", "a") as log:
        log.write(json.dumps(record) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
