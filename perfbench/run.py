#!/usr/bin/env python3
"""Builds and runs one perfbench measurement of the Monocle fleet.

    python3 perfbench/run.py --workload steady|recovery|faults|churn \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds the
harness (perfbench/CMakeLists.txt, which compiles src/ itself) into
.bench_build/perfbench; later calls reuse that build.  Build output goes to
stderr.  The harness's report goes to stdout, and its last line is the JSON
result.  Exit status: 0 on a correct run, 1 when a correctness check
failed, anything else when the build or the run itself failed (no result
is printed then).
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "monocle_perfbench"
RUN_TIMEOUT_S = 170


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not (BUILD / "CMakeCache.txt").exists():
            subprocess.run(
                ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)


def valid_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    return set(result["metrics"]) == wanted


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["steady", "recovery", "faults", "churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 3

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not valid_result(lines[-1], args.trace):
        sys.stderr.write(proc.stdout)
        print(f"perfbench: run failed (exit {proc.returncode})",
              file=sys.stderr)
        return 5
    print("\n".join(lines))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
