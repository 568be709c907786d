#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds perfbench/ (which compiles the
library from src/) into $CARGO_TARGET_DIR, default .bench_build, then runs
the benchmark binary and relays its output.  The last line of standard
output is the result object: {"correct", "attempted", "failed", "metrics"}.
Build output goes to standard error.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/; run from a full checkout", 2)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "ripple_perfbench", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "ripple_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)

    # Everything the run writes stays under the build directory: the
    # durable store's files, temp files, count records and span traces.
    work_dir = os.path.join(build_dir, "work")
    tmp_dir = os.path.join(work_dir, "tmp")
    for entry in os.listdir(work_dir) if os.path.isdir(work_dir) else []:
        if entry.startswith("store-") or entry == "tmp":
            shutil.rmtree(os.path.join(work_dir, entry), ignore_errors=True)
    os.makedirs(tmp_dir, exist_ok=True)

    # RIPPLE_* variables change backends, threads and budgets inside the
    # library; the benchmark pins those itself, so they are dropped.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RIPPLE_")}
    ignored = sorted(set(os.environ) - set(env))
    if ignored:
        print("perfbench: ignoring " + " ".join(ignored), file=sys.stderr)
    env["TMPDIR"] = tmp_dir

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark exited with {proc.returncode}", proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail("benchmark printed no result line")
    if ignored and len(lines) >= 2:
        info = json.loads(lines[-2])
        info["info"]["ignored_env"] = ignored
        lines[-2] = json.dumps(info)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
