#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload serve-sparse --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the library and the benchmark from
source into $CARGO_TARGET_DIR (default .bench_build), runs the arithmetic
self-tests, then runs one workload. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}.

Besides the checks inside the benchmark, this runner checks that the decision
count and avg_bsld of a workload repeat exactly between runs of the same
build with the same seed (it keeps the first run's values under
<build>/records). Any failed check or build exits nonzero.
"""
import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("serve-sparse", "serve-backlog", "serve-socket", "train-eval")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(bench_dir, build_dir):
    """Configure once, then (re)build the two targets; output to stderr."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                fail("configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        make = ["cmake", "--build", build_dir, "-j", jobs, "--target",
                "perfbench", "perfbench_selftest"]
        if subprocess.run(make, stdout=sys.stderr).returncode != 0:
            fail("build failed")


def check_record(line, binary, records_dir):
    """Compare this run's exact values with the first run of this build."""
    _, workload, seed, decisions, bsld = line.split()
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    os.makedirs(records_dir, exist_ok=True)
    path = os.path.join(records_dir, f"{workload}-{seed}.txt")
    now = f"{build_id} {decisions} {bsld}"
    if os.path.exists(path):
        with open(path) as f:
            before = f.read().split()
        if before[0] == build_id and before[1:] != [decisions, bsld]:
            print(f"CHECK FAILED: decisions/avg_bsld {decisions} {bsld} differ "
                  f"from an earlier run with seed {seed}: "
                  f"{before[1]} {before[2]}")
            return False
        if before[0] == build_id:
            return True
    with open(path, "w") as f:
        f.write(now + "\n")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    for needed in ("CMakeLists.txt", "src", "include"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"no library sources next to the benchmark ({needed})")
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    build(bench_dir, build_dir)

    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr)
    if selftest.returncode != 0:
        fail("self-tests failed")

    binary = os.path.join(build_dir, "perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out",
                    os.path.join(spans_dir, f"{args.workload}.csv")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    ok = run.returncode == 0
    for line in lines:
        if line.startswith("record "):
            ok = check_record(line, binary,
                              os.path.join(build_dir, "records")) and ok
    for line in lines:
        print(line)
    sys.stdout.flush()
    if not ok:
        fail(f"{args.workload} failed its checks (exit {run.returncode})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
