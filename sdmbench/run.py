#!/usr/bin/env python3
"""SDM serving benchmark entry point.

    python3 sdmbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 sdmbench/run.py --self-test

Builds the benchmark (sdmbench/CMakeLists.txt, which compiles the
repository's src/ library from source) into $CARGO_TARGET_DIR/sdmbench
(default .bench_build/sdmbench), then runs it. Build output goes to stderr;
the benchmark's last stdout line is its JSON result. Traced runs also write
the program's obs exports and the benchmark's wall-clock spans under
.bench_build/sdmbench-traces/. See sdmbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("disagg16", "disagg16-sharded", "host-nand-refresh")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(targets):
    out = os.path.join(build_root(), "sdmbench")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1), "--target", *targets])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if res.returncode != 0:
            print("sdmbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(2)
    return out


def run(cmd):
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("sdmbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        sys.exit(3)
    sys.stdout.write(res.stdout)
    sys.stdout.flush()
    return res.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.self_test:
        out = build(["sdmbench_selftest"])
        rc = run([os.path.join(out, "sdmbench_selftest")])
        rc |= run([sys.executable, os.path.join(HERE, "steady.py"), "--self-test"])
        sys.exit(rc)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    out = build(["sdm_bench"])
    cmd = [os.path.join(out, "sdm_bench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--out-dir", os.path.join(build_root(), "sdmbench-traces")]
    sys.exit(run(cmd))


if __name__ == "__main__":
    main()
