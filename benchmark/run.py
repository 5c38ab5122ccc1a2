#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Run from the root of the repository:

    python3 benchmark/run.py --workload exchange_mesh --seed 1 --seconds 36 --trace 0
    python3 benchmark/run.py --selftest

--seconds defaults to run_seconds in BENCHMARK.json.

Every call configures and builds the gkr library and the benchmark (Release)
into the build directory: $CARGO_TARGET_DIR if set, else .bench_build. Only
the first call compiles everything; later calls rebuild what changed. Build
output goes to stderr; the benchmark's last line of stdout is its JSON
result, and its exit status is passed through. Traced runs (--trace 1) write
<build dir>/traces/<workload>.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGETS = ["gkr_bench", "gkr_bench_selftest"]


def build(build_dir):
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", *TARGETS, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the self-test of the benchmark's checks instead")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    if args.selftest:
        cmd = [os.path.join(build_dir, "gkr_bench_selftest")]
    else:
        cmd = [os.path.join(build_dir, "gkr_bench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--trace-dir", os.path.join(build_dir, "traces")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
