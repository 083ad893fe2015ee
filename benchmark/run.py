#!/usr/bin/env python3
"""Build avmon_bench from source, then run one workload.

Usage, from the repository root:

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

The first call configures and builds build-bench/ (Release); later calls
only let CMake confirm it is up to date. Build output goes to stderr, so
the last line of stdout is avmon_bench's one-line result document. With
--trace 1 the run is traced: it reports the per-layer metrics and writes
its Chrome trace to build-bench/traces/<workload>-<seed>.json.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-bench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "benchmark"),
                        "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "avmon_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: cannot build avmon_bench: {error}", file=sys.stderr)
        return 1
    command = [os.path.join(BUILD, "avmon_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace",
                    os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
