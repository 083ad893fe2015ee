#!/usr/bin/env python3
"""Seed-to-seed spread of the end-to-end metrics, run by run.

Usage, from the repository root:

    python3 benchmark/spread.py --out S.json [--seeds 10] [--against E.json]

Runs `python3 benchmark/run.py --workload W --seed N --seconds T --trace 0`
once per seed (1..--seeds) for every workload of BENCHMARK.json, with T its
run_seconds. For every (workload, end-to-end metric) it prints the median
of the runs and their spread: (q3 - q1) / median, quartiles as
statistics.quantiles(values, n=4) gives them. A bound holds a metric's
spread when the spread is at most the bound; --against prints how far each
median moved from an earlier file of this script. Writes every value to
--out.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(ROOT, "benchmark", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"spread.py: {workload} seed {seed} failed "
                 f"(exit {done.returncode}): {done.stderr.strip()[-400:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"spread.py: {workload} seed {seed}: incorrect output")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--against")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)["workloads"]

    report = {"stamp": {"cpu": cpu_model(), "nproc": os.cpu_count(),
                        "loadavg_at_start": " ".join(
                            f"{x:.2f}" for x in os.getloadavg()),
                        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                              time.gmtime()),
                        "seconds": manifest["run_seconds"],
                        "seeds": args.seeds},
              "workloads": {}}
    print(f"{'workload':16} {'metric':12} {'median':>12} {'spread':>8} "
          f"{'bound':>6} {'moved':>8}")
    for workload in (w["name"] for w in manifest["workloads"]):
        values = {}
        for seed in range(1, args.seeds + 1):
            for name, value in run_once(workload, seed,
                                        manifest["run_seconds"]).items():
                values.setdefault(name, []).append(value)
        rows = {}
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            rows[name] = {"values": series, "median": median,
                          "spread": (q3 - q1) / median}
            moved = ""
            if earlier is not None:
                before = earlier[workload][name]["median"]
                moved = f"{(median - before) / before:+.3f}"
            print(f"{workload:16} {name:12} {median:12.6g} "
                  f"{rows[name]['spread']:8.4f} {bounds[name]:6.2f} "
                  f"{moved:>8}", flush=True)
        report["workloads"][workload] = rows
    report["stamp"]["loadavg_at_end"] = " ".join(
        f"{x:.2f}" for x in os.getloadavg())
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
