#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

One run:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator and the benchmark from source into .bench_build/ (the
first run compiles; later runs only check that the build is current), runs
one workload, and passes its output through.  The last line of standard
output is the JSON result.

Steadiness self-check:
    python3 perfbench/run.py --steadiness N --workload NAME --seconds S

Runs the workload N times with seeds 1..N and prints, for every end-to-end
metric, the median and the interquartile spread as a share of the median,
with the wall-clock (unnormalised) twin of each host-time metric beside it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
TRACE_DIR = os.path.join(BUILD_DIR, "traces")
BINARY = os.path.join(CMAKE_DIR, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

# Normalised metric -> its wall-clock twin printed on the "host" line.
RAW_TWINS = {
    "sim_mcycles_per_s": "host.raw_sim_mcycles_per_s",
    "runs_per_s": "host.raw_runs_per_s",
    "run_p50_us": "host.raw_run_p50_us",
}


def build():
    """Configure and compile; returns False (after reporting) on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target", "perfbench"],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"run.py: build step failed: {error}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return True


def run_once(workload, seed, seconds, trace):
    """Run the binary once; returns (exit code, stdout text)."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--goldens", os.path.join(BENCH_DIR, "goldens"),
               "--out", TRACE_DIR]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark run timed out", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def steadiness(args):
    results = []
    for seed in range(1, args.steadiness + 1):
        code, out = run_once(args.workload, seed, args.seconds, 0)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            print(f"run.py: seed {seed} failed (exit {code})", file=sys.stderr)
            return 1
        host = next(json.loads(line[5:]) for line in lines
                    if line.startswith("host "))
        result = json.loads(lines[-1])
        results.append((result, host))
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
    print(f"\n{args.workload}: {args.steadiness} runs of {args.seconds} s")
    print(f"{'metric':<20} {'median':>14} {'IQR/median':>11}   "
          f"{'raw median':>14} {'raw IQR/median':>15}")
    for name in results[0][0]["metrics"]:
        values = [r["metrics"][name]["value"] for r, _ in results]
        row = f"{name:<20} {statistics.median(values):>14.6g} " \
              f"{spread(values):>11.4f}"
        twin = RAW_TWINS.get(name)
        if twin:
            raw = [h[twin]["value"] for _, h in results]
            row += f"   {statistics.median(raw):>14.6g} {spread(raw):>15.4f}"
        print(row)
    kernel = [h["host.ref_kernel_us"]["value"] for _, h in results]
    print(f"{'ref_kernel_us':<20} {statistics.median(kernel):>14.6g} "
          f"{spread(kernel):>11.4f}")
    failed = sum(r["failed"] for r, _ in results)
    print(f"failed ops: {failed} of {sum(r['attempted'] for r, _ in results)}")
    return 0 if failed == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N")
    args = parser.parse_args()

    if not build():
        return 1
    if args.steadiness:
        if args.steadiness < 2:
            parser.error("--steadiness needs at least 2 runs")
        return steadiness(args)
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
