#!/usr/bin/env python3
"""Builds the sbst benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, a table
    python3 perfbench/run.py --self-test               # the benchmark's tests

The build goes to .bench_build/ (CMake, Release). Build output goes to
stderr; the last line of stdout is the run's JSON result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["table1", "fault_models", "campaign", "serve"]


def jobs():
    return str(max(1, min(os.cpu_count() or 1, 4)))


def build(tests):
    """Configures and builds (both incremental); returns the build directory."""
    bdir = os.path.join(BUILD, "perfbench-tests" if tests else "perfbench")
    cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release",
           "-DPERFBENCH_TESTS=" + ("ON" if tests else "OFF")]
    subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT)
    target = "perfbench_selftest" if tests else "perfbench"
    subprocess.run(["cmake", "--build", bdir, "-j", jobs(), "--target", target],
                   check=True, stdout=sys.stderr, cwd=ROOT)
    return bdir


def run_all(binary, args):
    """Runs every workload untraced and prints each metric with its unit."""
    for name in WORKLOADS:
        cmd = [binary, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                             cwd=ROOT, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in sorted(result["metrics"].items()):
            print(f"  {metric:40s} {m['value']:.6g} {m['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    try:
        bdir = build(args.self_test)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if args.self_test:
        return subprocess.run([os.path.join(bdir, "perfbench_selftest")],
                              cwd=ROOT).returncode
    binary = os.path.join(bdir, "perfbench")
    if args.workload == "all":
        run_all(binary, args)
        return 0
    os.chdir(ROOT)
    os.execv(binary, [binary, "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", str(args.trace)])


if __name__ == "__main__":
    sys.exit(main())
