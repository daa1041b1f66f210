#!/usr/bin/env python3
"""Build the library and the benchmark driver, run one workload, relay its report.

    python3 perfbench/run.py --workload sweep_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to .bench_build/ (or to
$CARGO_TARGET_DIR when it is set), trace_replay's scratch file to its
scratch/ subdirectory. Every run first builds (a no-op when nothing changed)
and runs the benchmark's self-test; a failing build or self-test, or a driver
that exits non-zero or prints a malformed result, makes this script exit 1
without printing a result. The last line of stdout is the JSON result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_grid", "fleet_congested", "trace_replay")
DEFAULT_SEED = 1
DRIVER_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no library sources under {ROOT}/src; run from a full checkout")
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(len(os.sched_getaffinity(0)))
    return subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                           stdout=sys.stderr) == 0


def declared_metrics():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def result_problem(line, trace):
    try:
        result = json.loads(line)
    except ValueError as e:
        return f"last line is not JSON: {e}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    declared = declared_metrics()
    if declared is not None:
        want = declared[1 if trace else 0]
        have = {name: m.get("unit") for name, m in result["metrics"].items()}
        if have != want:
            return f"metrics {sorted(have.items())} differ from BENCHMARK.json"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run only the self-test")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    if not build(build_dir):
        log("build failed")
        return 1
    if subprocess.call([os.path.join(build_dir, "perfbench_selftest")]) != 0:
        log("self-test failed")
        return 1
    if args.selftest:
        return 0

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--scratch", os.path.join(build_dir, "scratch")]
    try:
        driver = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=DRIVER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"driver ran longer than {DRIVER_TIMEOUT_S} s")
        return 1
    lines = driver.stdout.splitlines()
    if driver.returncode != 0:
        problem = f"driver exited with status {driver.returncode}"
    elif not lines:
        problem = "driver printed nothing"
    else:
        problem = result_problem(lines[-1], args.trace)
    if problem:
        sys.stderr.write(driver.stdout)
        log(problem)
        return 1
    sys.stdout.write(driver.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
