#!/usr/bin/env python3
"""Build the serving benchmark from this checkout's sources and run it.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 servebench/run.py --self-test

The benchmark is a CMake package of its own (servebench/CMakeLists.txt)
that adds the repository's root project for its library and builds it in
Release mode into .bench_build/servebench/ at the checkout root. The first
run builds; later runs only re-check the build.
The last line of stdout is the benchmark's JSON result. --self-test runs
the harness tests and checks that the benchmark reports every metric
BENCHMARK.json names, with the same unit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
RUN_TIMEOUT_S = 175


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(targets):
    """Configures once, then builds `targets`. Exits 1 on any failure."""
    cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    generated = "Makefile"
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
        generated = "build.ninja"
    steps = []
    if not os.path.exists(os.path.join(BUILD, generated)):
        steps.append(cmd)
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target"] + targets)
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("servebench: build step failed:", " ".join(step))
            sys.exit(1)


def spec_metrics():
    """{kind: {name: unit}} from BENCHMARK.json, or None when absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def check_result(result, kind, spec):
    """Problems with a result line against the BENCHMARK.json metrics."""
    problems = []
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            problems.append("result has no %r" % key)
    if problems or spec is None:
        return problems
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    for name, unit in spec[kind].items():
        if name not in got:
            problems.append("missing %s metric %s" % (kind, name))
        elif got[name] != unit:
            problems.append("%s has unit %s, BENCHMARK.json says %s"
                            % (name, got[name], unit))
    for name in got:
        if name not in spec[kind]:
            problems.append("metric %s is not a %s metric of BENCHMARK.json"
                            % (name, kind))
    return problems


def run_benchmark(args):
    build(["servebench"])
    scratch = os.path.join(BUILD, "run")
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(BUILD, "servebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", scratch]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("servebench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("servebench: no result line")
        return 1
    kind = "per_layer" if args.trace else "end_to_end"
    problems = check_result(result, kind, spec_metrics())
    for p in problems:
        log("servebench:", p)
    print(lines[-1], flush=True)
    return done.returncode if not problems else 1


def self_test():
    build(["servebench", "servebench_harness_test"])
    tests = subprocess.run([os.path.join(BUILD, "servebench_harness_test")])
    listing = subprocess.run([os.path.join(BUILD, "servebench"),
                              "--list-metrics"], stdout=subprocess.PIPE,
                             text=True, check=True).stdout
    catalog = {"end_to_end": {}, "per_layer": {}}
    for line in listing.splitlines():
        kind, name, unit = line.split("\t")
        catalog[kind][name] = unit
    spec = spec_metrics()
    problems = []
    if spec is None:
        problems.append("no BENCHMARK.json at the checkout root")
    else:
        for kind in catalog:
            fake = {"correct": True, "attempted": 1, "failed": 0,
                    "metrics": {n: {"value": 1.0, "unit": u}
                                for n, u in catalog[kind].items()}}
            problems += check_result(fake, kind, spec)
    for p in problems:
        log("servebench self-test:", p)
    ok = tests.returncode == 0 and not problems
    log("servebench self-test:", "PASSED" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
