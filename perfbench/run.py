#!/usr/bin/env python3
"""Repository benchmark entry point (see BENCHMARK.json at the repo root).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload office_replay --seed 1 \
        --seconds 10 --trace 0

Builds the simulator libraries and the measuring binary from source into
.bench_build/perfbench (Release), runs one workload, checks that the binary's
result line carries exactly the metrics BENCHMARK.json declares for the
chosen mode, and re-prints that line as the last line of stdout. With
--trace 1 the per-layer spans are written to
.bench_build/spans/<workload>.tsv. Exits nonzero, with no result line, when
the build, a correctness check or the metric check fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
SPANS_DIR = os.path.join(".bench_build", "spans")
BINARY = os.path.join(BUILD_DIR, "ssmc_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no simulator sources (src/CMakeLists.txt); run from the repo root")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "ssmc_perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def declared_metrics(trace):
    """Metric name -> unit that BENCHMARK.json declares for the mode, after
    checking that perfbench/metrics.json documents exactly the same metrics
    and workloads."""
    spec = load_json("BENCHMARK.json")
    doc = load_json(os.path.join("perfbench", "metrics.json"))
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    if (set(doc["workloads"]) != workloads
            or set(doc["end_to_end"]) != end_to_end
            or set(doc["per_layer"]) != {m["name"] for m in spec["per_layer"]}):
        fail("perfbench/metrics.json and BENCHMARK.json disagree on names")
    for name, entry in doc["per_layer"].items():
        if not (set(entry["moves"]) <= end_to_end
                and set(entry["on"]) <= workloads):
            fail(f"perfbench/metrics.json: {name} maps to unknown names")
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace, want):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has the wrong keys")
    if result["correct"] is not True or result["failed"] != 0:
        fail("result reports incorrect output or failed operations")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("result attempted no operations")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} is not a finite number")
        if not trace and value <= 0:
            fail(f"end-to-end metric {name} is {value}; it must be positive")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    want = declared_metrics(args.trace)
    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        command += ["--spans-out",
                    os.path.join(SPANS_DIR, args.workload + ".tsv")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"benchmark binary exited with {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark binary printed no result line")
    check_result(result, args.trace, want)
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
