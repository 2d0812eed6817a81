#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the measuring program from the checkout's sources (CMake, into
$CARGO_TARGET_DIR or .bench_build), then runs one workload:

    python3 perfbench/run.py --workload campaign_up_vi --seed 1 \
        --seconds 10 --trace 0

--workload all runs every workload in turn. The last line of standard
output is the JSON result of the (last) workload. Build output goes to
standard error. Run from the repository root.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["campaign_up_vi", "campaign_smp_detect", "sweep_up_vi",
             "tenancy_staged"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    if not (os.path.isdir(os.path.join(root, "src")) and
            os.path.isdir(os.path.join(root, "include"))):
        fail("no simulator sources (src/, include/) next to perfbench/")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step failed: {e}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    exe = os.path.join(build_dir, "perfbench")
    if not os.access(exe, os.X_OK):
        fail(f"build produced no {exe}")
    return exe


def check_metric_names(root, trace, last_line):
    """The result must carry exactly the metrics BENCHMARK.json names."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        got = set(json.loads(last_line)["metrics"])
    except (ValueError, KeyError, TypeError):
        return "last line is not a result object"
    if got != want:
        return f"metrics differ from BENCHMARK.json: {sorted(got ^ want)}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--emit-expected", action="store_true",
                    help="print the workload's expectation line for --seed")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(root, build_dir)

    status = 0
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for name in workloads:
        cmd = [exe, "--workload", name, "--seed", str(args.seed)]
        if args.emit_expected:
            cmd.append("--emit-expected")
        else:
            spans = os.path.join(
                build_dir, f"spans-{name}-seed{args.seed}.jsonl")
            cmd += ["--seconds", str(args.seconds), "--trace",
                    str(args.trace), "--expected",
                    os.path.join(root, "perfbench", "expected.txt")]
            if args.trace:
                cmd += ["--spans", spans]
        try:
            done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                                  stdout=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            fail(f"{name} did not finish within {RUN_TIMEOUT_S} s")
        lines = done.stdout.rstrip("\n").split("\n")
        if not args.emit_expected and done.returncode == 0:
            problem = check_metric_names(root, args.trace, lines[-1])
            if problem:
                fail(f"{name}: {problem}")
        print("\n".join(lines), flush=True)
        status = status or done.returncode
    sys.exit(status)


if __name__ == "__main__":
    main()
