#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the repository root.  The first run configures and builds the
library and the benchmark under .bench_build/perfbench (RelWithDebInfo with
assertions on, as the repository's default build); later runs rebuild
incrementally.  The binary prints a metric table and, as its last line, one
JSON object {correct, attempted, failed, metrics}, which this script passes
through.  With --trace 1 the span file is also converted by trace_export
and the result loaded with json.load, as one more gate check.

Exit status: 0 when every check passed; nonzero (and no result line) when
the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("generic-1e6", "flood-1e6", "faulted-1e5", "paper-campaign")
RUN_TIMEOUT_S = 170

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configures (once) and builds; returns False with the log on stderr."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench", "perfbench_trace_export"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
                return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_trace_export(spans_path, trace_path):
    """trace_export must turn the span file into JSON that json.load reads."""
    tool = os.path.join(BUILD_DIR, "perfbench_trace_export")
    proc = subprocess.run([tool, "--in", spans_path, "--out", trace_path],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=60)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return False
    try:
        with open(trace_path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        sys.stderr.write("run.py: trace JSON does not load: %s\n" % err)
        return False
    return len(doc.get("traceEvents", [])) > 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--small", action="store_true",
                        help="shrink every input (self-tests)")
    parser.add_argument("--corrupt", choices=("mask", "digest"),
                        help="break one result on purpose; the gate must fail")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1

    trace = args.trace == "1"
    tag = "%s-%d" % (args.workload, args.seed)
    spans_path = os.path.join(BUILD_DIR, "spans-%s.jsonl" % tag)
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", args.trace]
    if trace:
        cmd += ["--spans", spans_path]
    if args.small:
        cmd.append("--small")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: perfbench exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("run.py: perfbench exited %d without a result\n" % proc.returncode)
        return 1

    failed = []
    want = expected_metrics(trace)
    if want is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            failed.append("metric names/units differ from BENCHMARK.json")
    if trace:
        ok = check_trace_export(spans_path, os.path.join(BUILD_DIR, "trace-%s.json" % tag))
        result["attempted"] += 1
        if not ok:
            failed.append("trace_export output does not load")
    for what in failed:
        sys.stderr.write("run.py: check failed: %s\n" % what)
    result["failed"] += len(failed)
    result["correct"] = result["correct"] and not failed

    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
