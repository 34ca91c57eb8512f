#!/usr/bin/env python3
"""Self-tests of the repository benchmark, at self-test scale (--small).

    python3 perfbench/test_perfbench.py

Run from the repository root; builds through run.py on first use.  Checks:
  1. every workload, untraced and traced, emits exactly the metric names and
     units BENCHMARK.json lists, passes its gate and exits 0;
  2. a corrupted forward mask or digest makes the gate fail (nonzero exit,
     correct=false, failed >= 1) on a ScaleEngine and the campaign workload;
  3. another seed changes the inputs digest but not the metric names.
"""

import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("generic-1e6", "flood-1e6", "faulted-1e5", "paper-campaign")


def run(workload, seed=7, trace="0", *extra):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", trace, "--small", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    inputs = re.search(r"inputs ([0-9a-f]{16})", proc.stdout).group(1)
    return proc.returncode, result, inputs


def metric_units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    passed = 0

    def expect(ok, what):
        nonlocal passed
        if ok:
            passed += 1
        else:
            failures.append(what)
            print("FAIL", what)

    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, result, _ = run(workload, trace=trace)
            tag = "%s trace=%s" % (workload, trace)
            expect(code == 0 and result["correct"] and result["failed"] == 0,
                   tag + ": gate passes")
            expect(metric_units(result) == want[trace], tag + ": metric names and units")
            expect(all(isinstance(m["value"], (int, float)) for m in
                       result["metrics"].values()), tag + ": numeric values")

    for workload in ("flood-1e6", "paper-campaign"):
        for corrupt in ("mask", "digest"):
            code, result, _ = run(workload, 7, "0", "--corrupt", corrupt)
            expect(code != 0 and not result["correct"] and result["failed"] >= 1,
                   "%s --corrupt %s: gate fires" % (workload, corrupt))

    for workload in ("faulted-1e5", "paper-campaign"):
        _, first, inputs_a = run(workload, 7)
        _, second, inputs_b = run(workload, 8)
        expect(inputs_a != inputs_b, workload + ": another seed, other inputs")
        expect(metric_units(first) == metric_units(second),
               workload + ": another seed, same metric names")

    print("%d/%d passed" % (passed, passed + len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
