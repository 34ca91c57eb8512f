#!/usr/bin/env python3
"""Self-test for check_bench.py.

Synthesizes minimal baseline/current documents per schema and asserts the
gate's exit codes: identical runs pass, drifted deterministic fields fail,
rows missing from the baseline warn by default and fail under
--strict-extra.  Run by ctest (tool: check_bench_selftest); needs only the
stdlib and check_bench.py next to this file.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "check_bench.py")


def run_checker(baseline, current, *flags):
    with tempfile.TemporaryDirectory() as tmp:
        bpath = os.path.join(tmp, "baseline.json")
        cpath = os.path.join(tmp, "current.json")
        with open(bpath, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh)
        with open(cpath, "w", encoding="utf-8") as fh:
            json.dump(current, fh)
        proc = subprocess.run(
            [sys.executable, CHECKER, bpath, cpath, *flags],
            capture_output=True, text=True, check=False)
        return proc


def resilience_doc():
    algo = {"name": "Flooding", "delivery_ratio": 1.0, "forward_mean": 24.0,
            "delivered": 6, "degraded": 0, "partitioned": 0,
            "retransmits": 0, "sinr_rejections": 0, "captures": 120}
    return {
        "schema": "adhoc-resilience-v1",
        "name": "bench_resilience",
        "panels": [{
            "title": "delivery vs SINR capture threshold (crash=0, loss=0)",
            "cells": [{"crash_rate": 0.0, "loss": 0.0, "beta": 0.0,
                       "algorithms": [algo]}],
        }],
    }


def scale_resilience_doc():
    row = {"nodes": 1000, "policy": "flood", "crash_rate": 0.05,
           "churn": True, "runs": 3, "delivery_ratio": 1.0,
           "delivered": 0, "degraded": 0, "partitioned": 3,
           "received_sum": 2946, "forward_sum": 2946, "retransmits": 9,
           "control_count": 8451, "fault_suppressed": 2066,
           "delivered_events": 17000, "windows": 150,
           "completion_sum": 150.0, "order_digest": "44a3016048cc5a0f",
           "wall_seconds": 0, "events_per_sec": 0}
    return {
        "schema": "adhoc-scale-resilience-v1",
        "name": "bench_scale_resilience",
        "seed": "42",
        "wheels": 8,
        "rows": [row],
    }


def scale_doc():
    row = {"nodes": 1000, "edges": 2940, "policy": "generic_fr",
           "delivered_events": 2748, "forward_count": 431,
           "received_count": 982, "full_delivery": False, "windows": 36,
           "peak_queue_events": 164, "completion_time": 36,
           "order_digest": "e5deef27cb7a9f0b", "view_compiles": 559,
           "recalled_verdicts": 0,
           "engine_bytes_per_node": 54.0, "wall_seconds": 0,
           "events_per_sec": 0}
    return {
        "schema": "adhoc-scale-v1",
        "name": "bench_scale",
        "seed": "42",
        "wheels": 8,
        "rows": [row],
    }


def micro_doc():
    return {
        "schema": "adhoc-micro-v1",
        "kernels": [{"name": "coverage", "n": 64, "speedup": 5.0,
                     "match": True}],
    }


CHECKS = []


def check(name):
    def wrap(fn):
        CHECKS.append((name, fn))
        return fn
    return wrap


@check("resilience: identical runs pass")
def _(doc=resilience_doc()):
    assert run_checker(doc, doc).returncode == 0


@check("resilience: drifted counter fails")
def _():
    base = resilience_doc()
    cur = copy.deepcopy(base)
    cur["panels"][0]["cells"][0]["algorithms"][0]["sinr_rejections"] = 7
    proc = run_checker(base, cur)
    assert proc.returncode == 1
    assert "sinr_rejections" in proc.stderr


@check("resilience: cell missing from current fails")
def _():
    base = resilience_doc()
    cur = copy.deepcopy(base)
    cur["panels"][0]["cells"][0]["algorithms"] = []
    assert run_checker(base, cur).returncode == 1


@check("scale-resilience: identical runs pass")
def _(doc=scale_resilience_doc()):
    assert run_checker(doc, doc).returncode == 0


@check("scale-resilience: drifted digest fails")
def _():
    base = scale_resilience_doc()
    cur = copy.deepcopy(base)
    cur["rows"][0]["order_digest"] = "deadbeefdeadbeef"
    proc = run_checker(base, cur)
    assert proc.returncode == 1
    assert "order_digest" in proc.stderr


@check("scale-resilience: delivery drop within the floor passes")
def _():
    base = scale_resilience_doc()
    cur = copy.deepcopy(base)
    cur["rows"][0]["delivery_ratio"] = 0.96
    assert run_checker(base, cur).returncode == 0


@check("scale-resilience: delivery drop below the floor fails")
def _():
    base = scale_resilience_doc()
    cur = copy.deepcopy(base)
    cur["rows"][0]["delivery_ratio"] = 0.90
    proc = run_checker(base, cur)
    assert proc.returncode == 1
    assert "delivery_ratio" in proc.stderr


@check("scale-resilience: timing fields are not gated")
def _():
    base = scale_resilience_doc()
    cur = copy.deepcopy(base)
    cur["rows"][0]["wall_seconds"] = 42.0
    cur["rows"][0]["events_per_sec"] = 1.0
    assert run_checker(base, cur).returncode == 0


@check("scale: identical runs pass")
def _(doc=scale_doc()):
    assert run_checker(doc, doc).returncode == 0


@check("scale: drifted view_compiles fails")
def _():
    base = scale_doc()
    cur = copy.deepcopy(base)
    cur["rows"][0]["view_compiles"] = 981
    proc = run_checker(base, cur)
    assert proc.returncode == 1
    assert "view_compiles" in proc.stderr


@check("scale: drifted recalled_verdicts fails")
def _():
    base = scale_doc()
    cur = copy.deepcopy(base)
    cur["rows"][0]["recalled_verdicts"] = 981
    proc = run_checker(base, cur)
    assert proc.returncode == 1
    assert "recalled_verdicts" in proc.stderr


@check("scale: engine bytes above the ceiling fail")
def _():
    base = scale_doc()
    cur = copy.deepcopy(base)
    cur["rows"][0]["engine_bytes_per_node"] = 54.0 * 1.3
    assert run_checker(base, cur).returncode == 1


@check("extras: row missing from baseline warns but passes")
def _():
    cur = resilience_doc()
    base = copy.deepcopy(cur)
    base["panels"][0]["cells"][0]["algorithms"] = []
    proc = run_checker(base, cur)
    assert proc.returncode == 0
    assert "missing from baseline" in proc.stdout


@check("extras: --strict-extra turns the warning into a failure")
def _():
    cur = resilience_doc()
    base = copy.deepcopy(cur)
    base["panels"][0]["cells"][0]["algorithms"] = []
    proc = run_checker(base, cur, "--strict-extra")
    assert proc.returncode == 1
    assert "missing from baseline" in proc.stderr


@check("extras: micro checker warns about unpinned kernels too")
def _():
    cur = micro_doc()
    cur["kernels"].append({"name": "maxmin", "n": 128, "speedup": 3.0,
                           "match": True})
    proc = run_checker(micro_doc(), cur)
    assert proc.returncode == 0
    assert "missing from baseline" in proc.stdout
    assert run_checker(micro_doc(), cur, "--strict-extra").returncode == 1


@check("schema mismatch between files is rejected")
def _():
    proc = run_checker(resilience_doc(), micro_doc())
    assert proc.returncode != 0


def main():
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
            print(f"ok   {name}")
        except AssertionError:
            failures += 1
            print(f"FAIL {name}")
    print(f"check_bench_test: {len(CHECKS) - failures}/{len(CHECKS)} passed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
