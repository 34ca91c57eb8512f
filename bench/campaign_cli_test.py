#!/usr/bin/env python3
"""Self-test for the bench_campaign figure-registry driver.

Drives the built binary and asserts its command-line contract: bad
--figures input exits 2 before anything is printed, --list names exactly
the registry, --gnuplot DIR keeps figures' panel files apart, output is
identical at any --jobs value, each figure opens with its paper title,
and an output directory that cannot be made fails before any run.  Run by ctest (test: campaign_cli_test) as

    campaign_cli_test.py path/to/bench_campaign

needing only the stdlib.  Every run uses a scratch working directory.
"""

import os
import subprocess
import sys
import tempfile

BINARY = None

REGISTRY = [
    "fig09_sample", "fig10_timing", "fig11_selection", "fig12_space",
    "fig13_priority", "fig14_static", "fig15_first_receipt", "fig16_backoff",
    "table1_taxonomy", "table_overhead", "table_latency", "ablation_history",
    "ablation_tdp_pdp", "ablation_gossip", "ablation_approximation",
    "ablation_mobility", "ablation_hello_loss", "ablation_relaxed",
    "ablation_optimality_gap", "ablation_collisions",
]


def run(*args, cwd=None):
    with tempfile.TemporaryDirectory() as tmp:
        return subprocess.run([BINARY, *args], cwd=cwd or tmp,
                              capture_output=True, text=True, check=False)


CHECKS = []


def check(name):
    def wrap(fn):
        CHECKS.append((name, fn))
        return fn
    return wrap


@check("unknown --figures name exits 2 before running anything")
def _():
    proc = run("--figures", "fig10_timing,nope", "--runs", "2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "unknown figure: nope" in proc.stderr


@check("--figures without a value exits 2 with empty stdout")
def _():
    for args in (["--runs", "2", "--figures"], ["--figures", ","]):
        proc = run(*args)
        assert proc.returncode == 2, args
        assert proc.stdout == "", args


@check("--list names exactly the registry entries")
def _():
    proc = run("--list")
    assert proc.returncode == 0
    names = [line.split()[0] for line in proc.stdout.splitlines()]
    assert names == REGISTRY, names


@check("--gnuplot DIR writes distinct .dat files per figure")
def _():
    with tempfile.TemporaryDirectory() as tmp:
        plots = os.path.join(tmp, "plots")
        proc = run("--figures", "ablation_tdp_pdp,ablation_history",
                   "--runs", "3", "--gnuplot", plots, cwd=tmp)
        assert proc.returncode == 0
        files = sorted(os.listdir(plots))
        assert files == [
            "ablation_history_d_18__2-hop.dat",
            "ablation_history_d_6__2-hop.dat",
            "ablation_tdp_pdp_d_18__2-hop.dat",
            "ablation_tdp_pdp_d_6__2-hop.dat",
        ], files


@check("an uncreatable output directory exits 1 before running anything")
def _():
    with tempfile.TemporaryDirectory() as tmp:
        blocker = os.path.join(tmp, "file")
        with open(blocker, "w", encoding="utf-8") as fh:
            fh.write("not a directory")
        for flag in ("--json", "--gnuplot"):
            proc = run("--figures", "fig10_timing", "--runs", "2",
                       flag, os.path.join(blocker, "out"), cwd=tmp)
            assert proc.returncode == 1, flag
            assert proc.stdout == "", flag


@check("--jobs 1 and --jobs 4 print byte-identical stdout")
def _():
    args = ["--figures", "ablation_tdp_pdp", "--runs", "10"]
    one = run(*args, "--jobs", "1")
    four = run(*args, "--jobs", "4")
    assert one.returncode == 0 and four.returncode == 0
    assert one.stdout and one.stdout == four.stdout


@check("a figure opens with its paper title and a blank line")
def _():
    proc = run("--figures", "fig10_timing", "--runs", "2")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "Figure 10: timing options (2-hop, ID priority)", lines[0]
    assert lines[1] == ""


def main():
    global BINARY
    if len(sys.argv) != 2:
        print("usage: campaign_cli_test.py path/to/bench_campaign")
        return 2
    BINARY = os.path.abspath(sys.argv[1])
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
            print(f"ok   {name}")
        except (AssertionError, OSError) as err:
            failures += 1
            print(f"FAIL {name} {err}")
    print(f"campaign_cli_test: {len(CHECKS) - failures}/{len(CHECKS)} passed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
