#!/usr/bin/env python3
"""Checks that mcheck_suite explores what tfr_mcheck explores.

    python3 bench/perf/mcheck_parity.py PATH_TO_TFR_MCHECK PATH_TO_TFR_PERF

mcheck.cpp restates tfr_mcheck's check configurations, because tfr_mcheck
keeps them in its main file.  This runs `tfr_mcheck --all --rt` and a quick
traced mcheck_suite, and fails unless every check tfr_perf runs reports the
same executions and transitions in both.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

HEADER = re.compile(r"^\[mcheck\] (\S+) — ")
STATS = re.compile(r"^\s+executions=(\d+) .*transitions=(\d+)")


def mcheck_counts(tfr_mcheck):
    """{check: (executions, transitions)} from tfr_mcheck's report."""
    out = subprocess.run([tfr_mcheck, "--all", "--rt"], capture_output=True,
                         text=True, check=True).stdout
    counts, name = {}, None
    for line in out.splitlines():
        header = HEADER.match(line)
        if header:
            name = header.group(1)
            continue
        stats = STATS.match(line)
        if stats and name is not None:
            counts[name] = (int(stats.group(1)), int(stats.group(2)))
            name = None
    return counts


def perf_counts(tfr_perf):
    """{check: (executions, transitions)} from a quick traced run."""
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([tfr_perf, "--quick", "--workload", "mcheck_suite",
                        "--out", tmp, "--trace-dir", tmp],
                       capture_output=True, check=True)
        with open(os.path.join(tmp, "mcheck_suite.trace.result.json")) as f:
            metrics = json.load(f)["metrics"]
    counts = {}
    for name, metric in metrics.items():
        match = re.fullmatch(r"mcheck\.(.+)\.executions", name)
        if match:
            check = match.group(1)
            counts[check] = (
                int(metric["value"]),
                int(metrics[f"mcheck.{check}.transitions"]["value"]))
    return counts


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    expected = mcheck_counts(sys.argv[1])
    got = perf_counts(sys.argv[2])
    failures = 0
    for check, counts in sorted(got.items()):
        want = expected.get(check)
        ok = want == counts
        failures += not ok
        print(f"{check:32s} tfr_perf {counts} tfr_mcheck {want} "
              f"{'ok' if ok else 'MISMATCH'}")
    if not got:
        print("tfr_perf reported no mcheck checks")
        failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
