#!/usr/bin/env python3
"""Compares two sets of tfr_perf results, parent against change.

    python3 bench/perf/compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds tfr_perf result records (*.result.json, searched
recursively), one per run of one workload; runs pair up in path order.

End-to-end runs: for every workload x end-to-end metric of BENCHMARK.json,
and again for each part of a metric made of several parts (each check of
mcheck_suite, each lock of rt_locks), the table shows both sides' median
and quartiles over the runs, the share of pairs the change wins (ties
count for neither) and a verdict.  A part gets its metric's bound, so a
slowdown of one part is not averaged away by the others.

  improved    the change wins at least 9 in 10 pairs and the medians differ
              by more than the parent's own quartile spread;
  regressed   the change's median is worse than the parent's by more than
              the bound, and the spread does not hide it;
  unresolved  the run-to-run spread is wider than the bound, and not every
              change run reads better than every parent run;
  unchanged   otherwise.

Traced runs: per-layer metrics the record marks exact (counts and virtual
times, which repeat for one seed and one build) are compared exactly
between runs of the same workload and seed.  Any difference is listed, as
regressed when it goes against the metric's direction.

Exit status 1 when any row regressed or an end-to-end row lacks runs on a
side, else 0.
"""

import argparse
import json
import os
import statistics
import sys

DEFAULT_BENCHMARK = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__)))), "BENCHMARK.json")


def load_records(directory):
    """(end-to-end records by workload, traced records by (workload, seed)),
    each in path order."""
    paths = []
    for folder, _, files in os.walk(directory):
        paths += [os.path.join(folder, f) for f in files
                  if f.endswith(".result.json")]
    end_to_end, traced = {}, {}
    for path in sorted(paths):
        with open(path) as f:
            record = json.load(f)
        if record.get("mode") == "end_to_end":
            end_to_end.setdefault(record["workload"], []).append(record)
        elif record.get("mode") == "trace":
            key = (record["workload"], record.get("seed"))
            traced.setdefault(key, []).append(record)
    return end_to_end, traced


def summary(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent, change, better, bound):
    """Returns (verdict, pair win fraction) for one workload x metric."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = summary(parent)
    c1, cm, c3 = summary(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    gain = sign * (cm - pm) / abs(pm)
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    all_worse = all(sign * (c - p) < 0 for c in change for p in parent)
    if gain > 0 and win_frac >= 0.9 and abs(cm - pm) > p3 - p1:
        return "improved", win_frac
    if -gain > bound and (spread <= bound or all_worse):
        return "regressed", win_frac
    if spread > bound and not all_better:
        return "unresolved", win_frac
    return "unchanged", win_frac


def series(records, name):
    """{label: [value per run]}: the metric, then each of its parts when it
    has more than one."""
    out = {}
    for record in records:
        metric = record["metrics"].get(name)
        if metric is None:
            continue
        out.setdefault(name, []).append(metric["value"])
        parts = metric.get("parts", {})
        if len(parts) > 1:
            for part, value in parts.items():
                out.setdefault(f"{name}[{part}]", []).append(value)
    return out


def compare(parent_dir, change_dir, benchmark):
    """Rows of (workload, label, parent, change, win_frac, verdict)."""
    parent_runs, _ = load_records(parent_dir)
    change_runs, _ = load_records(change_dir)
    rows = []
    if not parent_runs and not change_runs:
        return rows  # traced runs only
    for workload in [w["name"] for w in benchmark["workloads"]]:
        for metric in benchmark["end_to_end"]:
            parent = series(parent_runs.get(workload, []), metric["name"])
            change = series(change_runs.get(workload, []), metric["name"])
            for label in sorted(set(parent) | set(change),
                                key=lambda l: (l != metric["name"], l)):
                p, c = parent.get(label, []), change.get(label, [])
                if not p or not c:
                    rows.append((workload, label, p, c, 0.0, "missing"))
                    continue
                v, win_frac = verdict(p, c, metric["better"], metric["bound"])
                rows.append((workload, label, p, c, win_frac, v))
            if not parent and not change:
                rows.append((workload, metric["name"], [], [], 0.0,
                             "missing"))
    return rows


def compare_exact(parent_dir, change_dir, benchmark):
    """(rows of (workload, seed, metric, parent, change, verdict) for every
    exact per-layer value that differs, count of values compared)."""
    _, parent_runs = load_records(parent_dir)
    _, change_runs = load_records(change_dir)
    better = {m["name"]: m["better"] for m in benchmark.get("per_layer", [])}
    rows, compared = [], 0
    for key in sorted(set(parent_runs) & set(change_runs), key=str):
        for p_record, c_record in zip(parent_runs[key], change_runs[key]):
            for name, p in p_record["metrics"].items():
                c = c_record["metrics"].get(name)
                if not p.get("exact") or c is None or not c.get("exact"):
                    continue
                compared += 1
                if p["value"] == c["value"]:
                    continue
                sign = 1.0 if better.get(name) == "higher" else -1.0
                worse = sign * (c["value"] - p["value"]) < 0
                rows.append((key[0], key[1], name, p["value"], c["value"],
                             "regressed" if worse else "improved"))
    return rows, compared


def fmt(values):
    q1, median, q3 = summary(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def print_table(table):
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    args = parser.parse_args()
    with open(args.benchmark) as f:
        benchmark = json.load(f)

    rows = compare(args.parent, args.change, benchmark)
    table = [("workload", "metric", "parent median [q1, q3]",
              "change median [q1, q3]", "runs", "wins", "verdict")]
    for workload, label, parent, change, win_frac, v in rows:
        table.append((workload, label, fmt(parent) if parent else "-",
                      fmt(change) if change else "-",
                      f"{len(parent)}/{len(change)}", f"{win_frac:.2f}", v))
    print_table(table)

    exact_rows, compared = compare_exact(args.parent, args.change, benchmark)
    print(f"\nexact per-layer values compared: {compared}, "
          f"differing: {len(exact_rows)}")
    if exact_rows:
        table = [("workload", "seed", "metric", "parent", "change",
                  "verdict")]
        for workload, seed, name, p, c, v in exact_rows:
            table.append((workload, str(seed), name, f"{p:.10g}",
                          f"{c:.10g}", v))
        print_table(table)

    failed = any(row[-1] in ("regressed", "missing") for row in rows)
    failed |= any(row[-1] == "regressed" for row in exact_rows)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
