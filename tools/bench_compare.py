#!/usr/bin/env python3
"""Compares snbbench runs of two builds, parent and change, metric by metric.

    tools/bench_compare.py PARENT.json CHANGE.json
    tools/bench_compare.py BENCH_N.json       # a file holding both sides

PARENT.json and CHANGE.json each hold a JSON list of runs:

    [{"workload": "snb_serve", "seed": 1, "result": {...}}, ...]

where "result" is the JSON line `python3 snbbench/run.py --trace 0` prints
last. A BENCH_N.json file holds both lists under "parent" and "change".
Runs pair up by (workload, seed, n-th run of that seed), so alternate the
two builds when collecting them.

For each workload and each end-to-end metric in BENCHMARK.json the report
gives both medians with their quartiles, the relative change, how many
pairs the change won, and a verdict:

    worse  the change's median is worse than the parent's by more than the
           metric's bound
    gain   the change won at least 9 of 10 pairs and its median beats the
           parent's by more than the parent's interquartile range
    flat   neither

A workload whose change runs fail a larger share of operations is worse
too. Exits 1 when any verdict is worse, else 0. Standard library only.
"""
import argparse
import json
import math
import os
import statistics
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9  # pairs the change must win for a gain


def load_runs(path, side=None):
    with open(path) as f:
        data = json.load(f)
    return data[side] if side is not None else data


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def group(runs):
    """workload -> {(seed, occurrence): result}, in input order."""
    out = {}
    seen = {}
    for run in runs:
        key = (run["workload"], run["seed"])
        n = seen.get(key, 0)
        seen[key] = n + 1
        out.setdefault(run["workload"], {})[(run["seed"], n)] = run["result"]
    return out


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def compare_metric(metric, parent, change, pairs):
    """One report row and its verdict for `metric` (a BENCHMARK.json
    end_to_end entry) over the paired parent/change results."""
    name = metric["name"]
    lower = metric["better"] == "lower"
    p = [parent[k]["metrics"][name]["value"] for k in pairs]
    c = [change[k]["metrics"][name]["value"] for k in pairs]
    p1, pm, p3 = quartiles(p)
    c1, cm, c3 = quartiles(c)
    wins = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
    gain = (pm - cm) if lower else (cm - pm)  # > 0: the change is better
    rel = (cm - pm) / pm if pm else 0.0
    if -gain > metric["bound"] * abs(pm):
        verdict = "worse"
    elif wins >= math.ceil(WIN_SHARE * len(pairs)) and gain > p3 - p1:
        verdict = "gain"
    else:
        verdict = "flat"
    row = "  %-20s %-26s %-26s %+7.1f%%  %3d/%-3d %s" % (
        name, "%.4g [%.4g, %.4g]" % (pm, p1, p3),
        "%.4g [%.4g, %.4g]" % (cm, c1, c3), 100 * rel, wins, len(pairs),
        verdict)
    return row, verdict


def compare(parent_runs, change_runs, benchmark):
    """Returns (report lines, any_worse)."""
    parent, change = group(parent_runs), group(change_runs)
    lines = []
    any_worse = False
    for workload in sorted(set(parent) & set(change)):
        pairs = sorted(set(parent[workload]) & set(change[workload]))
        if not pairs:
            continue
        lines.append("%s: %d pairs" % (workload, len(pairs)))
        lines.append("  %-20s %-26s %-26s %8s  %-7s %s" % (
            "metric", "parent median [q1, q3]", "change median [q1, q3]",
            "change", "wins", "verdict"))
        for metric in benchmark["end_to_end"]:
            row, verdict = compare_metric(metric, parent[workload],
                                          change[workload], pairs)
            lines.append(row)
            any_worse |= verdict == "worse"
        pf = failed_share([parent[workload][k] for k in pairs])
        cf = failed_share([change[workload][k] for k in pairs])
        verdict = "worse" if cf > pf else "ok"
        any_worse |= verdict == "worse"
        lines.append("  %-20s %-26.4g %-26.4g %8s  %-7s %s" % (
            "failed_share", pf, cf, "", "", verdict))
    return lines, any_worse


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("runs", nargs="+",
                    help="PARENT.json CHANGE.json, or one BENCH_N.json")
    ap.add_argument("--benchmark",
                    default=os.path.join(REPO_ROOT, "BENCHMARK.json"),
                    help="bounds file (default: the repo's BENCHMARK.json)")
    args = ap.parse_args()
    if len(args.runs) == 1:
        parent = load_runs(args.runs[0], "parent")
        change = load_runs(args.runs[0], "change")
    elif len(args.runs) == 2:
        parent, change = load_runs(args.runs[0]), load_runs(args.runs[1])
    else:
        ap.error("give PARENT.json CHANGE.json, or one BENCH_N.json")
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    lines, any_worse = compare(parent, change, benchmark)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
