#!/usr/bin/env python3
"""Compare two directories of `perf` run outputs, parent against change.

usage: python3 perf/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each `*.out` file in a directory is the standard output of one run: the
`# run workload=... seed=...` header line and the JSON result on the last
line. Traced runs carry no end-to-end metrics and are skipped.

For every end-to-end metric of BENCHMARK.json and every workload it prints
one row with each side's median and quartiles, the share of pairs the
change wins (runs paired by seed, else by order; ties count for neither),
the parent's own spread (its interquartile range over its median) and the
bound, and rates the row:

* unresolved - the parent's spread exceeds the bound and not every change
  run beats every parent run;
* worse - the change median is worse than the parent's by more than the
  bound;
* better - the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's interquartile range (or, with
  a spread wider than the bound, every change run beats every parent run);
* same - otherwise.

The exit status is 1 when a row is worse or a run failed its checks.
"""

import argparse
import json
import os
import re
import statistics
import sys


def read_run(path):
    """Returns (header fields, result object) of one run's output file."""
    with open(path, encoding="utf-8") as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty")
    header = {}
    for line in lines:
        if line.startswith("# run "):
            header = dict(re.findall(r"(\w+)=(\S+)", line))
    result = json.loads(lines[-1])
    return header, result


def read_dir(path):
    """Runs of one directory as {workload: [(seed, result), ...]}."""
    runs = {}
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if not name.endswith(".out") or not os.path.isfile(full):
            continue
        try:
            header, result = read_run(full)
        except (ValueError, json.JSONDecodeError) as e:
            print(f"warning: skipping {full}: {e}", file=sys.stderr)
            continue
        workload = header.get("workload")
        if workload is None:
            print(f"warning: skipping {full}: no '# run' header", file=sys.stderr)
            continue
        runs.setdefault(workload, []).append((header.get("seed"), result))
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def pairs(parent, change):
    """Pairs runs by seed when both sides ran the same seeds, else by order."""
    p_by_seed = dict(parent)
    c_by_seed = dict(change)
    if set(p_by_seed) == set(c_by_seed) and len(p_by_seed) == len(parent):
        return [(p_by_seed[s], c_by_seed[s]) for s in p_by_seed]
    return list(zip([r for _, r in parent], [r for _, r in change]))


def rate(p_vals, c_vals, paired, better, bound):
    """Row rating and the numbers behind it."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(p_vals)
    _, c_med, _ = quartiles(c_vals)
    worse_by = sign * (c_med - p_med) / p_med if p_med else 0.0
    spread = (p_q3 - p_q1) / p_med if p_med else 0.0
    wins = sum(1 for p, c in paired if sign * (c - p) < 0)
    win_frac = wins / len(paired) if paired else 0.0
    dominates = all(sign * (c - p) < 0 for c in c_vals for p in p_vals)
    if spread > bound:
        rating = "better" if dominates else "unresolved"
    elif worse_by > bound:
        rating = "worse"
    elif win_frac >= 0.9 and abs(c_med - p_med) > (p_q3 - p_q1) and worse_by < 0:
        rating = "better"
    else:
        rating = "same"
    return rating, worse_by, spread, win_frac


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(here, "..", "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark, encoding="utf-8") as f:
        spec = json.load(f)
    parent = read_dir(args.parent)
    change = read_dir(args.change)

    status = 0
    for side, runs in (("parent", parent), ("change", change)):
        for workload, results in sorted(runs.items()):
            bad = [s for s, r in results if not r["correct"] or r["failed"]]
            if bad:
                print(f"{side} {workload}: runs with failed checks, seeds {bad}")
                status = 1

    header = ("metric", "workload", "parent median [q1, q3]", "change median [q1, q3]",
              "change", "wins", "parent IQR", "bound", "rating")
    rows = []
    for w in spec["workloads"]:
        workload = w["name"]
        p_runs = [(s, r) for s, r in parent.get(workload, []) if r["metrics"]]
        c_runs = [(s, r) for s, r in change.get(workload, []) if r["metrics"]]
        for m in spec["end_to_end"]:
            name = m["name"]
            p_pairs = [(s, r["metrics"][name]["value"]) for s, r in p_runs if name in r["metrics"]]
            c_pairs = [(s, r["metrics"][name]["value"]) for s, r in c_runs if name in r["metrics"]]
            if not p_pairs or not c_pairs:
                rows.append((name, workload, "-", "-", "-", "-", "-", f"{m['bound']:.0%}", "missing"))
                continue
            p_vals = [v for _, v in p_pairs]
            c_vals = [v for _, v in c_pairs]
            paired = pairs(p_pairs, c_pairs)
            rating, worse_by, spread, win_frac = rate(
                p_vals, c_vals, paired, m["better"], m["bound"])
            if rating == "worse":
                status = 1
            moved = f"{worse_by:.1%} worse" if worse_by > 0 else f"{-worse_by:.1%} better"
            rows.append((name, workload, fmt(p_vals), fmt(c_vals), moved,
                         f"{win_frac:.0%} of {len(paired)}", f"{spread:.1%}",
                         f"{m['bound']:.0%}", rating))

    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(widths[i]) for i, c in enumerate(r)).rstrip())
    sys.exit(status)


if __name__ == "__main__":
    main()
