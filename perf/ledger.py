#!/usr/bin/env python3
"""Archive a ledger entry: repeated runs of every workload on one seed.

usage: python3 perf/ledger.py LABEL [--runs 10] [--seed 1] [--note TEXT]

Runs the BENCHMARK.json command from the repository root RUNS times
untraced and once traced on every workload, and writes
perf/results/BENCH_<LABEL>.json: the host line, each end-to-end metric's
values with median and quartiles, the traced run's per-layer metrics, per
workload the layer with the largest self-time share, and the --note
paragraph that reads them as the next bottleneck.
"""

import argparse
import json
import os
import subprocess
import sys

from compare import quartiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(spec, workload, seed, trace):
    """Runs the benchmark once; returns (header lines, result)."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return [line for line in lines if line.startswith("# ")], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("label")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--note", help="the reader's conclusion, stored as next_bottleneck")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    entry = {"label": args.label, "seed": args.seed, "runs": args.runs,
             "run_seconds": spec["run_seconds"], "command": spec["command"],
             "workloads": {}}
    notes = []
    for w in spec["workloads"]:
        name = w["name"]
        results = []
        for i in range(args.runs):
            header, result = run(spec, name, args.seed, 0)
            results.append(result)
            print(f"{name}: run {i + 1} of {args.runs}", file=sys.stderr)
        entry["host"] = header[0][2:]
        e2e = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            e2e[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                              "values": values}
        _, traced = run(spec, name, args.seed, 1)
        # Layer self-time shares of the traced reps, largest first, without
        # the harness itself and the set-up shares (a different base).
        shares = sorted(((k[:-len("_pct")], v["value"]) for k, v in traced["metrics"].items()
                         if k.endswith("_pct") and k != "perf.harness_pct"
                         and not k.startswith("setup.")),
                        key=lambda kv: -kv[1])
        (layer, pct), (runner_up, runner_pct) = shares[0], shares[1]
        entry["workloads"][name] = {
            "correct": all(r["correct"] and not r["failed"] for r in results + [traced]),
            "attempted": [r["attempted"] for r in results],
            "end_to_end": e2e,
            "per_layer": traced["metrics"],
            "largest_self_time": {"layer": layer, "pct": pct},
        }
        runner = (f"next {runner_up}, {runner_pct:.1f}%" if runner_pct >= 0.1
                  else "no other spanned layer reaches 0.1%")
        notes.append(f"{name}: {layer} holds {pct:.1f}% of the traced self time ({runner}).")
    entry["largest_self_time"] = " ".join(notes)
    if args.note:
        entry["next_bottleneck"] = args.note

    path = os.path.join(HERE, "results", f"BENCH_{args.label}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(entry, f, indent=2)
        f.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
