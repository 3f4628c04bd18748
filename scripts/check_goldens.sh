#!/usr/bin/env bash
# Tolerance-aware golden check: regenerates the canonical archived
# outputs and compares them against the committed files in results/.
#
#   results/fig3_report.json      deterministic telemetry counters
#   results/mesh_array.json       lane-kernel counters (mesh + TRIX decks)
#   results/chaos_torture.json    lane-kernel and chaos counters
#   results/fig5_montecarlo.txt     Monte-Carlo V_min scatter table
#   results/tab1_probabilities.txt  Monte-Carlo probability table
#
# Counters must match within a small relative tolerance (identical on the
# same code, but scheduler-dependent step counts may wiggle); text files
# are compared token-by-token with a numeric tolerance so formatting stays
# exact while sampled statistics may drift by a hair. Wall-clock timers
# and meta are ignored.
#
# This is a *drift detector*, not a tier-1 gate: its CI job is
# non-blocking. Run from the repository root: ./scripts/check_goldens.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "==> regenerating fig3_report.json"
cargo run --release -q -p clocksense-bench --bin fig3_skew -- \
    --report "$tmp/fig3_report.json" > /dev/null

echo "==> regenerating mesh_array.json"
cargo run --release -q -p clocksense-bench --bin mesh_array -- \
    --report "$tmp/mesh_array.json" > /dev/null

echo "==> regenerating chaos_torture.json"
cargo run --release -q -p clocksense-bench --bin chaos_torture -- \
    --report "$tmp/chaos_torture.json" > /dev/null

echo "==> regenerating fig5_montecarlo.txt"
cargo run --release -q -p clocksense-bench --bin fig5_montecarlo \
    > "$tmp/fig5_montecarlo.txt"

echo "==> regenerating tab1_probabilities.txt"
cargo run --release -q -p clocksense-bench --bin tab1_probabilities \
    > "$tmp/tab1_probabilities.txt"

echo "==> comparing against committed goldens"
python3 - "$tmp" <<'PY'
import json
import math
import re
import sys

tmp = sys.argv[1]
failures = []


def check_counters(committed_path, fresh_path, rel_tol=0.05):
    with open(committed_path, encoding="utf-8") as f:
        committed = json.load(f)["counters"]
    with open(fresh_path, encoding="utf-8") as f:
        fresh = json.load(f)["counters"]
    for name in sorted(set(committed) | set(fresh)):
        if name not in committed:
            failures.append(f"{fresh_path}: new counter {name!r}")
        elif name not in fresh:
            failures.append(f"{committed_path}: counter {name!r} vanished")
        else:
            a, b = committed[name], fresh[name]
            if a != b and abs(a - b) > rel_tol * max(abs(a), abs(b)):
                failures.append(
                    f"counter {name!r}: committed {a} vs regenerated {b}"
                )


NUM = re.compile(r"^-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?$")


def check_text(committed_path, fresh_path, abs_tol=0.05, rel_tol=0.10):
    with open(committed_path, encoding="utf-8") as f:
        committed = f.read().split()
    with open(fresh_path, encoding="utf-8") as f:
        fresh = f.read().split()
    if len(committed) != len(fresh):
        failures.append(
            f"{committed_path}: token count {len(committed)} vs {len(fresh)}"
        )
        return
    for i, (a, b) in enumerate(zip(committed, fresh)):
        # Numbers embedded in tokens like "[0.142," compare numerically.
        a_num, b_num = NUM.match(a.strip("[](),%")), NUM.match(b.strip("[](),%"))
        if a_num and b_num:
            x, y = float(a_num.group()), float(b_num.group())
            if math.isclose(x, y, rel_tol=rel_tol, abs_tol=abs_tol):
                continue
            failures.append(f"{committed_path}: token {i}: {a} vs {b}")
        elif a != b:
            failures.append(f"{committed_path}: token {i}: {a!r} vs {b!r}")


check_counters("results/fig3_report.json", f"{tmp}/fig3_report.json")
check_counters("results/mesh_array.json", f"{tmp}/mesh_array.json")
check_counters("results/chaos_torture.json", f"{tmp}/chaos_torture.json")
check_text("results/fig5_montecarlo.txt", f"{tmp}/fig5_montecarlo.txt")
check_text("results/tab1_probabilities.txt", f"{tmp}/tab1_probabilities.txt")

if failures:
    print("check_goldens: DRIFT DETECTED", file=sys.stderr)
    for f in failures[:40]:
        print(f"  {f}", file=sys.stderr)
    if len(failures) > 40:
        print(f"  ... and {len(failures) - 40} more", file=sys.stderr)
    sys.exit(1)
print(
    "check_goldens: OK (fig3_report, mesh_array and chaos_torture counters,"
    " fig5 and tab1 tables)"
)
PY
