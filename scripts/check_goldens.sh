#!/usr/bin/env bash
# Tolerance-aware golden check: regenerates every archived paper output
# and compares it against the committed file in results/.
#
#   results/*.txt                 stdout of the binary with the same stem
#                                 (fig2–fig6, tab1, sec3, ablations, ...)
#   results/fig3_report.json      deterministic telemetry counters
#   results/mesh_array.json       lane-kernel counters (mesh + TRIX decks)
#   results/chaos_torture.json    lane-kernel and chaos counters
#
# Counters must match within a small relative tolerance (identical on the
# same code, but scheduler-dependent step counts may wiggle); text files
# are compared token-by-token with a numeric tolerance so formatting stays
# exact while sampled statistics may drift by a hair. Each text file is
# reported as byte-identical or only within tolerance, each counter map as
# bit-identical or only within tolerance. Wall-clock timers
# and meta are ignored; each binary's wall seconds and the total are
# printed at the end.
#
# This is a *drift detector*, not a tier-1 gate: its CI job is
# non-blocking. Run from the repository root: ./scripts/check_goldens.sh
set -euo pipefail
cd "$(dirname "$0")/.."
# The archives are full-mode outputs.
unset CLOCKSENSE_FAST

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "==> building the experiment binaries"
cargo build --release -q -p clocksense-bench
bindir="${CARGO_TARGET_DIR:-target}/release"

# run <binary> <stdout file> [args...]: runs one binary, appending its
# wall seconds to $tmp/wall.tsv.
run() {
    local name=$1 out=$2
    shift 2
    echo "==> running $name"
    local t0 t1
    t0=$(date +%s.%N)
    "$bindir/$name" "$@" > "$out"
    t1=$(date +%s.%N)
    printf '%s\t%s\n' "$name" "$(awk -v a="$t0" -v b="$t1" 'BEGIN { print b - a }')" \
        >> "$tmp/wall.tsv"
}

for golden in results/*.txt; do
    stem="$(basename "$golden" .txt)"
    if [ "$stem" = fig3_skew ]; then
        # One run for both fig3 archives; --report adds one stdout line.
        run fig3_skew "$tmp/fig3_skew.raw" --report "$tmp/fig3_report.json"
        grep -vxF "telemetry report written to $tmp/fig3_report.json" \
            "$tmp/fig3_skew.raw" > "$tmp/fig3_skew.txt"
    else
        run "$stem" "$tmp/$stem.txt"
    fi
done
run mesh_array /dev/null --report "$tmp/mesh_array.json"
run chaos_torture /dev/null --report "$tmp/chaos_torture.json"

echo "==> comparing against committed goldens"
python3 - "$tmp" <<'PY'
import glob
import json
import math
import os
import re
import sys

tmp = sys.argv[1]
failures = []


def check_counters(committed_path, fresh_path, rel_tol=0.05):
    """Checks the counters within tolerance; returns whether they are
    exactly equal."""
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
    return committed == fresh


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


goldens = sorted(glob.glob("results/*.txt"))
for committed_path in goldens:
    fresh_path = os.path.join(tmp, os.path.basename(committed_path))
    with open(committed_path, "rb") as a, open(fresh_path, "rb") as b:
        identical = a.read() == b.read()
    before = len(failures)
    check_text(committed_path, fresh_path)
    if identical:
        verdict = "byte-identical"
    elif len(failures) == before:
        verdict = "within tolerance"
    else:
        verdict = "DRIFT"
    print(f"  {committed_path}: {verdict}")
for name in ("fig3_report", "mesh_array", "chaos_torture"):
    before = len(failures)
    identical = check_counters(f"results/{name}.json", f"{tmp}/{name}.json")
    if identical:
        verdict = "counters bit-identical"
    elif len(failures) == before:
        verdict = "counters within tolerance"
    else:
        verdict = "DRIFT"
    print(f"  results/{name}.json: {verdict}")

print("wall seconds per binary:")
total = 0.0
with open(os.path.join(tmp, "wall.tsv"), encoding="utf-8") as f:
    for line in f:
        name, secs = line.split("\t")
        total += float(secs)
        print(f"  {name:<26} {float(secs):7.2f}")
print(f"  {'total':<26} {total:7.2f}")

if failures:
    print("check_goldens: DRIFT DETECTED", file=sys.stderr)
    for f in failures[:40]:
        print(f"  {f}", file=sys.stderr)
    if len(failures) > 40:
        print(f"  ... and {len(failures) - 40} more", file=sys.stderr)
    sys.exit(1)
print(
    f"check_goldens: OK ({len(goldens)} text archives; fig3_report,"
    " mesh_array and chaos_torture counters)"
)
PY
