#!/usr/bin/env bash
# Gate: no panicking calls on library paths of the hardened crates.
#
# The service-boundary crates (core, netlist, faults, montecarlo,
# scenarios) promise structured errors instead of panics: an `unwrap()`
# reachable from a library entry point turns a malformed deck or a lost
# journal into a process abort.
# This scan walks every src/*.rs of those crates and flags panic-family
# calls that appear *before* the file's trailing `#[cfg(test)]` module
# (the repo convention keeps test modules at the end of the file).
#
# Comment lines (`//`, `///`, `//!`) are ignored, so doc examples may
# still unwrap. `unwrap_or*` never matches — the pattern requires the
# exact `.unwrap()` call.
set -euo pipefail
cd "$(dirname "$0")/.."

CRATES=(crates/core crates/netlist crates/faults crates/montecarlo crates/scenarios)
status=0

for crate in "${CRATES[@]}"; do
    for f in "$crate"/src/*.rs; do
        hits=$(awk '
            /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
            /^[[:space:]]*\/\// { next }
            /\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(|todo!\(|unimplemented!\(/ {
                printf "%s:%d: %s\n", FILENAME, FNR, $0
            }
        ' "$f")
        if [[ -n "$hits" ]]; then
            echo "$hits"
            status=1
        fi
    done
done

if [[ $status -ne 0 ]]; then
    echo "error: panicking calls on non-test library paths (see above)" >&2
    echo "       return a structured NetlistError/CoreError/FaultError/ScenarioError instead" >&2
    exit 1
fi
echo "check_no_panics: clean (${CRATES[*]})"
