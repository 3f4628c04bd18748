#!/usr/bin/env bash
# Runs the benchmark of two checkouts in alternating pairs, for
# perf/compare.py.
#
# usage: perf/run_pairs.sh PARENT_CHECKOUT CHANGE_CHECKOUT OUT_DIR [PAIRS] [SECONDS]
#
# Builds each checkout's perf binary once (release, into OUT_DIR/build-*),
# then for pair i = 1..PAIRS (default 10) runs every workload of the
# change checkout's BENCHMARK.json on both binaries with seed i, the
# parent first on odd pairs and the change first on even ones. Outputs go
# to OUT_DIR/parent/<workload>-<i>.out and OUT_DIR/change/<workload>-<i>.out.
# Passing the same checkout twice gives two independent sets of one
# commit, which must compare as "same" everywhere.
#
#   perf/run_pairs.sh ../parent . /tmp/pairs 10 10
#   python3 perf/compare.py /tmp/pairs/parent /tmp/pairs/change

set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '4p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
out=$3
pairs=${4:-10}
seconds=${5:-10}
mkdir -p "$out/parent" "$out/change" "$out/bin"

for side in parent change; do
    src=${!side}
    CARGO_TARGET_DIR="$out/build-$side" cargo build --release --quiet --offline \
        --manifest-path "$src/perf/Cargo.toml"
    cp "$out/build-$side/release/perf" "$out/bin/$side"
done

# The workloads, and the fixed arguments after "--" in the benchmark command.
read_spec() {
    python3 -c 'import json, sys
spec = json.load(open(sys.argv[1]))
cmd = spec["command"]
print(" ".join(w["name"] for w in spec["workloads"]) if sys.argv[2] == "workloads"
      else " ".join(cmd[cmd.index("--") + 1:]))' "$change/BENCHMARK.json" "$1"
}
workloads=$(read_spec workloads)
read -r -a fixed <<< "$(read_spec args)"

run() { # side workload seed
    if ! "$out/bin/$1" "${fixed[@]}" --workload "$2" --seed "$3" --seconds "$seconds" \
        --trace 0 > "$out/$1/$2-$3.out"; then
        echo "run_pairs: $1 $2 seed $3 exited non-zero" >&2
    fi
}

for i in $(seq 1 "$pairs"); do
    for w in $workloads; do
        if [ $((i % 2)) -eq 1 ]; then
            run parent "$w" "$i"
            run change "$w" "$i"
        else
            run change "$w" "$i"
            run parent "$w" "$i"
        fi
    done
    echo "pair $i of $pairs done" >&2
done
