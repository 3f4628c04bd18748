#!/usr/bin/env bash
# Tier-1 verification: build, test, and doc the whole workspace, then
# build, test and lint the benchmark harness in perf/.
# Run from the repository root: ./scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# Numerics-sensitive suites again under release optimisations: the
# solver-equivalence bounds (dense vs sparse to 1e-9, tree solver
# cross-checks) and the batched-vs-scalar bounds must hold with the
# vectorized lane-kernel codegen production runs.
echo "==> cargo test --release -q (numerics-sensitive suites)"
cargo test --release -q -p clocksense-spice
cargo test --release -q --test solver_equivalence --test spice_roundtrip --test batch_equivalence

# The examples are user-facing documentation; every one must keep
# building and actually run against the current API, so its own asserts
# (e.g. fault_coverage's 100 % stuck-at coverage, online_selfchecking's
# latch in the faulty cycle) execute rather than only compile.
echo "==> cargo build --release --examples"
cargo build --release --examples

for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    echo "==> cargo run --release --example $name"
    cargo run --release --quiet --example "$name" >/dev/null
done

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc --workspace --no-deps"
cargo doc --workspace --no-deps

# The benchmark harness is a package of its own (perf/Cargo.toml, own
# [workspace] and Cargo.lock) built against the library crates by path,
# so the workspace steps above never see it; a library API change must
# not break it silently.
perf=(--offline --manifest-path perf/Cargo.toml)
echo "==> perf: cargo build --release"
cargo build --release "${perf[@]}"

echo "==> perf: cargo test --release -q"
cargo test --release -q "${perf[@]}"

echo "==> perf: cargo clippy --release --all-targets -- -D warnings"
cargo clippy --release --all-targets "${perf[@]}" -- -D warnings

echo "==> perf: cargo fmt --check"
cargo fmt --check --manifest-path perf/Cargo.toml

echo "verify: OK"
