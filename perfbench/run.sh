#!/usr/bin/env bash
# Build the service and the benchmark from source, then run the benchmark.
#
#   perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   perfbench/run.sh [--seed N] [--runs N] [--seconds S] [--trace] [--out DIR]
#   perfbench/run.sh compare BASE.json NEW.json
#   perfbench/run.sh spec        # print BENCHMARK.json from the source tables
#
# Run from anywhere; everything is built and written inside the checkout
# (CARGO_TARGET_DIR defaults to .bench_build, scratch goes to .bench_work).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

case "${1:-}" in
    compare | spec) ;;
    *) cargo build --release --offline --quiet -p geosocial-serve >&2 ;;
esac
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --bin-dir "$target/release" "$@"
