#!/usr/bin/env bash
# The repo's benchmark in one command.
#
#   benchmark/run.sh [--seed N] [--smoke] [--verify] [--seconds S]
#       builds, runs every workload in its own child process (untraced,
#       then traced), checks the outputs, prints every metric by name with
#       its unit, writes benchmark/out/results.json and one
#       benchmark/out/<workload>.trace.json per workload. --smoke divides
#       every N by 20 (a functional check, < 15 s); --verify runs the
#       end-to-end set twice and holds the pair to BENCHMARK.json's bounds.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       measures one workload in one process and prints the result object
#       {correct, attempted, failed, metrics} as the last line of stdout.
#
# Exits non-zero if the build or any correctness check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to the caller's directory, for
# cargo and for the path of the binary alike; so no `cd` here.
target="${CARGO_TARGET_DIR:-$here/target}"

build_start=$(date +%s.%N)
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
build_s=$(awk -v a="$build_start" -v b="$(date +%s.%N)" 'BEGIN { printf "%.3f", b - a }')

exec "$target/release/woha-benchmark" \
    --out "$here/out" --spec "$here/../BENCHMARK.json" --build-s "$build_s" "$@"
