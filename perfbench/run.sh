#!/usr/bin/env bash
# Builds the `ntp` binary and the benchmark program from source, then runs
# one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload replay-warm.route-uniform --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --manifest-path Cargo.toml -p ntp-cli >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
work="$CARGO_TARGET_DIR/perfbench-work"
mkdir -p "$work"
exec "$CARGO_TARGET_DIR/release/perfbench" --ntp "$CARGO_TARGET_DIR/release/ntp" --work "$work" "$@"
