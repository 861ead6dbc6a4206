#!/usr/bin/env bash
# Builds the facade CLIs and the bench harness in release mode into one
# target directory, then runs the harness with the given arguments:
#
#   bash benchmark/run.sh --workload denoise-512 --seed 1 --seconds 28 --trace 0
#
# The harness times `chambolle_denoise` from the same directory its own
# executable sits in, so both builds share the target directory
# (CARGO_TARGET_DIR when set, `target` otherwise).
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --bins --target-dir "$target"
cargo build --release --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target"
exec "$target/release/bench" "$@"
