#!/usr/bin/env bash
# Build the benchmark from source (release profile), then run it with
# the arguments given, e.g.
#   bash evobench/run.sh --workload edge-connect --seed 1 --seconds 30 --trace 0
# Build output goes to $CARGO_TARGET_DIR (default: evobench/target) and
# to standard error, so standard output carries only the benchmark's.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/evobench" "$@"
