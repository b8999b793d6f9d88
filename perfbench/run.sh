#!/usr/bin/env bash
# Builds the `serve` binary and the `perfbench` program from this checkout, then
# runs one workload:
#
#   bash perfbench/run.sh --workload cora --seed 1 --seconds 7 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default `.bench_build`); the last
# line of standard output is the result JSON. See perfbench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f Cargo.toml || ! -d crates/serve ]]; then
  echo "perfbench: not a sablock checkout (no Cargo.toml / crates/serve here)" >&2
  exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p sablock_serve --bin serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/serve" "$@"
