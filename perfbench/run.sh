#!/usr/bin/env bash
# Builds the `rsg` binary and the benchmark from this checkout's
# sources, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload train|spec-light|spec-dag-live \
#        --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build output goes to
# $CARGO_TARGET_DIR (default .bench_build) and to stderr; the result is
# the last line of stdout.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p rsg-cli --bin rsg >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/rsg-perfbench" --rsg "$CARGO_TARGET_DIR/release/rsg" "$@"
