#!/usr/bin/env bash
# Builds the release `leqa` daemon (default features) and the benchmark
# from the checkout this script runs in, then runs the benchmark:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build output goes to standard error;
# the last line of standard output is the result JSON.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p leqa-cli --bin leqa >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --daemon "$target/release/leqa" --out "$target/perfbench" "$@"
