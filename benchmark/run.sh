#!/usr/bin/env bash
# Builds the benchmark from source and measures one workload:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1 [--smoke]
#
# W is one of m1_fast, m1_lowres, batch_tiles, serve_small. Every metric is
# printed as `workload metric value unit`; the last line of standard output
# is the result object. Output files land in benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/ilt-benchmark" --out benchmark/out "$@"
