#!/bin/bash
# Smoke-runs every example at small scale. The three that take a grid run at
# 32 px, the smallest grid `ilt` accepts. Examples write their PGM / CSV
# files into the working directory, so they run in a scratch directory that
# is removed afterwards. Build them first: cargo build --release --examples.
set -eo pipefail
T=$(cd "$(dirname "$0")" && pwd)/target/release/examples
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT
cd "$OUT"
"$T"/binary_function_study 256 2>&1 | tail -5
"$T"/quickstart 2>&1 | tail -3
"$T"/kernel_gallery 32 2>&1 | tail -3
"$T"/m1_benchmark_flow 1 32 2>&1 | tail -3
"$T"/via_optimization 0 32 2>&1 | tail -3
echo EXAMPLES_VERIFIED
