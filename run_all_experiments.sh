#!/bin/bash
# Runs every verify script (the runtime, server, cluster and chaos legs are
# cargo tests: tier-1 covers them), then regenerates every table and figure
# of the paper at its operating point (s = 4 is admissible from grid 1024
# up); EXPERIMENTS.md is the tables log with prose around it.
set -eo pipefail
./verify_perf.sh
OUT=bench-out/tables
mkdir -p $OUT
./target/release/ilt tables all --grid 1024 --out $OUT 2>&1 | tee $OUT/all_1024.md
echo ALL_EXPERIMENTS_DONE
