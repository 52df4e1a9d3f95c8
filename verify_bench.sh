#!/bin/bash
# Smoke-verifies the performance barometer subsystem itself (crates/ilt-perf):
#   1. the registry lists and every workload family is present;
#   2. a smoke run (1 rep, tiny fixtures) of the FULL registry completes —
#      every compute layer's setup path runs, FFT kernels to tiled runtime;
#   3. `bench diff` refuses to gate on smoke numbers;
#   4. a real run of the pruned-inverse workload passes diff against the
#      checked-in baseline;
#   5. the same diff FAILS when an artificial 200 ms/op delay is injected
#      via ILT_BENCH_DELAY_US — proof the gate actually trips on slowdowns.
set -e
BIN=./target/release/ilt
OUT=bench-out/bench-verify
rm -rf "$OUT"
mkdir -p "$OUT/smoke" "$OUT/real"

"$BIN" bench list | tee "$OUT/list.log"
for fam in fft simulator autodiff core runtime; do
    grep -q "$fam" "$OUT/list.log" || { echo "MISSING_FAMILY: $fam"; exit 1; }
done

"$BIN" bench run --smoke --out "$OUT/smoke" | tee "$OUT/smoke.log"

if "$BIN" bench diff --out "$OUT/smoke" --baselines "$OUT/smoke" 2>"$OUT/refusal.log"; then
    echo "SMOKE_GATED: diff accepted smoke-mode results"
    exit 1
fi
grep -q "smoke" "$OUT/refusal.log" || { echo "WRONG_REFUSAL"; cat "$OUT/refusal.log"; exit 1; }

"$BIN" bench run --name fft_pruned_inverse --out "$OUT/real"
"$BIN" bench diff --name fft_pruned_inverse --out "$OUT/real" --baselines .

# The injected slowdown must trip the gate: 200 ms/op against a 5.3 ms
# baseline is far past its 27% threshold.
ILT_BENCH_DELAY_US=200000 "$BIN" bench run --name fft_pruned_inverse --out "$OUT/real"
if "$BIN" bench diff --name fft_pruned_inverse --out "$OUT/real" --baselines .; then
    echo "GATE_BLIND: injected 200ms/op slowdown did not fail bench diff"
    exit 1
fi

echo BENCH_VERIFIED
