#!/bin/bash
# Verifies the spectral-engine fast paths hold their performance claims via
# the in-tree barometer (`ilt bench`, crates/ilt-perf) — no python anywhere:
#   1. `ilt bench run 'fft_*'` completes — each FFT workload cross-checks
#      its fast path against the dense reference internally and exits
#      non-zero on any divergence, so this doubles as a correctness gate;
#   2. every fresh result carries the runtime-detected SIMD kernel stamp
#      (`"simd": "avx2" | "scalar"`), so a checked-in number can
#      never be compared against a run on mystery hardware;
#   3. `ilt bench diff 'fft_*'` compares the fresh medians against the
#      checked-in BENCH_<workload>.json baselines at the repo root and exits
#      non-zero past a workload's threshold either way (REGRESSED when
#      slower, STALE when faster: re-record the baseline) (9-15% for the FFT
#      family, each set from its run-to-run spread on the reference box; a
#      failure while the box is in its slow mode is re-run once);
#   4. with ILT_FFT_FORCE_SCALAR=1 the scalar fallback passes the same
#      bit-identity guard tests as the SIMD kernels (butterflies and the
#      logistic), proving the forced path stays live and numerically
#      identical — and the simulator built on it still matches its dense
#      reference (tests/spectral_guard.rs), the optimizer's tape-free step
#      the tape chain (crates/ilt-core/tests/eq5_operator.rs), the SOCS
#      kernels built on the scalar block primitives their pinned bits
#      (ilt-optics' kernels_are_pinned_to_the_bit and the TCC block product's
#      support_only_operator_is_the_every_bin_operator_to_the_bit), and the
#      masks printed under the scalar logistic their goldens (tests/goldens.rs);
#      no shipped sigmoid calls libm's `exp` behind the kernel's back
#      (tests/hermetic.rs::one_exp_for_every_sigmoid);
#   5. the forced-scalar FFT medians are printed once, for the record only:
#      there a row runs the scalar column kernel at width 1. No baseline,
#      so no speed gate.
# Every step above gates: the script runs with pipefail, so a failure
# before a `| tee` stops it.
set -eo pipefail
BIN=./target/release/ilt
OUT=bench-out/perf
mkdir -p "$OUT"

"$BIN" bench run 'fft_*' --out "$OUT" | tee bench-out/bench-fft.log

# Every fresh FFT result must carry a recognized kernel stamp.
for f in "$OUT"/BENCH_fft_*.json; do
  grep -Eq '"simd": "(avx2|scalar)"' "$f" \
    || { echo "missing/unknown simd stamp in $f"; exit 1; }
done
echo "simd stamp: $(grep -Eo '"simd": "[a-z0-9]+"' "$OUT"/BENCH_fft_pruned_forward.json)"

"$BIN" bench diff 'fft_*' --out "$OUT" --baselines . | tee -a bench-out/bench-fft.log

# The forced-scalar fallback must stay bit-identical to the reference
# paths: run the kernel guard suite with SIMD disabled.
ILT_FFT_FORCE_SCALAR=1 cargo test -q -p ilt-fft --test kernel_guard \
  | tee bench-out/scalar-guard.log
ILT_FFT_FORCE_SCALAR=1 cargo test -q -p multilevel-ilt --test spectral_guard --test goldens \
  | tee -a bench-out/scalar-guard.log
ILT_FFT_FORCE_SCALAR=1 cargo test -q -p multilevel-ilt --test hermetic one_exp_for_every_sigmoid \
  | tee -a bench-out/scalar-guard.log
ILT_FFT_FORCE_SCALAR=1 cargo test -q -p ilt-core --test eq5_operator \
  | tee -a bench-out/scalar-guard.log
ILT_FFT_FORCE_SCALAR=1 cargo test -q -p ilt-optics --lib -- \
  kernels_are_pinned_to_the_bit support_only_operator_is_the_every_bin_operator_to_the_bit \
  | tee -a bench-out/scalar-guard.log

# On record, no speed gate (no baseline); a fast path that diverges from
# its reference still fails the run.
ILT_FFT_FORCE_SCALAR=1 "$BIN" bench run 'fft_*' --out bench-out/perf-scalar \
  | sed 's/^/scalar, not gated: /' | tee -a bench-out/bench-fft.log

echo PERF_VERIFIED
