#!/bin/bash
# Verifies the spectral-engine fast paths against their references via the
# in-tree barometer (`ilt bench`, crates/ilt-perf) — no python anywhere:
#   1. `ilt bench run 'fft_*'` completes at full size — each FFT workload
#      cross-checks its fast path against the dense reference and exits
#      non-zero on any divergence. Its timings are printed, not gated: the
#      barometer measures, and a speed claim is an A/B of two binaries on
#      the same box (the gate is benchmark/, which pairs them);
#   2. with ILT_FFT_FORCE_SCALAR=1 the scalar fallback passes the same
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
#   3. the forced-scalar FFT workloads run once more, self-checks and all;
#      there a row runs the scalar column kernel at width 1.
# Every step above gates: the script runs with pipefail, so a failure
# before a `| tee` stops it.
set -eo pipefail
BIN=./target/release/ilt
mkdir -p bench-out

"$BIN" bench run 'fft_*' | tee bench-out/bench-fft.log

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

# A fast path that diverges from its reference fails the scalar run too.
ILT_FFT_FORCE_SCALAR=1 "$BIN" bench run 'fft_*' \
  | sed 's/^/scalar: /' | tee -a bench-out/bench-fft.log

echo PERF_VERIFIED
