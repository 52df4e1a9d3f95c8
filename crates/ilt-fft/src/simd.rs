//! Runtime-dispatched SIMD kernels: the FFT butterflies, the logistic
//! every sigmoid of the stack runs on ([`logistic`], [`logistic_in_place`]),
//! and the block primitives the SOCS kernel build sums on ([`conj_dots`],
//! [`axpys`], [`sub_axpys`]).
//!
//! The kernel is selected **once per process** from CPU feature detection
//! (`is_x86_feature_detected!`) and the `ILT_FFT_FORCE_SCALAR` environment
//! variable, then cached; every [`crate::FftPlan::process`],
//! [`logistic_in_place`] and block-primitive call dispatches through the
//! cached choice with zero per-call detection cost.
//!
//! ## Bit-compatibility contract
//!
//! Every SIMD kernel performs **exactly the same IEEE-754 operations in the
//! same order** as the scalar reference in `plan.rs`:
//!
//! * complex multiply uses separate `mul`/`addsub` — never FMA, which would
//!   contract `a*c - b*d` into a differently rounded result;
//! * the imaginary part exploits only the bitwise-safe commutativity of IEEE
//!   addition (`x.re*w.im + x.im*w.re` vs `x.im*w.re + x.re*w.im`);
//! * the `±i` rotation is a lane swap plus a sign-bit XOR, exact in both
//!   paths.
//!
//! The logistic keeps the same contract by construction: its AVX2 kernel is
//! the scalar loop compiled with `avx2` enabled (no `fma`), so the compiler
//! may widen it but not re-round it.
//!
//! The block primitives keep it by widening across columns, never along a
//! sum: a register holds two columns' `(re, im)` sums (or, for an axpy, two
//! elements of one column), each product is the scalar complex multiply in
//! the butterflies' `mul`/`addsub` form, and every sum runs in the scalar
//! loop's order. Regrouping one sum to vectorize it would re-round it.
//!
//! Consequently `process` and `process_scalar` agree bit-for-bit, printed
//! masks and SOCS kernels do not depend on the host CPU, and
//! `ILT_FFT_FORCE_SCALAR=1` runs reproduce SIMD runs exactly.
//! `crates/ilt-fft/tests/kernel_guard.rs` pins this contract.

use std::sync::OnceLock;

use crate::complex::Complex64;

/// Which butterfly implementation `FftPlan::process` dispatches to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// 256-bit lanes, two complex values per butterfly step.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Avx2,
    /// Portable reference path.
    Scalar,
}

impl Kernel {
    fn name(self) -> &'static str {
        match self {
            Kernel::Avx2 => "avx2",
            Kernel::Scalar => "scalar",
        }
    }
}

/// The process-wide kernel choice, computed once.
pub(crate) fn active() -> Kernel {
    static ACTIVE: OnceLock<Kernel> = OnceLock::new();
    *ACTIVE.get_or_init(detect)
}

/// Name of the butterfly kernel selected for this process: `"avx2"` or
/// `"scalar"`.
///
/// Benchmark environment stamps record this so baselines from different
/// machines are comparable; set `ILT_FFT_FORCE_SCALAR=1` before the first
/// transform to pin `"scalar"`.
///
/// # Examples
///
/// ```
/// let k = ilt_fft::active_kernel();
/// assert!(["avx2", "scalar"].contains(&k));
/// ```
pub fn active_kernel() -> &'static str {
    active().name()
}

fn detect() -> Kernel {
    if std::env::var("ILT_FFT_FORCE_SCALAR")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
    {
        return Kernel::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
    }
    Kernel::Scalar
}

/// `1.5 * 2^52`: adding it rounds a double below `2^51` in magnitude to the
/// nearest integer, which then sits in the low mantissa bits.
const ROUND_SHIFT: f64 = 6_755_399_441_055_744.0;
/// `ln 2` split Cody–Waite style: `LN2_HI` has 32 significant bits, so
/// `k * LN2_HI` is exact for every `|k| < 2^21`.
const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);
/// `1/n!` for `n = 2..=13`: the Taylor tail of `e^r` on `|r| <= ln2 / 2`,
/// truncated 0.02 ulp short of the full series.
const EXP_TAIL: [f64; 12] = [
    1.0 / 2.0, 1.0 / 6.0, 1.0 / 24.0, 1.0 / 120.0, 1.0 / 720.0, 1.0 / 5040.0, 1.0 / 40320.0,
    1.0 / 362_880.0, 1.0 / 3_628_800.0, 1.0 / 39_916_800.0, 1.0 / 479_001_600.0,
    1.0 / 6_227_020_800.0,
];

/// The logistic `1 / (1 + e^x)`, every sigmoid of the stack (`sigma(-a)`
/// is the usual `1 / (1 + e^-a)`), within 2 ulp of libm's
/// `1 / (1 + x.exp())` and saturating to exactly `1.0` / `0.0` where it
/// does; NaN in, NaN out.
///
/// `e^x = 2^k e^r` with `k` rounded by [`ROUND_SHIFT`], `r` reduced by
/// Cody–Waite and `e^r` a fixed degree-13 polynomial (Estrin); `2^k` is
/// built from exponent bits in two halves so `k = 1024` still overflows
/// correctly. Plain `mul`/`add` only — no FMA, no libm — so every kernel
/// that evaluates it agrees to the bit: [`logistic_in_place`] is this
/// function over a slice.
///
/// # Examples
///
/// ```
/// assert_eq!(ilt_fft::logistic(0.0), 0.5);
/// assert_eq!(ilt_fft::logistic(-40.0), 1.0);
/// assert_eq!(ilt_fft::logistic(f64::INFINITY), 0.0);
/// ```
#[inline(always)]
pub fn logistic(x: f64) -> f64 {
    // Clamps that keep a NaN: below -64, `1 + e^x` is already 1; above
    // 710, `e^x` already overflows.
    let x = if 710.0 < x { 710.0 } else { x };
    let x = if x < -64.0 { -64.0 } else { x };
    let t = x * std::f64::consts::LOG2_E + ROUND_SHIFT;
    let k = t - ROUND_SHIFT;
    let r = (x - k * LN2_HI) - k * LN2_LO;
    let (r2, c) = (r * r, &EXP_TAIL);
    let r4 = r2 * r2;
    let b0 = (c[0] + c[1] * r) + (c[2] + c[3] * r) * r2;
    let b1 = (c[4] + c[5] * r) + (c[6] + c[7] * r) * r2;
    let b2 = (c[8] + c[9] * r) + (c[10] + c[11] * r) * r2;
    let e_r = 1.0 + (r + r2 * ((b0 + b1 * r4) + b2 * (r4 * r4)));
    // k in [-93, 1025]: two normal halves, each scaling exactly.
    let ki = t.to_bits().wrapping_sub(ROUND_SHIFT.to_bits()) as i64;
    let half = ki >> 1;
    let pow2 = |j: i64| f64::from_bits((j.wrapping_add(1023) as u64) << 52);
    1.0 / (1.0 + e_r * pow2(half) * pow2(ki - half))
}

/// [`logistic`] of every element, in place, on the process's kernel (see
/// [`active_kernel`]); bit-identical to the element-wise calls on both.
pub fn logistic_in_place(xs: &mut [f64]) {
    match active() {
        // SAFETY: `active()` is `Avx2` only when `detect` saw the CPU report
        // AVX2, the one requirement of `logistic_avx2`.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { x86::logistic_avx2(xs) },
        _ => logistic_each(xs),
    }
}

/// The one loop both kernels compile: scalar here, 4-wide in
/// `x86::logistic_avx2`.
#[inline(always)]
fn logistic_each(xs: &mut [f64]) {
    for x in xs {
        *x = logistic(*x);
    }
}

/// The conjugate dots of one vector against a block of columns:
/// `acc[j] += conj(x[e]) * ys[j * stride + e]` for every `j`, each sum in
/// increasing `e` from the caller's `acc[j]`, on the process's kernel and
/// bit-identical on both. The AVX2 kernel holds two columns' sums per
/// register, so it interleaves independent sums and reorders none.
///
/// # Panics
///
/// Panics if the last column runs past the end of `ys`.
pub fn conj_dots(x: &[Complex64], ys: &[Complex64], stride: usize, acc: &mut [Complex64]) {
    if let Some(last) = acc.len().checked_sub(1) {
        assert!(last * stride + x.len() <= ys.len(), "column {last} runs past the block");
    }
    match active() {
        // SAFETY: `active()` is `Avx2` only when `detect` saw the CPU report
        // AVX2, and every column lies inside `ys` (asserted above).
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { x86::conj_dots_avx(x, ys, stride, acc) },
        _ => conj_dots_cols(x, ys, stride, acc),
    }
}

/// Many complex axpys with one vector: `outs[j * stride + e] += x[e] *
/// coefs[j]` for every `j` and `e`, on the process's kernel and
/// bit-identical on both.
///
/// # Panics
///
/// Panics if the last column runs past the end of `outs`, or if two columns
/// overlap (`stride < x.len()` with more than one coefficient).
pub fn axpys(x: &[Complex64], coefs: &[Complex64], outs: &mut [Complex64], stride: usize) {
    axpys_on::<false>(x, coefs, outs, stride)
}

/// [`axpys`] subtracting: `outs[j * stride + e] -= x[e] * coefs[j]`.
/// Negated coefficients would not do: `x * -c` rounds an exact-zero
/// product to `+0` where `-(x * c)` is `-0`, and `-0 + +0` is `+0`.
///
/// # Panics
///
/// As [`axpys`].
pub fn sub_axpys(x: &[Complex64], coefs: &[Complex64], outs: &mut [Complex64], stride: usize) {
    axpys_on::<true>(x, coefs, outs, stride)
}

fn axpys_on<const SUB: bool>(x: &[Complex64], coefs: &[Complex64], outs: &mut [Complex64], stride: usize) {
    if let Some(last) = coefs.len().checked_sub(1) {
        assert!(last * stride + x.len() <= outs.len(), "column {last} runs past the block");
        assert!(last == 0 || x.len() <= stride, "columns overlap");
    }
    match active() {
        // SAFETY: AVX2 as in `conj_dots`, and every column lies inside
        // `outs` without overlapping another (asserted above).
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { x86::axpys_avx::<SUB>(x, coefs, outs, stride) },
        _ => axpys_cols::<SUB>(x, coefs, outs, stride),
    }
}

/// The scalar [`conj_dots`]: one column at a time.
fn conj_dots_cols(x: &[Complex64], ys: &[Complex64], stride: usize, acc: &mut [Complex64]) {
    for (j, a) in acc.iter_mut().enumerate() {
        for (&xe, &y) in x.iter().zip(&ys[j * stride..]) {
            *a += xe.conj() * y;
        }
    }
}

/// The scalar [`axpys`] / [`sub_axpys`]: one column at a time.
fn axpys_cols<const SUB: bool>(x: &[Complex64], coefs: &[Complex64], outs: &mut [Complex64], stride: usize) {
    for (j, &c) in coefs.iter().enumerate() {
        for (o, &xe) in outs[j * stride..].iter_mut().zip(x) {
            if SUB {
                *o -= xe * c;
            } else {
                *o += xe * c;
            }
        }
    }
}

// The three stage dispatchers below are the safe boundary of the crate's
// only unsafe code. Each picks, per stage, the AVX2 row kernel for a single
// row (`width == 1`), the AVX2 column kernel for an even width, and the
// scalar column kernel for everything else.

/// Runs the twiddle-free leading radix-2 pass across the rows of a
/// `rows x width` panel ([`crate::FftPlan::process`]).
pub(crate) fn radix2_rows(panel: &mut [Complex64], width: usize, kernel: Kernel) {
    match kernel {
        // SAFETY: `kernel` is `Avx2` only when `detect` saw the CPU report
        // AVX2 (which implies AVX); the plan hands over whole pairs of rows.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 if width == 1 => unsafe { x86::radix2_pairs_avx(panel) },
        // SAFETY: as above, and the width is even.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 if width % 2 == 0 => unsafe { x86::radix2_rows_avx(panel, width) },
        _ => crate::plan::radix2_rows_scalar(panel, width),
    }
}

/// Runs the `t == 1` fused radix-4 stage across panel columns.
pub(crate) fn radix4_stage1_cols(
    panel: &mut [Complex64],
    width: usize,
    forward: bool,
    kernel: Kernel,
) {
    match kernel {
        // SAFETY: `kernel` is `Avx2` only when `detect` saw AVX2, and a row
        // of a plan with a `t == 1` stage holds a multiple of 4 points.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 if width == 1 => unsafe { x86::radix4_stage1_avx(panel, forward) },
        // SAFETY: AVX2 as above, and the width is even.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 if width % 2 == 0 => unsafe {
            x86::radix4_stage1_cols_avx(panel, width, forward)
        },
        _ => crate::plan::radix4_stage1_cols_scalar(panel, width, forward),
    }
}

/// Runs a fused radix-4 stage (`t >= 2`) across panel columns: the twiddles
/// are broadcast once per butterfly row, and the vectors are unit-stride.
pub(crate) fn radix4_stage_cols(
    panel: &mut [Complex64],
    width: usize,
    stage: &crate::plan::Radix4Stage,
    forward: bool,
    kernel: Kernel,
) {
    match kernel {
        // SAFETY: `kernel` is `Avx2` only when `detect` saw AVX2, and the
        // runner sends only stages with `t >= 2` here, each a power of two.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 if width == 1 => unsafe { x86::radix4_stage_avx2(panel, stage, forward) },
        // SAFETY: AVX2 as above, and the width is even.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 if width % 2 == 0 => unsafe {
            x86::radix4_stage_cols_avx(panel, width, stage, forward)
        },
        _ => crate::plan::radix4_stage_cols_scalar(panel, width, stage, forward),
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use crate::complex::Complex64;
    use crate::plan::Radix4Stage;

    /// Complex multiply of two packed pairs `x * w`, matching the scalar
    /// `re = x.re*w.re - x.im*w.im; im = x.re*w.im + x.im*w.re` bit-for-bit.
    #[inline(always)]
    unsafe fn cmul256(x: __m256d, w: __m256d) -> __m256d {
        let wr = _mm256_movedup_pd(w); // [w0.re, w0.re, w1.re, w1.re]
        let wi = _mm256_permute_pd(w, 0b1111); // [w0.im, w0.im, w1.im, w1.im]
        let xs = _mm256_permute_pd(x, 0b0101); // [x0.im, x0.re, x1.im, x1.re]
        _mm256_addsub_pd(_mm256_mul_pd(x, wr), _mm256_mul_pd(xs, wi))
    }

    /// Fused radix-4 stage over 256-bit lanes (two complex values per step).
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX is available (checked once by `detect`).
    /// Requires `stage.t >= 2` so the inner loop advances two twiddles at a
    /// time; `data.len()` is a multiple of `4 * stage.t` by plan
    /// construction.
    #[target_feature(enable = "avx")]
    pub(crate) unsafe fn radix4_stage_avx2(
        data: &mut [Complex64],
        stage: &Radix4Stage,
        forward: bool,
    ) {
        let t = stage.t;
        debug_assert!(t >= 2 && t % 2 == 0);
        let stride = 4 * t;
        let n = data.len();
        let ptr = data.as_mut_ptr() as *mut f64;
        let w1 = stage.w1.as_ptr() as *const f64;
        let w2 = stage.w2.as_ptr() as *const f64;
        let w3 = stage.w3.as_ptr() as *const f64;
        // Sign mask implementing s*z (s = -i forward / +i inverse) as a lane
        // swap plus XOR: forward negates the post-swap imaginary lanes,
        // inverse the real lanes. `_mm256_set_pd` takes lanes high-to-low.
        let sigma_mask = if forward {
            _mm256_set_pd(-0.0, 0.0, -0.0, 0.0)
        } else {
            _mm256_set_pd(0.0, -0.0, 0.0, -0.0)
        };

        let mut base = 0usize;
        while base < n {
            let mut j = 0usize;
            while j < t {
                let pa = ptr.add(2 * (base + j));
                let pb = ptr.add(2 * (base + j + t));
                let pc = ptr.add(2 * (base + j + 2 * t));
                let pd = ptr.add(2 * (base + j + 3 * t));
                let a = _mm256_loadu_pd(pa);
                let u1 = cmul256(_mm256_loadu_pd(pb), _mm256_loadu_pd(w2.add(2 * j)));
                let u2 = cmul256(_mm256_loadu_pd(pc), _mm256_loadu_pd(w1.add(2 * j)));
                let u3 = cmul256(_mm256_loadu_pd(pd), _mm256_loadu_pd(w3.add(2 * j)));
                let t0 = _mm256_add_pd(a, u1);
                let t1 = _mm256_sub_pd(a, u1);
                let t2 = _mm256_add_pd(u2, u3);
                let t3 = _mm256_sub_pd(u2, u3);
                let s3 = _mm256_xor_pd(_mm256_permute_pd(t3, 0b0101), sigma_mask);
                _mm256_storeu_pd(pa, _mm256_add_pd(t0, t2));
                _mm256_storeu_pd(pb, _mm256_add_pd(t1, s3));
                _mm256_storeu_pd(pc, _mm256_sub_pd(t0, t2));
                _mm256_storeu_pd(pd, _mm256_sub_pd(t1, s3));
                j += 2;
            }
            base += stride;
        }
    }

    /// Leading radix-2 pass: two adjacent pairs per iteration, recombined
    /// across 128-bit halves so the adds happen 2-wide. Pure add/sub, so
    /// trivially bit-identical to the scalar pass.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX is available.
    #[target_feature(enable = "avx")]
    pub(crate) unsafe fn radix2_pairs_avx(data: &mut [Complex64]) {
        let n = data.len();
        let ptr = data.as_mut_ptr() as *mut f64;
        let mut i = 0usize;
        while i + 4 <= n {
            let v01 = _mm256_loadu_pd(ptr.add(2 * i)); // [a0, b0]
            let v23 = _mm256_loadu_pd(ptr.add(2 * i + 4)); // [a1, b1]
            let a = _mm256_permute2f128_pd(v01, v23, 0x20); // [a0, a1]
            let b = _mm256_permute2f128_pd(v01, v23, 0x31); // [b0, b1]
            let sum = _mm256_add_pd(a, b);
            let dif = _mm256_sub_pd(a, b);
            _mm256_storeu_pd(ptr.add(2 * i), _mm256_permute2f128_pd(sum, dif, 0x20));
            _mm256_storeu_pd(ptr.add(2 * i + 4), _mm256_permute2f128_pd(sum, dif, 0x31));
            i += 4;
        }
        while i < n {
            let a = data[i];
            let b = data[i + 1];
            data[i] = a + b;
            data[i + 1] = a - b;
            i += 2;
        }
    }

    /// The `t == 1` fused radix-4 stage: four adjacent complexes per block,
    /// no twiddle multiplies; cross-lane recombination keeps every add/sub
    /// and the sigma sign flip identical to the scalar stage.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX is available. `data.len()` is a multiple of 4
    /// by plan construction.
    #[target_feature(enable = "avx")]
    pub(crate) unsafe fn radix4_stage1_avx(data: &mut [Complex64], forward: bool) {
        let n = data.len();
        let ptr = data.as_mut_ptr() as *mut f64;
        // After the [t1, t3] -> [t1, swap(t3)] permute, forward negates the
        // new imaginary lane of t3 (element 3), inverse its real lane
        // (element 2).
        let sigma = if forward {
            _mm256_set_pd(-0.0, 0.0, 0.0, 0.0)
        } else {
            _mm256_set_pd(0.0, -0.0, 0.0, 0.0)
        };
        let mut i = 0usize;
        while i < n {
            let v01 = _mm256_loadu_pd(ptr.add(2 * i)); // [a, b]
            let v23 = _mm256_loadu_pd(ptr.add(2 * i + 4)); // [c, d]
            let ac = _mm256_permute2f128_pd(v01, v23, 0x20); // [a, c]
            let bd = _mm256_permute2f128_pd(v01, v23, 0x31); // [b, d]
            let sum = _mm256_add_pd(ac, bd); // [t0, t2]
            let dif = _mm256_sub_pd(ac, bd); // [t1, t3]
            // [t1, s*t3]: identity low lane, swap + sign flip high lane.
            let sdif = _mm256_xor_pd(_mm256_permute_pd(dif, 0b0110), sigma);
            let lows = _mm256_permute2f128_pd(sum, sdif, 0x20); // [t0, t1]
            let highs = _mm256_permute2f128_pd(sum, sdif, 0x31); // [t2, s*t3]
            _mm256_storeu_pd(ptr.add(2 * i), _mm256_add_pd(lows, highs)); // [A, B]
            _mm256_storeu_pd(ptr.add(2 * i + 4), _mm256_sub_pd(lows, highs)); // [C, D]
            i += 4;
        }
    }

    /// [`super::logistic_each`] compiled for AVX2: the same IEEE operations
    /// per element, vectorized by the compiler (no FMA is enabled).
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available (checked once by `detect`).
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn logistic_avx2(xs: &mut [f64]) {
        super::logistic_each(xs)
    }

    /// Complex multiply of two packed values by one broadcast twiddle
    /// (`wr = [w.re; 4]`, `wi = [w.im; 4]`), bit-identical to the scalar
    /// formula by the same argument as [`cmul256`].
    #[inline(always)]
    unsafe fn cmul_bcast(x: __m256d, wr: __m256d, wi: __m256d) -> __m256d {
        let xs = _mm256_permute_pd(x, 0b0101); // [x0.im, x0.re, x1.im, x1.re]
        _mm256_addsub_pd(_mm256_mul_pd(x, wr), _mm256_mul_pd(xs, wi))
    }

    /// [`super::conj_dots`]: columns in pairs, up to four pairs per sweep of
    /// `x`, each pair's two `(re, im)` sums in one register; an odd last
    /// column goes to the scalar loop.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX is available and that column
    /// `acc.len() - 1` ends inside `ys`.
    #[target_feature(enable = "avx")]
    pub(crate) unsafe fn conj_dots_avx(
        x: &[Complex64],
        ys: &[Complex64],
        stride: usize,
        acc: &mut [Complex64],
    ) {
        let (xp, len) = (x.as_ptr() as *const f64, x.len());
        let col = |j: usize| ys.as_ptr().add(j * stride) as *const f64;
        let sums = acc.as_mut_ptr() as *mut f64;
        let mut j = 0;
        while acc.len() - j >= 8 {
            conj_dots_pairs::<4>(xp, len, col(j), stride, sums.add(2 * j));
            j += 8;
        }
        match (acc.len() - j) / 2 {
            3 => conj_dots_pairs::<3>(xp, len, col(j), stride, sums.add(2 * j)),
            2 => conj_dots_pairs::<2>(xp, len, col(j), stride, sums.add(2 * j)),
            1 => conj_dots_pairs::<1>(xp, len, col(j), stride, sums.add(2 * j)),
            _ => {}
        }
        j = acc.len() & !1;
        if j < acc.len() {
            super::conj_dots_cols(x, &ys[j * stride..], stride, &mut acc[j..]);
        }
    }

    /// `G` pairs of columns against `x`: column `2g` in the low half of
    /// `sums[g]`, column `2g + 1` in the high half. Each product is
    /// `conj(x_e) * y` in [`cmul_bcast`]'s form, the scalar's operations in
    /// the scalar's order.
    #[inline(always)]
    unsafe fn conj_dots_pairs<const G: usize>(
        x: *const f64,
        len: usize,
        y: *const f64,
        stride: usize,
        acc: *mut f64,
    ) {
        let mut sums = [_mm256_setzero_pd(); G];
        for (g, s) in sums.iter_mut().enumerate() {
            *s = _mm256_loadu_pd(acc.add(4 * g));
        }
        for e in 0..len {
            let wr = _mm256_set1_pd(*x.add(2 * e));
            let wi = _mm256_set1_pd(-*x.add(2 * e + 1));
            for (g, s) in sums.iter_mut().enumerate() {
                let lo = y.add(2 * (2 * g * stride + e));
                let yv = _mm256_loadu2_m128d(lo.add(2 * stride), lo);
                *s = _mm256_add_pd(*s, cmul_bcast(yv, wr, wi));
            }
        }
        for (g, s) in sums.iter().enumerate() {
            _mm256_storeu_pd(acc.add(4 * g), *s);
        }
    }

    /// [`super::axpys`] (`SUB = false`) and [`super::sub_axpys`]: per column,
    /// its coefficient broadcast and two elements per register; an odd last
    /// element goes to the scalar loop. [`cmul_bcast`] adds the imaginary
    /// part's two products in the other order, which IEEE addition's
    /// commutativity makes the same bits.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX is available and that the columns end inside
    /// `outs` without overlapping.
    #[target_feature(enable = "avx")]
    pub(crate) unsafe fn axpys_avx<const SUB: bool>(
        x: &[Complex64],
        coefs: &[Complex64],
        outs: &mut [Complex64],
        stride: usize,
    ) {
        let (xp, even) = (x.as_ptr() as *const f64, x.len() & !1);
        for (j, c) in coefs.iter().enumerate() {
            let (cr, ci) = (_mm256_set1_pd(c.re), _mm256_set1_pd(c.im));
            let out = outs.as_mut_ptr().add(j * stride) as *mut f64;
            for e in (0..even).step_by(2) {
                let p = cmul_bcast(_mm256_loadu_pd(xp.add(2 * e)), cr, ci);
                let o = _mm256_loadu_pd(out.add(2 * e));
                let o = if SUB { _mm256_sub_pd(o, p) } else { _mm256_add_pd(o, p) };
                _mm256_storeu_pd(out.add(2 * e), o);
            }
            if even < x.len() {
                let at = j * stride + even;
                super::axpys_cols::<SUB>(&x[even..], std::slice::from_ref(c), &mut outs[at..], stride);
            }
        }
    }

    /// Leading radix-2 pass across adjacent rows of a `rows x width` panel:
    /// the two butterfly inputs sit in different rows, so the vectors are
    /// unit-stride and no cross-lane shuffles are needed at all.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX is available and `width` is even.
    #[target_feature(enable = "avx")]
    pub(crate) unsafe fn radix2_rows_avx(panel: &mut [Complex64], width: usize) {
        let ptr = panel.as_mut_ptr() as *mut f64;
        let n = panel.len();
        let mut r0 = 0usize;
        while r0 < n {
            let top = ptr.add(2 * r0);
            let bot = ptr.add(2 * (r0 + width));
            let mut k = 0usize;
            while k < width {
                let a = _mm256_loadu_pd(top.add(2 * k));
                let b = _mm256_loadu_pd(bot.add(2 * k));
                _mm256_storeu_pd(top.add(2 * k), _mm256_add_pd(a, b));
                _mm256_storeu_pd(bot.add(2 * k), _mm256_sub_pd(a, b));
                k += 2;
            }
            r0 += 2 * width;
        }
    }

    /// The `t == 1` fused stage across columns: inputs live in four adjacent
    /// rows, so unlike [`radix4_stage1_avx`] no half-lane recombination is
    /// needed — just the sigma swap-and-flip on `t3`.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX is available and `width` is even.
    #[target_feature(enable = "avx")]
    pub(crate) unsafe fn radix4_stage1_cols_avx(
        panel: &mut [Complex64],
        width: usize,
        forward: bool,
    ) {
        let ptr = panel.as_mut_ptr() as *mut f64;
        let n = panel.len();
        let sigma_mask = if forward {
            _mm256_set_pd(-0.0, 0.0, -0.0, 0.0)
        } else {
            _mm256_set_pd(0.0, -0.0, 0.0, -0.0)
        };
        let mut r0 = 0usize;
        while r0 < n {
            let pa = ptr.add(2 * r0);
            let pb = ptr.add(2 * (r0 + width));
            let pc = ptr.add(2 * (r0 + 2 * width));
            let pd = ptr.add(2 * (r0 + 3 * width));
            let mut k = 0usize;
            while k < width {
                let o = 2 * k;
                let a = _mm256_loadu_pd(pa.add(o));
                let b = _mm256_loadu_pd(pb.add(o));
                let c = _mm256_loadu_pd(pc.add(o));
                let d = _mm256_loadu_pd(pd.add(o));
                let t0 = _mm256_add_pd(a, b);
                let t1 = _mm256_sub_pd(a, b);
                let t2 = _mm256_add_pd(c, d);
                let t3 = _mm256_sub_pd(c, d);
                let s3 = _mm256_xor_pd(_mm256_permute_pd(t3, 0b0101), sigma_mask);
                _mm256_storeu_pd(pa.add(o), _mm256_add_pd(t0, t2));
                _mm256_storeu_pd(pb.add(o), _mm256_add_pd(t1, s3));
                _mm256_storeu_pd(pc.add(o), _mm256_sub_pd(t0, t2));
                _mm256_storeu_pd(pd.add(o), _mm256_sub_pd(t1, s3));
                k += 2;
            }
            r0 += 4 * width;
        }
    }

    /// Fused radix-4 stage (`t >= 2`) across panel columns. Each butterfly
    /// row broadcasts its three twiddles once (six registers) and streams
    /// four unit-stride rows — the highest-throughput shape of the kernel
    /// family, used by the blocked 2-D column pass.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX is available and `width` is even.
    #[target_feature(enable = "avx")]
    pub(crate) unsafe fn radix4_stage_cols_avx(
        panel: &mut [Complex64],
        width: usize,
        stage: &Radix4Stage,
        forward: bool,
    ) {
        let t = stage.t;
        let stride = 4 * t * width;
        let n = panel.len();
        let ptr = panel.as_mut_ptr() as *mut f64;
        let sigma_mask = if forward {
            _mm256_set_pd(-0.0, 0.0, -0.0, 0.0)
        } else {
            _mm256_set_pd(0.0, -0.0, 0.0, -0.0)
        };

        let mut base = 0usize;
        while base < n {
            for j in 0..t {
                let w1 = stage.w1[j];
                let w2 = stage.w2[j];
                let w3 = stage.w3[j];
                let w1r = _mm256_set1_pd(w1.re);
                let w1i = _mm256_set1_pd(w1.im);
                let w2r = _mm256_set1_pd(w2.re);
                let w2i = _mm256_set1_pd(w2.im);
                let w3r = _mm256_set1_pd(w3.re);
                let w3i = _mm256_set1_pd(w3.im);
                let pa = ptr.add(2 * (base + j * width));
                let pb = ptr.add(2 * (base + (j + t) * width));
                let pc = ptr.add(2 * (base + (j + 2 * t) * width));
                let pd = ptr.add(2 * (base + (j + 3 * t) * width));
                let mut k = 0usize;
                while k < width {
                    let o = 2 * k;
                    let a = _mm256_loadu_pd(pa.add(o));
                    let u1 = cmul_bcast(_mm256_loadu_pd(pb.add(o)), w2r, w2i);
                    let u2 = cmul_bcast(_mm256_loadu_pd(pc.add(o)), w1r, w1i);
                    let u3 = cmul_bcast(_mm256_loadu_pd(pd.add(o)), w3r, w3i);
                    let t0 = _mm256_add_pd(a, u1);
                    let t1 = _mm256_sub_pd(a, u1);
                    let t2 = _mm256_add_pd(u2, u3);
                    let t3 = _mm256_sub_pd(u2, u3);
                    let s3 = _mm256_xor_pd(_mm256_permute_pd(t3, 0b0101), sigma_mask);
                    _mm256_storeu_pd(pa.add(o), _mm256_add_pd(t0, t2));
                    _mm256_storeu_pd(pb.add(o), _mm256_add_pd(t1, s3));
                    _mm256_storeu_pd(pc.add(o), _mm256_sub_pd(t0, t2));
                    _mm256_storeu_pd(pd.add(o), _mm256_sub_pd(t1, s3));
                    k += 2;
                }
            }
            base += stride;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_kernel_is_a_known_name() {
        assert!(["avx2", "scalar"].contains(&active_kernel()));
    }

    #[test]
    fn active_is_cached() {
        assert_eq!(active(), active());
    }
}
