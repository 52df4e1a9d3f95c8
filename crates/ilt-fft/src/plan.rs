//! FFT plans: precomputed twiddle factors and bit-reversal permutations.
//!
//! Multi-level ILT transforms the same handful of sizes (N, N/2, N/4, N/8 and
//! the kernel support P rounded up) thousands of times, so planning once and
//! replaying the plan is the dominant-cost-saving structure here, mirroring
//! FFTW-style planners.
//!
//! Plans execute as a decimation-in-time pipeline of **fused radix-4
//! stages**: each stage combines what radix-2 would do in two passes into a
//! single sweep that needs only 3 complex multiplies per 4 outputs instead of
//! 4, cutting the total multiply count by ~25% and halving the number of
//! passes over the data. Sizes with an odd log2 get one twiddle-free radix-2
//! stage first, then proceed in radix-4. Because a fused radix-4 stage is
//! mathematically exactly two consecutive radix-2 stages, the classic
//! bit-reversal input permutation still applies unchanged (the mixed-radix
//! digit reversal is *not* an involution, so reusing bit reversal is what
//! keeps the cheap swap-pair permutation valid).
//!
//! A plan has one runner: it transforms a row-major `len x width` panel,
//! every column side by side, and a single row is the panel of width 1.
//! Each stage picks its butterfly from the kernel selected once per process
//! ([`crate::active_kernel`]) and the width: AVX2 runs a row through its
//! row kernels and an even-width panel through its column kernels;
//! everything else runs through the scalar column kernels. The SIMD kernels
//! are written to be **bit-identical** to the scalar path (no FMA
//! contraction, same operation order), so masks produced on any machine
//! agree bit-for-bit; `ILT_FFT_FORCE_SCALAR=1` pins the scalar path for
//! verification.
//!
//! Plans are shared through one private process-wide cache
//! ([`cached_plan`]): every [`crate::Fft2d`] of a size, on every thread,
//! replays one set of twiddle tables.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use crate::complex::Complex64;
use crate::simd::{self, Kernel};

/// Transform direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Forward transform, `X[k] = sum_n x[n] e^{-2 pi i n k / N}`.
    Forward,
    /// Inverse transform, `x[n] = (1/N) sum_k X[k] e^{+2 pi i n k / N}`.
    ///
    /// The `1/N` normalization is applied by [`FftPlan::process`].
    Inverse,
}

impl Direction {
    /// Sign of the exponent used by this direction.
    #[inline]
    pub fn sign(self) -> f64 {
        match self {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        }
    }
}

/// One fused radix-4 stage: combines four sub-transforms of size `t` into one
/// of size `4t` using the grouped butterfly
///
/// ```text
/// u1 = W^{2j} b   u2 = W^j c   u3 = W^{3j} d        (3 multiplies)
/// t0 = a + u1     t1 = a - u1
/// t2 = u2 + u3    t3 = u2 - u3
/// A = t0 + t2     B = t1 + s*t3   C = t0 - t2   D = t1 - s*t3
/// ```
///
/// with `W = e^{sign 2 pi i / 4t}` and `s = e^{sign i pi / 2}` (`-i` forward,
/// `+i` inverse) — a free swap-and-negate rotation.
pub(crate) struct Radix4Stage {
    /// Quarter size: the stage merges sub-transforms of `t` points.
    pub(crate) t: usize,
    /// `w1[j] = W^j` for `j in 0..t`.
    pub(crate) w1: Vec<Complex64>,
    /// `w2[j] = W^{2j}`.
    pub(crate) w2: Vec<Complex64>,
    /// `w3[j] = W^{3j}`.
    pub(crate) w3: Vec<Complex64>,
}

/// A reusable decimation-in-time plan for a fixed power-of-two size.
///
/// [`crate::Fft2d`] takes its plans from the crate's process-wide cache;
/// `FftPlan::new` builds a private one.
///
/// # Examples
///
/// ```
/// use ilt_fft::{Complex64, Direction, FftPlan};
///
/// let fwd = FftPlan::new(8, Direction::Forward);
/// let inv = FftPlan::new(8, Direction::Inverse);
///
/// // One row is a panel of width 1.
/// let mut data: Vec<Complex64> = (0..8).map(|i| Complex64::new(i as f64, 0.0)).collect();
/// let original = data.clone();
/// fwd.process(&mut data, 1);
/// inv.process(&mut data, 1);
/// for (a, b) in data.iter().zip(&original) {
///     assert!((*a - *b).abs() < 1e-12);
/// }
///
/// // Two columns side by side: each gets the transform of its own.
/// let mut panel: Vec<Complex64> = (0..16).map(|i| Complex64::new(i as f64, 1.0)).collect();
/// fwd.process(&mut panel, 2);
/// let mut col: Vec<Complex64> = (0..8).map(|r| Complex64::new(2.0 * r as f64, 1.0)).collect();
/// fwd.process(&mut col, 1);
/// assert!((0..8).all(|r| panel[2 * r] == col[r]));
/// ```
pub struct FftPlan {
    len: usize,
    direction: Direction,
    /// Bit-reversal swap pairs `(i, j)` with `i < j`.
    swaps: Vec<(u32, u32)>,
    /// `true` when log2(len) is odd: run one twiddle-free radix-2 pass over
    /// adjacent pairs before the radix-4 stages.
    leading_radix2: bool,
    /// Fused radix-4 stages in execution order (`t = 1 or 2, then 4t, ...`).
    stages: Vec<Radix4Stage>,
}

impl fmt::Debug for FftPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FftPlan")
            .field("len", &self.len)
            .field("direction", &self.direction)
            .field("leading_radix2", &self.leading_radix2)
            .field("radix4_stages", &self.stages.len())
            .finish()
    }
}

impl FftPlan {
    /// Builds a plan for `len` points in the given direction.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or not a power of two.
    pub fn new(len: usize, direction: Direction) -> Self {
        assert!(len.is_power_of_two(), "FFT length {len} must be a power of two");
        let sign = direction.sign();
        let bits = len.trailing_zeros() as usize;

        let leading_radix2 = bits % 2 == 1;
        let mut stages = Vec::new();
        let mut t = if leading_radix2 { 2 } else { 1 };
        while 4 * t <= len {
            let step = sign * std::f64::consts::TAU / (4 * t) as f64;
            let mut w1 = Vec::with_capacity(t);
            let mut w2 = Vec::with_capacity(t);
            let mut w3 = Vec::with_capacity(t);
            for j in 0..t {
                w1.push(Complex64::from_polar_angle(step * j as f64));
                w2.push(Complex64::from_polar_angle(step * (2 * j) as f64));
                w3.push(Complex64::from_polar_angle(step * (3 * j) as f64));
            }
            stages.push(Radix4Stage { t, w1, w2, w3 });
            t *= 4;
        }

        // Bit reversal permutation as swap pairs.
        let mut swaps = Vec::new();
        for i in 0..len as u32 {
            let j = i.reverse_bits() >> (32 - (bits as u32).max(1));
            let j = if bits == 0 { i } else { j };
            if i < j {
                swaps.push((i, j));
            }
        }

        FftPlan { len, direction, swaps, leading_radix2, stages }
    }

    /// Number of points this plan transforms.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Transforms the `width` interleaved columns of `panel` in place, on
    /// the process-wide selected kernel (AVX2 when detected, scalar
    /// otherwise — see [`crate::active_kernel`]). A single row is the panel
    /// of width 1.
    ///
    /// `panel` is a row-major `len x width` block, and every column receives
    /// the same transform, bit for bit, whatever the width. The butterflies
    /// run *across* columns, so the SIMD kernels see unit-stride vectors and
    /// load each twiddle once per butterfly row instead of once per value —
    /// the workhorse of the blocked 2-D column pass. Inverse plans divide by
    /// `len` so that a forward/inverse pair is the identity.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or `panel.len() != len * width`.
    pub fn process(&self, panel: &mut [Complex64], width: usize) {
        self.run(panel, width, simd::active());
    }

    /// [`FftPlan::process`] on the scalar reference path, regardless of
    /// detected CPU features.
    ///
    /// This is the baseline the SIMD kernels are pinned against: for any
    /// input and width, `process` and `process_scalar` produce bit-identical
    /// output.
    ///
    /// # Panics
    ///
    /// As [`FftPlan::process`].
    pub fn process_scalar(&self, panel: &mut [Complex64], width: usize) {
        self.run(panel, width, Kernel::Scalar);
    }

    fn run(&self, panel: &mut [Complex64], width: usize, kernel: Kernel) {
        assert!(width > 0, "panel width must be nonzero");
        assert_eq!(
            panel.len(),
            self.len * width,
            "buffer length must be len*width = {}",
            self.len * width
        );
        if self.len <= 1 {
            return;
        }

        for &(i, j) in &self.swaps {
            let (i0, j0) = (i as usize * width, j as usize * width);
            // A row swaps single values: the width loop would cost a dense
            // 128 x 128 transform pair ~3 %.
            if width == 1 {
                panel.swap(i0, j0);
                continue;
            }
            for k in 0..width {
                panel.swap(i0 + k, j0 + k);
            }
        }

        let forward = self.direction == Direction::Forward;

        if self.leading_radix2 {
            // Twiddle-free radix-2 pass over adjacent rows (W^0 = 1).
            simd::radix2_rows(panel, width, kernel);
        }

        for stage in &self.stages {
            if stage.t == 1 {
                // All twiddles are W^0 = 1: pure add/sub butterfly.
                simd::radix4_stage1_cols(panel, width, forward, kernel);
                continue;
            }
            simd::radix4_stage_cols(panel, width, stage, forward, kernel);
        }

        if self.direction == Direction::Inverse {
            let scale = 1.0 / self.len as f64;
            for v in panel.iter_mut() {
                *v = v.scale(scale);
            }
        }
    }
}

/// The process-wide plan for `len` points, built on first use and shared
/// from then on.
///
/// Every [`crate::Fft2d::new`] and every pruned path's `q`-point plan comes
/// from here, so constructing a transform for an already-seen size costs
/// four `Arc` clones instead of a twiddle-table build — and every worker
/// thread shares one set of twiddle tables per size. The lock is held only
/// for the map lookup, never across a transform.
///
/// # Panics
///
/// Panics if `len` is zero or not a power of two.
pub(crate) fn cached_plan(len: usize, direction: Direction) -> Arc<FftPlan> {
    type Plans = HashMap<(usize, Direction), Arc<FftPlan>>;
    static PLANS: OnceLock<Mutex<Plans>> = OnceLock::new();
    PLANS
        .get_or_init(Mutex::default)
        .lock()
        .expect("FFT plan cache lock poisoned")
        .entry((len, direction))
        .or_insert_with(|| Arc::new(FftPlan::new(len, direction)))
        .clone()
}

/// `s * z` where `s = -i` (forward) or `+i` (inverse): a swap plus one sign
/// flip, exact in IEEE arithmetic.
#[inline(always)]
pub(crate) fn rotate_sigma(z: Complex64, forward: bool) -> Complex64 {
    if forward {
        Complex64::new(z.im, -z.re)
    } else {
        Complex64::new(-z.im, z.re)
    }
}

/// Scalar twiddle-free radix-2 pass over adjacent *rows* of a
/// `rows x width` panel; the reference every kernel must match bit-for-bit.
pub(crate) fn radix2_rows_scalar(panel: &mut [Complex64], width: usize) {
    let mut r0 = 0;
    while r0 < panel.len() {
        let (top, rest) = panel[r0..].split_at_mut(width);
        for (a, b) in top.iter_mut().zip(&mut rest[..width]) {
            let (x, y) = (*a, *b);
            *a = x + y;
            *b = x - y;
        }
        r0 += 2 * width;
    }
}

/// The `t == 1` fused stage across columns: four adjacent rows per block.
pub(crate) fn radix4_stage1_cols_scalar(panel: &mut [Complex64], width: usize, forward: bool) {
    let mut r0 = 0;
    while r0 < panel.len() {
        for k in r0..r0 + width {
            let a = panel[k];
            let b = panel[k + width];
            let c = panel[k + 2 * width];
            let d = panel[k + 3 * width];
            let t0 = a + b;
            let t1 = a - b;
            let t2 = c + d;
            let t3 = c - d;
            let s3 = rotate_sigma(t3, forward);
            panel[k] = t0 + t2;
            panel[k + width] = t1 + s3;
            panel[k + 2 * width] = t0 - t2;
            panel[k + 3 * width] = t1 - s3;
        }
        r0 += 4 * width;
    }
}

/// Scalar fused radix-4 stage (`t >= 2`) across columns: each butterfly row
/// loads its three twiddles once and applies them to all `width` columns.
pub(crate) fn radix4_stage_cols_scalar(
    panel: &mut [Complex64],
    width: usize,
    stage: &Radix4Stage,
    forward: bool,
) {
    let t = stage.t;
    let stride = 4 * t * width;
    let mut base = 0;
    while base < panel.len() {
        for j in 0..t {
            let w1 = stage.w1[j];
            let w2 = stage.w2[j];
            let w3 = stage.w3[j];
            let ra = base + j * width;
            for k in ra..ra + width {
                let a = panel[k];
                let u1 = panel[k + t * width] * w2;
                let u2 = panel[k + 2 * t * width] * w1;
                let u3 = panel[k + 3 * t * width] * w3;
                let t0 = a + u1;
                let t1 = a - u1;
                let t2 = u2 + u3;
                let t3 = u2 - u3;
                let s3 = rotate_sigma(t3, forward);
                panel[k] = t0 + t2;
                panel[k + t * width] = t1 + s3;
                panel[k + 2 * t * width] = t0 - t2;
                panel[k + 3 * t * width] = t1 - s3;
            }
        }
        base += stride;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct O(n^2) reference DFT.
    fn naive_dft(input: &[Complex64], direction: Direction) -> Vec<Complex64> {
        let n = input.len();
        let sign = direction.sign();
        let mut out = vec![Complex64::ZERO; n];
        for (k, o) in out.iter_mut().enumerate() {
            for (j, &x) in input.iter().enumerate() {
                let theta = sign * std::f64::consts::TAU * (j * k) as f64 / n as f64;
                *o += x * Complex64::from_polar_angle(theta);
            }
            if direction == Direction::Inverse {
                *o = o.scale(1.0 / n as f64);
            }
        }
        out
    }

    fn ramp(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new(i as f64 * 0.37 - 1.0, (i as f64 * 0.11).sin()))
            .collect()
    }

    #[test]
    fn matches_naive_dft_all_small_sizes() {
        for bits in 0..8 {
            let n = 1usize << bits;
            let input = ramp(n);
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut data = input.clone();
                FftPlan::new(n, dir).process(&mut data, 1);
                let want = naive_dft(&input, dir);
                for (a, b) in data.iter().zip(&want) {
                    assert!((*a - *b).abs() < 1e-9, "n={n} dir={dir:?}");
                }
            }
        }
    }

    #[test]
    fn matches_naive_dft_up_to_1024() {
        // Covers both parities of log2 at sizes where several radix-4 stages
        // stack up, including the t=1 special case and SIMD-eligible stages.
        for n in [256usize, 512, 1024] {
            let input = ramp(n);
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut data = input.clone();
                FftPlan::new(n, dir).process(&mut data, 1);
                let want = naive_dft(&input, dir);
                let scale: f64 = input.iter().map(|z| z.abs()).sum::<f64>();
                for (a, b) in data.iter().zip(&want) {
                    assert!((*a - *b).abs() < 1e-9 * scale.max(1.0), "n={n} dir={dir:?}");
                }
            }
        }
    }

    #[test]
    fn simd_process_is_bit_identical_to_scalar() {
        // On machines without SIMD this trivially passes (both run scalar);
        // with AVX2 it pins the row kernels to the scalar column kernels at
        // width 1.
        for bits in 1..=10 {
            let n = 1usize << bits;
            let input = ramp(n);
            for dir in [Direction::Forward, Direction::Inverse] {
                let plan = FftPlan::new(n, dir);
                let mut fast = input.clone();
                let mut reference = input.clone();
                plan.process(&mut fast, 1);
                plan.process_scalar(&mut reference, 1);
                for (a, b) in fast.iter().zip(&reference) {
                    assert!(
                        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                        "n={n} dir={dir:?}: SIMD output diverged from scalar ({a} vs {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn process_cols_is_bit_identical_to_per_column_process() {
        // Both the SIMD and scalar paths must give every column of a panel
        // exactly the one-column transform, for every panel width the 2-D
        // passes use (including odd tail widths, which run scalar).
        for bits in 0..=9 {
            let n = 1usize << bits;
            for width in [1usize, 2, 3, 7, 8] {
                let panel: Vec<Complex64> = (0..n * width)
                    .map(|i| Complex64::new((i as f64 * 0.23).sin(), i as f64 * 0.07 - 1.0))
                    .collect();
                for dir in [Direction::Forward, Direction::Inverse] {
                    let plan = FftPlan::new(n, dir);
                    let mut got = panel.clone();
                    plan.process(&mut got, width);
                    let mut got_scalar = panel.clone();
                    plan.process_scalar(&mut got_scalar, width);
                    for k in 0..width {
                        let mut col: Vec<Complex64> =
                            (0..n).map(|r| panel[r * width + k]).collect();
                        plan.process_scalar(&mut col, 1);
                        for r in 0..n {
                            for (label, v) in
                                [("simd", got[r * width + k]), ("scalar", got_scalar[r * width + k])]
                            {
                                assert!(
                                    v.re.to_bits() == col[r].re.to_bits()
                                        && v.im.to_bits() == col[r].im.to_bits(),
                                    "n={n} width={width} dir={dir:?} col={k} row={r} ({label}): \
                                     {v} vs {}",
                                    col[r]
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let n = 256;
        let input = ramp(n);
        let mut data = input.clone();
        FftPlan::new(n, Direction::Forward).process(&mut data, 1);
        FftPlan::new(n, Direction::Inverse).process(&mut data, 1);
        for (a, b) in data.iter().zip(&input) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let n = 64;
        let mut data = vec![Complex64::ZERO; n];
        data[0] = Complex64::ONE;
        FftPlan::new(n, Direction::Forward).process(&mut data, 1);
        for v in &data {
            assert!((*v - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_transforms_to_impulse() {
        let n = 64;
        let mut data = vec![Complex64::ONE; n];
        FftPlan::new(n, Direction::Forward).process(&mut data, 1);
        assert!((data[0] - Complex64::from_real(n as f64)).abs() < 1e-10);
        for v in &data[1..] {
            assert!(v.abs() < 1e-10);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 128;
        let input = ramp(n);
        let time_energy: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let mut data = input;
        FftPlan::new(n, Direction::Forward).process(&mut data, 1);
        let freq_energy: f64 = data.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy.max(1.0));
    }

    #[test]
    fn single_point_is_identity() {
        let mut data = vec![Complex64::new(2.0, -3.0)];
        FftPlan::new(1, Direction::Forward).process(&mut data, 1);
        assert_eq!(data[0], Complex64::new(2.0, -3.0));
    }

    #[test]
    fn two_point_transform_is_sum_and_difference() {
        let mut data = vec![Complex64::new(1.0, 2.0), Complex64::new(-0.5, 0.25)];
        FftPlan::new(2, Direction::Forward).process(&mut data, 1);
        assert_eq!(data[0], Complex64::new(0.5, 2.25));
        assert_eq!(data[1], Complex64::new(1.5, 1.75));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let _ = FftPlan::new(12, Direction::Forward);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn wrong_buffer_length_panics() {
        let plan = FftPlan::new(8, Direction::Forward);
        let mut data = vec![Complex64::ZERO; 4];
        plan.process(&mut data, 1);
    }

    #[test]
    fn planner_caches_plans() {
        let a = cached_plan(64, Direction::Forward);
        let b = cached_plan(64, Direction::Forward);
        assert!(Arc::ptr_eq(&a, &b), "one size and direction must be one plan");
        let inverse = cached_plan(64, Direction::Inverse);
        assert!(!Arc::ptr_eq(&a, &inverse), "each direction has its own plan");
        assert_eq!((inverse.len(), inverse.direction), (64, Direction::Inverse));
    }

    #[test]
    fn shift_theorem_holds() {
        // x[n-1] circularly shifted has spectrum X[k] * e^{-2 pi i k / N}.
        let n = 32;
        let input = ramp(n);
        let mut shifted = vec![Complex64::ZERO; n];
        for i in 0..n {
            shifted[(i + 1) % n] = input[i];
        }
        let plan = FftPlan::new(n, Direction::Forward);
        let mut fx = input.clone();
        plan.process(&mut fx, 1);
        let mut fs = shifted;
        plan.process(&mut fs, 1);
        for k in 0..n {
            let phase =
                Complex64::from_polar_angle(-std::f64::consts::TAU * k as f64 / n as f64);
            assert!((fs[k] - fx[k] * phase).abs() < 1e-9);
        }
    }
}
