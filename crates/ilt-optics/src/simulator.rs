//! The forward lithography engine (Eqs. 1, 3, 7, 8 and 9 of the paper).
//!
//! One [`LithoSimulator`] owns a nominal and a defocused [`KernelSet`] and
//! computes aerial images at **any** power-of-two resolution with the same
//! `P x P` kernel block:
//!
//! * full resolution (Eq. 3): `I = sum_k w_k |F_N^-1(pad(H_k . crop(F_N M)))|^2`,
//! * reduced output (Eq. 7): inverse transforms at `N/s` with a `1/s^2`
//!   amplitude bridge — exact subsampling for band-limited spectra,
//! * reduced everything (Eq. 8): the low-resolution ILT path, where the
//!   already-downsampled mask is transformed at `N/s` directly.
//!
//! **Band-limited evaluation.** All three run Eq. 7 taken to its limit. Each
//! coherent field `z_k` is band-limited to the `P x P` block and the
//! intensity `sum_k w_k |z_k|^2` to `2P - 1`, so the per-kernel transforms
//! never run at the mask's size `m`: they run on the intensity's Nyquist
//! grid `Q = min(m, next_pow2(2P - 1))` ([`LithoSimulator::sample_grid`]),
//! and the `Q^2` samples are interpolated to `m^2` pixels once, through the
//! `(2P - 1)^2` block of their spectrum ([`Fft2d::inverse_padded_real_with`]
//! — the image is real, so that transform costs half a complex one). Both
//! resamplings are exact; the amplitude bridges `(Q/m)^2` on the mask
//! spectrum and `(m/Q)^2` on the intensity spectrum are powers of two. When
//! `Q = m` (grids no larger than `2P - 1`) there is nothing to resample and
//! the step is skipped.
//!
//! The engine also exposes the *adjoint* of the aerial-image map
//! ([`LithoSimulator::aerial_vjp`]), which is the gradient kernel every ILT
//! iteration needs — this replaces PyTorch autograd in the original
//! implementation. It runs on the same grid, on the `K` fields `z_k` the
//! forward kept there ([`AerialCache`]: `K Q^2` values, megabytes, never
//! `m^2`).
//!
//! **Process-window operator.** An ILT iteration wants more than one aerial
//! image and its adjoint: Eq. 5 simulates the *same* mask at two process
//! corners, through the sigmoid resist, and — in Algorithm 1's
//! high-resolution branch — from a mask kept at `N/s` with the wafer images
//! pooled straight back to `N/s`. [`LithoSimulator::soft_corners`] is that
//! whole map with its adjoint, built from the internals above (one
//! `mask_spectrum`, one per-kernel sweep, one per-kernel adjoint loop, one
//! interpolation): the mask is transformed once at `N/s` for all corners
//! (the upsampling becomes a Dirichlet factor on its spectrum, exactly),
//! resist, pool and `dZ/dI` are one pass over each image, and the corners'
//! gradients are summed as `P x P` spectra and inverted once at `N/s`.

use std::fmt;
use std::mem::take;

use ilt_fft::{
    fork_join, grown, logistic_in_place, signed_freq, with_thread_scratch, Complex64, Fft2d,
    Fft2dScratch, WorkBuffers,
};
use ilt_field::Field2D;

use crate::config::OpticsConfig;
use crate::kernels::KernelSet;

/// A process-window corner: focus state plus dose factor.
///
/// Dose multiplies the aerial intensity (`I_dose = dose * I`), the standard
/// exposure-latitude model; defocus swaps in the defocused kernel set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProcessCondition {
    /// Use the defocused kernel set.
    pub defocus: bool,
    /// Dose factor (1.0 = nominal; the contest corners are 0.98 / 1.02).
    pub dose: f64,
}

impl ProcessCondition {
    /// Nominal focus, nominal dose — the `Z_norm` condition (Definition 1).
    pub const fn nominal() -> Self {
        ProcessCondition { defocus: false, dose: 1.0 }
    }

    /// Defocus and -2% dose — the `Z_in` corner (Definition 2).
    pub const fn inner() -> Self {
        ProcessCondition { defocus: true, dose: 0.98 }
    }

    /// Nominal focus and +2% dose — the `Z_out` corner (Definition 2).
    pub const fn outer() -> Self {
        ProcessCondition { defocus: false, dose: 1.02 }
    }
}

impl Default for ProcessCondition {
    fn default() -> Self {
        Self::nominal()
    }
}

/// Wafer prints at the three process corners.
#[derive(Clone, Debug)]
pub struct CornerPrints {
    /// Print under [`ProcessCondition::nominal`].
    pub nominal: Field2D,
    /// Print under [`ProcessCondition::inner`].
    pub inner: Field2D,
    /// Print under [`ProcessCondition::outer`].
    pub outer: Field2D,
}

/// Saved forward state allowing a cheap adjoint pass.
///
/// Holds the `K` coherent fields `z_k` on the `Q`-point sample grid
/// (`K Q^2` complex values: 2.6 MB at `K = 10`, `Q = 128`), so the adjoint
/// inverts nothing again. Its size follows the kernel block, not the mask:
/// caching a 2048-pixel forward pass costs the same megabytes, where the
/// mask-sized fields would be gigabytes.
pub struct AerialCache {
    m: usize,
    defocus: bool,
    /// `z_k` on the sample grid, kernel after kernel.
    fields: Vec<Complex64>,
}

impl fmt::Debug for AerialCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AerialCache")
            .field("m", &self.m)
            .field("defocus", &self.defocus)
            .finish()
    }
}

/// The forward lithography simulator.
///
/// # Examples
///
/// ```
/// use ilt_field::Field2D;
/// use ilt_optics::{LithoSimulator, OpticsConfig, ProcessCondition};
///
/// # fn main() -> Result<(), String> {
/// let cfg = OpticsConfig { grid: 128, nm_per_px: 4.0, num_kernels: 4, ..OpticsConfig::default() };
/// let sim = LithoSimulator::new(cfg)?;
/// let mask = Field2D::from_fn(128, 128, |r, c| {
///     if (40..88).contains(&r) && (40..88).contains(&c) { 1.0 } else { 0.0 }
/// });
/// let wafer = sim.print(&mask, ProcessCondition::nominal());
/// assert!(wafer.count_on() > 0);
/// # Ok(())
/// # }
/// ```
pub struct LithoSimulator {
    cfg: OpticsConfig,
    nominal: KernelSet,
    defocused: KernelSet,
}

impl fmt::Debug for LithoSimulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LithoSimulator")
            .field("grid", &self.cfg.grid)
            .field("kernels", &self.nominal.num_kernels())
            .field("p", &self.nominal.p())
            .finish()
    }
}

impl LithoSimulator {
    /// Builds the simulator: validates the configuration and derives both
    /// focus-condition kernel sets (the expensive, once-per-config step).
    ///
    /// # Errors
    ///
    /// Returns the validation message for an inconsistent configuration.
    pub fn new(cfg: OpticsConfig) -> Result<Self, String> {
        cfg.validate()?;
        let (nominal, defocused) = KernelSet::focus_pair(&cfg);
        Ok(LithoSimulator { cfg, nominal, defocused })
    }

    /// The configuration this simulator was built from.
    pub fn config(&self) -> &OpticsConfig {
        &self.cfg
    }

    /// The kernel set for a focus state.
    pub fn kernels(&self, defocus: bool) -> &KernelSet {
        if defocus {
            &self.defocused
        } else {
            &self.nominal
        }
    }

    fn check_mask(&self, mask: &Field2D) -> usize {
        let (rows, cols) = mask.shape();
        assert_eq!(rows, cols, "mask must be square, got {rows}x{cols}");
        assert!(rows.is_power_of_two(), "mask size {rows} must be a power of two");
        assert!(
            rows >= self.nominal.p(),
            "mask size {rows} smaller than kernel support {}",
            self.nominal.p()
        );
        rows
    }

    /// Aerial image of `mask` at the mask's own resolution.
    ///
    /// At full grid size this is Eq. 3; at a reduced size it is Eq. 8 (the
    /// caller supplies the already-downsampled mask `M_s`). The two share
    /// one code path because the kernel block is resolution-invariant.
    ///
    /// # Panics
    ///
    /// Panics if the mask is not square/power-of-two or smaller than `P`.
    pub fn aerial(&self, mask: &Field2D, defocus: bool) -> Field2D {
        with_thread_scratch(|scratch| {
            let m = self.check_mask(mask);
            let low = self.mask_spectrum(mask, 1, m, scratch);
            self.intensity(defocus, &low, None, Field2D::zeros(m, m), scratch)
        })
    }

    /// The grid the per-kernel transforms of an `m`-pixel evaluation run on:
    /// `Q = min(m, next_pow2(2P - 1))`, the Nyquist grid of the intensity.
    ///
    /// `Q > 2(P - 1)` is what makes both directions exact. Forward, the
    /// `2P - 1` band of `I` fits the grid. Backward, `g_Q . z_k` has band
    /// radius `3(P - 1)/2` and does alias on the grid, but a frequency `f`
    /// folds onto `f - Q`, and `|f| <= 3(P - 1)/2` puts that at distance
    /// `>= Q - 3(P - 1)/2 > (P - 1)/2` from zero: outside the `P x P` block,
    /// which is all the adjoint keeps.
    pub fn sample_grid(&self, m: usize) -> usize {
        let p = self.nominal.p();
        let q = m.min((2 * p - 1).next_power_of_two());
        debug_assert!(q == m || 2 * (p - 1) < q, "sample grid {q} aliases into the P = {p} block");
        q
    }

    /// Like [`LithoSimulator::aerial`], returning the adjoint cache as well.
    ///
    /// The hot path: one **pruned** real-input forward FFT of the mask
    /// ([`Fft2d::forward_real_cropped_with`] — only the retained `P x P`
    /// band is ever computed), one pruned padded inverse per kernel on the
    /// sample grid, and one interpolation to the mask's pixels, all in the
    /// calling thread's reusable FFT workspace so batch workers allocate
    /// nothing but the result and the cache's `K Q^2` fields.
    pub fn aerial_with_cache(&self, mask: &Field2D, defocus: bool) -> (Field2D, AerialCache) {
        with_thread_scratch(|scratch| {
            let m = self.check_mask(mask);
            let low = self.mask_spectrum(mask, 1, m, scratch);
            let mut fields = vec![Complex64::ZERO; self.evaluation(defocus, m).slab_len()];
            let image = Field2D::zeros(m, m);
            let intensity = self.intensity(defocus, &low, Some(&mut fields), image, scratch);
            (intensity, AerialCache { m, defocus, fields })
        })
    }

    /// `crop_P(F_N(upsample_nearest(mask, up)))` with `N = up * n`, bridged
    /// from that grid's `1/N^2` inverse normalization to that of the sample
    /// grid of an `m`-pixel evaluation.
    ///
    /// The upsampled mask is never formed: its spectrum is the mask's own
    /// times the separable factor of [`dirichlet`], exactly, and `P <= n`
    /// puts the whole retained block inside the `n`-point transform.
    fn mask_spectrum(
        &self,
        mask: &Field2D,
        up: usize,
        m: usize,
        scratch: &mut Fft2dScratch,
    ) -> Vec<Complex64> {
        let (n, p, q) = (mask.rows(), self.nominal.p(), self.sample_grid(m));
        let mut low = vec![Complex64::ZERO; p * p];
        Fft2d::new(n, n).forward_real_cropped_with(mask.as_slice(), p, &mut low, scratch);
        let bridge = (q * q) as f64 / (n * up * n * up) as f64;
        if up > 1 {
            let d = dirichlet(p, up, n * up);
            for (row, &dr) in low.chunks_exact_mut(p).zip(&d) {
                for (z, &dc) in row.iter_mut().zip(&d) {
                    *z *= (dr * dc).scale(bridge);
                }
            }
        } else if q != n {
            for z in &mut low {
                *z = z.scale(bridge);
            }
        }
        low
    }

    /// `dL/dmask_s` on the `n`-pixel grid from the `P x P` accumulator of
    /// [`Evaluation::pull_back`]: the block sum over `up x up` pixels of
    /// `Re F_N^-1 pad(acc)`, `N = up * n`, computed as
    /// `Re F_n^-1 pad(conj(D) . acc) / up^2` — [`dirichlet`] again.
    fn mask_gradient(
        &self,
        n: usize,
        up: usize,
        mut acc: Vec<Complex64>,
        scratch: &mut Fft2dScratch,
    ) -> Field2D {
        let p = self.nominal.p();
        if up > 1 {
            let d = dirichlet(p, up, n * up);
            let inv = 1.0 / (up * up) as f64;
            for (row, &dr) in acc.chunks_exact_mut(p).zip(&d) {
                for (z, &dc) in row.iter_mut().zip(&d) {
                    *z *= (dr * dc).conj().scale(inv);
                }
            }
        }
        let mut out = vec![0.0; n * n];
        Fft2d::new(n, n).inverse_padded_real_with(&acc, p, &mut out, scratch);
        Field2D::from_vec(n, n, out)
    }

    fn evaluation(&self, defocus: bool, m: usize) -> Evaluation<'_> {
        let q = self.sample_grid(m);
        Evaluation {
            kernels: self.kernels(defocus),
            m,
            q,
            fft_m: Fft2d::new(m, m),
            fft_q: Fft2d::new(q, q),
        }
    }

    /// A zeroed `P x P` accumulator for [`Evaluation::pull_back`].
    fn accumulator(&self) -> Vec<Complex64> {
        vec![Complex64::ZERO; self.nominal.p() * self.nominal.p()]
    }

    /// [`Evaluation::image`] into the `m x m` image `out`, clamped at zero.
    ///
    /// The interpolant of non-negative samples can undershoot an exact zero
    /// by a rounding error (-2e-16 along a phase edge's dark fringe), so the
    /// interpolated image is clamped. The adjoint ignores the clamp: it only
    /// ever acts within rounding of zero, where the resist's slope times
    /// that error is far under the rounding of the loss.
    fn intensity(
        &self,
        defocus: bool,
        low: &[Complex64],
        keep: Option<&mut [Complex64]>,
        mut out: Field2D,
        scratch: &mut Fft2dScratch,
    ) -> Field2D {
        let m = out.rows();
        let eval = self.evaluation(defocus, m);
        let image = out.as_mut_slice();
        scratch.with_work(|work, scratch| eval.image(low, keep, image, work, scratch));
        if eval.q < m {
            for v in image.iter_mut().filter(|v| **v < 0.0) {
                *v = 0.0;
            }
        }
        out
    }

    /// Focused and defocused aerial images sharing a single pruned forward
    /// transform of the mask (both kernel sets use the same `P`).
    ///
    /// This is the shape [`LithoSimulator::print_corners`] needs: the mask
    /// spectrum is computed once instead of once per focus condition, and
    /// the two kernel sweeps run side by side ([`fork_join`]) when the
    /// process has a spare core. Both images are allocated by the caller.
    ///
    /// # Panics
    ///
    /// Panics if the mask is not square/power-of-two or smaller than `P`.
    pub fn aerial_pair(&self, mask: &Field2D) -> (Field2D, Field2D) {
        with_thread_scratch(|scratch| {
            let m = self.check_mask(mask);
            let low = self.mask_spectrum(mask, 1, m, scratch);
            let (focused, defocused) = (Field2D::zeros(m, m), Field2D::zeros(m, m));
            fork_join(
                scratch,
                |s| self.intensity(false, &low, None, focused, s),
                |s| self.intensity(true, &low, None, defocused, s),
            )
        })
    }

    /// Vector–Jacobian product of the aerial-image map: given
    /// `g = dL/dI`, returns `dL/dM` at the cached resolution.
    ///
    /// Derivation: with `z_k = C_k M` (linear), `I = sum_k w_k |z_k|^2`, so
    /// `dL/dM = sum_k 2 w_k Re[C_k^H (g . z_k)]`, and `C_k^H` has the same
    /// crop/pad structure with `conj(H_k)`. `g` is full-band, but `C_k^H`
    /// keeps the `P x P` block of the spectrum of `g . z_k`, which only the
    /// `(2P - 1)^2` block of `g` can reach: that block is resampled to the
    /// sample grid once (the adjoint of the forward interpolation, bridge 1)
    /// and the per-kernel work runs there, on the cache's `z_k` — see
    /// [`LithoSimulator::sample_grid`] for why the aliasing is harmless.
    ///
    /// # Panics
    ///
    /// Panics if `grad` is not the cache's resolution.
    pub fn aerial_vjp(&self, cache: &AerialCache, grad: &Field2D) -> Field2D {
        let m = cache.m;
        assert_eq!(grad.shape(), (m, m), "gradient must match cached resolution {m}");
        let eval = self.evaluation(cache.defocus, m);
        with_thread_scratch(|scratch| {
            let mut acc = self.accumulator();
            scratch.with_work(|work, scratch| {
                let add = |k, block: &[Complex64]| eval.add_term(&mut acc, k, block);
                eval.pull_back(&cache.fields, grad.as_slice(), add, work, scratch);
            });
            self.mask_gradient(m, 1, acc, scratch)
        })
    }

    /// The differentiable twin of [`LithoSimulator::print_corners`], fused
    /// with its own adjoint: the process-window operator of Eq. 5.
    ///
    /// Simulates `upsample_nearest(mask_s, up)` (Eq. 3; Eq. 8 when
    /// `up = 1`) under each of `conds`, applies the sigmoid resist (Eq. 9)
    /// and average-pools the wafer images back by `up`, hands those
    /// `n x n` images to `seeds` — which returns whatever it computed from
    /// them and one `dL/dZ` per condition — and returns that value with
    /// `dL/dmask_s`.
    ///
    /// No field of the chain is formed at full size except one plane per
    /// condition: the mask is transformed at its own `n` pixels once for both
    /// conditions (times a Dirichlet factor that stands for the upsampling,
    /// exactly); the `m = up * n`-pixel image is clamped,
    /// exposed, pooled and overwritten with `dZ/dI` in one pass; the adjoint
    /// multiplies the plane by the spread seed in place, reuses the `z_k`
    /// the forward kept, sums both conditions into one `P x P` accumulator
    /// and ends in a single `n`-pixel inverse.
    ///
    /// The two conditions are two halves of one [`fork_join`] each way:
    /// image and exposure, then spread and pull-back, side by side when the
    /// process has a spare core. Each condition's plane and `z_k` live in
    /// the thread's FFT workspace between calls, so a stage's iterations
    /// recycle them, and are lent to whichever half runs the condition.
    /// Condition 1's `K` pulled-back blocks wait in a buffer of the same
    /// workspace, and the caller adds their terms after condition 0's, in
    /// kernel order: the accumulator sees the additions of one serial loop,
    /// so both paths return the same bits.
    ///
    /// `seeds` runs while that workspace is checked out: simulator calls
    /// made from inside it fall back to a cold one.
    ///
    /// # Panics
    ///
    /// Panics if the mask is not square/power-of-two or smaller than `P`,
    /// `up` is not a power of two, or `seeds` returns fields of another
    /// number or shape than the wafer images.
    pub fn soft_corners<R>(
        &self,
        mask_s: &Field2D,
        up: usize,
        conds: &[ProcessCondition; 2],
        seeds: impl FnOnce(&[Field2D]) -> (R, Vec<Field2D>),
    ) -> (R, Field2D) {
        let n = self.check_mask(mask_s);
        assert!(up.is_power_of_two(), "upsample factor {up} must be a power of two");
        let m = n * up;
        let [e0, e1] = conds.map(|c| self.evaluation(c.defocus, m));
        let [d0, d1] = conds.map(|c| c.dose);
        let pp = self.nominal.p() * self.nominal.p();
        with_thread_scratch(|scratch| {
            let low = self.mask_spectrum(mask_s, up, m, scratch);
            // Checked out of the workspace so that either half may run on it.
            let (mut planes, mut slabs) =
                scratch.with_work(|w, _| (take(&mut w.kept_real), take(&mut w.kept)));
            let ([p0, p1], [s0, s1, blocks]) = (&mut planes, &mut slabs);
            let (p0, s0) = (grown(p0, m * m), grown(s0, e0.slab_len()));
            let (p1, s1) = (grown(p1, m * m), grown(s1, e1.slab_len()));
            let mut wafers = [Field2D::zeros(n, n), Field2D::zeros(n, n)];
            let [w0, w1] = &mut wafers;
            fork_join(
                scratch,
                |s| self.expose_and_pool(e0.kept_image(&low, p0, s0, s), up, d0, w0),
                |s| self.expose_and_pool(e1.kept_image(&low, p1, s1, s), up, d1, w1),
            );
            let (value, seeds) = seeds(&wafers);
            assert_eq!(seeds.len(), 2, "one seed per process condition");
            for seed in &seeds {
                assert_eq!(seed.shape(), (n, n), "seed must match the wafer image");
            }
            let pending = grown(blocks, e1.kernels.num_kernels() * pp);
            let park = |k: usize, b: &[Complex64]| pending[k * pp..][..pp].copy_from_slice(b);
            let mut acc = self.accumulator();
            fork_join(
                scratch,
                |s| e0.pull_corner(&seeds[0], up, p0, s0, s, |k, b| e0.add_term(&mut acc, k, b)),
                |s| e1.pull_corner(&seeds[1], up, p1, s1, s, park),
            );
            for (k, block) in pending.chunks_exact(pp).enumerate() {
                e1.add_term(&mut acc, k, block);
            }
            scratch.with_work(|w, _| (w.kept_real, w.kept) = (planes, slabs));
            (value, self.mask_gradient(n, up, acc, scratch))
        })
    }

    /// Row by row over an `m x m` aerial image, `m` being `up` times the
    /// side of `wafer`: clamp (see [`LithoSimulator::intensity`]) and form
    /// the resist's argument, run the sigmoid resist under `dose` over the
    /// row ([`logistic_in_place`]), average pool it by `up` into `wafer`
    /// (zero on entry), and leave
    /// `dZ/dI` in place of `I`. Each pooled pixel adds its `up^2` inputs in
    /// [`ilt_field::avg_pool_down`]'s order. Four passes over a row in L1,
    /// each a plain loop the compiler vectorizes (the block sums aside).
    fn expose_and_pool(&self, plane: &mut [f64], up: usize, dose: f64, wafer: &mut Field2D) {
        let (alpha, th) = (self.cfg.resist_steepness, self.cfg.resist_threshold);
        let slope = alpha * dose;
        let (n, m) = (wafer.rows(), wafer.rows() * up);
        let pooled = wafer.as_mut_slice();
        for (r, row) in plane.chunks_exact_mut(m).enumerate() {
            for v in row.iter_mut() {
                let i = if *v < 0.0 { 0.0 } else { *v };
                *v = -alpha * (dose * i - th);
            }
            logistic_in_place(row);
            let sums = &mut pooled[r / up * n..][..n];
            if up == 1 {
                for (sum, y) in sums.iter_mut().zip(row.iter()) {
                    *sum += y;
                }
            } else {
                for (block, sum) in row.chunks_exact(up).zip(sums) {
                    *sum = block.iter().fold(*sum, |s, y| s + y);
                }
            }
            for y in row.iter_mut() {
                *y = slope * *y * (1.0 - *y);
            }
        }
        if up > 1 {
            let inv = 1.0 / (up * up) as f64;
            for v in pooled.iter_mut() {
                *v *= inv;
            }
        }
    }

    /// Eq. 7: aerial image of a **full-resolution** mask, evaluated only at
    /// every `s`-th pixel: the shared core asked for `N/s` pixels a side.
    ///
    /// Exact (not approximate) because the kernel spectra vanish outside the
    /// retained band. Used by the forward-simulation timing study; the
    /// low-resolution ILT path uses Eq. 8 via [`LithoSimulator::aerial`].
    ///
    /// # Panics
    ///
    /// Panics if `s` does not divide the mask size or `N/s < P`.
    pub fn aerial_subsampled(&self, mask: &Field2D, s: usize, defocus: bool) -> Field2D {
        let n = self.check_mask(mask);
        assert!(s > 0 && n % s == 0, "scale {s} must divide mask size {n}");
        let m = n / s;
        let p = self.nominal.p();
        assert!(m >= p, "reduced size {m} smaller than kernel support {p}");
        assert!(m.is_power_of_two(), "reduced size {m} must be a power of two");
        with_thread_scratch(|scratch| {
            let low = self.mask_spectrum(mask, 1, m, scratch);
            self.intensity(defocus, &low, None, Field2D::zeros(m, m), scratch)
        })
    }

    /// Constant-threshold resist (Eq. 1) with dose: `Z = [dose * I >= I_th]`.
    pub fn resist_hard(&self, intensity: &Field2D, dose: f64) -> Field2D {
        let th = self.cfg.resist_threshold / dose;
        intensity.threshold(th)
    }

    /// [`LithoSimulator::resist_hard`] over the image's own pixels.
    fn resist_in_place(&self, intensity: &mut Field2D, dose: f64) {
        intensity.threshold_in_place(self.cfg.resist_threshold / dose);
    }

    /// Full print: aerial image + hard resist under `cond`.
    pub fn print(&self, mask: &Field2D, cond: ProcessCondition) -> Field2D {
        let mut print = self.aerial(mask, cond.defocus);
        self.resist_in_place(&mut print, cond.dose);
        print
    }

    /// Prints at the three process corners (Definitions 1 and 2).
    pub fn print_corners(&self, mask: &Field2D) -> CornerPrints {
        // Nominal and outer share the focused aerial image; inner needs the
        // defocused one. One mask transform and two kernel sweeps; the outer
        // print is the only new field, the other two are thresholded over
        // their images, so no more than three full-size fields are alive.
        let (mut nominal, mut inner) = self.aerial_pair(mask);
        let outer = self.resist_hard(&nominal, ProcessCondition::outer().dose);
        self.resist_in_place(&mut nominal, ProcessCondition::nominal().dose);
        self.resist_in_place(&mut inner, ProcessCondition::inner().dose);
        CornerPrints { nominal, inner, outer }
    }
}

/// One kernel set evaluated at `m` pixels: the grids and transforms its
/// forward and adjoint share.
///
/// Both work in the arena's buffers under fixed roles, `complex = [H_k . F,
/// wide spectrum / cropped product, z_k or g . z_k]` and `real` for the
/// `Q^2` samples; [`LithoSimulator::soft_corners`] keeps each condition's
/// plane and `z_k` in `kept_real` and `kept`.
struct Evaluation<'a> {
    kernels: &'a KernelSet,
    m: usize,
    /// [`LithoSimulator::sample_grid`] of `m`.
    q: usize,
    fft_m: Fft2d,
    fft_q: Fft2d,
}

impl Evaluation<'_> {
    /// Values in the `K` coherent fields `z_k` on the sample grid.
    fn slab_len(&self) -> usize {
        self.kernels.num_kernels() * self.q * self.q
    }

    /// Shared core of every aerial evaluation: `sum_k w_k |z_k|^2` sampled
    /// on the `Q`-point grid (one kernel-weighted pruned inverse each, kept
    /// in `keep` when the adjoint will want them), then interpolated to the
    /// `m x m` pixels of `out` through its `(2P - 1)^2` spectrum. Not
    /// clamped: see [`LithoSimulator::intensity`].
    fn image(
        &self,
        low: &[Complex64],
        mut keep: Option<&mut [Complex64]>,
        out: &mut [f64],
        work: &mut WorkBuffers,
        scratch: &mut Fft2dScratch,
    ) {
        let (kernels, p, q, m) = (self.kernels, self.kernels.p(), self.q, self.m);
        let [sk, wide, field] = &mut work.complex;
        let sk = grown(sk, p * p);
        let sampled = if q == m { &mut *out } else { grown(&mut work.real, q * q) };
        sampled.fill(0.0);
        for (k, &w) in kernels.weights().iter().enumerate() {
            for ((s, &h), &f) in sk.iter_mut().zip(kernels.spectrum(k)).zip(low) {
                *s = h * f;
            }
            let z = match keep.as_deref_mut() {
                Some(fields) => &mut fields[k * q * q..][..q * q],
                None => grown(field, q * q),
            };
            self.fft_q.inverse_padded_with(sk, p, z, scratch);
            for (acc, zv) in sampled.iter_mut().zip(z.iter()) {
                *acc += w * zv.norm_sqr();
            }
        }
        if q < m {
            let band = 2 * p - 1;
            let spectrum = grown(wide, band * band);
            self.fft_q.forward_real_cropped_with(sampled, band, spectrum, scratch);
            let bridge = ((m / q) * (m / q)) as f64;
            for z in spectrum.iter_mut() {
                *z = z.scale(bridge);
            }
            self.fft_m.inverse_padded_real_with(spectrum, band, out, scratch);
        }
    }

    /// Hands `each` the block `crop_P F_Q(g_Q . z_k)` of every kernel `k`
    /// in order, where `fields` are the `z_k` [`Evaluation::image`] kept and
    /// `g_Q` is the `(2P - 1)^2` band of `grad = dL/dI` resampled to the
    /// sample grid; [`Evaluation::add_term`] turns a block into its term of
    /// `dL/dM`. The product's transform crops to `P x P`, so the pruned
    /// forward skips every discarded frequency.
    fn pull_back(
        &self,
        fields: &[Complex64],
        grad: &[f64],
        mut each: impl FnMut(usize, &[Complex64]),
        work: &mut WorkBuffers,
        scratch: &mut Fft2dScratch,
    ) {
        let (p, q, m) = (self.kernels.p(), self.q, self.m);
        let [_, wide, field] = &mut work.complex;
        let g: &[f64] = if q == m {
            grad
        } else {
            let band = 2 * p - 1;
            let spectrum = grown(wide, band * band);
            self.fft_m.forward_real_cropped_with(grad, band, spectrum, scratch);
            let g = grown(&mut work.real, q * q);
            self.fft_q.inverse_padded_real_with(spectrum, band, g, scratch);
            g
        };
        let product = grown(field, q * q);
        let cropped = grown(wide, p * p);
        for k in 0..self.kernels.num_kernels() {
            for ((u, &z), &gi) in product.iter_mut().zip(&fields[k * q * q..][..q * q]).zip(g) {
                *u = z.scale(gi);
            }
            self.fft_q.forward_cropped_with(product, p, cropped, scratch);
            each(k, cropped);
        }
    }

    /// Adds kernel `k`'s term of the adjoint, `2 w_k conj(H_k) . block`, to
    /// the `P x P` accumulator `acc`.
    fn add_term(&self, acc: &mut [Complex64], k: usize, block: &[Complex64]) {
        let scale = 2.0 * self.kernels.weights()[k];
        for ((a, &h), &c) in acc.iter_mut().zip(self.kernels.spectrum(k)).zip(block) {
            *a += (h.conj() * c).scale(scale);
        }
    }

    /// [`Evaluation::image`] of one condition into its own `m x m` plane,
    /// keeping its `z_k` in `slab` for the adjoint; returns the plane.
    fn kept_image<'p>(
        &self,
        low: &[Complex64],
        plane: &'p mut [f64],
        slab: &mut [Complex64],
        scratch: &mut Fft2dScratch,
    ) -> &'p mut [f64] {
        scratch.with_work(|work, scratch| self.image(low, Some(slab), plane, work, scratch));
        plane
    }

    /// One condition's adjoint half of [`LithoSimulator::soft_corners`]:
    /// spreads `seed` over the `dZ/dI` plane its forward half left and
    /// pulls it back through the `z_k` [`Evaluation::kept_image`] kept.
    fn pull_corner(
        &self,
        seed: &Field2D,
        up: usize,
        plane: &mut [f64],
        slab: &[Complex64],
        scratch: &mut Fft2dScratch,
        each: impl FnMut(usize, &[Complex64]),
    ) {
        spread_seed(plane, seed, up);
        scratch.with_work(|work, scratch| self.pull_back(slab, plane, each, work, scratch));
    }
}

/// The spectrum of `upsample_nearest(x, s)` on `N = s n` points is the
/// `n`-point spectrum of `x` times `D_s(f) = sum_{a < s} e^{-2 pi i f a / N}`
/// (split the output index as `s r + a`), and the adjoint — the `s`-block
/// sum of an `N`-point inverse — is the `n`-point inverse of `conj(D_s)`
/// times the spectrum, over `s`. Returns `D_s` at the `p` retained
/// frequencies, in their unshifted order; the 2-D factor is separable.
fn dirichlet(p: usize, s: usize, big_n: usize) -> Vec<Complex64> {
    (0..p)
        .map(|i| {
            let step = -2.0 * std::f64::consts::PI * signed_freq(i, p) as f64 / big_n as f64;
            (0..s).fold(Complex64::ZERO, |sum, a| {
                let (sin, cos) = (step * a as f64).sin_cos();
                sum + Complex64::new(cos, sin)
            })
        })
        .collect()
}

/// `plane[r, c] *= seed[r / up, c / up] / up^2`: the average pool's adjoint
/// applied to the `dZ/dI` plane in place, leaving `dL/dI`. At `up = 1`
/// (`g * 1.0` is `g`) one vectorizable product.
fn spread_seed(plane: &mut [f64], seed: &Field2D, up: usize) {
    if up == 1 {
        for (v, &g) in plane.iter_mut().zip(seed.as_slice()) {
            *v *= g;
        }
        return;
    }
    let inv = 1.0 / (up * up) as f64;
    for (r, row) in plane.chunks_exact_mut(seed.cols() * up).enumerate() {
        for (block, &g) in row.chunks_exact_mut(up).zip(seed.row(r / up)) {
            let g = g * inv;
            for v in block {
                *v *= g;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceSpec;

    fn sim(grid: usize) -> LithoSimulator {
        sim_with_kernels(grid, 6)
    }

    fn sim_with_kernels(grid: usize, num_kernels: usize) -> LithoSimulator {
        // 4 nm pixels keep the clip physically meaningful at small grids
        // (grid 128 -> a 512 nm clip) so the pupil is actually resolved.
        let cfg = OpticsConfig {
            grid,
            nm_per_px: 4.0,
            num_kernels,
            source: SourceSpec::Annular { sigma_in: 0.5, sigma_out: 0.9 },
            defocus_nm: 60.0,
            ..OpticsConfig::default()
        };
        LithoSimulator::new(cfg).expect("valid config")
    }

    fn square_mask(n: usize, lo: usize, hi: usize) -> Field2D {
        Field2D::from_fn(n, n, |r, c| {
            if (lo..hi).contains(&r) && (lo..hi).contains(&c) {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn open_frame_intensity_is_one() {
        let sim = sim(64);
        let i = sim.aerial(&Field2D::filled(64, 64, 1.0), false);
        for &v in i.as_slice() {
            assert!((v - 1.0).abs() < 1e-9, "open frame intensity {v}");
        }
    }

    #[test]
    fn dark_frame_intensity_is_zero() {
        let sim = sim(64);
        let i = sim.aerial(&Field2D::zeros(64, 64), false);
        assert!(i.max() < 1e-12);
    }

    #[test]
    fn intensity_is_nonnegative_and_finite() {
        let check = |sim: &LithoSimulator, mask: &Field2D, what: &str| {
            let n = mask.rows();
            assert!(sim.sample_grid(n) < n, "{what}: must take the resampled path");
            for defocus in [false, true] {
                let i = sim.aerial(mask, defocus);
                assert!(i.min() >= 0.0, "{what}: min intensity {:e}", i.min());
                assert!(i.as_slice().iter().all(|v| v.is_finite()));
            }
        };
        let sim = sim(64);
        check(&sim, &square_mask(64, 20, 44), "feature");
        check(&sim, &square_mask(64, 30, 34), "dark field with one via");
        // A phase edge images as a dark fringe: under one (even) kernel the
        // field is exactly zero along the edge column, which is off the
        // sample grid, so its intensity is an interpolated zero — about
        // -2e-16 on 512 pixels here before the write-out clamps it.
        let n = 256;
        let edge = Field2D::from_fn(n, n, |_, c| match (c + n - 129) % n {
            0 | 128 => 0.0,
            d if d < 128 => -1.0,
            _ => 1.0,
        });
        check(&sim_with_kernels(n, 1), &edge, "phase edge");
    }

    #[test]
    fn large_feature_prints_small_feature_fades() {
        let sim = sim(128);
        // 240 nm square (60 px at 4 nm): clears the threshold in its center.
        let big = square_mask(128, 34, 94);
        let z = sim.print(&big, ProcessCondition::nominal());
        assert_eq!(z[(64, 64)], 1.0, "large feature center must print");
        // 24 nm square: below the ~36 nm half-pitch resolution, must fade.
        let tiny = square_mask(128, 61, 67);
        let zt = sim.print(&tiny, ProcessCondition::nominal());
        assert_eq!(zt.count_on(), 0, "sub-resolution speck must not print");
    }

    #[test]
    fn dose_ordering_monotone() {
        // Higher dose can only grow the printed area (for positive masks).
        let sim = sim(128);
        let mask = square_mask(128, 40, 88);
        let i = sim.aerial(&mask, false);
        let lo = sim.resist_hard(&i, 0.98);
        let hi = sim.resist_hard(&i, 1.02);
        for (a, b) in lo.as_slice().iter().zip(hi.as_slice()) {
            assert!(b >= a, "dose monotonicity violated");
        }
        assert!(hi.count_on() > lo.count_on());
    }

    #[test]
    fn corners_generate_nonzero_pvband() {
        let sim = sim(128);
        let mask = square_mask(128, 40, 88);
        let corners = sim.print_corners(&mask);
        let pvb = corners.inner.xor_count(&corners.outer);
        assert!(pvb > 0, "process corners must differ");
        // The nominal print sits between the corners in area.
        let (ai, an, ao) = (
            corners.inner.count_on(),
            corners.nominal.count_on(),
            corners.outer.count_on(),
        );
        assert!(ai <= an && an <= ao, "corner areas not ordered: {ai} {an} {ao}");
    }

    #[test]
    fn eq8_low_res_approximates_pooled_full_res() {
        // The paper's central approximation: simulate the avg-pooled mask at
        // N/s and compare against the avg-pooled full-resolution image.
        let sim = sim(128);
        let mask = square_mask(128, 32, 96);
        let full = sim.aerial(&mask, false);
        let pooled_full = ilt_field::avg_pool_down(&full, 4);
        let mask_s = ilt_field::avg_pool_down(&mask, 4);
        let low = sim.aerial(&mask_s, false);
        // Relative RMS error between the two must be small.
        let err = (low.sq_l2_dist(&pooled_full) / pooled_full.as_slice().len() as f64).sqrt();
        assert!(err < 0.05, "Eq. 8 approximation error too large: {err}");
    }

    #[test]
    fn eq7_subsampling_is_exact() {
        // Eq. 7 must match the full-resolution image sampled every s pixels
        // to machine precision (the kernels are band-limited).
        let sim = sim(128);
        let mask = square_mask(128, 30, 90);
        let full = sim.aerial(&mask, false);
        for s in [2usize, 4] {
            let sub = sim.aerial_subsampled(&mask, s, false);
            let m = 128 / s;
            for r in 0..m {
                for c in 0..m {
                    let want = full[(r * s, c * s)];
                    let got = sub[(r, c)];
                    assert!(
                        (want - got).abs() < 1e-10,
                        "s={s} ({r},{c}): {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn dirichlet_factor_carries_upsampling_and_block_sum_across_the_transform() {
        // P = 29 against n = 32: the retained block nearly fills the small
        // transform, which is as tight as `P <= n` gets.
        let sim = sim_with_kernels(256, 2);
        let (n, p) = (32, sim.kernels(false).p());
        assert_eq!(p, 29);
        let x = Field2D::from_fn(n, n, |r, c| ((r * 7 + c * 13) % 11) as f64 / 11.0 - 0.3);
        let acc: Vec<Complex64> = (0..p * p)
            .map(|i| Complex64::new(((i * 5) % 17) as f64 - 8.0, ((i * 3) % 13) as f64 - 6.0))
            .collect();
        let gradient = |n: usize, up: usize| {
            with_thread_scratch(|scratch| sim.mask_gradient(n, up, acc.clone(), scratch))
        };
        for s in [2usize, 4, 8] {
            let big = n * s;
            // crop_P F_N . upsample_s = D . crop_P F_n (same bridge: m = N).
            let (direct, via_d) = with_thread_scratch(|scratch| {
                let up = ilt_field::upsample_nearest(&x, s);
                (sim.mask_spectrum(&up, 1, big, scratch), sim.mask_spectrum(&x, s, big, scratch))
            });
            let scale = direct.iter().fold(0.0, |m: f64, z| m.max(z.abs()));
            for (a, b) in direct.iter().zip(&via_d) {
                assert!((*a - *b).abs() <= 1e-12 * scale, "s={s}: spectrum {a:?} vs {b:?}");
            }
            // blocksum_s . Re F_N^-1 pad = Re F_n^-1 pad . conj(D) / s^2.
            let summed = ilt_field::avg_pool_down(&gradient(big, 1), s).scale((s * s) as f64);
            let via_d = gradient(n, s);
            let scale = summed.max().max(-summed.min());
            for (a, b) in summed.as_slice().iter().zip(via_d.as_slice()) {
                assert!((a - b).abs() <= 1e-12 * scale, "s={s}: gradient {a} vs {b}");
            }
        }
    }

    /// Eq. 9's sigmoid resist as its own pass:
    /// `Z = 1 / (1 + exp(-alpha (dose * I - I_th)))`.
    fn resist_sigmoid(sim: &LithoSimulator, intensity: &Field2D, dose: f64) -> Field2D {
        let cfg = sim.config();
        let mut z = intensity.map(|i| -cfg.resist_steepness * (dose * i - cfg.resist_threshold));
        logistic_in_place(z.as_mut_slice());
        z
    }

    #[test]
    fn soft_corners_matches_the_unfused_calls() {
        // L = sum_c <W_c, pool(resist(aerial(upsample(x)))))> at two corners.
        let sim = sim(64);
        let conds = [ProcessCondition::outer(), ProcessCondition::inner()];
        for up in [1usize, 2] {
            let n = 64 / up;
            let x = Field2D::from_fn(n, n, |r, c| {
                0.5 + 0.4 * ((r as f64 * 0.5).sin() * (c as f64 * 0.3).cos())
            });
            let weights = [3usize, 5].map(|k| {
                Field2D::from_fn(n, n, |r, c| ((r + 2 * c) % k) as f64 / k as f64 - 0.4)
            });
            let (wafers, grad) = sim.soft_corners(&x, up, &conds, |z| (z.to_vec(), weights.to_vec()));

            let full = ilt_field::upsample_nearest(&x, up);
            let alpha = sim.config().resist_steepness;
            let mut want_grad = Field2D::zeros(n, n);
            for ((cond, w), wafer) in conds.iter().zip(&weights).zip(&wafers) {
                let (i, cache) = sim.aerial_with_cache(&full, cond.defocus);
                let z = resist_sigmoid(&sim, &i, cond.dose);
                let want = ilt_field::avg_pool_down(&z, up);
                if up == 1 {
                    // Same arithmetic in the same order: not a bit moves.
                    assert_eq!(wafer, &want, "{cond:?}: wafer");
                }
                let err = (wafer - &want).map(f64::abs).max();
                assert!(err <= 1e-12, "up={up} {cond:?}: wafer off by {err:e}");
                let spread = ilt_field::upsample_nearest(w, up).scale(1.0 / (up * up) as f64);
                let g = spread.zip_map(&z, |g, y| g * alpha * cond.dose * y * (1.0 - y));
                let at_full = sim.aerial_vjp(&cache, &g);
                want_grad += &ilt_field::avg_pool_down(&at_full, up).scale((up * up) as f64);
            }
            let scale = want_grad.max().max(-want_grad.min());
            let err = (&grad - &want_grad).map(f64::abs).max();
            assert!(err <= 1e-12 * scale, "up={up}: gradient off by {err:e} of {scale:e}");
        }
    }

    #[test]
    fn vjp_matches_finite_differences() {
        let sim = sim(32);
        let mask = Field2D::from_fn(32, 32, |r, c| {
            0.5 + 0.4 * ((r as f64 * 0.5).sin() * (c as f64 * 0.3).cos())
        });
        // Loss L = sum(I .* W) for a fixed weight field W.
        let wfield = Field2D::from_fn(32, 32, |r, c| ((r + 2 * c) % 5) as f64 / 5.0 - 0.4);
        let (_, cache) = sim.aerial_with_cache(&mask, false);
        let grad = sim.aerial_vjp(&cache, &wfield);

        let eps = 1e-5;
        for &(r, c) in &[(0usize, 0usize), (5, 7), (16, 16), (31, 2), (12, 25)] {
            let mut mp = mask.clone();
            mp[(r, c)] += eps;
            let mut mm = mask.clone();
            mm[(r, c)] -= eps;
            let lp = sim.aerial(&mp, false).hadamard(&wfield).sum();
            let lm = sim.aerial(&mm, false).hadamard(&wfield).sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (grad[(r, c)] - fd).abs() < 1e-5 * fd.abs().max(1.0),
                "({r},{c}): vjp {} vs fd {fd}",
                grad[(r, c)]
            );
        }
    }

    #[test]
    fn vjp_defocus_uses_defocused_kernels() {
        let sim = sim(32);
        let mask = Field2D::from_fn(32, 32, |r, c| ((r * c) % 7) as f64 / 7.0);
        let g = Field2D::filled(32, 32, 1.0);
        let (_, cache_f) = sim.aerial_with_cache(&mask, false);
        let (_, cache_d) = sim.aerial_with_cache(&mask, true);
        let gf = sim.aerial_vjp(&cache_f, &g);
        let gd = sim.aerial_vjp(&cache_d, &g);
        assert!(gf.sq_l2_dist(&gd) > 1e-12, "focus state must affect the gradient");
    }

    #[test]
    fn sigmoid_resist_brackets_hard_resist() {
        let sim = sim(64);
        let mask = square_mask(64, 16, 48);
        let i = sim.aerial(&mask, false);
        let soft = resist_sigmoid(&sim, &i, 1.0);
        let hard = sim.resist_hard(&i, 1.0);
        assert!(soft.min() >= 0.0 && soft.max() <= 1.0);
        // Soft and hard agree where intensity is far from threshold.
        for (idx, (&s, &h)) in soft.as_slice().iter().zip(hard.as_slice()).enumerate() {
            let iv = i.as_slice()[idx];
            if (iv - sim.config().resist_threshold).abs() > 0.1 {
                assert!((s - h).abs() < 0.01, "idx {idx}: sigmoid {s} vs hard {h} at I={iv}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_mask_panics() {
        let sim = sim(64);
        let _ = sim.aerial(&Field2D::zeros(48, 48), false);
    }
}
