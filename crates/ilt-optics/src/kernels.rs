//! SOCS optical kernels: the truncated eigen-expansion of the TCC.
//!
//! The "sum of coherent systems" decomposition writes the partially coherent
//! Hopkins image as `I = sum_k w_k |h_k (x) M|^2` (Eq. 2); each kernel
//! spectrum `H_k` is a TCC eigenvector and each weight `w_k` its eigenvalue.
//! The ICCAD 2013 contest ships these kernels as data; since that data is
//! proprietary we derive them from first principles (annular source +
//! defocused pupil -> TCC -> subspace iteration), which exercises the same
//! downstream code paths.
//!
//! Kernel spectra live on the `P x P` **signed-frequency grid** (unshifted
//! layout, DC at `[0,0]`), directly multipliable against
//! [`ilt_fft::crop_centered`] output.

use ilt_fft::{fork_join, with_thread_scratch, Complex64, Fft2d};
use ilt_field::Field2D;

use crate::config::OpticsConfig;
use crate::eig::top_eigenpairs;
use crate::pupil::Pupil;
use crate::tcc::Tcc;

/// Number of extra subspace-iteration directions beyond `N_k`.
const EIG_OVERSAMPLE: usize = 8;
/// Subspace iteration budget; generous because kernels are built once.
const EIG_MAX_ITERS: usize = 120;
/// Relative Ritz-value convergence tolerance.
const EIG_TOL: f64 = 1e-10;

/// A weighted set of SOCS kernels for one focus condition.
///
/// # Examples
///
/// ```
/// use ilt_optics::{KernelSet, OpticsConfig};
///
/// let cfg = OpticsConfig { grid: 256, num_kernels: 6, ..OpticsConfig::default() };
/// let (kernels, _defocused) = KernelSet::focus_pair(&cfg);
/// assert_eq!(kernels.num_kernels(), 6);
/// // The leading kernel dominates.
/// assert!(kernels.weights()[0] >= kernels.weights()[5]);
/// ```
#[derive(Clone, Debug)]
pub struct KernelSet {
    p: usize,
    weights: Vec<f64>,
    /// Unit-norm kernel spectra, `p*p` each, signed-frequency layout.
    spectra: Vec<Vec<Complex64>>,
    /// Fraction of TCC energy (trace) captured by the kept kernels.
    captured_energy: f64,
}

impl KernelSet {
    /// Builds the `(nominal, defocused)` kernel pair for the process-window
    /// corners, both normalized by the nominal open-frame intensity (so the
    /// nominal open-frame aerial intensity equals 1 and dose factors are
    /// directly comparable between corners).
    ///
    /// The two builds read nothing of each other, so they are the two halves
    /// of a [`fork_join`]: side by side when the process has a spare core,
    /// one after the other otherwise, with the same bits either way. The
    /// normalization needs both and runs after the join.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see [`OpticsConfig::validate`]).
    pub fn focus_pair(cfg: &OpticsConfig) -> (KernelSet, KernelSet) {
        let (mut nominal, mut defocus) = with_thread_scratch(|scratch| {
            fork_join(
                scratch,
                |_| Self::raw_from_config(cfg, 0.0),
                |_| Self::raw_from_config(cfg, cfg.defocus_nm),
            )
        });
        let c = nominal.open_frame_intensity();
        assert!(c > 0.0, "degenerate kernel set: zero open-frame intensity");
        for w in &mut nominal.weights {
            *w /= c;
        }
        for w in &mut defocus.weights {
            *w /= c;
        }
        (nominal, defocus)
    }

    fn raw_from_config(cfg: &OpticsConfig, defocus_nm: f64) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("invalid optics config: {e}"));
        let p = cfg.kernel_size();
        let pupil = Pupil::new(cfg.na, cfg.wavelength_nm, defocus_nm);
        // Sample the source densely enough that each annulus ring has
        // multiple points, but keep the TCC build cheap.
        let src_pts = cfg.source.sample(15);
        let tcc = Tcc::build(&pupil, &src_pts, p, cfg.freq_step());
        let pairs = top_eigenpairs(
            &tcc,
            cfg.num_kernels.min(tcc.p() * tcc.p()),
            EIG_OVERSAMPLE,
            EIG_MAX_ITERS,
            EIG_TOL,
            0xD1CE,
        );
        let trace = tcc.trace();
        let captured: f64 = pairs.iter().map(|e| e.value.max(0.0)).sum();
        KernelSet {
            p,
            weights: pairs.iter().map(|e| e.value.max(0.0)).collect(),
            spectra: pairs.into_iter().map(|e| e.vector).collect(),
            captured_energy: if trace > 0.0 { captured / trace } else { 1.0 },
        }
    }

    /// Kernel frequency support `P` (odd).
    #[inline]
    pub fn p(&self) -> usize {
        self.p
    }

    /// Number of kernels `N_k`.
    #[inline]
    pub fn num_kernels(&self) -> usize {
        self.spectra.len()
    }

    /// Kernel weights `w_k` (descending).
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Spectrum of kernel `k` on the `P x P` signed-frequency grid.
    ///
    /// # Panics
    ///
    /// Panics if `k >= num_kernels()`.
    #[inline]
    pub fn spectrum(&self, k: usize) -> &[Complex64] {
        &self.spectra[k]
    }

    /// Fraction of the TCC trace captured by the kept kernels, in `[0, 1]`.
    #[inline]
    pub fn captured_energy(&self) -> f64 {
        self.captured_energy
    }

    /// Aerial intensity of a fully open mask: `sum_k w_k |H_k(0)|^2`.
    pub fn open_frame_intensity(&self) -> f64 {
        self.weights
            .iter()
            .zip(&self.spectra)
            .map(|(&w, spec)| w * spec[0].norm_sqr())
            .sum()
    }

    /// Spatial magnitude of kernel `k`, rendered on a `size x size` grid
    /// (power of two, `>= P`), fftshifted so the kernel is centered.
    ///
    /// Intended for inspection/visualization; simulation always stays in the
    /// frequency domain.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two or is smaller than `P`.
    pub fn spatial_magnitude(&self, k: usize, size: usize) -> Field2D {
        assert!(size.is_power_of_two() && size >= self.p);
        // `Fft2d::new` shares plans through the process-wide plan cache, and
        // the pruned padded inverse skips the zero part of the spectrum.
        let mut buf = vec![Complex64::ZERO; size * size];
        let fft = Fft2d::new(size, size);
        with_thread_scratch(|s| fft.inverse_padded_with(&self.spectra[k], self.p, &mut buf, s));
        let shifted = ilt_fft::fftshift(&buf, size);
        Field2D::from_vec(size, size, shifted.iter().map(|z| z.abs()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceSpec;

    fn tiny_cfg() -> OpticsConfig {
        OpticsConfig {
            grid: 128,
            nm_per_px: 4.0,
            num_kernels: 5,
            source: SourceSpec::Annular { sigma_in: 0.5, sigma_out: 0.9 },
            ..OpticsConfig::default()
        }
    }

    /// FNV-1a over the bits of both sets' weights, captured energy and
    /// spectra.
    fn kernel_bits_hash(sets: [&KernelSet; 2]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut eat = |x: f64| {
            for b in x.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for ks in sets {
            ks.weights().iter().for_each(|&w| eat(w));
            eat(ks.captured_energy());
            for k in 0..ks.num_kernels() {
                ks.spectrum(k).iter().for_each(|z| { eat(z.re); eat(z.im) });
            }
        }
        h
    }

    #[test]
    fn kernels_are_pinned_to_the_bit() {
        // Grid 256 at 8 nm/px has the M1 clips' frequency step, so P = 57 and
        // these are the kernels every paper-scale run uses. The first two
        // literals were computed with a TCC matvec that visited every bin,
        // the last two with one-column loops before the block primitives:
        // K = 3 is a block of 11 (an odd width, a one-column tail) and K = 24
        // a block of 32, the 24-kernel judge's. A change that moves one bit
        // of one kernel can move every mask golden after it.
        let cases = [
            (OpticsConfig { grid: 128, nm_per_px: 4.0, num_kernels: 5, ..OpticsConfig::default() }, 0x015c_9110_49b8_53da),
            (OpticsConfig { grid: 256, nm_per_px: 8.0, num_kernels: 10, ..OpticsConfig::default() }, 0xe02c_27c1_b2fa_8f95),
            (OpticsConfig { grid: 128, nm_per_px: 4.0, num_kernels: 3, ..OpticsConfig::default() }, 0xb947_619b_70e5_51ec),
            (OpticsConfig { grid: 256, nm_per_px: 8.0, num_kernels: 24, ..OpticsConfig::default() }, 0xe786_a48c_95cc_a2af),
        ];
        for (cfg, want) in cases {
            let (nominal, defocused) = KernelSet::focus_pair(&cfg);
            let got = kernel_bits_hash([&nominal, &defocused]);
            assert_eq!(got, want, "P = {}: kernels moved ({got:#018x})", cfg.kernel_size());
        }
    }

    #[test]
    fn weights_are_descending_and_nonnegative() {
        let ks = KernelSet::focus_pair(&tiny_cfg()).0;
        for w in ks.weights().windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!(ks.weights().iter().all(|&w| w >= 0.0));
    }

    #[test]
    fn open_frame_intensity_is_one_after_normalization() {
        let ks = KernelSet::focus_pair(&tiny_cfg()).0;
        assert!((ks.open_frame_intensity() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn captured_energy_is_high_for_enough_kernels() {
        let cfg = OpticsConfig { num_kernels: 12, ..tiny_cfg() };
        let ks = KernelSet::focus_pair(&cfg).0;
        assert!(
            ks.captured_energy() > 0.85,
            "12 kernels should capture most energy, got {}",
            ks.captured_energy()
        );
        // More kernels capture more energy.
        let small = KernelSet::focus_pair(&OpticsConfig { num_kernels: 3, ..tiny_cfg() }).0;
        assert!(ks.captured_energy() > small.captured_energy());
    }

    #[test]
    fn spectra_are_unit_norm_and_band_limited() {
        let cfg = tiny_cfg();
        let ks = KernelSet::focus_pair(&cfg).0;
        let p = ks.p();
        // Partially coherent kernels extend to (1 + sigma_max) * cutoff:
        // T(f, f) = sum_s J(s) |P(s + f)|^2 is nonzero out to that band.
        let band = (1.0 + cfg.source.max_sigma()) * cfg.cutoff();
        let step = cfg.freq_step();
        for k in 0..ks.num_kernels() {
            let spec = ks.spectrum(k);
            let norm: f64 = spec.iter().map(|z| z.norm_sqr()).sum();
            assert!((norm - 1.0).abs() < 1e-8, "kernel {k} norm {norm}");
            for (a, z) in spec.iter().enumerate() {
                let fy = ilt_fft::signed_freq(a / p, p) as f64 * step;
                let fx = ilt_fft::signed_freq(a % p, p) as f64 * step;
                // The source is discretized, so allow a one-bin guard ring.
                if (fx * fx + fy * fy).sqrt() > band + step {
                    assert!(z.abs() < 1e-7, "kernel {k} leaks outside the TCC band at bin {a}");
                }
            }
        }
    }

    #[test]
    fn focus_pair_shares_normalization() {
        let cfg = OpticsConfig { defocus_nm: 60.0, ..tiny_cfg() };
        let (nom, defoc) = KernelSet::focus_pair(&cfg);
        assert!((nom.open_frame_intensity() - 1.0).abs() < 1e-9);
        // Defocus preserves the open frame to good approximation (pure
        // phase aberration), so the shared constant keeps it near 1.
        assert!(
            (defoc.open_frame_intensity() - 1.0).abs() < 0.1,
            "defocused open frame {}",
            defoc.open_frame_intensity()
        );
    }

    #[test]
    fn defocus_changes_kernels() {
        let cfg = OpticsConfig { defocus_nm: 80.0, ..tiny_cfg() };
        let (nom, defoc) = KernelSet::focus_pair(&cfg);
        // The dominant kernel spectra must differ measurably.
        let d: f64 = nom
            .spectrum(0)
            .iter()
            .zip(defoc.spectrum(0))
            .map(|(&a, &b)| (a - b).norm_sqr())
            .sum();
        assert!(d > 1e-4, "defocus had no effect on kernel 0 (d = {d})");
    }

    #[test]
    fn spatial_kernel_is_centered_and_localized() {
        let ks = KernelSet::focus_pair(&tiny_cfg()).0;
        let img = ks.spatial_magnitude(0, 128);
        // Peak within a few pixels of the center.
        let mut best = (0usize, 0usize);
        let mut best_v = f64::NEG_INFINITY;
        for r in 0..128 {
            for c in 0..128 {
                if img[(r, c)] > best_v {
                    best_v = img[(r, c)];
                    best = (r, c);
                }
            }
        }
        assert!(
            best.0.abs_diff(64) <= 2 && best.1.abs_diff(64) <= 2,
            "kernel peak at {best:?}"
        );
        // Energy concentrates near the center: central quarter holds most.
        let total: f64 = img.as_slice().iter().map(|v| v * v).sum();
        let central: f64 = (32..96)
            .flat_map(|r| (32..96).map(move |c| (r, c)))
            .map(|(r, c)| img[(r, c)] * img[(r, c)])
            .sum();
        assert!(central / total > 0.5, "kernel energy too spread: {}", central / total);
    }
}
