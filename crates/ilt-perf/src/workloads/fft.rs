//! FFT workloads: the transforms one fused optimizer step runs, at the
//! shapes it runs them (`LithoSimulator`'s `image` / `pull_back` on the
//! 2048-nm clips at grid 1024: `P = 57`, sample grid `Q = 128`, image band
//! `2P - 1 = 113`).
//!
//! Three variants — the per-kernel pruned padded inverse at `Q`, the
//! pruned real inverse that interpolates the image band to the mask grid,
//! and the pruned real forward that crops a mask-sized gradient back to
//! that band. Each cross-checks against a dense reference once per run, so
//! a kernel change that breaks numerics fails the bench before it can post
//! a "speedup".

use ilt_fft::{crop_centered, pad_centered_into, Complex64, Fft2d, Fft2dScratch};
use ilt_layouts::Xorshift64Star;

use crate::measure::{measure, MeasureConfig, Sample};
use crate::result::PerfError;

use super::noise;

/// A deterministic `p x p` spectrum.
fn random_spec(p: usize, seed: u64) -> Vec<Complex64> {
    let mut rng = Xorshift64Star::new(seed);
    (0..p * p).map(|_| Complex64::new(noise(&mut rng), noise(&mut rng))).collect()
}

/// A deterministic real mask image of side `n`.
fn random_image(n: usize) -> Vec<f64> {
    let mut rng = Xorshift64Star::new(0xCAFE_D00D);
    (0..n * n).map(|_| noise(&mut rng)).collect()
}

/// Fails unless `got` matches `want` to 1e-12 relative to the largest
/// reference magnitude (floored at 1, so small-amplitude outputs are held
/// to 1e-12 absolute). Unnormalized forward spectra grow like O(N), so a
/// purely absolute bound would get tighter than f64 rounding at large N.
fn check_agreement(
    got: &[Complex64],
    want: &[Complex64],
    workload: &str,
    want_name: &str,
    n: usize,
) -> Result<(), PerfError> {
    let scale = want.iter().map(|z| z.abs()).fold(1.0, f64::max);
    let worst = got.iter().zip(want).map(|(a, b)| (*a - *b).abs()).fold(0.0, f64::max);
    if worst > 1e-12 * scale {
        return Err(PerfError::workload(
            workload,
            format!("diverged from {want_name} at N={n}: |diff| {worst:e} vs scale {scale:e}"),
        ));
    }
    Ok(())
}

/// One SOCS sweep of the per-kernel pruned padded inverse
/// ([`Fft2d::inverse_padded_with`]): `K = 10` kernel spectra of support
/// `P = 57` onto the `Q = 128` sample grid — the only shape the simulator
/// runs it at, one sweep per focus state of a fused step. The last field is
/// cross-checked against the dense pad-then-invert reference.
pub fn pruned_inverse(cfg: &MeasureConfig) -> Result<Sample, PerfError> {
    let (q, p, k) = if cfg.smoke { (32, 9, 2) } else { (128, 57, 10) };
    let fft = Fft2d::new(q, q);
    let mut scratch = Fft2dScratch::new();
    let specs: Vec<Vec<Complex64>> =
        (0..k).map(|i| random_spec(p, 0x5EED_F00D ^ (i as u64 + 1))).collect();

    let mut reference = vec![Complex64::ZERO; q * q];
    pad_centered_into(&specs[k - 1], p, &mut reference, q);
    fft.inverse_with(&mut reference, &mut scratch);

    let mut buf = vec![Complex64::ZERO; q * q];
    let sample = measure(cfg, || {
        for spec in &specs {
            fft.inverse_padded_with(spec, p, &mut buf, &mut scratch);
        }
    });
    check_agreement(&buf, &reference, "fft_pruned_inverse", "dense inverse", q)?;
    Ok(sample.with_extra("n", q as f64).with_extra("p", p as f64).with_extra("kernels", k as f64))
}

/// The pruned real inverse ([`Fft2d::inverse_padded_real_with`]): the
/// `(2P - 1)^2 = 113^2` band of an intensity interpolated to the `N = 1024`
/// mask grid — one per corner image of a high-resolution step. Cross-checked
/// against the real part of the complex pruned inverse.
pub fn pruned_real_inverse(cfg: &MeasureConfig) -> Result<Sample, PerfError> {
    let (n, band) = if cfg.smoke { (64, 9) } else { (1024, 113) };
    let fft = Fft2d::new(n, n);
    let mut scratch = Fft2dScratch::new();
    let spec = random_spec(band, 0x5EED_F00D);

    let mut reference = vec![Complex64::ZERO; n * n];
    fft.inverse_padded_with(&spec, band, &mut reference, &mut scratch);
    let reference: Vec<Complex64> = reference.iter().map(|z| Complex64::from_real(z.re)).collect();

    let mut out = vec![0.0; n * n];
    let sample = measure(cfg, || {
        fft.inverse_padded_real_with(&spec, band, &mut out, &mut scratch);
    });
    let got: Vec<Complex64> = out.iter().map(|&x| Complex64::from_real(x)).collect();
    check_agreement(&got, &reference, "fft_pruned_real_inverse", "inverse_padded_with(..).re", n)?;
    Ok(sample.with_extra("n", n as f64).with_extra("p", band as f64))
}

/// The pruned real forward ([`Fft2d::forward_real_cropped_with`]): an
/// `N = 1024` gradient image cropped to its `113^2` band, the crop fused
/// into the column pass so only the retained rows are ever
/// column-transformed — one per corner of a high-resolution step.
/// Cross-checked against the dense complex forward followed by a centered
/// crop.
pub fn pruned_forward(cfg: &MeasureConfig) -> Result<Sample, PerfError> {
    let (n, p) = if cfg.smoke { (64, 9) } else { (1024, 113) };
    let fft = Fft2d::new(n, n);
    let mut scratch = Fft2dScratch::new();
    let img = random_image(n);

    let mut dense = vec![Complex64::ZERO; n * n];
    for (z, &x) in dense.iter_mut().zip(&img) {
        *z = Complex64::from_real(x);
    }
    fft.forward_with(&mut dense, &mut scratch);
    let reference = crop_centered(&dense, n, p);

    let mut out = vec![Complex64::ZERO; p * p];
    let sample = measure(cfg, || {
        fft.forward_real_cropped_with(&img, p, &mut out, &mut scratch);
    });
    check_agreement(&out, &reference, "fft_pruned_forward", "dense forward + crop", n)?;
    Ok(sample.with_extra("n", n as f64).with_extra("p", p as f64))
}
