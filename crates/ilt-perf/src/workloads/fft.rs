//! FFT workloads: the per-iteration spectral hot paths of the simulator.
//!
//! Five variants — the dense pad-then-invert reference, the pruned padded
//! inverse that replaced it, the Hermitian real-input forward, the pruned
//! real forward (crop fused into the column pass), and the batched
//! inverse used by the SOCS kernel sum. The fast paths cross-check
//! against their references once per run, so a kernel change that breaks
//! numerics fails the bench before it can post a "speedup".

use ilt_fft::{crop_centered, pad_centered_into, Complex64, Fft2d, Fft2dScratch};
use ilt_layouts::Xorshift64Star;

use crate::measure::{injected_delay, measure, MeasureConfig, Sample};
use crate::result::PerfError;

use super::noise;

/// Grid and kernel-support sizes: the full-chip serving grid in full mode,
/// a tiny transform in smoke mode.
fn sizes(cfg: &MeasureConfig) -> (usize, usize) {
    if cfg.smoke {
        (64, 5)
    } else {
        (1024, 25)
    }
}

/// A deterministic `p x p` kernel spectrum.
fn random_spec(p: usize) -> Vec<Complex64> {
    random_spec_seeded(p, 0x5EED_F00D)
}

/// A deterministic `p x p` kernel spectrum with an explicit seed, so the
/// batch workload can build several distinct spectra.
fn random_spec_seeded(p: usize, seed: u64) -> Vec<Complex64> {
    let mut rng = Xorshift64Star::new(seed);
    (0..p * p).map(|_| Complex64::new(noise(&mut rng), noise(&mut rng))).collect()
}

/// How many transforms the batch workload runs per operation: enough to
/// amortize twiddle/scratch sharing, small enough to keep full-mode runs
/// in the tens of milliseconds.
fn batch_len(cfg: &MeasureConfig) -> usize {
    if cfg.smoke {
        2
    } else {
        4
    }
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

/// Dense pad + inverse of a `P x P` kernel spectrum: the per-kernel cost
/// of every simulator iteration before the pruned path existed. Kept as a
/// workload so the pruned path's advantage stays an *observed* number.
pub fn dense_inverse(cfg: &MeasureConfig) -> Result<Sample, PerfError> {
    let (n, p) = sizes(cfg);
    let fft = Fft2d::new(n, n);
    let mut scratch = Fft2dScratch::new();
    let spec = random_spec(p);
    let mut buf = vec![Complex64::ZERO; n * n];
    let sample = measure(cfg, || {
        pad_centered_into(&spec, p, &mut buf, n);
        fft.inverse_with(&mut buf, &mut scratch);
    });
    Ok(sample.with_extra("n", n as f64).with_extra("p", p as f64))
}

/// The pruned padded inverse ([`Fft2d::inverse_padded_with`]) — the path
/// every simulator iteration actually runs. Cross-checked against the
/// dense reference; carries the `ILT_BENCH_DELAY_US` injection hook the
/// verify scripts use to prove the diff gate trips.
pub fn pruned_inverse(cfg: &MeasureConfig) -> Result<Sample, PerfError> {
    let (n, p) = sizes(cfg);
    let fft = Fft2d::new(n, n);
    let mut scratch = Fft2dScratch::new();
    let spec = random_spec(p);

    let mut reference = vec![Complex64::ZERO; n * n];
    pad_centered_into(&spec, p, &mut reference, n);
    fft.inverse_with(&mut reference, &mut scratch);

    let mut buf = vec![Complex64::ZERO; n * n];
    let sample = measure(cfg, || {
        fft.inverse_padded_with(&spec, p, &mut buf, &mut scratch);
        injected_delay();
    });
    check_agreement(&buf, &reference, "fft_pruned_inverse", "dense inverse", n)?;
    Ok(sample.with_extra("n", n as f64).with_extra("p", p as f64))
}

/// The pruned real forward ([`Fft2d::forward_real_cropped_with`]): crop to
/// the `P x P` kernel support fused into the column pass, so only the
/// retained band of rows is ever column-transformed. Cross-checked against
/// the dense complex forward followed by a centered crop.
pub fn pruned_forward(cfg: &MeasureConfig) -> Result<Sample, PerfError> {
    let (n, p) = sizes(cfg);
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

/// The batched pruned inverse ([`Fft2d::inverse_padded_batch_with`]): the
/// SOCS kernel sum's shape — every kernel spectrum through one shared
/// twist cache and scratch arena, results streamed to a callback.
/// Cross-checked against sequential pruned inverses.
pub fn batch_inverse(cfg: &MeasureConfig) -> Result<Sample, PerfError> {
    let (n, p) = sizes(cfg);
    let k = batch_len(cfg);
    let fft = Fft2d::new(n, n);
    let mut scratch = Fft2dScratch::new();
    let specs: Vec<Vec<Complex64>> =
        (0..k).map(|i| random_spec_seeded(p, 0x5EED_F00D ^ (i as u64 + 1))).collect();
    let spec_refs: Vec<&[Complex64]> = specs.iter().map(|v| v.as_slice()).collect();

    let mut reference = vec![Complex64::ZERO; k * n * n];
    for (i, spec) in specs.iter().enumerate() {
        let mut buf = vec![Complex64::ZERO; n * n];
        fft.inverse_padded_with(spec, p, &mut buf, &mut scratch);
        reference[i * n * n..(i + 1) * n * n].copy_from_slice(&buf);
    }

    let mut got = vec![Complex64::ZERO; k * n * n];
    let sample = measure(cfg, || {
        fft.inverse_padded_batch_with(
            &spec_refs,
            p,
            |i, z| got[i * n * n..(i + 1) * n * n].copy_from_slice(z),
            &mut scratch,
        );
    });
    check_agreement(&got, &reference, "fft_batch_inverse", "sequential pruned inverse", n)?;
    Ok(sample
        .with_extra("n", n as f64)
        .with_extra("p", p as f64)
        .with_extra("batch", k as f64))
}
