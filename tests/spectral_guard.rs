//! End-to-end guard for the pruned, band-limited spectral engine.
//!
//! The simulator's hot path runs a real-input forward FFT of the mask, a
//! pruned padded inverse per kernel on the intensity's `Q`-point sample grid
//! and one interpolation back to the mask's pixels; its adjoint runs on the
//! same grid. This test re-derives the aerial image and its vector-Jacobian
//! product through the textbook dense path — complex forward transform,
//! explicit `pad_centered_into`, full mask-sized inverse per kernel — and
//! asserts the production pipeline matches to near machine precision at
//! every `(m, P -> Q)` class the optimizer runs, so the printed masks the
//! rest of the repo reasons about are bit-for-bit unchanged by the
//! optimization.

use multilevel_ilt::fft::{crop_centered, pad_centered_into, Complex64, Fft2d, Fft2dScratch};
use multilevel_ilt::layouts::Xorshift64Star;
use multilevel_ilt::prelude::*;

fn sim(grid: usize) -> LithoSimulator {
    let cfg = OpticsConfig {
        grid,
        nm_per_px: 4.0,
        num_kernels: 6,
        ..OpticsConfig::default()
    };
    LithoSimulator::new(cfg).expect("valid optics")
}

fn test_mask(n: usize) -> Field2D {
    // A via plus an L-bar: asymmetric on purpose so any index-convention
    // slip in the pruned path shows up as a shifted image.
    Field2D::from_fn(n, n, |r, c| {
        let via = (n / 5..n / 5 + n / 8).contains(&r) && (n / 2..n / 2 + n / 8).contains(&c);
        let bar = (n / 2..n * 3 / 4).contains(&r) && (n / 4..n / 4 + n / 16).contains(&c)
            || (n * 3 / 4 - n / 16..n * 3 / 4).contains(&r) && (n / 4..n * 5 / 8).contains(&c);
        if via || bar {
            1.0
        } else {
            0.0
        }
    })
}

/// Dense coherent fields `z_k = C_k M`, one mask-sized buffer per kernel:
/// no pruning, no real-input packing, no sample grid. Deliberately naive.
fn dense_fields(sim: &LithoSimulator, mask: &Field2D, defocus: bool) -> Vec<Vec<Complex64>> {
    let (m, _) = mask.shape();
    let kernels = sim.kernels(defocus);
    let p = kernels.p();
    let fft = Fft2d::new(m, m);
    let mut scratch = Fft2dScratch::new();

    let mut spec: Vec<Complex64> =
        mask.as_slice().iter().map(|&x| Complex64::from_real(x)).collect();
    fft.forward_with(&mut spec, &mut scratch);
    let low = crop_centered(&spec, m, p);

    (0..kernels.num_kernels())
        .map(|k| {
            let sk: Vec<Complex64> =
                kernels.spectrum(k).iter().zip(&low).map(|(&h, &f)| h * f).collect();
            let mut buf = vec![Complex64::ZERO; m * m];
            pad_centered_into(&sk, p, &mut buf, m);
            fft.inverse_with(&mut buf, &mut scratch);
            buf
        })
        .collect()
}

/// Dense reference aerial image: Eq. 3 over [`dense_fields`].
fn dense_aerial(sim: &LithoSimulator, mask: &Field2D, defocus: bool) -> Field2D {
    let (m, _) = mask.shape();
    let weights = sim.kernels(defocus).weights();
    let mut intensity = vec![0.0; m * m];
    for (z, &w) in dense_fields(sim, mask, defocus).iter().zip(weights) {
        for (acc, z) in intensity.iter_mut().zip(z) {
            *acc += w * z.norm_sqr();
        }
    }
    Field2D::from_vec(m, m, intensity)
}

/// Dense reference adjoint: `sum_k 2 w_k Re[C_k^H (g . z_k)]` with every
/// `C_k^H` a full forward, a crop, a pad and a full inverse of its own.
fn dense_vjp(sim: &LithoSimulator, mask: &Field2D, g: &Field2D, defocus: bool) -> Field2D {
    let (m, _) = mask.shape();
    let kernels = sim.kernels(defocus);
    let p = kernels.p();
    let fft = Fft2d::new(m, m);
    let mut scratch = Fft2dScratch::new();

    let mut grad = vec![0.0; m * m];
    let mut buf = vec![Complex64::ZERO; m * m];
    for (k, z) in dense_fields(sim, mask, defocus).iter().enumerate() {
        let mut u: Vec<Complex64> =
            z.iter().zip(g.as_slice()).map(|(z, &gi)| z.scale(gi)).collect();
        fft.forward_with(&mut u, &mut scratch);
        let scale = 2.0 * kernels.weights()[k];
        let back: Vec<Complex64> = kernels
            .spectrum(k)
            .iter()
            .zip(crop_centered(&u, m, p))
            .map(|(&h, c)| (h.conj() * c).scale(scale))
            .collect();
        pad_centered_into(&back, p, &mut buf, m);
        fft.inverse_with(&mut buf, &mut scratch);
        for (acc, b) in grad.iter_mut().zip(&buf) {
            *acc += b.re;
        }
    }
    Field2D::from_vec(m, m, grad)
}

/// One `(m, P -> Q)` class of Hopkins evaluation the optimizer runs.
struct Class {
    grid: usize,
    nm_per_px: f64,
    kernel_size: Option<usize>,
    p: usize,
    q: usize,
}

const CLASSES: [Class; 4] = [
    // Q < m by a large ratio: the paper-scale block on a high-res stage.
    Class { grid: 512, nm_per_px: 4.0, kernel_size: None, p: 57, q: 128 },
    // Q < m by one octave.
    Class { grid: 256, nm_per_px: 4.0, kernel_size: None, p: 29, q: 64 },
    // Q = m: nothing to resample (64-px tiles, low-res stages, smoke grids).
    Class { grid: 64, nm_per_px: 16.0, kernel_size: None, p: 29, q: 64 },
    // 2P - 1 = 65 just above a power of two: Q doubles, nothing aliases.
    Class { grid: 256, nm_per_px: 4.0, kernel_size: Some(33), p: 33, q: 128 },
];

impl Class {
    fn sim(&self) -> LithoSimulator {
        let cfg = OpticsConfig {
            grid: self.grid,
            nm_per_px: self.nm_per_px,
            num_kernels: 4,
            kernel_size: self.kernel_size,
            ..OpticsConfig::default()
        };
        let sim = LithoSimulator::new(cfg).expect("valid optics");
        assert_eq!(sim.kernels(false).p(), self.p, "grid {}: kernel block", self.grid);
        assert_eq!(sim.sample_grid(self.grid), self.q, "grid {}: sample grid", self.grid);
        sim
    }
}

/// Full-band noise in `[-1, 1)`: a smooth `g` would not exercise the
/// `2P - 1` crop the adjoint applies to it.
fn noise(n: usize, seed: u64) -> Field2D {
    let mut rng = Xorshift64Star::new(seed);
    Field2D::from_fn(n, n, |_, _| (rng.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0)
}

/// Max-norm distance over the field, relative to the reference's max.
fn rel_err(got: &Field2D, want: &Field2D) -> f64 {
    let scale = want.as_slice().iter().fold(0.0, |m: f64, v| m.max(v.abs()));
    let worst = got
        .as_slice()
        .iter()
        .zip(want.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    worst / scale
}

#[test]
fn forward_pair_and_adjoint_match_the_dense_reference_at_every_class() {
    for class in &CLASSES {
        let (sim, m) = (class.sim(), class.grid);
        let mask = test_mask(m);
        let g = noise(m, 0x5eed + m as u64);
        let pair = sim.aerial_pair(&mask);
        for defocus in [false, true] {
            let tag = format!("grid {m}, P {}, Q {}, defocus {defocus}", class.p, class.q);
            let (fast, cache) = sim.aerial_with_cache(&mask, defocus);
            let dense = dense_aerial(&sim, &mask, defocus);
            let err = rel_err(&fast, &dense);
            assert!(err <= 1e-10, "{tag}: aerial off by {err:e}");
            let err = rel_err(if defocus { &pair.1 } else { &pair.0 }, &dense);
            assert!(err <= 1e-10, "{tag}: aerial_pair off by {err:e}");
            assert!(fast.min() >= 0.0, "{tag}: negative intensity {:e}", fast.min());
            let err = rel_err(&sim.aerial_vjp(&cache, &g), &dense_vjp(&sim, &mask, &g, defocus));
            assert!(err <= 1e-10, "{tag}: aerial_vjp off by {err:e}");
        }
    }
}

/// Every `stride`-th sample of an `m x m` buffer, scaled.
fn subsample(data: &[Complex64], m: usize, stride: usize, scale: f64) -> Vec<Complex64> {
    let q = m / stride;
    (0..q * q).map(|i| data[(i / q) * stride * m + (i % q) * stride].scale(scale)).collect()
}

/// The adjoint's per-kernel product `g_Q . z_k` has band radius `3(P-1)/2`,
/// more than the sample grid holds, so it aliases — but only onto
/// frequencies outside the `P x P` block the adjoint keeps, because
/// `2(P - 1) < Q`. Shrinking `Q` below that bound fails the first assertion;
/// the second shows the grid is not larger than it has to be.
#[test]
fn sample_grid_aliasing_stays_outside_the_kept_block() {
    for class in CLASSES.iter().filter(|c| c.q < c.grid) {
        let (sim, m, p) = (class.sim(), class.grid, class.p);
        let q = sim.sample_grid(m);
        assert!(2 * (p - 1) < q, "grid {m}: Q {q} cannot hold the P = {p} adjoint");
        let (fft_m, fft_q) = (Fft2d::new(m, m), Fft2d::new(q, q));
        let mut scratch = Fft2dScratch::new();

        // g_b: g band-limited to the (2P - 1)^2 block that can reach C_k^H.
        let g = noise(m, 0xa11a5 + m as u64);
        let mut spec: Vec<Complex64> =
            g.as_slice().iter().map(|&x| Complex64::from_real(x)).collect();
        fft_m.forward_with(&mut spec, &mut scratch);
        let mut g_b = vec![Complex64::ZERO; m * m];
        pad_centered_into(&crop_centered(&spec, m, 2 * p - 1), 2 * p - 1, &mut g_b, m);
        fft_m.inverse_with(&mut g_b, &mut scratch);
        // g_Q = (m/Q)^2 g_b on the sample grid (what the simulator builds).
        let stride = m / q;
        let g_q = subsample(&g_b, m, stride, (stride * stride) as f64);

        let z = &dense_fields(&sim, &test_mask(m), false)[0];
        let mut at_m: Vec<Complex64> = z.iter().zip(&g_b).map(|(&z, g)| z.scale(g.re)).collect();
        fft_m.forward_with(&mut at_m, &mut scratch);
        let mut at_q: Vec<Complex64> =
            subsample(z, m, stride, 1.0).iter().zip(&g_q).map(|(&z, g)| z.scale(g.re)).collect();
        fft_q.forward_with(&mut at_q, &mut scratch);

        let scale = at_m.iter().fold(0.0, |s: f64, v| s.max(v.abs()));
        let (kept_m, kept_q) = (crop_centered(&at_m, m, p), crop_centered(&at_q, q, p));
        let kept = kept_m.iter().zip(&kept_q).map(|(&a, &b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(kept / scale <= 1e-10, "grid {m}: kept block aliased by {:e}", kept / scale);

        // Same frequencies, whole Q x Q band: outside the block they differ
        // wherever the product's band (radius 3(P-1)/2) exceeds Q/2.
        let band_m = crop_centered(&at_m, m, q - 1);
        let band_q = crop_centered(&at_q, q, q - 1);
        let all = band_m.iter().zip(&band_q).map(|(&a, &b)| (a - b).abs()).fold(0.0, f64::max);
        if 3 * (p - 1) / 2 > q / 2 {
            assert!(all / scale > 1e-3, "grid {m}: no aliasing at all ({:e})", all / scale);
        } else {
            assert!(all / scale <= 1e-10, "grid {m}: unexpected aliasing ({:e})", all / scale);
        }
    }
}

#[test]
fn pruned_aerial_matches_dense_reference() {
    let sim = sim(128);
    let mask = test_mask(128);
    for defocus in [false, true] {
        let fast = sim.aerial(&mask, defocus);
        let dense = dense_aerial(&sim, &mask, defocus);
        let worst = fast
            .as_slice()
            .iter()
            .zip(dense.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(worst <= 1e-12, "defocus={defocus}: aerial diverged by {worst:e}");
    }
}

#[test]
fn printed_masks_are_unchanged_by_the_pruned_engine() {
    let sim = sim(128);
    let mask = test_mask(128);
    for cond in [
        ProcessCondition::nominal(),
        ProcessCondition::inner(),
        ProcessCondition::outer(),
    ] {
        let fast = sim.print(&mask, cond);
        let reference =
            sim.resist_hard(&dense_aerial(&sim, &mask, cond.defocus), cond.dose);
        assert_eq!(
            fast.as_slice(),
            reference.as_slice(),
            "print differs from the dense reference under {cond:?}"
        );
    }
}
