//! Property invariants of the lithography engine on random rectangle
//! masks: physical sanity (non-negativity, bounds, monotone dose),
//! multi-resolution consistency (Eq. 7 exactness), and adjoint correctness
//! of the Hopkins VJP. Each property runs over `CASES` masks drawn from a
//! seeded `Xorshift64Star`, so a failure replays from its case number.

use ilt_field::Field2D;
use ilt_layouts::Xorshift64Star;
use ilt_optics::{LithoSimulator, OpticsConfig, SourceSpec};

const CASES: u64 = 16;

fn sim() -> LithoSimulator {
    let cfg = OpticsConfig {
        grid: 64,
        nm_per_px: 8.0,
        num_kernels: 4,
        source: SourceSpec::Annular { sigma_in: 0.5, sigma_out: 0.9 },
        defocus_nm: 60.0,
        ..OpticsConfig::default()
    };
    LithoSimulator::new(cfg).expect("valid config")
}

/// Uniform integer in `lo..hi`.
fn below(rng: &mut Xorshift64Star, lo: usize, hi: usize) -> usize {
    rng.gen_range_u32(lo as u32, hi as u32 - 1) as usize
}

/// Uniform in `[lo, hi)`, from the generator's top 53 bits.
fn uniform(rng: &mut Xorshift64Star, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * ((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
}

/// One to four rectangles on a 64-px clip.
fn random_rect_mask(rng: &mut Xorshift64Star) -> Field2D {
    let mut f = Field2D::zeros(64, 64);
    for _ in 0..below(rng, 1, 5) {
        let (r0, c0) = (below(rng, 0, 48), below(rng, 0, 48));
        let (h, w) = (below(rng, 4, 24), below(rng, 4, 24));
        for r in r0..(r0 + h).min(64) {
            for c in c0..(c0 + w).min(64) {
                f[(r, c)] = 1.0;
            }
        }
    }
    f
}

/// Aerial intensity is non-negative, finite, and bounded by the open frame
/// (transmission <= 1 everywhere implies I <= ~1 plus ringing).
#[test]
fn intensity_is_physical() {
    let (sim, mut rng) = (sim(), Xorshift64Star::new(1));
    for case in 0..CASES {
        let i = sim.aerial(&random_rect_mask(&mut rng), case % 2 == 1);
        assert!(i.min() >= 0.0, "case {case}");
        assert!(i.max() <= 1.5, "case {case}: intensity {} beyond plausible ringing", i.max());
        assert!(i.as_slice().iter().all(|v| v.is_finite()), "case {case}");
    }
}

/// An empty mask produces exactly zero intensity.
#[test]
fn dark_field_is_dark() {
    let sim = sim();
    for defocus in [false, true] {
        assert!(sim.aerial(&Field2D::zeros(64, 64), defocus).max() < 1e-12);
    }
}

/// Dose monotonicity: higher dose prints a superset of pixels.
#[test]
fn dose_monotonicity() {
    let (sim, mut rng) = (sim(), Xorshift64Star::new(2));
    for case in 0..CASES {
        let i = sim.aerial(&random_rect_mask(&mut rng), false);
        let (lo, hi) = (sim.resist_hard(&i, 0.95), sim.resist_hard(&i, 1.05));
        assert!(lo.as_slice().iter().zip(hi.as_slice()).all(|(a, b)| b >= a), "case {case}");
    }
}

/// Process corners are ordered by area for any mask. Inner can locally
/// exceed nominal through defocus ringing, but the dose-only pair is
/// strictly ordered.
#[test]
fn corner_area_ordering() {
    let (sim, mut rng) = (sim(), Xorshift64Star::new(7));
    for case in 0..CASES {
        let corners = sim.print_corners(&random_rect_mask(&mut rng));
        assert!(corners.nominal.count_on() <= corners.outer.count_on(), "case {case}");
    }
}

/// Eq. 7 subsampling equals the full simulation at the sample points.
#[test]
fn eq7_exact_subsampling() {
    let (sim, mut rng) = (sim(), Xorshift64Star::new(3));
    for case in 0..CASES {
        let mask = random_rect_mask(&mut rng);
        let full = sim.aerial(&mask, false);
        let sub = sim.aerial_subsampled(&mask, 2, false);
        for r in 0..32 {
            for c in 0..32 {
                assert!((full[(r * 2, c * 2)] - sub[(r, c)]).abs() < 1e-9, "case {case}, ({r}, {c})");
            }
        }
    }
}

/// The VJP is the true adjoint: <J v, w> == <v, J^T w> tested through
/// directional derivatives (Jv via central differencing).
#[test]
fn vjp_is_adjoint() {
    let (sim, mut rng) = (sim(), Xorshift64Star::new(4));
    for case in 0..CASES {
        let m0 = random_rect_mask(&mut rng).map(|v| 0.2 + 0.6 * v); // interior point, not binary
        let (_, cache) = sim.aerial_with_cache(&m0, false);
        let v = Field2D::from_vec(64, 64, (0..64 * 64).map(|_| uniform(&mut rng, -0.5, 0.5)).collect());
        let w = Field2D::from_vec(64, 64, (0..64 * 64).map(|_| uniform(&mut rng, -0.5, 0.5)).collect());

        let eps = 1e-5;
        let ip = sim.aerial(&m0.zip_map(&v, |m, d| m + eps * d), false);
        let im = sim.aerial(&m0.zip_map(&v, |m, d| m - eps * d), false);
        let jv_dot_w: f64 = ip.zip_map(&im, |a, b| (a - b) / (2.0 * eps)).hadamard(&w).sum();
        let v_dot_jtw = v.hadamard(&sim.aerial_vjp(&cache, &w)).sum();

        let scale = jv_dot_w.abs().max(v_dot_jtw.abs()).max(1.0);
        assert!(
            (jv_dot_w - v_dot_jtw).abs() < 1e-4 * scale,
            "case {case}: adjoint identity violated: {jv_dot_w} vs {v_dot_jtw}"
        );
    }
}

/// Linearity of the underlying amplitude model: scaling the mask by c
/// scales intensity by c^2.
#[test]
fn intensity_is_quadratic_in_mask() {
    let (sim, mut rng) = (sim(), Xorshift64Star::new(5));
    for case in 0..CASES {
        let (mask, c) = (random_rect_mask(&mut rng), uniform(&mut rng, 0.1, 2.0));
        let i1 = sim.aerial(&mask, false);
        let i2 = sim.aerial(&mask.scale(c), false);
        for (a, b) in i1.as_slice().iter().zip(i2.as_slice()) {
            assert!((b - c * c * a).abs() < 1e-9 * (1.0 + a.abs()), "case {case}, c = {c}");
        }
    }
}

/// Shift covariance: translating the mask translates the aerial image
/// (circularly), because the imaging system is space-invariant.
#[test]
fn shift_covariance() {
    let (sim, mut rng) = (sim(), Xorshift64Star::new(6));
    for case in 0..CASES {
        let mask = random_rect_mask(&mut rng);
        let (dr, dc) = (below(&mut rng, 0, 8), below(&mut rng, 0, 8));
        let shift = |f: &Field2D| {
            Field2D::from_fn(64, 64, |r, c| f[((r + 64 - dr) % 64, (c + 64 - dc) % 64)])
        };
        let moved = sim.aerial(&shift(&mask), false);
        let want = shift(&sim.aerial(&mask, false));
        for (a, b) in moved.as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() < 1e-9, "case {case}, shift ({dr}, {dc})");
        }
    }
}
