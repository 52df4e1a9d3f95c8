//! Property tests for the FFT substrate: each property runs over `CASES`
//! inputs drawn from a seeded `Xorshift64Star`, so a failure replays from
//! its case number.

use ilt_fft::{
    crop_centered, pad_centered, Complex64, Direction, Fft2d, Fft2dScratch, FftPlan,
};
use ilt_layouts::Xorshift64Star;

const CASES: u64 = 64;

/// Uniform in `[lo, hi)`, from the generator's top 53 bits.
fn uniform(rng: &mut Xorshift64Star, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * ((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
}

fn complex_vec(rng: &mut Xorshift64Star, len: usize, bound: f64) -> Vec<Complex64> {
    (0..len).map(|_| Complex64::new(uniform(rng, -bound, bound), uniform(rng, -bound, bound))).collect()
}

/// ifft(fft(x)) == x for every power-of-two size up to 256.
#[test]
fn fft_roundtrip() {
    let mut rng = Xorshift64Star::new(1);
    for case in 0..CASES {
        let n = 1usize << rng.gen_range_u32(1, 8);
        let input = complex_vec(&mut rng, n, 1.0);
        let mut data = input.clone();
        FftPlan::new(n, Direction::Forward).process(&mut data, 1);
        FftPlan::new(n, Direction::Inverse).process(&mut data, 1);
        for (a, b) in data.iter().zip(&input) {
            assert!((*a - *b).abs() < 1e-9, "case {case}, n = {n}");
        }
    }
}

/// FFT is linear: fft(a*x + y) == a*fft(x) + fft(y).
#[test]
fn fft_linearity() {
    let mut rng = Xorshift64Star::new(2);
    let plan = FftPlan::new(64, Direction::Forward);
    for case in 0..CASES {
        let (x, y) = (complex_vec(&mut rng, 64, 100.0), complex_vec(&mut rng, 64, 100.0));
        let a = uniform(&mut rng, -10.0, 10.0);
        let mut combo: Vec<Complex64> =
            x.iter().zip(&y).map(|(&xv, &yv)| xv.scale(a) + yv).collect();
        plan.process(&mut combo, 1);
        let (mut fx, mut fy) = (x, y);
        plan.process(&mut fx, 1);
        plan.process(&mut fy, 1);
        for i in 0..64 {
            assert!((combo[i] - (fx[i].scale(a) + fy[i])).abs() < 1e-7, "case {case}, bin {i}");
        }
    }
}

/// Parseval for the 2-D transform.
#[test]
fn fft2_parseval() {
    let mut rng = Xorshift64Star::new(3);
    for case in 0..CASES {
        let mut spec = complex_vec(&mut rng, 16 * 16, 100.0);
        let spatial: f64 = spec.iter().map(|z| z.norm_sqr()).sum();
        Fft2d::new(16, 16).forward_with(&mut spec, &mut Fft2dScratch::new());
        let freq: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / 256.0;
        assert!((spatial - freq).abs() <= 1e-7 * spatial.max(1.0), "case {case}");
    }
}

/// crop is a left inverse of pad for any p <= n (powers of two not required for p).
#[test]
fn crop_inverts_pad() {
    let mut rng = Xorshift64Star::new(4);
    let n = 16usize;
    for case in 0..CASES {
        let p = rng.gen_range_u32(1, 16) as usize;
        let small = complex_vec(&mut rng, p * p, 65536.0);
        let padded = pad_centered(&small, p, n);
        assert_eq!(crop_centered(&padded, n, p), small, "case {case}, p = {p}");
    }
}

/// Real-input spectra are conjugate-symmetric: X[-k] = conj(X[k]).
#[test]
fn real_input_conjugate_symmetry() {
    let mut rng = Xorshift64Star::new(5);
    let n = 8usize;
    for case in 0..CASES {
        let mut spec: Vec<Complex64> =
            (0..n * n).map(|_| Complex64::from_real(uniform(&mut rng, -10.0, 10.0))).collect();
        Fft2d::new(n, n).forward_with(&mut spec, &mut Fft2dScratch::new());
        for r in 0..n {
            for c in 0..n {
                let mirrored = spec[((n - r) % n) * n + (n - c) % n].conj();
                assert!((spec[r * n + c] - mirrored).abs() < 1e-8, "case {case}, ({r}, {c})");
            }
        }
    }
}

