// Gated behind `slow-tests`: proptest comes from the registry, which the
// hermetic tier-1 build never touches. To run these, restore the `proptest`
// dev-dependency in Cargo.toml and pass `--features slow-tests`.
#![cfg(feature = "slow-tests")]

//! Property-based tests for the FFT substrate.

use ilt_fft::{
    crop_centered, fftshift, ifftshift, pad_centered, Complex64, Direction, Fft2d,
    FftPlan,
};
use proptest::prelude::*;

fn complex_vec(len: usize) -> impl Strategy<Value = Vec<Complex64>> {
    proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), len)
        .prop_map(|v| v.into_iter().map(|(re, im)| Complex64::new(re, im)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ifft(fft(x)) == x for every power-of-two size up to 256.
    #[test]
    fn fft_roundtrip(bits in 1usize..=8, seed in proptest::num::u64::ANY) {
        let n = 1usize << bits;
        let mut rng_state = seed;
        let mut next = move || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((rng_state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let input: Vec<Complex64> = (0..n).map(|_| Complex64::new(next(), next())).collect();
        let mut data = input.clone();
        FftPlan::new(n, Direction::Forward).process(&mut data);
        FftPlan::new(n, Direction::Inverse).process(&mut data);
        for (a, b) in data.iter().zip(&input) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    /// FFT is linear: fft(a*x + y) == a*fft(x) + fft(y).
    #[test]
    fn fft_linearity(x in complex_vec(64), y in complex_vec(64), a in -10.0f64..10.0) {
        let plan = FftPlan::new(64, Direction::Forward);
        let mut combo: Vec<Complex64> =
            x.iter().zip(&y).map(|(&xv, &yv)| xv.scale(a) + yv).collect();
        plan.process(&mut combo);
        let mut fx = x;
        plan.process(&mut fx);
        let mut fy = y;
        plan.process(&mut fy);
        for i in 0..64 {
            prop_assert!((combo[i] - (fx[i].scale(a) + fy[i])).abs() < 1e-7);
        }
    }

    /// Parseval for the 2-D transform.
    #[test]
    fn fft2_parseval(data in complex_vec(16 * 16)) {
        let spatial: f64 = data.iter().map(|z| z.norm_sqr()).sum();
        let mut spec = data;
        Fft2d::new(16, 16).forward(&mut spec);
        let freq: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / 256.0;
        prop_assert!((spatial - freq).abs() <= 1e-7 * spatial.max(1.0));
    }

    /// crop is a left inverse of pad for any p <= n (powers of two not required for p).
    #[test]
    fn crop_inverts_pad(p in 1usize..=16, data_seed in proptest::num::u32::ANY) {
        let n = 16usize;
        let small: Vec<Complex64> = (0..p * p)
            .map(|i| {
                let v = (i as u32).wrapping_mul(2654435761).wrapping_add(data_seed);
                Complex64::new((v & 0xffff) as f64, (v >> 16) as f64)
            })
            .collect();
        let padded = pad_centered(&small, p, n);
        let back = crop_centered(&padded, n, p);
        prop_assert_eq!(back, small);
    }

    /// Real-input spectra are conjugate-symmetric: X[-k] = conj(X[k]).
    #[test]
    fn real_input_conjugate_symmetry(img in proptest::collection::vec(-10.0f64..10.0, 64)) {
        let n = 8usize;
        let mut spec: Vec<Complex64> = img.iter().map(|&x| Complex64::from_real(x)).collect();
        Fft2d::new(n, n).forward(&mut spec);
        for r in 0..n {
            for c in 0..n {
                let mr = (n - r) % n;
                let mc = (n - c) % n;
                let a = spec[r * n + c];
                let b = spec[mr * n + mc].conj();
                prop_assert!((a - b).abs() < 1e-8);
            }
        }
    }

    /// fftshift and ifftshift are mutually inverse for all sizes.
    #[test]
    fn shift_roundtrip(n in 1usize..=12, seed in proptest::num::u32::ANY) {
        let data: Vec<Complex64> = (0..n * n)
            .map(|i| {
                let v = (i as u32).wrapping_mul(40503).wrapping_add(seed);
                Complex64::new(v as f64, -(v as f64))
            })
            .collect();
        prop_assert_eq!(ifftshift(&fftshift(&data, n), n), data.clone());
        prop_assert_eq!(fftshift(&ifftshift(&data, n), n), data);
    }
}
