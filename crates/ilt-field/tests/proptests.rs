//! Property tests for field operators: each property runs over `CASES`
//! inputs drawn from a seeded `Xorshift64Star`, so a failure replays from
//! its case number.

use ilt_field::{avg_pool_down, avg_pool_same, upsample_nearest, Field2D};
use ilt_layouts::Xorshift64Star;

const CASES: u64 = 64;

/// Uniform in `[lo, hi)`, from the generator's top 53 bits.
fn uniform(rng: &mut Xorshift64Star, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * ((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
}

fn field(rng: &mut Xorshift64Star, rows: usize, cols: usize) -> Field2D {
    Field2D::from_fn(rows, cols, |_, _| uniform(rng, -10.0, 10.0))
}

/// One of `choices`, uniformly.
fn pick(rng: &mut Xorshift64Star, choices: &[usize]) -> usize {
    choices[rng.gen_range_u32(0, choices.len() as u32 - 1) as usize]
}

/// Downsampling preserves the global mean exactly.
#[test]
fn pool_down_preserves_mean() {
    let mut rng = Xorshift64Star::new(1);
    for case in 0..CASES {
        let (f, s) = (field(&mut rng, 8, 8), pick(&mut rng, &[1, 2, 4, 8]));
        assert!((avg_pool_down(&f, s).mean() - f.mean()).abs() < 1e-10, "case {case}, s = {s}");
    }
}

/// pool(upsample(f, s), s) == f for any field and factor.
#[test]
fn pool_inverts_upsample() {
    let mut rng = Xorshift64Star::new(2);
    for case in 0..CASES {
        let (f, s) = (field(&mut rng, 6, 4), pick(&mut rng, &[1, 2, 3, 4]));
        let back = avg_pool_down(&upsample_nearest(&f, s), s);
        for (a, b) in back.as_slice().iter().zip(f.as_slice()) {
            assert!((a - b).abs() < 1e-10, "case {case}, s = {s}");
        }
    }
}

/// Smoothing cannot expand the value range (zero padding can only pull
/// toward zero, which we account for by extending the range with 0).
#[test]
fn smoothing_is_range_bounded() {
    let mut rng = Xorshift64Star::new(3);
    for case in 0..CASES {
        let (f, n) = (field(&mut rng, 8, 8), pick(&mut rng, &[1, 3, 5]));
        let (lo, hi) = (f.min().min(0.0) - 1e-12, f.max().max(0.0) + 1e-12);
        for &v in avg_pool_same(&f, n).as_slice() {
            assert!(v >= lo && v <= hi, "case {case}, n = {n}: {v} outside [{lo}, {hi}]");
        }
    }
}

/// Smoothing preserves the sum of interior-heavy fields exactly when the
/// border is zero (every window sum is complete).
#[test]
fn smoothing_preserves_sum_with_zero_border() {
    let mut rng = Xorshift64Star::new(4);
    for case in 0..CASES {
        let mut f = Field2D::zeros(10, 10);
        f.paste(&field(&mut rng, 6, 6), 2, 2);
        assert!((avg_pool_same(&f, 3).sum() - f.sum()).abs() < 1e-9, "case {case}");
    }
}

/// Thresholding is idempotent.
#[test]
fn threshold_idempotent() {
    let mut rng = Xorshift64Star::new(6);
    for case in 0..CASES {
        let b = field(&mut rng, 6, 6).threshold(uniform(&mut rng, -5.0, 5.0));
        assert_eq!(b.threshold(0.5), b, "case {case}");
        assert!(b.as_slice().iter().all(|&v| v == 0.0 || v == 1.0), "case {case}");
    }
}

/// XOR count is symmetric and zero against self.
#[test]
fn xor_symmetry() {
    let mut rng = Xorshift64Star::new(7);
    for case in 0..CASES {
        let (a, b) = (field(&mut rng, 5, 5), field(&mut rng, 5, 5));
        assert_eq!(a.xor_count(&b), b.xor_count(&a), "case {case}");
        assert_eq!(a.xor_count(&a), 0, "case {case}");
    }
}

/// crop is a partial inverse of paste.
#[test]
fn crop_inverts_paste() {
    let mut rng = Xorshift64Star::new(8);
    for case in 0..CASES {
        let inner = field(&mut rng, 3, 4);
        let (r0, c0) = (pick(&mut rng, &[0, 1, 2, 3, 4]), pick(&mut rng, &[0, 1, 2, 3]));
        let mut big = Field2D::zeros(8, 8);
        big.paste(&inner, r0, c0);
        assert_eq!(big.crop(r0, c0, 3, 4), inner, "case {case}, at ({r0}, {c0})");
    }
}
