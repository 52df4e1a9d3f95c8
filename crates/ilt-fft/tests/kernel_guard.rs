//! Guard for the rebuilt spectral kernels: the radix-4 plan, the SIMD
//! butterflies, the pruned (crop-fused) forward, the batched 2-D paths and
//! the block primitives the SOCS kernel build sums on are all pinned here
//! against dense scalar references through the public API, across sizes
//! 8..=1024 and kernel supports P in {1, 7, 25, N}.
//!
//! Three kinds of pin. Paths that re-associate the arithmetic (pruned
//! transforms compute the same spectrum through a different factorization)
//! are held to 1e-12 relative to the reference scale. Paths that promise
//! the *same* arithmetic (SIMD vs. scalar, batch vs. sequential) are held
//! to bit identity via `to_bits` — no tolerance at all. And the four
//! pruned paths' outputs are held to recorded hashes of their bits, so a
//! restructuring that means to move no bit (where a permutation or a
//! `1/len` is applied) is checked for exactly that.

use ilt_fft::{
    axpys, conj_dots, crop_centered, pad_centered_into, sub_axpys, Complex64, Direction, Fft2d,
    Fft2dScratch, FftPlan,
};

/// xorshift64* — deterministic fixtures without pulling in another crate.
struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        let bits = self.0.wrapping_mul(0x2545_F491_4F6C_DD1D);
        (bits >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }

    fn complex_buf(&mut self, len: usize) -> Vec<Complex64> {
        (0..len).map(|_| Complex64::new(self.next_f64(), self.next_f64())).collect()
    }

    fn real_buf(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.next_f64()).collect()
    }
}

/// O(n^2) textbook DFT: the ground truth no factorization shares.
fn naive_dft(data: &[Complex64], direction: Direction) -> Vec<Complex64> {
    let n = data.len();
    let sign = direction.sign();
    let mut out = vec![Complex64::ZERO; n];
    for (k, slot) in out.iter_mut().enumerate() {
        let mut acc = Complex64::ZERO;
        for (j, &x) in data.iter().enumerate() {
            let angle = sign * std::f64::consts::TAU * (k as f64) * (j as f64) / n as f64;
            acc = acc + x * Complex64::new(angle.cos(), angle.sin());
        }
        *slot = acc;
    }
    if direction == Direction::Inverse {
        let scale = 1.0 / n as f64;
        for z in &mut out {
            *z = z.scale(scale);
        }
    }
    out
}

fn assert_close(got: &[Complex64], want: &[Complex64], tol: f64, what: &str) {
    let scale = want.iter().map(|z| z.abs()).fold(1.0, f64::max);
    let worst = got.iter().zip(want).map(|(a, b)| (*a - *b).abs()).fold(0.0, f64::max);
    assert!(
        worst <= tol * scale,
        "{what}: |diff| {worst:e} exceeds {tol:e} * scale {scale:e}"
    );
}

fn assert_bits(got: &[Complex64], want: &[Complex64], what: &str) {
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert!(
            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
            "{what}: bit divergence at {i}: {a:?} vs {b:?}"
        );
    }
}

/// The supports the pruned paths are pinned at: degenerate (1), odd and
/// coprime with 4 (7), the production kernel support (25), and the
/// no-pruning edge P == N.
fn supports(n: usize) -> Vec<usize> {
    let mut ps: Vec<usize> = [1, 7, 25, n].into_iter().filter(|&p| p <= n).collect();
    ps.dedup();
    ps
}

#[test]
fn radix4_plan_matches_the_naive_dft() {
    // Both parities of log2(n) — odd hits the leading radix-2 pass.
    for bits in 3..=8 {
        let n = 1usize << bits;
        let mut rng = Rng(0x9E37_79B9 ^ n as u64);
        let input = rng.complex_buf(n);
        for direction in [Direction::Forward, Direction::Inverse] {
            let want = naive_dft(&input, direction);
            let mut got = input.clone();
            FftPlan::new(n, direction).process(&mut got, 1);
            // The naive sum's own rounding dominates this bound.
            assert_close(&got, &want, 1e-10, &format!("radix-4 {direction:?} n={n}"));
        }
    }
}

#[test]
fn simd_paths_are_bit_identical_to_scalar_through_1024() {
    for bits in 3..=10 {
        let n = 1usize << bits;
        let mut rng = Rng(0xDEAD_BEEF ^ n as u64);
        let input = rng.complex_buf(n);
        for direction in [Direction::Forward, Direction::Inverse] {
            let plan = FftPlan::new(n, direction);
            // A row: the AVX2 row kernels against the scalar column kernels
            // at width 1.
            let mut scalar = input.clone();
            plan.process_scalar(&mut scalar, 1);
            let mut fast = input.clone();
            plan.process(&mut fast, 1);
            assert_bits(&fast, &scalar, &format!("row {direction:?} n={n}"));

            // A panel: every column must get exactly the one-column
            // transform, whatever the width, on either kernel.
            for width in [1usize, 2, 5, 8] {
                let panel: Vec<Complex64> = rng.complex_buf(n * width);
                let mut want = panel.clone();
                for c in 0..width {
                    let mut col: Vec<Complex64> =
                        (0..n).map(|r| panel[r * width + c]).collect();
                    plan.process_scalar(&mut col, 1);
                    for (r, z) in col.into_iter().enumerate() {
                        want[r * width + c] = z;
                    }
                }
                let mut fast = panel.clone();
                plan.process(&mut fast, width);
                assert_bits(&fast, &want, &format!("process {direction:?} n={n} width={width}"));
                let mut scalar_cols = panel.clone();
                plan.process_scalar(&mut scalar_cols, width);
                assert_bits(
                    &scalar_cols,
                    &want,
                    &format!("process_scalar {direction:?} n={n} width={width}"),
                );
            }
        }
    }
}

#[test]
fn pruned_forward_matches_dense_crop_across_sizes_and_supports() {
    for n in [8usize, 16, 64, 256, 1024] {
        let fft = Fft2d::new(n, n);
        let mut scratch = Fft2dScratch::new();
        let mut rng = Rng(0x5EED ^ n as u64);
        let img = rng.real_buf(n * n);

        let mut dense: Vec<Complex64> =
            img.iter().map(|&x| Complex64::from_real(x)).collect();
        fft.forward_with(&mut dense, &mut scratch);

        for p in supports(n) {
            let want = crop_centered(&dense, n, p);
            let label = format!("n={n} p={p}");

            let complex_input: Vec<Complex64> =
                img.iter().map(|&x| Complex64::from_real(x)).collect();
            let mut got = vec![Complex64::ZERO; p * p];
            fft.forward_cropped_with(&complex_input, p, &mut got, &mut scratch);
            assert_close(&got, &want, 1e-12, &format!("forward_cropped {label}"));

            let mut got_real = vec![Complex64::ZERO; p * p];
            fft.forward_real_cropped_with(&img, p, &mut got_real, &mut scratch);
            assert_close(&got_real, &want, 1e-12, &format!("forward_real_cropped {label}"));
        }
    }
}

#[test]
fn pruned_inverse_matches_dense_pad_across_sizes_and_supports() {
    for n in [8usize, 16, 64, 256, 1024] {
        let fft = Fft2d::new(n, n);
        let mut scratch = Fft2dScratch::new();
        let mut rng = Rng(0xBADC_0FFE ^ n as u64);
        for p in supports(n) {
            let spec = rng.complex_buf(p * p);
            let mut want = vec![Complex64::ZERO; n * n];
            pad_centered_into(&spec, p, &mut want, n);
            fft.inverse_with(&mut want, &mut scratch);

            let mut got = vec![Complex64::ZERO; n * n];
            fft.inverse_padded_with(&spec, p, &mut got, &mut scratch);
            assert_close(&got, &want, 1e-12, &format!("inverse_padded n={n} p={p}"));
        }
    }
}

#[test]
fn real_pruned_inverse_is_the_real_part_of_the_dense_inverse() {
    // Odd supports only (a centered Hermitian block), up to p = n - 1 where
    // the q-grid is the whole column; the spectra are *not* Hermitian, so
    // this also pins that the routine takes the Hermitian part itself.
    for n in [2usize, 8, 16, 64, 256, 1024] {
        let fft = Fft2d::new(n, n);
        let mut scratch = Fft2dScratch::new();
        let mut rng = Rng(0x0DD5_EED5 ^ n as u64);
        for p in [1, 7, 25, 113, n - 1].into_iter().filter(|&p| p < n) {
            let spec = rng.complex_buf(p * p);
            let mut want = vec![Complex64::ZERO; n * n];
            pad_centered_into(&spec, p, &mut want, n);
            fft.inverse_with(&mut want, &mut scratch);
            let want: Vec<Complex64> = want.iter().map(|z| Complex64::from_real(z.re)).collect();

            let mut got = vec![0.0; n * n];
            fft.inverse_padded_real_with(&spec, p, &mut got, &mut Fft2dScratch::new());
            let got: Vec<Complex64> = got.iter().map(|&x| Complex64::from_real(x)).collect();
            assert_close(&got, &want, 1e-12, &format!("inverse_padded_real n={n} p={p}"));
        }
    }
}

/// FNV-1a over the bytes of every value's bits, continuing from `h`.
fn fnv_bits(mut h: u64, vals: impl IntoIterator<Item = f64>) -> u64 {
    for x in vals {
        for b in x.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// The supports the bit pins cover: the degenerate and small odd ones, and
/// every support a workload runs (25, 29, 57, 113) plus `q - 1` at `q = 128`.
const PIN_SUPPORTS: [usize; 9] = [1, 3, 5, 7, 25, 29, 57, 113, 127];

/// Per size, the FNV-1a of `[inverse_padded, inverse_padded_real,
/// forward_cropped, forward_real_cropped]` over every `p <= n` of
/// [`PIN_SUPPORTS`] in order, on the seeded inputs of [`pruned_pin_row`].
/// Recorded before the pruned paths folded their bit-reversal and `1/len`
/// passes into their loads and reads: a value that moves is a mask that
/// moves.
const PRUNED_PINS: [(usize, [u64; 4]); 11] = [
    (1, [0x6c1f8cfb078bd6f6, 0xce9e8864601337f7, 0x5197040929f6e261, 0x9e0e677dee2acaa3]),
    (2, [0xbbe3dd9d6689ebcd, 0x5f327a103fa9eda5, 0xc6b0a00a6e62c942, 0xef411eef73874884]),
    (4, [0x41a9f6366e494b27, 0x7cb3da577e1abce6, 0x62d7978070efd26b, 0x3567834fa8b6a67a]),
    (8, [0x39ccd215bd490d66, 0x2c56170c89fb42c3, 0x339e0a148dff57d4, 0xdaf5cfcbe03e784b]),
    (16, [0x8b8374b61f2ce743, 0x462b779805cc7c7f, 0xb0ee8d9ab7fa438b, 0x57e1cd20a1c00546]),
    (32, [0x1c6f545f89969757, 0x8fa185fda0379e4f, 0xa1da29beb8a78428, 0x36a3ee30eefe4543]),
    (64, [0x254cc22c001997ab, 0x167f669cbaf23ad7, 0x32ba44b3f59f7185, 0x6ca7c70bf52cf0f2]),
    (128, [0xf7c520d119206b63, 0xd56fc5f024005dc5, 0xd6ae72d9a1b14515, 0x3fc26efc33202bd7]),
    (256, [0x6ef6e7e4df1b2eef, 0x24e0e5204895cfa5, 0x7b13e1271bee4746, 0x2f0b55bd4c98c9a0]),
    (512, [0xb4f29768d499a47f, 0x2246d9547dd52212, 0x52b54464e160da91, 0x068b11162395e97b]),
    (1024, [0xb9688a9e30c1276d, 0xd7be48e493ae2ec3, 0x3ae3c6ea7cdc086c, 0xc31edd43f2fc6d22]),
];

/// The four pruned paths' hashes at size `n`, in [`PRUNED_PINS`] order.
fn pruned_pin_row(n: usize) -> [u64; 4] {
    let fft = Fft2d::new(n, n);
    let mut scratch = Fft2dScratch::new();
    let mut h = [0xCBF2_9CE4_8422_2325u64; 4];
    for p in PIN_SUPPORTS.into_iter().filter(|&p| p <= n) {
        let mut rng = Rng(0x9196_5EED ^ (n << 8 | p) as u64);
        let spec = rng.complex_buf(p * p);
        let mut out = vec![Complex64::ZERO; n * n];
        fft.inverse_padded_with(&spec, p, &mut out, &mut scratch);
        h[0] = fnv_bits(h[0], out.iter().flat_map(|z| [z.re, z.im]));
        let mut real = vec![0.0; n * n];
        fft.inverse_padded_real_with(&spec, p, &mut real, &mut scratch);
        h[1] = fnv_bits(h[1], real);

        let data = rng.complex_buf(n * n);
        let mut got = vec![Complex64::ZERO; p * p];
        fft.forward_cropped_with(&data, p, &mut got, &mut scratch);
        h[2] = fnv_bits(h[2], got.iter().flat_map(|z| [z.re, z.im]));
        let img = rng.real_buf(n * n);
        fft.forward_real_cropped_with(&img, p, &mut got, &mut scratch);
        h[3] = fnv_bits(h[3], got.iter().flat_map(|z| [z.re, z.im]));
    }
    h
}

#[test]
fn pruned_paths_are_pinned_to_the_bit() {
    let got: Vec<(usize, [u64; 4])> =
        (0..=10).map(|b| 1usize << b).map(|n| (n, pruned_pin_row(n))).collect();
    let table: String = got
        .iter()
        .map(|(n, h)| {
            let h = h.map(|x| format!("{x:#018x}"));
            format!("    ({n}, [{}, {}, {}, {}]),\n", h[0], h[1], h[2], h[3])
        })
        .collect();
    assert!(got == PRUNED_PINS, "a pruned path's bits moved; today's table:\n{table}");
}

/// The edges of the logistic's range: signed zeros, subnormals, the
/// underflow of `e^x` (-745), its saturation of `1 + e^x` (-37.5), its
/// overflow (709.8 / 710) and the infinities.
const LOGISTIC_EDGES: [f64; 12] = [
    0.0,
    -0.0,
    f64::MIN_POSITIVE / 8.0,
    -f64::MIN_POSITIVE / 8.0,
    -745.0,
    -37.5,
    709.78,
    709.8,
    710.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e300,
];

/// libm's logistic: what every sigmoid computed before the shared kernel,
/// and the one place `f64::exp` remains.
fn libm_logistic(x: f64) -> f64 {
    1.0 / (1.0 + f64::exp(x))
}

/// Seeded arguments over the whole useful range, plus the edges; an odd
/// length so the vector loop has a tail.
fn logistic_inputs() -> Vec<f64> {
    let mut rng = Rng(0x1061_571C);
    let mut xs: Vec<f64> = (0..20_001).map(|i| match i % 3 {
        0 => 80.0 * rng.next_f64(),
        1 => 1600.0 * rng.next_f64(),
        _ => 4.0 * rng.next_f64(),
    }).collect();
    xs.extend(LOGISTIC_EDGES);
    xs
}

#[test]
fn logistic_in_place_is_bit_identical_to_the_scalar_logistic() {
    for len in [0usize, 1, 3, 4, 5, 17] {
        let xs: Vec<f64> = logistic_inputs().into_iter().rev().take(len).collect();
        let mut got = xs.clone();
        ilt_fft::logistic_in_place(&mut got);
        for (x, y) in xs.iter().zip(&got) {
            assert_eq!(y.to_bits(), ilt_fft::logistic(*x).to_bits(), "len {len}, x = {x:e}");
        }
    }
    let xs = logistic_inputs();
    let mut got = xs.clone();
    ilt_fft::logistic_in_place(&mut got);
    for (x, y) in xs.iter().zip(&got) {
        assert_eq!(y.to_bits(), ilt_fft::logistic(*x).to_bits(), "x = {x:e}");
    }
}

#[test]
fn logistic_is_within_two_ulp_of_libm() {
    let mut worst = (0u64, 0.0);
    for x in logistic_inputs() {
        let (got, want) = (ilt_fft::logistic(x), libm_logistic(x));
        let ulps = got.to_bits().abs_diff(want.to_bits());
        if ulps > worst.0 {
            worst = (ulps, x);
        }
    }
    assert!(worst.0 <= 2, "{} ulp from libm at x = {:e}", worst.0, worst.1);
}

#[test]
fn logistic_saturates_exactly_where_libm_does() {
    // Every double within 4096 ulp of the two thresholds: `1 + e^x` rounding
    // to 1 near -53 ln 2, and `e^x` overflowing near ln(f64::MAX).
    for centre in [-53.0 * std::f64::consts::LN_2, f64::MAX.ln()] {
        let bits = centre.to_bits();
        let mut saturated = [false; 2];
        for x in (bits - 4096..bits + 4096).map(f64::from_bits) {
            let (got, want) = (ilt_fft::logistic(x), libm_logistic(x));
            assert_eq!(got == 1.0, want == 1.0, "x = {x:e}: {got:e} vs libm {want:e}");
            assert_eq!(got == 0.0, want == 0.0, "x = {x:e}: {got:e} vs libm {want:e}");
            saturated[usize::from(want == 1.0 || want == 0.0)] = true;
        }
        assert_eq!(saturated, [true; 2], "the window around {centre} misses the threshold");
    }
    for x in logistic_inputs() {
        let (got, want) = (ilt_fft::logistic(x), libm_logistic(x));
        assert_eq!((got == 1.0, got == 0.0), (want == 1.0, want == 0.0), "x = {x:e}");
    }
}

#[test]
fn logistic_keeps_a_nan() {
    // A NaN upstream must stay visible to the runtime's numeric guard
    // instead of being squashed into a plausible value in (0, 1).
    assert!(ilt_fft::logistic(f64::NAN).is_nan());
    let mut xs = [0.5, f64::NAN, -f64::NAN, 1.0, f64::NAN];
    ilt_fft::logistic_in_place(&mut xs);
    assert_eq!(xs.map(f64::is_nan), [false, true, true, false, true]);
}

#[test]
fn batched_paths_are_bit_identical_to_sequential() {
    let (n, p, k) = (64usize, 7usize, 3usize);
    let fft = Fft2d::new(n, n);
    let mut rng = Rng(0xB47C_4ED5);

    let specs: Vec<Vec<Complex64>> = (0..k).map(|_| rng.complex_buf(p * p)).collect();
    let spec_refs: Vec<&[Complex64]> = specs.iter().map(|v| v.as_slice()).collect();
    let mut seen = vec![false; k];
    let mut sequential = Fft2dScratch::new();
    let each = |i: usize, z: &[Complex64]| {
        let mut want = vec![Complex64::ZERO; n * n];
        fft.inverse_padded_with(&specs[i], p, &mut want, &mut sequential);
        assert_bits(z, &want, &format!("inverse_padded_batch item {i}"));
        seen[i] = true;
    };
    fft.inverse_padded_batch_with(&spec_refs, p, each, &mut Fft2dScratch::new());
    assert!(seen.iter().all(|&s| s), "batch skipped a spectrum");
}

/// Operands for the block primitives: ordinary values among signed zeros,
/// subnormals and, where `huge`, `±1e300`. Only one factor of a product
/// is ever huge, so no sum overflows into a NaN whose bits IEEE leaves open.
fn edge_buf(rng: &mut Rng, len: usize, huge: bool) -> Vec<Complex64> {
    let part = |rng: &mut Rng| {
        let x = rng.next_f64();
        match ((x + 0.5) * 16.0) as usize {
            0 => 0.0,
            1 => -0.0,
            2 => 5e-324,
            3 => -2.5e-310,
            4 if huge => 1e300,
            5 if huge => -1e300,
            _ => x,
        }
    };
    (0..len).map(|_| Complex64::new(part(rng), part(rng))).collect()
}

/// The lengths and block widths the primitives are pinned at: empty, the
/// AVX2 kernels' odd tails, the M1 kernel block (57^2 = 3249) and its
/// rows, and widths around each pair and group of eight columns, up to
/// the 24-kernel build's block of 32.
const BLOCK_LENS: [usize; 7] = [0, 1, 2, 3, 7, 57, 3249];
const BLOCK_WIDTHS: [usize; 8] = [1, 2, 3, 8, 9, 11, 18, 32];

#[test]
fn conj_dots_are_bit_identical_to_the_scalar_loop() {
    let mut rng = Rng(0xD075_C015);
    for len in BLOCK_LENS {
        for width in BLOCK_WIDTHS {
            for stride in [len, len + 3] {
                let x = edge_buf(&mut rng, len, true);
                let ys = edge_buf(&mut rng, (width - 1) * stride + len, false);
                let start = edge_buf(&mut rng, width, true);
                let mut want = start.clone();
                for (j, acc) in want.iter_mut().enumerate() {
                    for (&xe, &y) in x.iter().zip(&ys[j * stride..]) {
                        *acc += xe.conj() * y;
                    }
                }
                let mut got = start;
                conj_dots(&x, &ys, stride, &mut got);
                assert_bits(&got, &want, &format!("conj_dots len={len} width={width} stride={stride}"));
            }
        }
    }
}

#[test]
fn axpys_are_bit_identical_to_the_scalar_loop() {
    let mut rng = Rng(0xA8B7_5EED);
    for len in BLOCK_LENS {
        for width in BLOCK_WIDTHS {
            for stride in [len, len + 3] {
                let x = edge_buf(&mut rng, len, true);
                let coefs = edge_buf(&mut rng, width, false);
                let start = edge_buf(&mut rng, (width - 1) * stride + len, true);
                for sub in [false, true] {
                    let mut want = start.clone();
                    for (j, &c) in coefs.iter().enumerate() {
                        for (o, &xe) in want[j * stride..].iter_mut().zip(&x) {
                            if sub {
                                *o -= xe * c;
                            } else {
                                *o += xe * c;
                            }
                        }
                    }
                    let mut got = start.clone();
                    if sub {
                        sub_axpys(&x, &coefs, &mut got, stride);
                    } else {
                        axpys(&x, &coefs, &mut got, stride);
                    }
                    let what = format!("axpys (sub {sub}) len={len} width={width} stride={stride}");
                    assert_bits(&got, &want, &what);
                }
            }
        }
    }
}
