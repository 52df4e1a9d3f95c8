//! Pooling and resampling operators from Algorithm 1 of the paper.
//!
//! Three operators appear in the multi-level ILT loop:
//!
//! * [`avg_pool_down`] — kernel `s`, stride `s` (lines 2 and 9): lossless*
//!   shrink of target/wafer images before the loss.
//! * [`avg_pool_same`] — kernel `n`, stride 1, zero padding (line 11): the
//!   contour-smoothing pool applied to the mask in every low-resolution
//!   iteration (Section III-D).
//! * [`upsample_nearest`] — scale `s` (line 7): restores the downsampled mask
//!   to full size for the accurate high-resolution simulation.
//!
//! Padding semantics of [`avg_pool_same`] follow `torch.nn.AvgPool2d` with
//! `count_include_pad = true` (divide by the full kernel area even when the
//! window hangs off the border), since the reference implementation is
//! PyTorch.

use crate::field::Field2D;

/// Average pooling with `kernel = stride = s` (downsampling by `s`).
///
/// Output shape is `(rows / s, cols / s)`.
///
/// # Panics
///
/// Panics if `s == 0` or either dimension is not divisible by `s`.
///
/// # Examples
///
/// ```
/// use ilt_field::{Field2D, avg_pool_down};
///
/// let f = Field2D::from_vec(2, 2, vec![0.0, 1.0, 2.0, 3.0]);
/// let p = avg_pool_down(&f, 2);
/// assert_eq!(p.shape(), (1, 1));
/// assert_eq!(p[(0, 0)], 1.5);
/// ```
pub fn avg_pool_down(f: &Field2D, s: usize) -> Field2D {
    assert!(s > 0, "pool factor must be positive");
    let (rows, cols) = f.shape();
    assert!(
        rows % s == 0 && cols % s == 0,
        "shape {rows}x{cols} not divisible by pool factor {s}"
    );
    if s == 1 {
        return f.clone();
    }
    let (or, oc) = (rows / s, cols / s);
    let inv = 1.0 / (s * s) as f64;
    let src = f.as_slice();
    let mut out = Vec::with_capacity(or * oc);
    for r in 0..or {
        for c in 0..oc {
            let mut acc = 0.0;
            for dr in 0..s {
                let row = &src[(r * s + dr) * cols + c * s..(r * s + dr) * cols + c * s + s];
                for &v in row {
                    acc += v;
                }
            }
            out.push(acc * inv);
        }
    }
    Field2D::from_vec(or, oc, out)
}

/// Same-size average pooling: kernel `n x n`, stride 1, zero padding
/// `(n-1)/2`, dividing by the full `n^2` (PyTorch `count_include_pad`).
///
/// This is the smoothing operator of Section III-D (the paper uses `n = 3`):
/// each pixel takes the mean of its neighborhood, so mask updates become
/// spatially coherent and holes/fractures are suppressed.
///
/// # Panics
///
/// Panics if `n` is zero or even (the window must have a center pixel).
///
/// # Examples
///
/// ```
/// use ilt_field::{Field2D, avg_pool_same};
///
/// let f = Field2D::from_fn(3, 3, |r, c| if (r, c) == (1, 1) { 9.0 } else { 0.0 });
/// let s = avg_pool_same(&f, 3);
/// // The impulse spreads to 1.0 over its 3x3 neighborhood.
/// assert!(s.as_slice().iter().all(|&x| (x - 1.0).abs() < 1e-12));
/// ```
pub fn avg_pool_same(f: &Field2D, n: usize) -> Field2D {
    assert!(n % 2 == 1, "smoothing kernel size must be odd, got {n}");
    if n == 1 || f.is_empty() {
        return f.clone();
    }
    let (rows, cols) = f.shape();
    let h = n / 2;
    let inv = 1.0 / (n * n) as f64;
    let src = f.as_slice();

    // Separable, both passes along rows. Every sum adds its terms in index
    // order from zero (`-0.0` for a horizontal sum, as `Iterator::sum`
    // starts), whichever path computes it. The horizontal sums of the `n`
    // source rows an output row reads live in a ring: row `rr` in slot
    // `rr % n`.
    let mut ring = vec![0.0; n * cols];
    // Columns `left..right` see a full window; the rest clamp to the row.
    let left = h.min(cols);
    let right = cols.saturating_sub(h).max(left);
    let mut out = vec![0.0; rows * cols];
    // The next source row whose sums are not in the ring yet.
    let mut next = 0;
    for (r, acc) in out.chunks_exact_mut(cols).enumerate() {
        let (lo, hi) = (r.saturating_sub(h), (r + h).min(rows - 1));
        for rr in next..=hi {
            let row = &src[rr * cols..(rr + 1) * cols];
            let sums = &mut ring[rr % n * cols..][..cols];
            for c in (0..left).chain(right..cols) {
                sums[c] = row[c.saturating_sub(h)..=(c + h).min(cols - 1)].iter().sum();
            }
            let inner = &mut sums[left..right];
            inner.fill(-0.0);
            for k in 0..n {
                for (sum, &v) in inner.iter_mut().zip(&row[k.min(cols)..]) {
                    *sum += v;
                }
            }
        }
        next = hi + 1;
        for rr in lo..=hi {
            for (a, &v) in acc.iter_mut().zip(&ring[rr % n * cols..][..cols]) {
                *a += v;
            }
        }
        for a in acc {
            *a *= inv;
        }
    }
    Field2D::from_vec(rows, cols, out)
}

/// Nearest-neighbor upsampling by integer factor `s` (each pixel becomes an
/// `s x s` block).
///
/// # Panics
///
/// Panics if `s == 0`.
///
/// # Examples
///
/// ```
/// use ilt_field::{Field2D, upsample_nearest};
///
/// let f = Field2D::from_vec(1, 2, vec![1.0, 2.0]);
/// let u = upsample_nearest(&f, 2);
/// assert_eq!(u.shape(), (2, 4));
/// assert_eq!(u.as_slice(), &[1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0]);
/// ```
pub fn upsample_nearest(f: &Field2D, s: usize) -> Field2D {
    assert!(s > 0, "upsample factor must be positive");
    if s == 1 {
        return f.clone();
    }
    let (rows, cols) = f.shape();
    let src = f.as_slice();
    let (or, oc) = (rows * s, cols * s);
    let mut out = vec![0.0; or * oc];
    for r in 0..rows {
        // Expand one source row into one output row, then replicate it.
        let base = r * s * oc;
        for c in 0..cols {
            let v = src[r * cols + c];
            out[base + c * s..base + c * s + s].fill(v);
        }
        let (head, tail) = out.split_at_mut(base + oc);
        let template = &head[base..base + oc];
        for dr in 1..s {
            tail[(dr - 1) * oc..dr * oc].copy_from_slice(template);
        }
    }
    Field2D::from_vec(or, oc, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_pool_down_preserves_mean() {
        let f = Field2D::from_fn(8, 8, |r, c| ((r * 13 + c * 7) % 11) as f64);
        for s in [1, 2, 4, 8] {
            let p = avg_pool_down(&f, s);
            assert!((p.mean() - f.mean()).abs() < 1e-12, "s={s}");
            assert_eq!(p.shape(), (8 / s, 8 / s));
        }
    }

    #[test]
    fn avg_pool_down_exact_values() {
        let f = Field2D::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let p = avg_pool_down(&f, 2);
        assert_eq!(p.as_slice(), &[3.5, 5.5]);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn avg_pool_down_indivisible_panics() {
        let _ = avg_pool_down(&Field2D::zeros(6, 6), 4);
    }

    #[test]
    fn avg_pool_same_is_identity_for_constant_interior() {
        // Interior pixels of a constant field stay constant; borders shrink
        // because of zero padding (count_include_pad semantics).
        let f = Field2D::filled(5, 5, 3.0);
        let s = avg_pool_same(&f, 3);
        assert!((s[(2, 2)] - 3.0).abs() < 1e-12);
        assert!((s[(0, 0)] - 3.0 * 4.0 / 9.0).abs() < 1e-12);
        assert!((s[(0, 2)] - 3.0 * 6.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn avg_pool_same_matches_naive() {
        let f = Field2D::from_fn(7, 6, |r, c| ((r * 5 + c * 3) % 9) as f64 - 4.0);
        let fast = avg_pool_same(&f, 3);
        let (rows, cols) = f.shape();
        for r in 0..rows {
            for c in 0..cols {
                let mut acc = 0.0;
                for dr in -1isize..=1 {
                    for dc in -1isize..=1 {
                        let (rr, cc) = (r as isize + dr, c as isize + dc);
                        if rr >= 0 && cc >= 0 && (rr as usize) < rows && (cc as usize) < cols {
                            acc += f[(rr as usize, cc as usize)];
                        }
                    }
                }
                assert!((fast[(r, c)] - acc / 9.0).abs() < 1e-12);
            }
        }
    }

    /// The routine as it stood before both passes went row-major: a clamped
    /// slice per pixel, then a column walk. Kept as the bit-exact reference.
    fn avg_pool_same_reference(f: &Field2D, n: usize) -> Field2D {
        let (rows, cols) = f.shape();
        let h = (n / 2) as isize;
        let inv = 1.0 / (n * n) as f64;
        let src = f.as_slice();

        // Separable implementation: horizontal prefix pass then vertical pass.
        let mut horiz = vec![0.0; rows * cols];
        for r in 0..rows {
            let row = &src[r * cols..(r + 1) * cols];
            for c in 0..cols {
                let lo = (c as isize - h).max(0) as usize;
                let hi = ((c as isize + h) as usize).min(cols - 1);
                horiz[r * cols + c] = row[lo..=hi].iter().sum();
            }
        }
        let mut out = vec![0.0; rows * cols];
        for c in 0..cols {
            for r in 0..rows {
                let lo = (r as isize - h).max(0) as usize;
                let hi = ((r as isize + h) as usize).min(rows - 1);
                let mut acc = 0.0;
                for rr in lo..=hi {
                    acc += horiz[rr * cols + c];
                }
                out[r * cols + c] = acc * inv;
            }
        }
        Field2D::from_vec(rows, cols, out)
    }

    #[test]
    fn avg_pool_same_is_bit_identical_to_the_column_walking_routine() {
        let noisy = |rows: usize, cols: usize| {
            Field2D::from_fn(rows, cols, |r, c| {
                let v = ((r * 31 + c * 17) % 23) as f64 / 7.0 - 1.5;
                if (r + c) % 5 == 0 { -0.0 } else { v * 1.000_000_1_f64.powi((r * c) as i32 % 40) }
            })
        };
        let mut fields = vec![noisy(256, 256), noisy(0, 3), noisy(3, 0)];
        for rows in 1..=7 {
            for cols in 1..=5 {
                fields.push(noisy(rows, cols));
            }
        }
        for f in &fields {
            for n in [3, 5] {
                let (got, want) = (avg_pool_same(f, n), avg_pool_same_reference(f, n));
                let same = got
                    .as_slice()
                    .iter()
                    .zip(want.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{:?} field, n={n}: bits differ", f.shape());
            }
        }
    }

    #[test]
    fn avg_pool_same_kernel_one_is_identity() {
        let f = Field2D::from_fn(4, 4, |r, c| (r + 2 * c) as f64);
        assert_eq!(avg_pool_same(&f, 1), f);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn avg_pool_same_even_kernel_panics() {
        let _ = avg_pool_same(&Field2D::zeros(4, 4), 2);
    }

    #[test]
    fn upsample_then_pool_is_identity() {
        let f = Field2D::from_fn(4, 4, |r, c| (r * 4 + c) as f64);
        for s in [1, 2, 3] {
            let u = upsample_nearest(&f, s);
            assert_eq!(avg_pool_down(&u, s), f, "s={s}");
        }
    }

    #[test]
    fn upsample_nearest_block_structure() {
        let f = Field2D::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let u = upsample_nearest(&f, 3);
        assert_eq!(u.shape(), (6, 6));
        for r in 0..6 {
            for c in 0..6 {
                assert_eq!(u[(r, c)], f[(r / 3, c / 3)]);
            }
        }
    }
}
