//! Centered spectrum crop/pad utilities.
//!
//! These implement the two frequency-domain moves at the heart of the
//! multi-level simulation scheme:
//!
//! * **Crop** — "we discard the high-frequency part of `F(M)` so that it can
//!   be multiplied by `H_k`" (Eq. 3): keep only the `P x P` low-frequency
//!   block of an `N x N` spectrum.
//! * **Pad** — re-embed a small spectrum into a larger zero spectrum before an
//!   inverse FFT, restoring the original spatial size (Eq. 3) or a reduced
//!   `N/s` size (Eq. 7, with an extra `1/s^2` amplitude factor that
//!   compensates the change of inverse-FFT normalization).
//!
//! Spectra are stored **unshifted** (DC at index `[0,0]`), so "low
//! frequencies" are the four corner quadrants. All functions here use a
//! signed-frequency convention: output index `i` of a length-`p` axis
//! corresponds to frequency `i` when `i <= (p-1)/2` and `i - p` otherwise.

use crate::complex::Complex64;

/// Signed frequency of index `i` on an axis of length `len`.
///
/// # Examples
///
/// ```
/// use ilt_fft::signed_freq;
/// assert_eq!(signed_freq(0, 8), 0);
/// assert_eq!(signed_freq(3, 8), 3);
/// assert_eq!(signed_freq(4, 8), -4);
/// assert_eq!(signed_freq(7, 8), -1);
/// // Odd lengths split symmetrically.
/// assert_eq!(signed_freq(2, 5), 2);
/// assert_eq!(signed_freq(3, 5), -2);
/// ```
#[inline]
pub fn signed_freq(i: usize, len: usize) -> isize {
    debug_assert!(i < len);
    if i <= (len - 1) / 2 {
        i as isize
    } else {
        i as isize - len as isize
    }
}

/// Index on an axis of length `len` holding signed frequency `f`.
///
/// Inverse of [`signed_freq`]. `f` must satisfy `-len/2 <= f < len` range
/// constraints of the unshifted layout.
#[inline]
pub fn freq_index(f: isize, len: usize) -> usize {
    let len = len as isize;
    debug_assert!(f > -len && f < len);
    ((f + len) % len) as usize
}

/// Extracts the centered `out x out` low-frequency block of an unshifted
/// `n x n` spectrum.
///
/// Every retained output bin `(i, j)` carries the same signed frequency it
/// had in the input, so `crop` followed by [`pad_centered`] is an orthogonal
/// projection onto the retained band.
///
/// # Panics
///
/// Panics if `out > n` or `spec.len() != n * n`.
///
/// # Examples
///
/// ```
/// use ilt_fft::{crop_centered, Complex64};
///
/// // A 4x4 spectrum whose only energy is at DC survives any crop.
/// let mut spec = vec![Complex64::ZERO; 16];
/// spec[0] = Complex64::ONE;
/// let small = crop_centered(&spec, 4, 2);
/// assert_eq!(small[0], Complex64::ONE);
/// ```
pub fn crop_centered(spec: &[Complex64], n: usize, out: usize) -> Vec<Complex64> {
    assert!(out <= n, "crop size {out} exceeds source size {n}");
    assert_eq!(spec.len(), n * n, "spectrum must be n*n");
    // Indices 0..oh carry frequencies 0..oh and map to the same source
    // index; indices oh..out carry -ol..0 and map to the top end of the
    // source axis. Two contiguous segments per axis means the whole crop is
    // four block copies — this sits on the simulator's per-iteration path.
    let oh = out - out / 2;
    let ol = out / 2;
    let mut dst = vec![Complex64::ZERO; out * out];
    for (i, drow) in dst.chunks_exact_mut(out).enumerate() {
        let si = if i < oh { i } else { n - out + i };
        let srow = &spec[si * n..(si + 1) * n];
        drow[..oh].copy_from_slice(&srow[..oh]);
        drow[oh..].copy_from_slice(&srow[n - ol..]);
    }
    dst
}

/// Embeds a small unshifted `p x p` spectrum into the centered low-frequency
/// block of a zeroed `n x n` spectrum.
///
/// # Panics
///
/// Panics if `p > n` or `spec.len() != p * p`.
pub fn pad_centered(spec: &[Complex64], p: usize, n: usize) -> Vec<Complex64> {
    assert!(p <= n, "pad source {p} exceeds target size {n}");
    assert_eq!(spec.len(), p * p, "spectrum must be p*p");
    let mut dst = vec![Complex64::ZERO; n * n];
    pad_centered_into(spec, p, &mut dst, n);
    dst
}

/// Like [`pad_centered`] but writes into a caller-provided buffer (cleared
/// first), avoiding an allocation in the simulator's hot loop.
///
/// # Panics
///
/// Panics if `p > n`, `spec.len() != p * p`, or `dst.len() != n * n`.
pub fn pad_centered_into(spec: &[Complex64], p: usize, dst: &mut [Complex64], n: usize) {
    assert!(p <= n);
    assert_eq!(spec.len(), p * p);
    assert_eq!(dst.len(), n * n);
    dst.fill(Complex64::ZERO);
    // Mirror of `crop_centered`: four block copies instead of per-element
    // signed-frequency arithmetic.
    let ph = p - p / 2;
    let pl = p / 2;
    for (i, srow) in spec.chunks_exact(p).enumerate() {
        let ti = if i < ph { i } else { n - p + i };
        let drow = &mut dst[ti * n..(ti + 1) * n];
        drow[..ph].copy_from_slice(&srow[..ph]);
        drow[n - pl..].copy_from_slice(&srow[ph..]);
    }
}

/// Swaps quadrants so that DC moves to the array center (`fftshift`).
///
/// Useful for visualizing spectra and for constructing kernels whose natural
/// definition is centered. For odd sizes this is the standard
/// `floor(len/2)`-roll.
pub fn fftshift(data: &[Complex64], n: usize) -> Vec<Complex64> {
    assert_eq!(data.len(), n * n);
    let mut out = vec![Complex64::ZERO; n * n];
    for r in 0..n {
        let tr = (r + n / 2) % n;
        for c in 0..n {
            out[tr * n + (c + n / 2) % n] = data[r * n + c];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft2d::Fft2d;
    use crate::scratch::Fft2dScratch;

    fn spec_of(img: &[f64], n: usize) -> Vec<Complex64> {
        let mut buf: Vec<Complex64> = img.iter().map(|&x| Complex64::from_real(x)).collect();
        Fft2d::new(n, n).forward_with(&mut buf, &mut Fft2dScratch::new());
        buf
    }

    #[test]
    fn signed_freq_roundtrips_through_index() {
        for len in [2usize, 3, 4, 5, 8, 35, 64] {
            for i in 0..len {
                let f = signed_freq(i, len);
                assert_eq!(freq_index(f, len), i, "len={len} i={i}");
            }
        }
    }

    #[test]
    fn crop_then_pad_is_projection() {
        let n = 16;
        let img: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.17).sin()).collect();
        let spec = spec_of(&img, n);
        let cropped = crop_centered(&spec, n, 8);
        let padded = pad_centered(&cropped, 8, n);
        // Applying crop/pad twice changes nothing (projection).
        let again = pad_centered(&crop_centered(&padded, n, 8), 8, n);
        for (a, b) in padded.iter().zip(&again) {
            assert!((*a - *b).abs() < 1e-14);
        }
    }

    #[test]
    fn crop_preserves_band_limited_signals() {
        // A signal containing only frequencies |f| < 4 survives a crop to 8 bins.
        let n = 32;
        let img: Vec<f64> = (0..n * n)
            .map(|idx| {
                let (r, c) = (idx / n, idx % n);
                let x = std::f64::consts::TAU * (r as f64) / n as f64;
                let y = std::f64::consts::TAU * (c as f64) / n as f64;
                1.0 + (2.0 * x).cos() + (3.0 * y).sin() + (x + 2.0 * y).cos()
            })
            .collect();
        let spec = spec_of(&img, n);
        let small = crop_centered(&spec, n, 8);
        let restored_spec = pad_centered(&small, 8, n);
        let mut restored = restored_spec;
        Fft2d::new(n, n).inverse_with(&mut restored, &mut Fft2dScratch::new());
        for (z, &x) in restored.iter().zip(&img) {
            assert!((z.re - x).abs() < 1e-9 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn crop_plus_small_inverse_subsamples_band_limited_signal() {
        // The Eq. 7 identity: for a spectrum supported inside the retained
        // band, ifft_{n/s}(crop / s^2) equals the subsampled ifft_n.
        let n = 32;
        let s = 4;
        let m = n / s;
        let img: Vec<f64> = (0..n * n)
            .map(|idx| {
                let (r, c) = (idx / n, idx % n);
                let x = std::f64::consts::TAU * (r as f64) / n as f64;
                let y = std::f64::consts::TAU * (c as f64) / n as f64;
                0.5 + (2.0 * x).cos() * (3.0 * y).cos()
            })
            .collect();
        let spec = spec_of(&img, n);
        // ifft_M(crop(X) / s^2) = x[s r, s c]: our inverse normalizes by
        // 1/M^2 instead of 1/N^2, and the 1/s^2 factor bridges the two.
        let mut small = crop_centered(&spec, n, m);
        for z in &mut small {
            *z = z.scale(1.0 / (s * s) as f64);
        }
        let mut rec = small;
        Fft2d::new(m, m).inverse_with(&mut rec, &mut Fft2dScratch::new());
        for rr in 0..m {
            for cc in 0..m {
                let want = img[(rr * s) * n + cc * s];
                let got = rec[rr * m + cc];
                assert!(
                    (got.re - want).abs() < 1e-9 && got.im.abs() < 1e-12,
                    "({rr},{cc}): got {got} want {want}"
                );
            }
        }
    }

    #[test]
    fn fftshift_moves_dc_to_center() {
        let n = 8;
        let mut data = vec![Complex64::ZERO; n * n];
        data[0] = Complex64::ONE;
        let shifted = fftshift(&data, n);
        assert_eq!(shifted[(n / 2) * n + n / 2], Complex64::ONE);
    }

    #[test]
    fn crop_to_same_size_is_identity() {
        let n = 8;
        let data: Vec<Complex64> =
            (0..n * n).map(|i| Complex64::new(i as f64, 1.0)).collect();
        assert_eq!(crop_centered(&data, n, n), data);
        assert_eq!(pad_centered(&data, n, n), data);
    }

    #[test]
    fn odd_crop_keeps_symmetric_band() {
        // Cropping to 5 bins keeps frequencies -2..=2 on each axis.
        let n = 16;
        let mut spec = vec![Complex64::ZERO; n * n];
        spec[freq_index(2, n) * n + freq_index(-2, n)] = Complex64::new(3.0, 1.0);
        spec[freq_index(-3, n) * n] = Complex64::ONE; // outside the band
        let small = crop_centered(&spec, n, 5);
        assert_eq!(small[freq_index(2, 5) * 5 + freq_index(-2, 5)], Complex64::new(3.0, 1.0));
        let total: f64 = small.iter().map(|z| z.norm_sqr()).sum();
        assert!((total - 10.0).abs() < 1e-12, "only the in-band coefficient survives");
    }

    #[test]
    #[should_panic(expected = "exceeds source size")]
    fn crop_larger_than_source_panics() {
        let _ = crop_centered(&[Complex64::ZERO; 4], 2, 3);
    }
}
