//! Two-dimensional FFTs over row-major buffers.
//!
//! The lithography simulator spends almost all of its time in `N x N`
//! transforms (Eq. 3 of the paper: one forward FFT of the mask plus `N_k`
//! inverse FFTs, one per optical kernel), so [`Fft2d`] owns its plans and is
//! designed to be constructed once per size and reused across iterations.
//! The type is `Send + Sync`: plans are immutable after construction, so one
//! instance can serve every worker thread of the batch runtime.
//!
//! These structural optimizations keep the hot path fast:
//!
//! * **Cache-blocked column pass** — columns are processed in transposed
//!   panels so each cache line of the row-major buffer is touched once per
//!   panel instead of once per column.
//! * **Pruned padded inverse** ([`Fft2d::inverse_padded_with`]) — the simulator
//!   only ever inverts `N x N` spectra whose support is a tiny centered
//!   `P x P` block; the pruned path runs row transforms over the `P` nonzero
//!   rows only and replaces each length-`N` column transform by a length-`Q`
//!   transform (`Q` = `P` rounded up to a power of two) plus a phase twist,
//!   which is exactly the last `log2(Q)` butterfly stages — the first
//!   `log2(N/Q)` stages of the dense transform only ever combine zeros.
//! * **Real-output pruned inverse** ([`Fft2d::inverse_padded_real_with`]) —
//!   the same, for a field known to be real (an aerial image, a gradient):
//!   Hermitian symmetry halves the row pass and lets the column pass run on
//!   packed column pairs, and the result lands in an `f64` buffer.
//! * **Pruned forward** ([`Fft2d::forward_cropped_with`],
//!   [`Fft2d::forward_real_cropped_with`]) — the mirror of the pruned inverse:
//!   when only the centered `P x P` block of the spectrum is kept, the
//!   column pass runs first and folds each column into `q`-point transforms
//!   plus a phase twist, so only the `P` surviving rows are ever
//!   row-transformed. The real variant packs column pairs and separates them
//!   through Hermitian symmetry over the closure of the retained set.
//! * **Batched inverse** ([`Fft2d::inverse_padded_batch_with`]) — many spectra
//!   of one support stream through one output buffer and one workspace, so
//!   twiddle tables, memoized twist tables and grown buffers are warm for
//!   everything after the first item.
//!
//! All paths are exact restructurings of the same sums, so they agree with
//! the dense transforms to f64 rounding (~1e-15 relative).

use std::fmt;
use std::sync::Arc;

use crate::complex::Complex64;
use crate::plan::{cached_plan, Direction, FftPlan};
use crate::scratch::{grown, Fft2dScratch};
use crate::spectrum::{freq_index, signed_freq};

/// Columns per transposed panel of the blocked column pass. Eight complex
/// values are 128 bytes (two cache lines) per row visit, and a panel of a
/// 2048-point column is 256 KiB — comfortably L2-resident.
const PANEL_COLS: usize = 8;

/// Runs `plan` down every column of the row-major `rows x cols` buffer.
///
/// Columns are copied into row-major panels of [`PANEL_COLS`] columns and
/// transformed side by side by [`FftPlan::process`]: each panel row is
/// one contiguous 128-byte copy in and out, and the butterflies vectorize
/// *across* the panel's columns with one twiddle broadcast per butterfly
/// row.
fn col_pass(
    data: &mut [Complex64],
    rows: usize,
    cols: usize,
    plan: &FftPlan,
    panel_buf: &mut Vec<Complex64>,
) {
    if rows <= 1 {
        return;
    }
    let panel = grown(panel_buf, PANEL_COLS.min(cols) * rows);
    let mut c0 = 0;
    while c0 < cols {
        let w = PANEL_COLS.min(cols - c0);
        for r in 0..rows {
            panel[r * w..(r + 1) * w]
                .copy_from_slice(&data[r * cols + c0..r * cols + c0 + w]);
        }
        plan.process(&mut panel[..rows * w], w);
        for r in 0..rows {
            data[r * cols + c0..r * cols + c0 + w]
                .copy_from_slice(&panel[r * w..(r + 1) * w]);
        }
        c0 += w;
    }
}

/// A reusable 2-D FFT for a fixed `rows x cols` shape.
///
/// Both dimensions must be powers of two. Forward and inverse plans are kept
/// for both axes; the inverse applies `1/(rows*cols)` normalization in total
/// (each 1-D inverse pass normalizes by its own length).
///
/// Every transform takes its workspace explicitly (the `*_with` forms); a
/// caller with none to thread through borrows the thread's arena with
/// [`with_thread_scratch`](crate::with_thread_scratch).
///
/// # Examples
///
/// ```
/// use ilt_fft::{with_thread_scratch, Complex64, Fft2d};
///
/// let fft = Fft2d::new(4, 8);
/// let mut data = vec![Complex64::ZERO; 4 * 8];
/// data[0] = Complex64::ONE;
/// with_thread_scratch(|scratch| fft.forward_with(&mut data, scratch));
/// // An impulse has a flat spectrum.
/// assert!(data.iter().all(|z| (*z - Complex64::ONE).abs() < 1e-12));
/// with_thread_scratch(|scratch| fft.inverse_with(&mut data, scratch));
/// assert!((data[0] - Complex64::ONE).abs() < 1e-12);
/// ```
pub struct Fft2d {
    rows: usize,
    cols: usize,
    row_fwd: Arc<FftPlan>,
    row_inv: Arc<FftPlan>,
    col_fwd: Arc<FftPlan>,
    col_inv: Arc<FftPlan>,
}

impl fmt::Debug for Fft2d {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fft2d")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .finish()
    }
}

impl Fft2d {
    /// Creates a transform for `rows x cols` buffers.
    ///
    /// Plans come from the crate's process-wide plan cache, so repeated
    /// construction for an already-seen size is four `Arc` clones.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or not a power of two.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows.is_power_of_two() && cols.is_power_of_two());
        Fft2d {
            rows,
            cols,
            row_fwd: cached_plan(cols, Direction::Forward),
            row_inv: cached_plan(cols, Direction::Inverse),
            col_fwd: cached_plan(rows, Direction::Forward),
            col_inv: cached_plan(rows, Direction::Inverse),
        }
    }

    /// In-place forward 2-D transform of a row-major buffer: the dense,
    /// unpruned reference the pruned paths are checked against.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn forward_with(&self, data: &mut [Complex64], scratch: &mut Fft2dScratch) {
        self.transform(data, &self.row_fwd, &self.col_fwd, scratch);
    }

    /// In-place inverse 2-D transform (normalized) of a row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn inverse_with(&self, data: &mut [Complex64], scratch: &mut Fft2dScratch) {
        self.transform(data, &self.row_inv, &self.col_inv, scratch);
    }

    fn transform(
        &self,
        data: &mut [Complex64],
        row_plan: &FftPlan,
        col_plan: &FftPlan,
        scratch: &mut Fft2dScratch,
    ) {
        assert_eq!(
            data.len(),
            self.rows * self.cols,
            "buffer must be rows*cols = {}",
            self.rows * self.cols
        );
        for row in data.chunks_exact_mut(self.cols) {
            row_plan.process(row, 1);
        }
        col_pass(data, self.rows, self.cols, col_plan, &mut scratch.panel);
    }

    /// Inverse transform of an `n x n` spectrum that is zero outside its
    /// centered `p x p` low-frequency block, fused with the padding step.
    ///
    /// Equivalent to [`crate::pad_centered_into`] followed by
    /// [`Fft2d::inverse_with`], but prunes all work on structurally-zero data:
    /// the row pass transforms only the `p` nonzero rows, and the column
    /// pass runs `q`-point transforms (`q = p.next_power_of_two()`) plus a
    /// per-residue phase twist instead of `n`-point transforms — skipping
    /// the `log2(n/q)` leading butterfly stages whose inputs are all zero.
    ///
    /// `spec` is a `p x p` block in the unshifted signed-frequency layout
    /// produced by [`crate::crop_centered`]; the result is written to `out`.
    ///
    /// # Panics
    ///
    /// Panics if the transform is not square, `p` is zero or exceeds `n`,
    /// `spec.len() != p * p`, or `out.len() != n * n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ilt_fft::{pad_centered, Complex64, Fft2d, Fft2dScratch};
    ///
    /// let fft = Fft2d::new(64, 64);
    /// let mut scratch = Fft2dScratch::new();
    /// let spec: Vec<Complex64> =
    ///     (0..25).map(|i| Complex64::new(i as f64, -1.0)).collect();
    /// // Dense reference: pad to 64x64, then inverse.
    /// let mut dense = pad_centered(&spec, 5, 64);
    /// fft.inverse_with(&mut dense, &mut scratch);
    /// // Pruned path.
    /// let mut out = vec![Complex64::ZERO; 64 * 64];
    /// fft.inverse_padded_with(&spec, 5, &mut out, &mut scratch);
    /// for (a, b) in out.iter().zip(&dense) {
    ///     assert!((*a - *b).abs() < 1e-12);
    /// }
    /// ```
    pub fn inverse_padded_with(
        &self,
        spec: &[Complex64],
        p: usize,
        out: &mut [Complex64],
        scratch: &mut Fft2dScratch,
    ) {
        let n = self.rows;
        assert_eq!(self.rows, self.cols, "inverse_padded requires a square transform");
        assert!(p >= 1 && p <= n, "support {p} must be within 1..={n}");
        assert_eq!(spec.len(), p * p, "spectrum must be p*p");
        assert_eq!(out.len(), n * n, "output must be n*n");

        // Band split: indices 0..ph carry frequencies 0..ph, indices ph..p
        // carry -pl..0 and land at the top end of the length-n axis.
        let ph = p - p / 2;
        let pl = p / 2;

        // Row pass over the p nonzero rows only (the dense path transforms
        // all n rows, n/p of which are identically zero).
        let band = grown(&mut scratch.band, p * n);
        for (i, brow) in band.chunks_exact_mut(n).enumerate() {
            let srow = &spec[i * p..(i + 1) * p];
            brow.fill(Complex64::ZERO);
            brow[..ph].copy_from_slice(&srow[..ph]);
            brow[n - pl..].copy_from_slice(&srow[ph..]);
            self.row_inv.process(brow, 1);
        }

        // Column pass on the q-grid. Output rows split into s = n/q residue
        // classes r0 + s*j; for each class, the length-n column transform
        // collapses to a length-q transform of the band rows twisted by
        // e^{i 2 pi f r0 / n}. The q/n amplitude bridges the 1/q plan
        // normalization to the 1/n the dense path applies.
        let qplan = q_plan(p, Direction::Inverse);
        let q = qplan.len();
        let s = n / q;
        // Twist table `e^{+2 pi i f r0 / n} * q/n`, memoized per (n, p): a
        // multi-level simulator replays the same shapes thousands of times,
        // so the p * s sin_cos calls happen once per scratch, not per call.
        let twist = scratch.twist.get_or_build((n, p, false), || build_inverse_twist(n, p));
        let grid = grown(&mut scratch.grid, q * n);
        for r0 in 0..s {
            // Band rows land at q-grid rows 0..ph and q-pl..q, each fully
            // overwritten below; only the middle q-p rows need zeroing
            // (every row needs it each pass — col_pass overwrites them all).
            grid[ph * n..(q - pl) * n].fill(Complex64::ZERO);
            for i in 0..p {
                let f = signed_freq(i, p);
                let phase = twist[i * s + r0];
                let dst = &mut grid[freq_index(f, q) * n..][..n];
                for (d, &v) in dst.iter_mut().zip(&band[i * n..(i + 1) * n]) {
                    *d = v * phase;
                }
            }
            col_pass(grid, q, n, &qplan, &mut scratch.panel);
            for j in 0..q {
                out[(r0 + s * j) * n..][..n].copy_from_slice(&grid[j * n..(j + 1) * n]);
            }
        }
    }

    /// Real part of [`Fft2d::inverse_padded_with`] for an odd support `p`, written
    /// straight into a real buffer at about half the cost.
    ///
    /// The real part of the inverse is the inverse of the spectrum's
    /// Hermitian part, `(S[f] + conj(S[-f])) / 2`, so this is exact for any
    /// `spec` and free for one that is Hermitian already (the spectrum of a
    /// real field). Hermitian symmetry then halves both passes: only the
    /// `(p + 1) / 2` non-negative row frequencies are row-transformed — row
    /// `-f` is the conjugate of row `f` — and the column pass packs columns
    /// `2c, 2c + 1` into one complex column `a + i b`, whose inverse carries
    /// the two real output columns in its real and imaginary parts.
    ///
    /// # Panics
    ///
    /// Panics if the transform is not square, `p` is even or exceeds `n`,
    /// `spec.len() != p * p`, or `out.len() != n * n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ilt_fft::{Complex64, Fft2d, Fft2dScratch};
    ///
    /// let fft = Fft2d::new(32, 32);
    /// let mut scratch = Fft2dScratch::new();
    /// let spec: Vec<Complex64> =
    ///     (0..25).map(|i| Complex64::new(i as f64, 3.0 - i as f64)).collect();
    /// let mut dense = vec![Complex64::ZERO; 32 * 32];
    /// fft.inverse_padded_with(&spec, 5, &mut dense, &mut scratch);
    /// let mut real = vec![0.0; 32 * 32];
    /// fft.inverse_padded_real_with(&spec, 5, &mut real, &mut scratch);
    /// for (a, b) in real.iter().zip(&dense) {
    ///     assert!((a - b.re).abs() < 1e-12);
    /// }
    /// ```
    pub fn inverse_padded_real_with(
        &self,
        spec: &[Complex64],
        p: usize,
        out: &mut [f64],
        scratch: &mut Fft2dScratch,
    ) {
        let n = self.rows;
        assert_eq!(self.rows, self.cols, "inverse_padded_real requires a square transform");
        assert!(p % 2 == 1 && p <= n, "support {p} must be odd and within 1..={n}");
        assert_eq!(spec.len(), p * p, "spectrum must be p*p");
        assert_eq!(out.len(), n * n, "output must be n*n");

        if n == 1 {
            out[0] = spec[0].re;
            return;
        }

        // Row pass over frequencies 0..=h of the Hermitian part.
        let h = p / 2;
        let band = grown(&mut scratch.band, (h + 1) * n);
        for (f, brow) in band.chunks_exact_mut(n).enumerate() {
            let srow = &spec[f * p..(f + 1) * p];
            let mrow = &spec[(p - f) % p * p..][..p];
            brow.fill(Complex64::ZERO);
            for (g, &v) in srow.iter().enumerate() {
                let dst = if g <= h { g } else { n - (p - g) };
                brow[dst] = (v + mrow[(p - g) % p].conj()).scale(0.5);
            }
            self.row_inv.process(brow, 1);
        }

        // Column pass on the q-grid as in `inverse_padded_with`, over packed
        // column pairs: grid row `+f` holds `(a + i b) t_f`, row `-f` holds
        // `(conj a + i conj b) conj t_f`.
        let qplan = q_plan(p, Direction::Inverse);
        let q = qplan.len();
        let s = n / q;
        let half = n / 2;
        let twist = scratch.twist.get_or_build((n, p, false), || build_inverse_twist(n, p));
        let grid = grown(&mut scratch.grid, q * half);
        for r0 in 0..s {
            grid[(h + 1) * half..(q - h) * half].fill(Complex64::ZERO);
            for (f, brow) in band.chunks_exact(n).enumerate() {
                let t = twist[f * s + r0];
                let (lower, upper) = grid.split_at_mut((h + 1) * half);
                let pos = &mut lower[f * half..(f + 1) * half];
                for (d, ab) in pos.iter_mut().zip(brow.chunks_exact(2)) {
                    *d = Complex64::new(ab[0].re - ab[1].im, ab[0].im + ab[1].re) * t;
                }
                if f > 0 {
                    let tc = t.conj();
                    let neg = &mut upper[(q - f - h - 1) * half..][..half];
                    for (d, ab) in neg.iter_mut().zip(brow.chunks_exact(2)) {
                        *d = Complex64::new(ab[0].re + ab[1].im, ab[1].re - ab[0].im) * tc;
                    }
                }
            }
            col_pass(grid, q, half, &qplan, &mut scratch.panel);
            for (j, grow) in grid.chunks_exact(half).enumerate() {
                let orow = &mut out[(r0 + s * j) * n..][..n];
                for (pair, z) in orow.chunks_exact_mut(2).zip(grow) {
                    pair[0] = z.re;
                    pair[1] = z.im;
                }
            }
        }
    }

    /// Forward transform of an `n x n` complex buffer, fused with the crop
    /// to the centered `p x p` low-frequency block.
    ///
    /// Equivalent to [`Fft2d::forward_with`] followed by
    /// [`crate::crop_centered`], but prunes all work on the discarded
    /// frequencies — the mirror of [`Fft2d::inverse_padded_with`]. The column
    /// pass runs first and computes only the `p` retained row frequencies by
    /// residue folding: each length-`n` column is decimated into `s = n/q`
    /// interleaved length-`q` segments (`q = p.next_power_of_two()`), the
    /// segments are `q`-point transformed, and the retained frequencies are
    /// recombined with a phase twist (`X[f] = sum_b e^{-2 pi i f b / n}
    /// V_b[f mod q]`). Only the `p` surviving rows are then row-transformed,
    /// so the row pass shrinks from `n` to `p` transforms.
    ///
    /// # Panics
    ///
    /// Panics if the transform is not square, `p` is zero or exceeds `n`,
    /// `data.len() != n * n`, or `out.len() != p * p`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ilt_fft::{crop_centered, Complex64, Fft2d, Fft2dScratch};
    ///
    /// let fft = Fft2d::new(16, 16);
    /// let mut scratch = Fft2dScratch::new();
    /// let data: Vec<Complex64> =
    ///     (0..256).map(|i| Complex64::new((i as f64 * 0.3).sin(), 0.1)).collect();
    /// // Dense reference: full forward, then crop.
    /// let mut dense = data.clone();
    /// fft.forward_with(&mut dense, &mut scratch);
    /// let want = crop_centered(&dense, 16, 5);
    /// // Pruned path.
    /// let mut got = vec![Complex64::ZERO; 25];
    /// fft.forward_cropped_with(&data, 5, &mut got, &mut scratch);
    /// for (a, b) in got.iter().zip(&want) {
    ///     assert!((*a - *b).abs() < 1e-9);
    /// }
    /// ```
    pub fn forward_cropped_with(
        &self,
        data: &[Complex64],
        p: usize,
        out: &mut [Complex64],
        scratch: &mut Fft2dScratch,
    ) {
        let n = self.rows;
        assert_eq!(self.rows, self.cols, "forward_cropped requires a square transform");
        assert!(p >= 1 && p <= n, "support {p} must be within 1..={n}");
        assert_eq!(data.len(), n * n, "input must be n*n");
        assert_eq!(out.len(), p * p, "output must be p*p");

        if n == 1 {
            out[0] = data[0];
            return;
        }

        let (ph, pl) = (p - p / 2, p / 2);
        let qplan = q_plan(p, Direction::Forward);
        let twist = scratch.twist.get_or_build((n, p, true), || build_forward_twist(n, p));
        let band = grown(&mut scratch.band, p * n);
        let fold = grown(&mut scratch.fold, n * PANEL_COLS.min(n));

        // Column pass in panels of PANEL_COLS columns, each recombined
        // straight into the p retained band rows.
        let mut c0 = 0;
        while c0 < n {
            let w = PANEL_COLS.min(n - c0);
            for r in 0..n {
                fold[r * w..(r + 1) * w]
                    .copy_from_slice(&data[r * n + c0..r * n + c0 + w]);
            }
            fold_and_recombine(&qplan, twist, &mut fold[..n * w], w, p, p, &mut band[c0..], n);
            c0 += w;
        }

        // Row pass over the p retained rows only, cropping columns on the
        // way out.
        for (i, brow) in band.chunks_exact_mut(n).enumerate() {
            self.row_fwd.process(brow, 1);
            let orow = &mut out[i * p..(i + 1) * p];
            orow[..ph].copy_from_slice(&brow[..ph]);
            orow[ph..].copy_from_slice(&brow[n - pl..]);
        }
    }

    /// Forward transform of a real-valued image, fused with the crop to the
    /// centered `p x p` low-frequency block.
    ///
    /// Combines both pruning tricks: adjacent *columns* are packed into one
    /// complex column (the column pass runs first here), folded and
    /// recombined as in [`Fft2d::forward_cropped_with`], then separated through
    /// Hermitian symmetry. Because separation at frequency `f` needs the
    /// packed spectrum at `-f`, the recombination covers the symmetric
    /// closure of the retained set (at most one extra frequency, `+p/2` for
    /// even `p`). Only the `p` retained rows are ever row-transformed.
    ///
    /// # Panics
    ///
    /// Panics if the transform is not square, `p` is zero or exceeds `n`,
    /// `img.len() != n * n`, or `out.len() != p * p`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ilt_fft::{crop_centered, Complex64, Fft2d, Fft2dScratch};
    ///
    /// let fft = Fft2d::new(16, 16);
    /// let mut scratch = Fft2dScratch::new();
    /// let img: Vec<f64> = (0..256).map(|i| (i as f64 * 0.17).cos()).collect();
    /// let mut dense: Vec<Complex64> = img.iter().map(|&x| Complex64::from_real(x)).collect();
    /// fft.forward_with(&mut dense, &mut scratch);
    /// let want = crop_centered(&dense, 16, 6);
    /// let mut got = vec![Complex64::ZERO; 36];
    /// fft.forward_real_cropped_with(&img, 6, &mut got, &mut scratch);
    /// for (a, b) in got.iter().zip(&want) {
    ///     assert!((*a - *b).abs() < 1e-9);
    /// }
    /// ```
    pub fn forward_real_cropped_with(
        &self,
        img: &[f64],
        p: usize,
        out: &mut [Complex64],
        scratch: &mut Fft2dScratch,
    ) {
        let n = self.rows;
        assert_eq!(self.rows, self.cols, "forward_real_cropped requires a square transform");
        assert!(p >= 1 && p <= n, "support {p} must be within 1..={n}");
        assert_eq!(img.len(), n * n, "image must be n*n");
        assert_eq!(out.len(), p * p, "output must be p*p");

        if n == 1 {
            out[0] = Complex64::from_real(img[0]);
            return;
        }

        let (ph, pl) = (p - p / 2, p / 2);
        let pc = closure_len(n, p);
        let qplan = q_plan(p, Direction::Forward);
        let twist = scratch.twist.get_or_build((n, p, true), || build_forward_twist(n, p));
        let band = grown(&mut scratch.band, p * n);
        let half_cols = n / 2;
        let panel_w = PANEL_COLS.min(half_cols);
        let fold = grown(&mut scratch.fold, n * panel_w);
        let xz = grown(&mut scratch.xz, pc * panel_w);

        // Packed column pass in panels: each packed column pairs two real
        // columns, and their packed spectra are recombined over the
        // symmetric closure of the retained set.
        let mut cp0 = 0;
        while cp0 < half_cols {
            let w = panel_w.min(half_cols - cp0);
            for r in 0..n {
                let src = &img[r * n + 2 * cp0..r * n + 2 * (cp0 + w)];
                for (v, pair) in fold[r * w..(r + 1) * w].iter_mut().zip(src.chunks_exact(2)) {
                    *v = Complex64::new(pair[0], pair[1]);
                }
            }
            fold_and_recombine(&qplan, twist, &mut fold[..n * w], w, p, pc, xz, w);
            // Hermitian separation: the even (real) part of a packed column
            // is its first real column, the odd part the second.
            for i in 0..p {
                let ni = closure_neg_index(i, p, n);
                for j in 0..w {
                    let a = xz[i * w + j];
                    let b = xz[ni * w + j].conj();
                    let c = 2 * (cp0 + j);
                    band[i * n + c] = (a + b).scale(0.5);
                    let d = a - b;
                    band[i * n + c + 1] = Complex64::new(d.im * 0.5, -d.re * 0.5);
                }
            }
            cp0 += w;
        }

        for (i, brow) in band.chunks_exact_mut(n).enumerate() {
            self.row_fwd.process(brow, 1);
            let orow = &mut out[i * p..(i + 1) * p];
            orow[..ph].copy_from_slice(&brow[..ph]);
            orow[ph..].copy_from_slice(&brow[n - pl..]);
        }
    }

    /// [`Fft2d::inverse_padded_with`] over many spectra sharing one support
    /// `p`, streaming each full-grid result to `each(index, grid)` from a
    /// single reused buffer.
    ///
    /// This is the shape of the Hopkins aerial accumulation (Eq. 3): `N_k`
    /// kernel spectra inverted back-to-back, each consumed immediately. The
    /// batch shares one workspace, so the twiddle tables, twist tables and
    /// grown buffers are warm for every spectrum after the first.
    ///
    /// # Panics
    ///
    /// Panics as [`Fft2d::inverse_padded_with`] for any spectrum in the batch.
    pub fn inverse_padded_batch_with(
        &self,
        specs: &[&[Complex64]],
        p: usize,
        mut each: impl FnMut(usize, &[Complex64]),
        scratch: &mut Fft2dScratch,
    ) {
        let n = self.rows * self.cols;
        let mut buf = std::mem::take(&mut scratch.batch_out);
        grown(&mut buf, n);
        for (k, spec) in specs.iter().enumerate() {
            self.inverse_padded_with(spec, p, &mut buf[..n], scratch);
            each(k, &buf[..n]);
        }
        scratch.batch_out = buf;
    }
}

/// The cached `q`-point plan of a pruned path with support `p`,
/// `q = p.next_power_of_two()`.
fn q_plan(p: usize, direction: Direction) -> Arc<FftPlan> {
    cached_plan(p.next_power_of_two(), direction)
}

/// The pruned forward's column pass over one panel of `w` columns, recombined
/// at closure frequencies `0..rows` only.
///
/// `fold` is the panel, `n x w` row-major. Viewed as a `q x (s*w)` block it
/// *is* the stride-`s` decimation of its columns (row `a`, sub-column
/// `(b, j)` sits at `fold[(a*s + b)*w + j] = col_j[a*s + b]`), so one
/// `process` call runs every length-`q` segment transform of the panel.
/// Closure index `ci` ([`closure_freq`]) then receives
/// `X[f] = sum_b e^{-2 pi i f b / n} V_b[f mod q]` in `out[ci * stride..][..w]`.
#[allow(clippy::too_many_arguments)]
fn fold_and_recombine(
    qplan: &FftPlan,
    twist: &[Complex64],
    fold: &mut [Complex64],
    w: usize,
    p: usize,
    rows: usize,
    out: &mut [Complex64],
    stride: usize,
) {
    let q = qplan.len();
    let s = fold.len() / (q * w);
    qplan.process(fold, s * w);
    for ci in 0..rows {
        let fi = freq_index(closure_freq(ci, p), q);
        let dst = &mut out[ci * stride..][..w];
        if s == 1 {
            dst.copy_from_slice(&fold[fi * w..(fi + 1) * w]);
            continue;
        }
        // Each column's sum runs over `b` in order, from zero, as one scalar
        // accumulator would; the columns advance side by side.
        dst.fill(Complex64::ZERO);
        for (b, &tw) in twist[ci * s..(ci + 1) * s].iter().enumerate() {
            for (d, &v) in dst.iter_mut().zip(&fold[(fi * s + b) * w..][..w]) {
                *d += tw * v;
            }
        }
    }
}

/// Number of frequencies in the symmetric closure of the retained set: even
/// `p` needs one extra (`+p/2`, the mirror of `-p/2`) unless `p == n`, where
/// `+p/2` and `-p/2` alias to the same bin.
fn closure_len(n: usize, p: usize) -> usize {
    if p % 2 == 0 && p < n {
        p + 1
    } else {
        p
    }
}

/// Signed frequency of closure index `ci`: indices `0..p` are the retained
/// set in [`signed_freq`] order; index `p` (even `p` only) is `+p/2`.
fn closure_freq(ci: usize, p: usize) -> isize {
    if ci < p {
        signed_freq(ci, p)
    } else {
        (p / 2) as isize
    }
}

/// Closure index holding frequency `-f` for retained index `i`.
fn closure_neg_index(i: usize, p: usize, n: usize) -> usize {
    let g = -signed_freq(i, p);
    if g < (p - p / 2) as isize {
        freq_index(g, p)
    } else if p < n {
        p // the extra +p/2 closure row
    } else {
        i // +p/2 aliases -p/2 when p == n: the bin is self-conjugate
    }
}

/// Twist table of the pruned inverse: `e^{+2 pi i f r0 / n} * q/n` for every
/// retained frequency `f` (rows, [`signed_freq`] order) and output-row
/// residue `r0 in 0..n/q` (columns). The `q/n` amplitude bridges the `1/q`
/// plan normalization to the `1/n` the dense path applies.
fn build_inverse_twist(n: usize, p: usize) -> Vec<Complex64> {
    let q = p.next_power_of_two();
    let s = n / q;
    let amp = q as f64 / n as f64;
    let mut table = Vec::with_capacity(p * s);
    for i in 0..p {
        let f = signed_freq(i, p);
        for r0 in 0..s {
            table.push(
                Complex64::from_polar_angle(
                    std::f64::consts::TAU * f as f64 * r0 as f64 / n as f64,
                )
                .scale(amp),
            );
        }
    }
    table
}

/// Twist table of the pruned forward: `e^{-2 pi i f b / n}` for every
/// closure frequency `f` (rows) and fold offset `b in 0..s` (columns).
fn build_forward_twist(n: usize, p: usize) -> Vec<Complex64> {
    let q = p.next_power_of_two();
    let s = n / q;
    let rows = closure_len(n, p);
    let mut table = Vec::with_capacity(rows * s);
    for ci in 0..rows {
        let f = closure_freq(ci, p);
        for b in 0..s {
            table.push(Complex64::from_polar_angle(
                -std::f64::consts::TAU * f as f64 * b as f64 / n as f64,
            ));
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::with_thread_scratch;
    use crate::spectrum::pad_centered;

    fn naive_dft2(input: &[Complex64], rows: usize, cols: usize) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; rows * cols];
        for kr in 0..rows {
            for kc in 0..cols {
                let mut acc = Complex64::ZERO;
                for r in 0..rows {
                    for c in 0..cols {
                        let theta = -std::f64::consts::TAU
                            * (kr as f64 * r as f64 / rows as f64
                                + kc as f64 * c as f64 / cols as f64);
                        acc += input[r * cols + c] * Complex64::from_polar_angle(theta);
                    }
                }
                out[kr * cols + kc] = acc;
            }
        }
        out
    }

    fn sample(rows: usize, cols: usize) -> Vec<Complex64> {
        (0..rows * cols)
            .map(|i| Complex64::new((i as f64 * 0.7).cos(), (i as f64 * 0.3).sin()))
            .collect()
    }

    /// Deterministic pseudo-random values in [-1, 1] (splitmix-style).
    fn lcg_vals(seed: u64, len: usize) -> Vec<f64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    fn lcg_complex(seed: u64, len: usize) -> Vec<Complex64> {
        let vals = lcg_vals(seed, 2 * len);
        (0..len).map(|i| Complex64::new(vals[2 * i], vals[2 * i + 1])).collect()
    }

    fn max_abs_diff(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (*x - *y).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn matches_naive_2d_dft() {
        for (rows, cols) in [(2, 2), (4, 4), (4, 8), (8, 4), (16, 16)] {
            let input = sample(rows, cols);
            let mut data = input.clone();
            Fft2d::new(rows, cols).forward_with(&mut data, &mut Fft2dScratch::new());
            let want = naive_dft2(&input, rows, cols);
            for (a, b) in data.iter().zip(&want) {
                assert!((*a - *b).abs() < 1e-8, "{rows}x{cols}");
            }
        }
    }

    #[test]
    fn roundtrip_identity() {
        let (rows, cols) = (32, 16);
        let input = sample(rows, cols);
        let fft = Fft2d::new(rows, cols);
        let mut scratch = Fft2dScratch::new();
        let mut data = input.clone();
        fft.forward_with(&mut data, &mut scratch);
        fft.inverse_with(&mut data, &mut scratch);
        for (a, b) in data.iter().zip(&input) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn separable_product_structure() {
        // fft2 of an outer product u v^T is the outer product of the 1-D ffts.
        let rows = 8;
        let cols = 8;
        let u: Vec<f64> = (0..rows).map(|i| (i as f64 * 0.9).sin() + 1.0).collect();
        let v: Vec<f64> = (0..cols).map(|i| (i as f64 * 0.4).cos()).collect();
        let outer: Vec<Complex64> = (0..rows * cols)
            .map(|i| Complex64::from_real(u[i / cols] * v[i % cols]))
            .collect();
        let mut data = outer;
        Fft2d::new(rows, cols).forward_with(&mut data, &mut Fft2dScratch::new());

        let mut fu: Vec<Complex64> = u.iter().map(|&x| Complex64::from_real(x)).collect();
        let mut fv: Vec<Complex64> = v.iter().map(|&x| Complex64::from_real(x)).collect();
        FftPlan::new(rows, Direction::Forward).process(&mut fu, 1);
        FftPlan::new(cols, Direction::Forward).process(&mut fv, 1);

        for r in 0..rows {
            for c in 0..cols {
                assert!((data[r * cols + c] - fu[r] * fv[c]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn plans_come_from_one_process_wide_cache() {
        let (a, b) = (Fft2d::new(64, 64), Fft2d::new(64, 64));
        for (x, y) in [
            (&a.row_fwd, &b.row_fwd),
            (&a.row_inv, &b.row_inv),
            (&a.col_fwd, &b.col_fwd),
            (&a.col_inv, &b.col_inv),
        ] {
            assert!(Arc::ptr_eq(x, y), "two Fft2d::new(64, 64) must share every plan");
        }
        // A pruned path with support 57 runs its columns on the same cached
        // 64-point plans.
        assert!(Arc::ptr_eq(&q_plan(57, Direction::Inverse), &a.col_inv));
        assert!(Arc::ptr_eq(&q_plan(57, Direction::Forward), &a.col_fwd));
    }

    #[test]
    fn dc_term_is_sum() {
        let (rows, cols) = (8, 8);
        let input = sample(rows, cols);
        let total: Complex64 = input.iter().copied().sum();
        let mut data = input;
        Fft2d::new(rows, cols).forward_with(&mut data, &mut Fft2dScratch::new());
        assert!((data[0] - total).abs() < 1e-10);
    }

    #[test]
    fn pruned_inverse_matches_dense_on_random_spectra() {
        for (seed, (n, p)) in
            [(11u64, (64usize, 8usize)), (12, (256, 25)), (13, (512, 25))].into_iter()
        {
            let spec = lcg_complex(seed, p * p);
            let fft = Fft2d::new(n, n);
            let mut scratch = Fft2dScratch::new();
            let mut dense = pad_centered(&spec, p, n);
            fft.inverse_with(&mut dense, &mut scratch);
            let mut pruned = vec![Complex64::ZERO; n * n];
            fft.inverse_padded_with(&spec, p, &mut pruned, &mut scratch);
            let diff = max_abs_diff(&pruned, &dense);
            assert!(diff <= 1e-12, "n={n} p={p}: max |diff| = {diff:e}");
        }
    }

    #[test]
    fn pruned_inverse_handles_degenerate_supports() {
        // p = 1 (single DC bin), p = n (no pruning possible), and an even p.
        for (n, p) in [(16usize, 1usize), (16, 16), (32, 6)] {
            let spec = lcg_complex(7 + n as u64, p * p);
            let fft = Fft2d::new(n, n);
            let mut scratch = Fft2dScratch::new();
            let mut dense = pad_centered(&spec, p, n);
            fft.inverse_with(&mut dense, &mut scratch);
            let mut pruned = vec![Complex64::ZERO; n * n];
            fft.inverse_padded_with(&spec, p, &mut pruned, &mut scratch);
            let diff = max_abs_diff(&pruned, &dense);
            assert!(diff <= 1e-12, "n={n} p={p}: max |diff| = {diff:e}");
        }
    }

    #[test]
    fn forward_cropped_matches_dense_forward_plus_crop() {
        use crate::spectrum::crop_centered;
        for (seed, (n, p)) in [
            (41u64, (8usize, 1usize)),
            (42, (16, 7)),
            (43, (64, 25)),
            (44, (64, 64)),
            (45, (128, 6)),
        ] {
            let input = lcg_complex(seed, n * n);
            let fft = Fft2d::new(n, n);
            let mut scratch = Fft2dScratch::new();
            let mut dense = input.clone();
            fft.forward_with(&mut dense, &mut scratch);
            let want = crop_centered(&dense, n, p);
            let mut got = vec![Complex64::ZERO; p * p];
            fft.forward_cropped_with(&input, p, &mut got, &mut scratch);
            let scale: f64 = want.iter().map(|z| z.abs()).fold(1.0, f64::max);
            let diff = max_abs_diff(&got, &want);
            assert!(diff <= 1e-12 * scale, "n={n} p={p}: max |diff| = {diff:e}");
        }
    }

    #[test]
    fn forward_real_cropped_matches_dense_forward_plus_crop() {
        use crate::spectrum::crop_centered;
        for (seed, (n, p)) in [
            (51u64, (8usize, 1usize)),
            (52, (16, 7)),
            (53, (64, 25)),
            (54, (64, 64)),
            (55, (128, 6)),
            (56, (32, 2)),
        ] {
            let img = lcg_vals(seed, n * n);
            let fft = Fft2d::new(n, n);
            let mut scratch = Fft2dScratch::new();
            let mut dense: Vec<Complex64> = img.iter().map(|&x| Complex64::from_real(x)).collect();
            fft.forward_with(&mut dense, &mut scratch);
            let want = crop_centered(&dense, n, p);
            let mut got = vec![Complex64::ZERO; p * p];
            fft.forward_real_cropped_with(&img, p, &mut got, &mut scratch);
            let scale: f64 = want.iter().map(|z| z.abs()).fold(1.0, f64::max);
            let diff = max_abs_diff(&got, &want);
            assert!(diff <= 1e-12 * scale, "n={n} p={p}: max |diff| = {diff:e}");
        }
    }

    #[test]
    fn batch_apis_match_sequential_calls() {
        let n = 32;
        let p = 7;
        let fft = Fft2d::new(n, n);
        let specs: Vec<Vec<Complex64>> = (0..3).map(|k| lcg_complex(70 + k, p * p)).collect();
        let spec_refs: Vec<&[Complex64]> = specs.iter().map(|v| v.as_slice()).collect();
        let mut seen = 0;
        let mut sequential = Fft2dScratch::new();
        let each = |k: usize, grid: &[Complex64]| {
            let mut want = vec![Complex64::ZERO; n * n];
            fft.inverse_padded_with(&specs[k], p, &mut want, &mut sequential);
            assert_eq!(grid, want.as_slice(), "batched inverse must equal the sequential path");
            seen += 1;
        };
        fft.inverse_padded_batch_with(&spec_refs, p, each, &mut Fft2dScratch::new());
        assert_eq!(seen, specs.len());
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        let (n, p) = (64usize, 9usize);
        let fft = Fft2d::new(n, n);
        let img = lcg_vals(21, n * n);
        let spec = lcg_complex(22, p * p);

        // Warm a scratch on unrelated sizes first, then reuse it.
        let mut reused = Fft2dScratch::new();
        let other = Fft2d::new(128, 128);
        let mut tmp = lcg_complex(23, 128 * 128);
        other.forward_with(&mut tmp, &mut reused);

        let mut out_reused = vec![Complex64::ZERO; p * p];
        fft.forward_real_cropped_with(&img, p, &mut out_reused, &mut reused);
        let mut out_fresh = vec![Complex64::ZERO; p * p];
        fft.forward_real_cropped_with(&img, p, &mut out_fresh, &mut Fft2dScratch::new());
        assert_eq!(out_reused, out_fresh, "the real forward must not depend on scratch history");

        let mut inv_reused = vec![Complex64::ZERO; n * n];
        fft.inverse_padded_with(&spec, p, &mut inv_reused, &mut reused);
        let mut inv_fresh = vec![Complex64::ZERO; n * n];
        fft.inverse_padded_with(&spec, p, &mut inv_fresh, &mut Fft2dScratch::new());
        assert_eq!(inv_reused, inv_fresh, "inverse_padded must not depend on scratch history");
    }

    #[test]
    fn explicit_scratch_matches_thread_local_path() {
        let n = 32;
        let input = lcg_complex(31, n * n);
        let mut via_arena = input.clone();
        with_thread_scratch(|scratch| Fft2d::new(n, n).forward_with(&mut via_arena, scratch));
        let mut via_explicit = input;
        Fft2d::new(n, n).forward_with(&mut via_explicit, &mut Fft2dScratch::new());
        assert_eq!(via_arena, via_explicit);
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn wrong_size_panics() {
        let fft = Fft2d::new(4, 4);
        let mut data = vec![Complex64::ZERO; 8];
        fft.forward_with(&mut data, &mut Fft2dScratch::new());
    }

    #[test]
    #[should_panic(expected = "square")]
    fn inverse_padded_rejects_rectangular() {
        let fft = Fft2d::new(4, 8);
        let mut out = vec![Complex64::ZERO; 32];
        fft.inverse_padded_with(&[Complex64::ONE], 1, &mut out, &mut Fft2dScratch::new());
    }

    #[test]
    #[should_panic(expected = "support")]
    fn inverse_padded_rejects_oversized_support() {
        let fft = Fft2d::new(4, 4);
        let mut out = vec![Complex64::ZERO; 16];
        fft.inverse_padded_with(&vec![Complex64::ONE; 25], 5, &mut out, &mut Fft2dScratch::new());
    }
}
