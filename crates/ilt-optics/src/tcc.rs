//! Hopkins transmission cross coefficients (TCC).
//!
//! For Köhler illumination with source intensity `J` and pupil `P`, the TCC
//! is `T(f1, f2) = sum_s J(s) P(s + f1) conj(P(s + f2))` — a Hermitian
//! positive-semidefinite operator on the band-limited frequency grid. Its
//! leading eigenpairs are the SOCS kernels of Eq. 2/3 in the paper.
//!
//! The matrix is never materialized in the hot path: `T = A^H W A` with one
//! row of `A` per source point. A row is the pupil shifted by its source
//! point, a disc that covers about a fifth of the `P x P` grid, so each row
//! keeps only its nonzero bins and a matvec costs `O(n_src * |support|)`
//! instead of `O(n_src * P^2)` (or `O(P^4)` dense). The eigensolver asks
//! for the product with a whole block of vectors at once, so each row's
//! dots and scatter run across all columns on `ilt_fft`'s block primitives
//! while every column's sums keep the one-vector order. A dense
//! materialization is provided for tests.

use ilt_fft::{axpys, conj_dots, signed_freq, Complex64};

use crate::eig::HermitianOp;
use crate::pupil::Pupil;
use crate::source::SourcePoint;

/// The TCC operator in factored form.
///
/// # Examples
///
/// ```
/// use ilt_optics::{Pupil, SourceSpec, Tcc};
///
/// let pupil = Pupil::new(1.35, 193.0, 0.0);
/// let pts = SourceSpec::Annular { sigma_in: 0.6, sigma_out: 0.9 }.sample(9);
/// let tcc = Tcc::build(&pupil, &pts, 9, 1.0 / 256.0);
/// assert_eq!(tcc.p(), 9);
/// assert!(tcc.trace() > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct Tcc {
    p: usize,
    rows: Vec<ShiftedPupil>,
}

/// One row of `A`: `P(f_s + f_a)` for source point `s` over the bins `a` of
/// the `p x p` signed-frequency grid, kept where it is nonzero.
///
/// `runs` are the maximal runs of nonzero bins in increasing order, each as
/// its first bin and its entries. Skipping the zero bins changes no bit of
/// any sum over a row: a zero bin's product is a signed zero, and a sum that
/// starts at `+0` never becomes `-0`, so adding it is the identity.
#[derive(Clone, Debug)]
struct ShiftedPupil {
    weight: f64,
    runs: Vec<(usize, Vec<Complex64>)>,
}

impl Tcc {
    /// Builds the factored TCC for `pupil` under the discretized `source`.
    ///
    /// `p` is the frequency-domain kernel support (odd) and `freq_step` the
    /// grid's frequency spacing in 1/nm; source points are given in sigma
    /// units and mapped to absolute frequency via the pupil cutoff.
    ///
    /// # Panics
    ///
    /// Panics if `p` is even or `source` is empty.
    pub fn build(pupil: &Pupil, source: &[SourcePoint], p: usize, freq_step: f64) -> Self {
        assert!(p % 2 == 1, "kernel support must be odd");
        assert!(!source.is_empty(), "source must contain at least one point");
        let cutoff = pupil.cutoff();
        let rows = source
            .iter()
            .map(|sp| {
                let (sx, sy) = (sp.sx * cutoff, sp.sy * cutoff);
                let mut row = ShiftedPupil { weight: sp.weight, runs: Vec::new() };
                for a in 0..p * p {
                    let fy = signed_freq(a / p, p) as f64 * freq_step;
                    let fx = signed_freq(a % p, p) as f64 * freq_step;
                    let z = pupil.eval(sx + fx, sy + fy);
                    if z == Complex64::ZERO {
                        continue;
                    }
                    match row.runs.last_mut() {
                        Some((start, values)) if *start + values.len() == a => values.push(z),
                        _ => row.runs.push((a, vec![z])),
                    }
                }
                row
            })
            .collect();
        Tcc { p, rows }
    }

    /// Kernel support `P`.
    #[inline]
    pub fn p(&self) -> usize {
        self.p
    }

    /// Trace of the TCC (sum of all eigenvalues). Used to report how much
    /// optical energy the truncated SOCS expansion captures.
    pub fn trace(&self) -> f64 {
        self.rows
            .iter()
            .map(|row| row.weight * row.runs.iter().flat_map(|(_, values)| values).map(|z| z.norm_sqr()).sum::<f64>())
            .sum()
    }

    /// Materializes the dense `(P^2) x (P^2)` Hermitian matrix. Test-only
    /// scale: O(P^4) memory.
    pub fn dense(&self) -> Vec<Complex64> {
        let n = self.p * self.p;
        let mut m = vec![Complex64::ZERO; n * n];
        for row in &self.rows {
            let bins = || row.runs.iter().flat_map(|(start, values)| (*start..).zip(values.iter().copied()));
            for (a, za) in bins() {
                let wa = za.scale(row.weight);
                for (b, zb) in bins() {
                    m[a * n + b] += wa * zb.conj();
                }
            }
        }
        m
    }
}

impl HermitianOp for Tcc {
    fn dim(&self) -> usize {
        self.p * self.p
    }

    /// `out = T v = sum_s w_s a_s (a_s^H v)` for every column `v` of the
    /// block, one source row at a time across all columns: the row's dots
    /// over its runs, the weight, then its scatter over the same runs.
    fn apply_block(&self, v: &[Complex64], out: &mut [Complex64]) {
        let n = self.dim();
        let mut dots = vec![Complex64::ZERO; v.len() / n];
        out.fill(Complex64::ZERO);
        for row in &self.rows {
            dots.fill(Complex64::ZERO);
            for (start, values) in &row.runs {
                conj_dots(values, &v[*start..], n, &mut dots);
            }
            for d in &mut dots {
                *d = d.scale(row.weight);
            }
            for (start, values) in &row.runs {
                axpys(values, &dots, &mut out[*start..], n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceSpec;

    fn small_tcc(defocus: f64) -> Tcc {
        let pupil = Pupil::new(1.35, 193.0, defocus);
        let pts = SourceSpec::Annular { sigma_in: 0.5, sigma_out: 0.9 }.sample(9);
        Tcc::build(&pupil, &pts, 7, 1.0 / 512.0)
    }

    /// `T v` and the trace over every bin of every shifted pupil, zeros
    /// included: the operator before each row kept only its support.
    fn every_bin(pupil: &Pupil, source: &[SourcePoint], p: usize, step: f64, v: &[Complex64]) -> (Vec<Complex64>, f64) {
        let cutoff = pupil.cutoff();
        let mut out = vec![Complex64::ZERO; p * p];
        let mut trace = 0.0;
        for sp in source {
            let row: Vec<Complex64> = (0..p * p)
                .map(|a| {
                    let fy = signed_freq(a / p, p) as f64 * step;
                    let fx = signed_freq(a % p, p) as f64 * step;
                    pupil.eval(sp.sx * cutoff + fx, sp.sy * cutoff + fy)
                })
                .collect();
            let mut dot = Complex64::ZERO;
            for (a, &x) in row.iter().zip(v) {
                dot += a.conj() * x;
            }
            let dot = dot.scale(sp.weight);
            for (o, &a) in out.iter_mut().zip(&row) {
                *o += a * dot;
            }
            trace += sp.weight * row.iter().map(|z| z.norm_sqr()).sum::<f64>();
        }
        (out, trace)
    }

    #[test]
    fn support_only_operator_is_the_every_bin_operator_to_the_bit() {
        // P = 57 at 1/2048 per nm is the M1 kernel block, where a shifted
        // pupil covers about a fifth of the bins; P = 9 at 1/512 clips the
        // pupils at the block's edge.
        let pts = SourceSpec::Annular { sigma_in: 0.6, sigma_out: 0.9 }.sample(15);
        for (p, step) in [(57, 1.0 / 2048.0), (9, 1.0 / 512.0)] {
            for defocus in [0.0, 60.0] {
                let pupil = Pupil::new(1.35, 193.0, defocus);
                let tcc = Tcc::build(&pupil, &pts, p, step);
                let n = tcc.dim();
                let kept: usize = tcc.rows.iter().flat_map(|row| &row.runs).map(|(_, values)| values.len()).sum();
                if p == 57 {
                    assert!(kept * 4 < pts.len() * n, "{kept} of {} bins kept", pts.len() * n);
                }
                // Three columns: a pair and the odd tail of the block product.
                let v: Vec<Complex64> = (0..3 * n)
                    .map(|i| Complex64::new((i as f64 * 0.37).sin(), -(i as f64 * 0.91).cos()))
                    .collect();
                let mut fast = vec![Complex64::ZERO; 3 * n];
                tcc.apply_block(&v, &mut fast);
                let mut trace = 0.0;
                for (col, (v, fast)) in v.chunks(n).zip(fast.chunks(n)).enumerate() {
                    let (slow, every_bin_trace) = every_bin(&pupil, &pts, p, step, v);
                    trace = every_bin_trace;
                    for (a, (f, s)) in fast.iter().zip(&slow).enumerate() {
                        assert!(
                            f.re.to_bits() == s.re.to_bits() && f.im.to_bits() == s.im.to_bits(),
                            "P {p}, defocus {defocus}, column {col}, bin {a}: {f} vs {s}"
                        );
                    }
                }
                assert_eq!(tcc.trace().to_bits(), trace.to_bits(), "P {p}, defocus {defocus}");
            }
        }
    }

    #[test]
    fn dense_matches_operator_apply() {
        let tcc = small_tcc(40.0);
        let n = tcc.dim();
        let dense = tcc.dense();
        let v: Vec<Complex64> =
            (0..n).map(|i| Complex64::new((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos())).collect();
        let mut fast = vec![Complex64::ZERO; n];
        tcc.apply_block(&v, &mut fast);
        for a in 0..n {
            let mut slow = Complex64::ZERO;
            for b in 0..n {
                slow += dense[a * n + b] * v[b];
            }
            assert!((fast[a] - slow).abs() < 1e-10);
        }
    }

    #[test]
    fn dense_is_hermitian() {
        let tcc = small_tcc(40.0);
        let n = tcc.dim();
        let dense = tcc.dense();
        for a in 0..n {
            for b in 0..n {
                assert!((dense[a * n + b] - dense[b * n + a].conj()).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn operator_is_positive_semidefinite() {
        let tcc = small_tcc(0.0);
        let n = tcc.dim();
        for seed in 0..5u64 {
            let v: Vec<Complex64> = (0..n)
                .map(|i| {
                    let x = (i as u64).wrapping_mul(seed.wrapping_add(1)).wrapping_mul(2654435761);
                    Complex64::new((x % 100) as f64 / 50.0 - 1.0, ((x / 100) % 100) as f64 / 50.0 - 1.0)
                })
                .collect();
            let mut tv = vec![Complex64::ZERO; n];
            tcc.apply_block(&v, &mut tv);
            let quad: f64 = v.iter().zip(&tv).map(|(a, b)| (a.conj() * *b).re).sum();
            assert!(quad >= -1e-10, "v^H T v = {quad}");
        }
    }

    #[test]
    fn trace_equals_dense_trace() {
        let tcc = small_tcc(25.0);
        let n = tcc.dim();
        let dense = tcc.dense();
        let dense_trace: f64 = (0..n).map(|a| dense[a * n + a].re).sum();
        assert!((tcc.trace() - dense_trace).abs() < 1e-10);
    }

    #[test]
    fn focused_tcc_is_real_symmetric() {
        let tcc = small_tcc(0.0);
        let n = tcc.dim();
        let dense = tcc.dense();
        for z in &dense {
            assert!(z.im.abs() < 1e-14, "focused TCC must be real");
        }
        for a in 0..n {
            for b in 0..n {
                assert!((dense[a * n + b].re - dense[b * n + a].re).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn coherent_source_gives_rank_one_tcc() {
        let pupil = Pupil::new(1.35, 193.0, 0.0);
        // One on-axis point: a fully coherent source.
        let pts = [SourcePoint { sx: 0.0, sy: 0.0, weight: 1.0 }];
        let tcc = Tcc::build(&pupil, &pts, 5, 1.0 / 512.0);
        // Rank-1: T = a a^H, so T^2 = (a^H a) T.
        let n = tcc.dim();
        let dense = tcc.dense();
        let norm = tcc.trace();
        for a in 0..n {
            for b in 0..n {
                let mut t2 = Complex64::ZERO;
                for c in 0..n {
                    t2 += dense[a * n + c] * dense[c * n + b];
                }
                assert!((t2 - dense[a * n + b].scale(norm)).abs() < 1e-10);
            }
        }
    }
}
