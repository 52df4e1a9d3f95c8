//! Hermitian eigensolvers for the SOCS decomposition.
//!
//! Two pieces:
//!
//! * a classic cyclic **Jacobi** solver for small dense real-symmetric
//!   matrices (the Rayleigh–Ritz projections, at most `2k x 2k`), and
//! * blocked **subspace iteration** with Rayleigh–Ritz extraction for the
//!   leading eigenpairs of a large Hermitian operator given only by its
//!   block product ([`HermitianOp`]), which is how the `P^2 x P^2` TCC is
//!   decomposed without ever being materialized.
//!
//! A block of `b` vectors of length `n` is one column-major buffer (column
//! `j` at `j * n`), so every sum of the iteration runs on `ilt_fft`'s block
//! primitives: the operator's product, `S = Q^H Z` ([`conj_dots`]), the
//! Ritz rotation ([`axpys`]) and the first Gram–Schmidt pass
//! ([`sub_axpys`]). Each interleaves independent sums and keeps every
//! sum's own order, so the kernels have the bits of the one-column loops.
//!
//! Complex Hermitian Ritz blocks are handled through the standard real
//! embedding `X + iY -> [[X, -Y], [Y, X]]`, whose spectrum duplicates each
//! complex eigenvalue; duplicates are collapsed by complex Gram–Schmidt.

use ilt_fft::{axpys, conj_dots, sub_axpys, Complex64};

/// A Hermitian linear operator exposed through its product with a block.
pub trait HermitianOp {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;
    /// Computes `out = A v` for a column-major block of vectors (column `j`
    /// at `j * dim()`).
    ///
    /// Implementations may assume `v.len() == out.len()`, a multiple of
    /// `self.dim()`.
    fn apply_block(&self, v: &[Complex64], out: &mut [Complex64]);
}

/// One eigenpair of a Hermitian operator.
#[derive(Clone, Debug)]
pub struct EigPair {
    /// Eigenvalue (real for Hermitian operators).
    pub value: f64,
    /// Unit-norm eigenvector.
    pub vector: Vec<Complex64>,
}

/// Eigendecomposition of a small dense real-symmetric matrix by cyclic
/// Jacobi rotations.
///
/// `a` is row-major `n x n`; returns `(values, vectors)` with `vectors`
/// column-major (`vectors[j * n + i]` is component `i` of eigenvector `j`),
/// sorted by descending eigenvalue.
///
/// # Panics
///
/// Panics if `a.len() != n * n`.
pub fn sym_eig_jacobi(a: &[f64], n: usize) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(a.len(), n * n, "matrix must be n*n");
    let mut m = a.to_vec();
    // v starts as identity; accumulates rotations column-wise
    // (v[i * n + j] = component i of eigenvector j while iterating).
    let mut v = vec![0.0; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }

    for _sweep in 0..64 {
        let mut off = 0.0;
        for p in 0..n {
            for q in p + 1..n {
                off += m[p * n + q] * m[p * n + q];
            }
        }
        if off < 1e-24 {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = m[p * n + q];
                if apq.abs() < 1e-18 {
                    continue;
                }
                let app = m[p * n + p];
                let aqq = m[q * n + q];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for i in 0..n {
                    let aip = m[i * n + p];
                    let aiq = m[i * n + q];
                    m[i * n + p] = c * aip - s * aiq;
                    m[i * n + q] = s * aip + c * aiq;
                }
                for j in 0..n {
                    let apj = m[p * n + j];
                    let aqj = m[q * n + j];
                    m[p * n + j] = c * apj - s * aqj;
                    m[q * n + j] = s * apj + c * aqj;
                }
                for i in 0..n {
                    let vip = v[i * n + p];
                    let viq = v[i * n + q];
                    v[i * n + p] = c * vip - s * viq;
                    v[i * n + q] = s * vip + c * viq;
                }
            }
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m[j * n + j].partial_cmp(&m[i * n + i]).expect("finite eigenvalues"));
    let values: Vec<f64> = order.iter().map(|&i| m[i * n + i]).collect();
    let mut vectors = vec![0.0; n * n];
    for (col, &src) in order.iter().enumerate() {
        for i in 0..n {
            vectors[col * n + i] = v[i * n + src];
        }
    }
    (values, vectors)
}

/// Computes the `k` leading eigenpairs of a Hermitian PSD operator by
/// blocked subspace iteration with Rayleigh–Ritz extraction.
///
/// `oversample` extra directions improve convergence of the trailing kept
/// eigenpairs; iteration stops when every kept Ritz value is stable to
/// relative `tol` or after `max_iters` block multiplications.
///
/// Results are sorted by descending eigenvalue; eigenvectors are unit norm
/// and mutually orthogonal.
///
/// # Panics
///
/// Panics if `k == 0` or `k > op.dim()`.
pub fn top_eigenpairs(
    op: &impl HermitianOp,
    k: usize,
    oversample: usize,
    max_iters: usize,
    tol: f64,
    seed: u64,
) -> Vec<EigPair> {
    let n = op.dim();
    assert!(k > 0 && k <= n, "need 0 < k <= dim (k = {k}, dim = {n})");
    let b = (k + oversample).min(n);

    // Deterministic pseudo-random start block.
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut rand_unit = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    let mut q: Vec<Complex64> = (0..b * n).map(|_| Complex64::new(rand_unit(), rand_unit())).collect();
    orthonormalize(&mut q, n);
    // The one other block; each step writes `Z = A Q` here and the rotated
    // block back over `Q`.
    let mut z = vec![Complex64::ZERO; b * n];

    let mut prev_ritz: Vec<f64> = vec![f64::INFINITY; k];

    for iter in 0..max_iters {
        // Rotate the multiplied block by the Ritz vectors, so the columns of
        // Z approximate eigenvector directions, then re-orthonormalize for
        // the next power step.
        let (vals, vecs) = rayleigh_ritz(op, &q, &mut z);
        combine(&z, n, &vecs, &mut q);
        orthonormalize(&mut q, n);

        let converged = vals[..k]
            .iter()
            .zip(&prev_ritz)
            .all(|(&now, &before)| (now - before).abs() <= tol * now.abs().max(1e-30));
        prev_ritz.copy_from_slice(&vals[..k]);
        if converged && iter >= 2 {
            break;
        }
    }

    // Final Ritz extraction on the converged subspace.
    let (vals, vecs) = rayleigh_ritz(op, &q, &mut z);
    let vectors = &mut z[..k * n];
    combine(&q, n, &vecs, vectors);
    vectors
        .chunks(n)
        .zip(vals)
        .map(|(vector, value)| {
            let mut vector = vector.to_vec();
            normalize(&mut vector);
            EigPair { value, vector }
        })
        .collect()
}

/// Rayleigh–Ritz on the orthonormal block `Q`: writes `Z = A Q` into `z` and
/// returns the eigenpairs of `S = Q^H Z` (Hermitian `b x b`, row `i` the
/// dots of `q_i` against every column of `Z`).
fn rayleigh_ritz(op: &impl HermitianOp, q: &[Complex64], z: &mut [Complex64]) -> (Vec<f64>, Vec<Complex64>) {
    let n = op.dim();
    op.apply_block(q, z);
    let b = q.len() / n;
    let mut s = vec![Complex64::ZERO; b * b];
    for (qi, row) in q.chunks(n).zip(s.chunks_mut(b)) {
        conj_dots(qi, z, n, row);
    }
    hermitian_small_eig(&s, b)
}

/// Writes into `out`'s `count` columns the first `count` combinations
/// `sum_src cols[src] * coefs[c * b + src]` of the `b` columns (length `n`)
/// of `cols` (`coefs` column-major `b x b`, as `hermitian_small_eig`
/// returns its vectors), each summed in `src` order.
fn combine(cols: &[Complex64], n: usize, coefs: &[Complex64], out: &mut [Complex64]) {
    let (b, count) = (cols.len() / n, out.len() / n);
    out.fill(Complex64::ZERO);
    for (src, col) in cols.chunks(n).enumerate() {
        let row: Vec<Complex64> = (0..count).map(|c| coefs[c * b + src]).collect();
        axpys(col, &row, out, n);
    }
}

/// Hermitian inner product `<a, b> = a^H b`.
fn dot(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    a.iter().zip(b).map(|(&x, &y)| x.conj() * y).sum()
}

fn normalize(v: &mut [Complex64]) {
    let norm = dot(v, v).re.sqrt();
    if norm > 0.0 {
        let inv = 1.0 / norm;
        for x in v.iter_mut() {
            *x = x.scale(inv);
        }
    }
}

/// Modified Gram–Schmidt with one re-orthogonalization pass over the
/// column-major block `cols` (columns of length `n`). Columns that collapse
/// (linearly dependent) are replaced by deterministic fresh directions and
/// re-processed.
///
/// A column's first pass subtracts each finished column's projection in
/// turn, so it is applied from the finished column to all later columns at
/// once: the same subtractions, in the same order per column, as running it
/// at the column's own turn. The second pass, the norm check and a
/// reseeded column's two passes run at the column's turn.
fn orthonormalize(cols: &mut [Complex64], n: usize) {
    let b = cols.len() / n;
    let mut proj = vec![Complex64::ZERO; b];
    for i in 0..b {
        let (done, rest) = cols.split_at_mut(i * n);
        let (col, later) = rest.split_at_mut(n);
        for attempt in 0..3 {
            // The finished columns already ran attempt 0's first pass.
            for _pass in usize::from(attempt == 0)..2 {
                for q in done.chunks(n) {
                    let p = dot(q, col);
                    for (x, &qe) in col.iter_mut().zip(q) {
                        *x -= qe * p;
                    }
                }
            }
            let norm = dot(col, col).re.sqrt();
            if norm > 1e-12 {
                let inv = 1.0 / norm;
                for x in col.iter_mut() {
                    *x = x.scale(inv);
                }
                break;
            }
            // Degenerate column: reseed deterministically from its index.
            for (t, x) in col.iter_mut().enumerate() {
                let h = ((t as u64 + 1).wrapping_mul(i as u64 + 7)).wrapping_mul(0x2545F4914F6CDD1D);
                *x = Complex64::new(((h >> 16) % 1000) as f64 / 500.0 - 1.0, ((h >> 40) % 1000) as f64 / 500.0 - 1.0);
            }
        }
        let proj = &mut proj[..b - 1 - i];
        proj.fill(Complex64::ZERO);
        conj_dots(col, later, n, proj);
        sub_axpys(col, proj, later, n);
    }
}

/// Eigendecomposition of a small dense complex Hermitian matrix via the real
/// symmetric embedding. Returns `(values, vectors)` with column-major complex
/// eigenvectors sorted by descending eigenvalue.
fn hermitian_small_eig(s: &[Complex64], b: usize) -> (Vec<f64>, Vec<Complex64>) {
    // Embed X + iY as [[X, -Y], [Y, X]] (2b x 2b real symmetric).
    let m = 2 * b;
    let mut real = vec![0.0; m * m];
    for i in 0..b {
        for j in 0..b {
            let z = s[i * b + j];
            real[i * m + j] = z.re;
            real[(i + b) * m + (j + b)] = z.re;
            real[i * m + (j + b)] = -z.im;
            real[(i + b) * m + j] = z.im;
        }
    }
    let (vals, vecs) = sym_eig_jacobi(&real, m);

    // Each complex eigenpair appears twice; collapse duplicates by
    // Gram–Schmidt in complex space.
    let mut out_vals = Vec::with_capacity(b);
    let mut out_vecs: Vec<Vec<Complex64>> = Vec::with_capacity(b);
    for col in 0..m {
        if out_vals.len() == b {
            break;
        }
        let mut cv: Vec<Complex64> = (0..b)
            .map(|i| Complex64::new(vecs[col * m + i], vecs[col * m + (i + b)]))
            .collect();
        for prev in &out_vecs {
            let proj = dot(prev, &cv);
            for (x, &p) in cv.iter_mut().zip(prev) {
                *x -= p * proj;
            }
        }
        let norm = dot(&cv, &cv).re.sqrt();
        if norm < 1e-8 {
            continue; // duplicate of an already-kept eigenvector
        }
        let inv = 1.0 / norm;
        for x in cv.iter_mut() {
            *x = x.scale(inv);
        }
        out_vals.push(vals[col]);
        out_vecs.push(cv);
    }
    debug_assert_eq!(out_vals.len(), b, "embedding must yield b distinct eigenpairs");

    let mut flat = vec![Complex64::ZERO; b * b];
    for (col, cv) in out_vecs.iter().enumerate() {
        flat[col * b..(col + 1) * b].copy_from_slice(cv);
    }
    (out_vals, flat)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct DenseH {
        n: usize,
        m: Vec<Complex64>,
    }

    impl HermitianOp for DenseH {
        fn dim(&self) -> usize {
            self.n
        }
        fn apply_block(&self, v: &[Complex64], out: &mut [Complex64]) {
            for (v, out) in v.chunks(self.n).zip(out.chunks_mut(self.n)) {
                for (i, o) in out.iter_mut().enumerate() {
                    *o = (0..self.n).map(|j| self.m[i * self.n + j] * v[j]).sum();
                }
            }
        }
    }

    /// Builds A = U diag(vals) U^H for a deterministic unitary-ish U.
    fn with_spectrum(vals: &[f64]) -> DenseH {
        let n = vals.len();
        let mut cols: Vec<Complex64> = (0..n * n)
            .map(|at| {
                let t = (at % n * n + at / n) as f64;
                Complex64::new((t * 0.7).sin() + 0.1, (t * 1.3).cos())
            })
            .collect();
        orthonormalize(&mut cols, n);
        let mut m = vec![Complex64::ZERO; n * n];
        for (j, col) in cols.chunks(n).enumerate() {
            for a in 0..n {
                for b in 0..n {
                    m[a * n + b] += col[a] * col[b].conj() * vals[j];
                }
            }
        }
        DenseH { n, m }
    }

    /// `orthonormalize` as it was before the batched first pass: each
    /// column's two passes, norm check and reseed at its own turn.
    fn orthonormalize_sequential(cols: &mut [Vec<Complex64>]) {
        for i in 0..cols.len() {
            for _attempt in 0..3 {
                for _pass in 0..2 {
                    for j in 0..i {
                        let (left, right) = cols.split_at_mut(i);
                        let proj = dot(&left[j], &right[0]);
                        for (x, &b) in right[0].iter_mut().zip(&left[j]) {
                            *x -= b * proj;
                        }
                    }
                }
                let norm = dot(&cols[i], &cols[i]).re.sqrt();
                if norm > 1e-12 {
                    let inv = 1.0 / norm;
                    for x in cols[i].iter_mut() {
                        *x = x.scale(inv);
                    }
                    break;
                }
                for (t, x) in cols[i].iter_mut().enumerate() {
                    let h = ((t as u64 + 1).wrapping_mul(i as u64 + 7)).wrapping_mul(0x2545F4914F6CDD1D);
                    *x = Complex64::new(((h >> 16) % 1000) as f64 / 500.0 - 1.0, ((h >> 40) % 1000) as f64 / 500.0 - 1.0);
                }
            }
        }
    }

    #[test]
    fn batched_gram_schmidt_is_the_sequential_one_to_the_bit() {
        // Seven columns, an odd width: column 3 repeats column 1 and column 5
        // is all zero, so both collapse and take the reseed path.
        let n = 40;
        let mut cols: Vec<Vec<Complex64>> = (0..7)
            .map(|j| (0..n).map(|i| Complex64::new((i as f64 * 0.3 + j as f64).sin(), (i * j) as f64 * 0.01)).collect())
            .collect();
        cols[3] = cols[1].clone();
        cols[5] = vec![Complex64::ZERO; n];
        let mut block: Vec<Complex64> = cols.concat();
        orthonormalize_sequential(&mut cols);
        orthonormalize(&mut block, n);
        for (j, (want, got)) in cols.iter().zip(block.chunks(n)).enumerate() {
            for (e, (w, g)) in want.iter().zip(got).enumerate() {
                assert!(
                    w.re.to_bits() == g.re.to_bits() && w.im.to_bits() == g.im.to_bits(),
                    "column {j}, element {e}: {g} vs {w}"
                );
            }
        }
        assert!((dot(&block[5 * n..6 * n], &block[5 * n..6 * n]).re - 1.0).abs() < 1e-12, "zero column not reseeded");
    }

    #[test]
    fn jacobi_diagonalizes_known_matrix() {
        // [[2, 1], [1, 2]] has eigenvalues 3, 1.
        let (vals, vecs) = sym_eig_jacobi(&[2.0, 1.0, 1.0, 2.0], 2);
        assert!((vals[0] - 3.0).abs() < 1e-12);
        assert!((vals[1] - 1.0).abs() < 1e-12);
        // First eigenvector ~ (1,1)/sqrt(2)
        assert!((vecs[0].abs() - vecs[1].abs()).abs() < 1e-10);
    }

    #[test]
    fn jacobi_reconstructs_matrix() {
        let n = 6;
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let v = ((i * 31 + j * 17) % 13) as f64 - 6.0;
                a[i * n + j] += v;
                a[j * n + i] += v;
            }
        }
        let (vals, vecs) = sym_eig_jacobi(&a, n);
        // A = V diag V^T
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += vecs[k * n + i] * vals[k] * vecs[k * n + j];
                }
                assert!((acc - a[i * n + j]).abs() < 1e-8, "({i},{j})");
            }
        }
        // Eigenvalues sorted descending.
        for w in vals.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn subspace_iteration_finds_leading_pairs() {
        let spectrum = [10.0, 6.0, 3.0, 1.0, 0.5, 0.1, 0.05, 0.01];
        let op = with_spectrum(&spectrum);
        let pairs = top_eigenpairs(&op, 4, 3, 200, 1e-12, 42);
        for (pair, &want) in pairs.iter().zip(&spectrum) {
            assert!((pair.value - want).abs() < 1e-6, "{} vs {want}", pair.value);
            // Residual || A v - lambda v ||.
            let mut av = vec![Complex64::ZERO; op.dim()];
            op.apply_block(&pair.vector, &mut av);
            let res: f64 = av
                .iter()
                .zip(&pair.vector)
                .map(|(&a, &v)| (a - v.scale(pair.value)).norm_sqr())
                .sum::<f64>()
                .sqrt();
            assert!(res < 1e-5, "residual {res}");
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let op = with_spectrum(&[5.0, 4.0, 3.0, 2.0, 1.0, 0.5]);
        let pairs = top_eigenpairs(&op, 4, 2, 200, 1e-12, 7);
        for i in 0..pairs.len() {
            for j in 0..pairs.len() {
                let d = dot(&pairs[i].vector, &pairs[j].vector);
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((d.re - want).abs() < 1e-6 && d.im.abs() < 1e-6, "({i},{j}): {d}");
            }
        }
    }

    #[test]
    fn handles_degenerate_eigenvalues() {
        let op = with_spectrum(&[4.0, 4.0, 2.0, 1.0, 0.2]);
        let pairs = top_eigenpairs(&op, 3, 2, 300, 1e-12, 3);
        assert!((pairs[0].value - 4.0).abs() < 1e-6);
        assert!((pairs[1].value - 4.0).abs() < 1e-6);
        assert!((pairs[2].value - 2.0).abs() < 1e-6);
        let d = dot(&pairs[0].vector, &pairs[1].vector);
        assert!(d.abs() < 1e-5, "degenerate eigenvectors must stay orthogonal");
    }

    #[test]
    fn rank_deficient_operator() {
        let op = with_spectrum(&[3.0, 0.0, 0.0, 0.0]);
        let pairs = top_eigenpairs(&op, 2, 1, 100, 1e-10, 11);
        assert!((pairs[0].value - 3.0).abs() < 1e-7);
        assert!(pairs[1].value.abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "0 < k <= dim")]
    fn k_zero_panics() {
        let op = with_spectrum(&[1.0, 0.5]);
        let _ = top_eigenpairs(&op, 0, 0, 10, 1e-8, 1);
    }
}
