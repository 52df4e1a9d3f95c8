//! Finite-difference gradient checking utilities.
//!
//! Every adjoint rule in this workspace — the graph ops here, the Hopkins
//! VJP in `ilt-optics`, the hand-fused update steps in `ilt-core` — is
//! validated against central finite differences. These helpers make those
//! checks one-liners in downstream test suites.

use ilt_field::Field2D;

/// Central finite-difference gradient of scalar function `f` at `x`.
///
/// Evaluates `f` twice per pixel, so keep the field small in tests.
///
/// # Examples
///
/// ```
/// use ilt_autodiff::finite_diff;
/// use ilt_field::Field2D;
///
/// let x = Field2D::filled(2, 2, 3.0);
/// let grad = finite_diff(&x, 1e-6, |v| v.as_slice().iter().map(|a| a * a).sum());
/// // d/dx sum(x^2) = 2x
/// assert!((grad[(0, 0)] - 6.0).abs() < 1e-5);
/// ```
pub fn finite_diff(x: &Field2D, eps: f64, mut f: impl FnMut(&Field2D) -> f64) -> Field2D {
    let (rows, cols) = x.shape();
    Field2D::from_fn(rows, cols, |r, c| {
        let mut xp = x.clone();
        xp[(r, c)] += eps;
        let mut xm = x.clone();
        xm[(r, c)] -= eps;
        (f(&xp) - f(&xm)) / (2.0 * eps)
    })
}

/// Central finite-difference gradient probed only at the given pixels —
/// cheap enough for full-pipeline checks on larger fields.
pub fn finite_diff_at(
    x: &Field2D,
    eps: f64,
    pixels: &[(usize, usize)],
    mut f: impl FnMut(&Field2D) -> f64,
) -> Vec<f64> {
    pixels
        .iter()
        .map(|&(r, c)| {
            let mut xp = x.clone();
            xp[(r, c)] += eps;
            let mut xm = x.clone();
            xm[(r, c)] -= eps;
            (f(&xp) - f(&xm)) / (2.0 * eps)
        })
        .collect()
}

/// Asserts that `analytic` matches `numeric` to relative tolerance `tol`
/// (absolute for magnitudes below 1).
///
/// # Panics
///
/// Panics with the offending pixel index on mismatch.
pub fn assert_gradients_close(analytic: &Field2D, numeric: &Field2D, tol: f64) {
    assert_eq!(analytic.shape(), numeric.shape(), "gradient shape mismatch");
    for (i, (&a, &n)) in analytic.as_slice().iter().zip(numeric.as_slice()).enumerate() {
        assert!(
            (a - n).abs() <= tol * n.abs().max(1.0),
            "gradient mismatch at pixel {i}: analytic {a} vs numeric {n}"
        );
    }
}

/// [`assert_gradients_close`] for a gradient probed with
/// [`finite_diff_at`]: `numeric[i]` is the finite difference at `pixels[i]`.
/// The tolerance is relative to the probe, with `floor` as the smallest
/// magnitude it is scaled by (pass the largest probe times a small factor
/// when the gradient's scale is far from 1).
///
/// # Panics
///
/// Panics with the offending pixel on mismatch.
pub fn assert_gradients_close_at(
    analytic: &Field2D,
    pixels: &[(usize, usize)],
    numeric: &[f64],
    tol: f64,
    floor: f64,
) {
    assert_eq!(pixels.len(), numeric.len(), "one finite difference per pixel");
    for (&(r, c), &n) in pixels.iter().zip(numeric) {
        let a = analytic[(r, c)];
        assert!(
            (a - n).abs() <= tol * n.abs().max(floor),
            "gradient mismatch at ({r},{c}): analytic {a} vs numeric {n}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_diff_of_linear_function_is_exact() {
        let x = Field2D::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        let w = Field2D::from_fn(3, 3, |r, c| (r as f64) - (c as f64) * 0.5);
        let g = finite_diff(&x, 1e-5, |v| v.hadamard(&w).sum());
        assert_gradients_close(&g, &w, 1e-9);
    }

    #[test]
    fn finite_diff_at_matches_dense() {
        let x = Field2D::from_fn(4, 4, |r, c| ((r + c) as f64 * 0.37).sin());
        let f = |v: &Field2D| v.as_slice().iter().map(|a| a * a * a).sum::<f64>();
        let dense = finite_diff(&x, 1e-6, f);
        let sparse = finite_diff_at(&x, 1e-6, &[(0, 0), (2, 3)], f);
        assert!((sparse[0] - dense[(0, 0)]).abs() < 1e-10);
        assert!((sparse[1] - dense[(2, 3)]).abs() < 1e-10);
        assert_gradients_close_at(&dense, &[(0, 0), (2, 3)], &sparse, 1e-9, 1.0);
    }

    #[test]
    #[should_panic(expected = "gradient mismatch at (1,0)")]
    fn sampled_mismatch_names_the_pixel() {
        let a = Field2D::filled(2, 2, 1.0);
        assert_gradients_close_at(&a, &[(0, 1), (1, 0)], &[1.0, 1.1], 1e-3, 1.0);
    }

    #[test]
    #[should_panic(expected = "gradient mismatch")]
    fn mismatch_is_reported() {
        let a = Field2D::filled(2, 2, 1.0);
        let b = Field2D::filled(2, 2, 2.0);
        assert_gradients_close(&a, &b, 1e-3);
    }
}
