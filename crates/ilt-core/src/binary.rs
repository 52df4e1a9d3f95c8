//! Mask binary functions (Section III-C of the paper).
//!
//! ILT optimizes a free-valued mask `M'`; a binary function squashes it
//! into `(0, 1)` so the lithography model sees a near-binary transmission.
//! The paper's key observation: the conventional sigmoid with `T_R = 0`
//! binarizes the initial target mask to `{0.5, ~1}`, forcing the first
//! iterations to push background pixels hard negative — after which SRAFs
//! can barely emerge. Setting `T_R = 0.5` during optimization (and `0.4`
//! for the final output, to rescue faint SRAFs) starts at `{~0.1, ~0.9}`
//! and leaves the background responsive.

use ilt_autodiff::{Graph, Var};
use ilt_field::Field2D;
use ilt_optics::{logistic, logistic_in_place};

/// A differentiable mask binarization function.
///
/// # Examples
///
/// ```
/// use ilt_core::BinaryFunction;
///
/// let paper = BinaryFunction::paper_sigmoid();       // beta = 4, T_R = 0.5
/// let legacy = BinaryFunction::legacy_sigmoid();     // beta = 4, T_R = 0
/// // At M' = 0 (a background pixel of the initial mask):
/// assert!((paper.value(0.0) - 0.119).abs() < 1e-3);  // ~0.1, still plastic
/// assert!((legacy.value(0.0) - 0.5).abs() < 1e-12);  // stuck at the cliff
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BinaryFunction {
    /// Eq. 11: `M = 1 / (1 + exp(-beta (M' - t_r)))`.
    Sigmoid {
        /// Steepness `beta` (the literature standard is 4).
        beta: f64,
        /// Threshold shift `T_R`.
        t_r: f64,
    },
    /// Eq. 10 ([11]): `M = (1 + cos M') / 2`. Periodic, so learning-rate
    /// sensitive; included as a baseline.
    Cosine,
}

impl BinaryFunction {
    /// The paper's improved optimization sigmoid: `beta = 4`, `T_R = 0.5`.
    pub const fn paper_sigmoid() -> Self {
        BinaryFunction::Sigmoid { beta: 4.0, t_r: 0.5 }
    }

    /// The paper's output sigmoid: `beta = 4`, `T_R = 0.4` (a smaller
    /// threshold promotes faint SRAFs into the final mask).
    pub const fn output_sigmoid() -> Self {
        BinaryFunction::Sigmoid { beta: 4.0, t_r: 0.4 }
    }

    /// The conventional sigmoid used by most pixel ILTs ([12]): `beta = 4`,
    /// `T_R = 0`.
    pub const fn legacy_sigmoid() -> Self {
        BinaryFunction::Sigmoid { beta: 4.0, t_r: 0.0 }
    }

    /// Scalar forward value.
    pub fn value(&self, x: f64) -> f64 {
        match *self {
            BinaryFunction::Sigmoid { beta, t_r } => logistic(-beta * (x - t_r)),
            BinaryFunction::Cosine => 0.5 * (1.0 + x.cos()),
        }
    }

    /// Scalar derivative.
    pub fn derivative(&self, x: f64) -> f64 {
        match *self {
            BinaryFunction::Sigmoid { beta, t_r } => {
                let y = logistic(-beta * (x - t_r));
                beta * y * (1.0 - y)
            }
            BinaryFunction::Cosine => -0.5 * x.sin(),
        }
    }

    /// Applies the function to a whole field (a sigmoid through the shared
    /// [`logistic_in_place`], as [`Graph::sigmoid`] runs it).
    pub fn apply_field(&self, x: &Field2D) -> Field2D {
        let BinaryFunction::Sigmoid { beta, t_r } = *self else {
            return x.map(|v| self.value(v));
        };
        let mut y = x.map(|v| -beta * (v - t_r));
        logistic_in_place(y.as_mut_slice());
        y
    }

    /// The adjoint of [`BinaryFunction::apply_field`]: `dL/dx` from
    /// `grad = dL/dy`, where `y = apply_field(x)`. Each pixel is formed in
    /// the operand order of the tape's rule ([`BinaryFunction::apply`]), so
    /// the two agree to the bit.
    pub fn pull_back(&self, x: &Field2D, y: &Field2D, grad: &Field2D) -> Field2D {
        match *self {
            BinaryFunction::Sigmoid { beta, .. } => {
                grad.zip_map(y, |g, yv| g * beta * yv * (1.0 - yv))
            }
            BinaryFunction::Cosine => grad.zip_map(x, |g, xv| -0.5 * xv.sin() * g),
        }
    }

    /// Records the function on an autodiff graph.
    pub fn apply(&self, g: &mut Graph, x: Var) -> Var {
        match *self {
            BinaryFunction::Sigmoid { beta, t_r } => g.sigmoid(x, beta, t_r),
            BinaryFunction::Cosine => g.cosine_binary(x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_autodiff::finite_diff;

    #[test]
    fn paper_sigmoid_initial_values() {
        // Section III-C: with T_R = 0.5 the initial binarized mask is
        // {~0.1, ~0.9} — much closer to the original {0, 1} than {0.5, ~1}.
        let f = BinaryFunction::paper_sigmoid();
        assert!((f.value(0.0) - 0.119).abs() < 1e-3);
        assert!((f.value(1.0) - 0.881).abs() < 1e-3);
        let legacy = BinaryFunction::legacy_sigmoid();
        assert!((legacy.value(0.0) - 0.5).abs() < 1e-12);
        assert!(legacy.value(1.0) > 0.98);
    }

    #[test]
    fn gradient_peak_location_differs() {
        // Fig. 5(b): with T_R = 0 the gradient peaks exactly at M' = 0 (the
        // background's initial value), driving it away; with T_R = 0.5 the
        // peak sits mid-range.
        let legacy = BinaryFunction::legacy_sigmoid();
        let paper = BinaryFunction::paper_sigmoid();
        assert!(legacy.derivative(0.0) > legacy.derivative(0.5));
        assert!(paper.derivative(0.5) > paper.derivative(0.0));
    }

    #[test]
    fn derivatives_match_finite_differences() {
        for f in [
            BinaryFunction::paper_sigmoid(),
            BinaryFunction::legacy_sigmoid(),
            BinaryFunction::Cosine,
            BinaryFunction::Sigmoid { beta: 8.0, t_r: -0.3 },
        ] {
            for x in [-2.0, -0.5, 0.0, 0.3, 0.5, 1.0, 2.5] {
                let eps = 1e-6;
                let fd = (f.value(x + eps) - f.value(x - eps)) / (2.0 * eps);
                assert!(
                    (f.derivative(x) - fd).abs() < 1e-8,
                    "{f:?} at {x}: {} vs {fd}",
                    f.derivative(x)
                );
            }
        }
    }

    #[test]
    fn sigmoid_output_range_is_open_unit_interval() {
        let f = BinaryFunction::paper_sigmoid();
        let x = Field2D::from_fn(4, 4, |r, c| (r as f64 - 2.0) * 3.0 + c as f64);
        let y = f.apply_field(&x);
        for &v in y.as_slice() {
            assert!(v > 0.0 && v < 1.0);
        }
    }

    #[test]
    fn graph_application_matches_scalar_path() {
        let f = BinaryFunction::output_sigmoid();
        let x0 = Field2D::from_fn(3, 3, |r, c| (r as f64) * 0.4 - (c as f64) * 0.3);
        let mut g = Graph::without_simulator();
        let x = g.leaf(x0.clone());
        let y = f.apply(&mut g, x);
        let want = f.apply_field(&x0);
        assert_eq!(g.value(y), &want);

        // And its gradient agrees with finite differences.
        let loss = g.weighted_sum(y, Field2D::filled(3, 3, 1.0));
        let grads = g.backward(loss);
        let numeric = finite_diff(&x0, 1e-6, |xv| f.apply_field(xv).sum());
        ilt_autodiff::assert_gradients_close(grads.wrt(x).unwrap(), &numeric, 1e-7);
    }

    #[test]
    fn pull_back_is_the_tapes_rule_to_the_bit() {
        let bits = |f: &Field2D| f.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let x0 = Field2D::from_fn(5, 4, |r, c| (r as f64) * 0.7 - (c as f64) * 0.45);
        let w = Field2D::from_fn(5, 4, |r, c| ((r * 3 + c) % 7) as f64 * 0.3 - 0.8);
        for f in [BinaryFunction::paper_sigmoid(), BinaryFunction::Cosine] {
            let mut g = Graph::without_simulator();
            let x = g.leaf(x0.clone());
            let y = f.apply(&mut g, x);
            let loss = g.weighted_sum(y, w.clone());
            let grads = g.backward(loss);
            let y0 = f.apply_field(&x0);
            assert_eq!(bits(g.value(y)), bits(&y0), "{f:?}: forward");
            let want = grads.wrt(x).unwrap();
            assert_eq!(bits(want), bits(&f.pull_back(&x0, &y0, &w)), "{f:?}: adjoint");
        }
    }

    #[test]
    fn cosine_is_periodic() {
        let f = BinaryFunction::Cosine;
        assert!((f.value(0.3) - f.value(0.3 + std::f64::consts::TAU)).abs() < 1e-12);
        assert!((f.value(0.0) - 1.0).abs() < 1e-12);
        assert!(f.value(std::f64::consts::PI) < 1e-12);
    }
}
