//! Loss assembly: Eq. 5 plus the optional regularizers from the related
//! work the paper builds on.
//!
//! The paper's loss is `L = L_l2 + L_pvb` (Eq. 5). Two optional penalty
//! terms from the baselines it discusses are provided for ablations and
//! extensions:
//!
//! * **curvature** — a smoothness penalty in the spirit of DevelSet [5]:
//!   `||M - mean3(M)||^2` punishes high-curvature, ragged contours,
//! * **gray** — a binary-ness penalty in the spirit of Neural-ILT's
//!   complexity term [4]: `sum(M (1 - M))` pushes transmissions to {0, 1},
//!   discouraging the faint debris that inflates shot counts.
//!
//! Both are expressed through the existing autodiff operator set, so their
//! gradients are exact.

use ilt_autodiff::{Graph, Var};
use ilt_field::Field2D;

/// Weights of the loss terms. The paper's configuration is
/// `l2 = pvband = 1`, regularizers off.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LossWeights {
    /// Weight of `L_l2 = ||Z_out - Z_t||^2`.
    pub l2: f64,
    /// Weight of `L_pvb = ||Z_in - Z_out||^2`.
    pub pvband: f64,
    /// Weight of the curvature (contour smoothness) penalty on the
    /// binarized mask.
    pub curvature: f64,
    /// Weight of the gray-level (binary-ness) penalty on the binarized
    /// mask.
    pub gray: f64,
}

impl Default for LossWeights {
    fn default() -> Self {
        LossWeights { l2: 1.0, pvband: 1.0, curvature: 0.0, gray: 0.0 }
    }
}

impl LossWeights {
    /// The paper's exact Eq. 5 configuration.
    pub const fn paper() -> Self {
        LossWeights { l2: 1.0, pvband: 1.0, curvature: 0.0, gray: 0.0 }
    }

    /// Returns `true` if any regularizer is active.
    pub fn has_regularizers(&self) -> bool {
        self.curvature != 0.0 || self.gray != 0.0
    }

    /// The total loss of one optimizer step on the binarized mask node
    /// `mask_s`, simulated as `upsample_nearest(mask_s, up)`: Eq. 5 as the
    /// one fused node [`Graph::eq5_loss`], plus the regularizers — which
    /// still see the mask at the simulated size, as [`LossWeights::build`]
    /// hands it to them.
    pub fn eq5(&self, g: &mut Graph, mask_s: Var, up: usize, target: &Field2D) -> Var {
        let total = g.eq5_loss(mask_s, up, target, self.l2, self.pvband);
        if !self.has_regularizers() {
            return total;
        }
        let mask = if up > 1 { g.upsample_nearest(mask_s, up) } else { mask_s };
        self.add_regularizers(g, total, mask)
    }

    /// Assembles the total loss node from the two wafer images, the target
    /// and the (binarized) mask, out of the unfused operators: the
    /// reference [`LossWeights::eq5`] is held to.
    ///
    /// `z_out`/`z_in` are the outer/inner corner wafer nodes at target
    /// resolution; `mask` is the binarized mask node the regularizers act
    /// on.
    pub fn build(
        &self,
        g: &mut Graph,
        z_out: Var,
        z_in: Var,
        target: &Field2D,
        mask: Var,
    ) -> Var {
        let t = g.leaf(target.clone());
        let l_l2 = g.sq_diff_sum(z_out, t);
        let l_pvb = g.sq_diff_sum(z_in, z_out);
        let a = g.scale(l_l2, self.l2);
        let b = g.scale(l_pvb, self.pvband);
        let total = g.add(a, b);
        self.add_regularizers(g, total, mask)
    }

    fn add_regularizers(&self, g: &mut Graph, mut total: Var, mask: Var) -> Var {
        if self.curvature != 0.0 {
            let smooth = g.avg_pool_same(mask, 3);
            let rough = g.sq_diff_sum(mask, smooth);
            let term = g.scale(rough, self.curvature);
            total = g.add(total, term);
        }
        if self.gray != 0.0 {
            // sum(M (1 - M)) = sum(M) - sum(M^2) = <M, 1> - <M.M, 1>.
            let shape = g.value(mask).shape();
            let ones = Field2D::filled(shape.0, shape.1, 1.0);
            let linear = g.weighted_sum(mask, ones.clone());
            let m_sq = g.mul(mask, mask);
            let quad = g.weighted_sum(m_sq, ones);
            let neg_quad = g.scale(quad, -1.0);
            let gray = g.add(linear, neg_quad);
            let term = g.scale(gray, self.gray);
            total = g.add(total, term);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_autodiff::finite_diff;

    fn fields() -> (Field2D, Field2D, Field2D, Field2D) {
        let mask = Field2D::from_fn(6, 6, |r, c| 0.5 + 0.3 * ((r * 2 + c) as f64 * 0.7).sin());
        let z_out = mask.map(|v| v * 0.9);
        let z_in = mask.map(|v| v * 0.8 + 0.05);
        let target = Field2D::from_fn(6, 6, |r, _| if r >= 2 && r < 4 { 1.0 } else { 0.0 });
        (mask, z_out, z_in, target)
    }

    fn eval(w: LossWeights, mask: &Field2D, z_out: &Field2D, z_in: &Field2D, t: &Field2D) -> f64 {
        let mut g = Graph::without_simulator();
        let m = g.leaf(mask.clone());
        let zo = g.leaf(z_out.clone());
        let zi = g.leaf(z_in.clone());
        let loss = w.build(&mut g, zo, zi, t, m);
        g.scalar(loss)
    }

    #[test]
    fn paper_weights_reproduce_eq5() {
        let (mask, z_out, z_in, target) = fields();
        let got = eval(LossWeights::paper(), &mask, &z_out, &z_in, &target);
        let want = z_out.sq_l2_dist(&target) + z_in.sq_l2_dist(&z_out);
        assert!((got - want).abs() < 1e-12);
        assert!(!LossWeights::paper().has_regularizers());
    }

    #[test]
    fn weights_scale_terms_linearly() {
        let (mask, z_out, z_in, target) = fields();
        let w = LossWeights { l2: 2.0, pvband: 0.5, ..LossWeights::default() };
        let got = eval(w, &mask, &z_out, &z_in, &target);
        let want = 2.0 * z_out.sq_l2_dist(&target) + 0.5 * z_in.sq_l2_dist(&z_out);
        assert!((got - want).abs() < 1e-12);
    }

    #[test]
    fn gray_penalty_is_zero_for_binary_masks() {
        let (_, z_out, z_in, target) = fields();
        let binary = target.clone();
        let w = LossWeights { gray: 3.0, ..LossWeights::default() };
        let with = eval(w, &binary, &z_out, &z_in, &target);
        let without = eval(LossWeights::paper(), &binary, &z_out, &z_in, &target);
        assert!((with - without).abs() < 1e-12, "binary mask must incur no gray penalty");

        // And positive for a gray mask.
        let gray_mask = Field2D::filled(6, 6, 0.5);
        let with_gray = eval(w, &gray_mask, &z_out, &z_in, &target);
        assert!(with_gray > without);
    }

    #[test]
    fn curvature_penalty_prefers_smooth_masks() {
        let (_, z_out, z_in, target) = fields();
        let w = LossWeights { curvature: 1.0, ..LossWeights::default() };
        let smooth = Field2D::filled(6, 6, 0.7);
        let rough = Field2D::from_fn(6, 6, |r, c| ((r + c) % 2) as f64);
        let base = eval(LossWeights::paper(), &smooth, &z_out, &z_in, &target);
        let smooth_pen = eval(w, &smooth, &z_out, &z_in, &target) - base;
        let rough_pen = eval(w, &rough, &z_out, &z_in, &target) - base;
        // A constant mask only pays the zero-padded border residue of the
        // mean filter; a checkerboard pays everywhere.
        assert!(
            smooth_pen < 0.2 * rough_pen,
            "smooth {smooth_pen} vs rough {rough_pen}"
        );
        assert!(rough_pen > 1.0, "checkerboard must be penalized, got {rough_pen}");
    }

    #[test]
    fn regularizer_gradients_match_fd() {
        let (mask, z_out, z_in, target) = fields();
        let w = LossWeights { curvature: 0.7, gray: 0.3, ..LossWeights::default() };
        let mut g = Graph::without_simulator();
        let m = g.leaf(mask.clone());
        let zo = g.leaf(z_out.clone());
        let zi = g.leaf(z_in.clone());
        let loss = w.build(&mut g, zo, zi, &target, m);
        let grads = g.backward(loss);
        let numeric = finite_diff(&mask, 1e-6, |mv| eval(w, mv, &z_out, &z_in, &target));
        ilt_autodiff::assert_gradients_close(grads.wrt(m).unwrap(), &numeric, 1e-6);
    }
}
