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
//! [`LossWeights::eq5`] is what the optimizer and the level-set baseline
//! call: Eq. 5 through [`LithoSimulator::soft_corners`] plus both
//! regularizers in closed form, no tape. [`LossWeights::build`] assembles
//! the same loss from the autodiff operators; it is the reference `eq5` is
//! held to.

use ilt_autodiff::{Graph, Var};
use ilt_field::{avg_pool_down, avg_pool_same, upsample_nearest, Field2D};
use ilt_optics::{LithoSimulator, ProcessCondition};

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

    /// The total loss of one optimizer step on the binarized mask `mask_s`,
    /// simulated as `upsample_nearest(mask_s, up)`, and its gradient with
    /// respect to `mask_s`: Eq. 5, `l2 ||Z_out - target||^2 + pvband
    /// ||Z_in - Z_out||^2` with `Z_out` / `Z_in` the sigmoid-resist wafer
    /// images at the outer / inner process corner pooled by `up` back to
    /// `mask_s`'s grid, plus the regularizers on the mask at simulated size.
    ///
    /// The regularizers' sums and gradient terms are formed and added in
    /// the order the tape's reverse pass over [`LossWeights::build`] adds
    /// them (gray, then curvature, then the block sum back from `up`, then
    /// Eq. 5), so a step is the tape's to the bit.
    ///
    /// # Panics
    ///
    /// Panics if the simulator rejects the mask shape, `up` or the target's
    /// shape.
    pub fn eq5(
        &self,
        sim: &LithoSimulator,
        mask_s: &Field2D,
        up: usize,
        target: &Field2D,
    ) -> (f64, Field2D) {
        let (l2, pvb) = (self.l2, self.pvband);
        let corners = [ProcessCondition::outer(), ProcessCondition::inner()];
        let (mut loss, grad) = sim.soft_corners(mask_s, up, &corners, |z| {
            let (z_out, z_in) = (&z[0], &z[1]);
            assert_eq!(target.shape(), z_out.shape(), "target must match the wafer image");
            // One pass: both squared distances summed in index order (as
            // `sq_l2_dist` does) beside the two seeds.
            let mut seed_out = Field2D::zeros(target.rows(), target.cols());
            let mut seed_in = seed_out.clone();
            let (mut to_target, mut between) = (0.0, 0.0);
            let pixels = z_out.as_slice().iter().zip(z_in.as_slice()).zip(target.as_slice());
            let seeds = seed_out.as_mut_slice().iter_mut().zip(seed_in.as_mut_slice());
            for (((&zo, &zi), &t), (so, si)) in pixels.zip(seeds) {
                let (d_out, d_in) = (zo - t, zi - zo);
                to_target += d_out * d_out;
                between += d_in * d_in;
                *si = d_in * (2.0 * pvb);
                *so = d_out * (2.0 * l2) - *si;
            }
            (l2 * to_target + pvb * between, vec![seed_out, seed_in])
        });
        if !self.has_regularizers() {
            return (loss, grad);
        }
        let reg = if up == 1 {
            self.regularizers(&mut loss, mask_s)
        } else {
            // Adjoint of replication is the block sum.
            let reg = self.regularizers(&mut loss, &upsample_nearest(mask_s, up));
            avg_pool_down(&reg, up).scale((up * up) as f64)
        };
        (loss, &reg + &grad)
    }

    /// Adds the active regularizers of `mask` to `loss` (curvature, then
    /// gray) and returns their gradient (gray, then curvature): the tape's
    /// forward and reverse orders.
    fn regularizers(&self, loss: &mut f64, mask: &Field2D) -> Field2D {
        let (curvature, gray) = (self.curvature, self.gray);
        let smooth = avg_pool_same(mask, 3);
        if curvature != 0.0 {
            *loss += mask.sq_l2_dist(&smooth) * curvature;
        }
        let mut terms = Vec::new();
        if gray != 0.0 {
            // sum(M (1 - M)) = sum(M) - sum(M^2): d/dM = -g M - g M + g.
            *loss += (mask.sum() - mask.hadamard(mask).sum()) * gray;
            let quad = mask.scale(-gray);
            terms.extend([&quad + &quad, Field2D::filled(mask.rows(), mask.cols(), gray)]);
        }
        if curvature != 0.0 {
            // ||M - S||^2 with S = mean3(M): 2c (M - S) on M, -2c (M - S)
            // back through the pool.
            let diff = mask - &smooth;
            let far = avg_pool_same(&diff.scale(-2.0 * curvature), 3);
            terms.extend([diff.scale(2.0 * curvature), far]);
        }
        terms.into_iter().reduce(|a, b| &a + &b).expect("a regularizer is active")
    }

    /// Assembles the total loss node from the two wafer images, the target
    /// and the (binarized) mask, out of the autodiff operators: the
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
    fn closed_form_regularizers_are_the_tapes_to_the_bit() {
        let bits = |f: &Field2D| f.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (mask, ..) = fields();
        let eq5 = 1.25; // stands in for the Eq. 5 scalar the terms add to
        for w in [
            LossWeights { curvature: 0.7, ..LossWeights::default() },
            LossWeights { gray: 0.3, ..LossWeights::default() },
            LossWeights { curvature: 0.7, gray: 0.3, ..LossWeights::default() },
        ] {
            let mut g = Graph::without_simulator();
            let m = g.leaf(mask.clone());
            let total = g.leaf(Field2D::filled(1, 1, eq5));
            let loss = w.add_regularizers(&mut g, total, m);
            let grads = g.backward(loss);

            let mut got = eq5;
            let grad = w.regularizers(&mut got, &mask);
            assert_eq!(got.to_bits(), g.scalar(loss).to_bits(), "{w:?}: loss");
            assert_eq!(bits(&grad), bits(grads.wrt(m).unwrap()), "{w:?}: gradient");
        }
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
