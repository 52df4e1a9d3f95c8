//! Level-set ILT, standing in for GLS-ILT [6].
//!
//! The mask is represented implicitly as the sub-zero set of a level-set
//! function `phi` (negative inside). Each iteration:
//!
//! 1. builds the transmission `M = sigma(-phi / eps)` (a smeared Heaviside),
//! 2. evaluates the same Eq. 5 loss and its gradient as the pixel methods
//!    ([`LossWeights::eq5`] over the shared lithography engine),
//! 3. descends `phi` along `dL/dphi = -(1/eps) sigma' (dL/dM)`,
//! 4. periodically **redistances** `phi` back to a signed distance function
//!    (chamfer transform), the step that keeps level-set masks smooth and
//!    hole-free — and also what prevents SRAFs from nucleating far from
//!    existing contours, the behaviour the paper contrasts against.

use std::sync::Arc;

use ilt_core::{LossRecord, LossWeights, OptimizeRegion};
use ilt_field::{avg_pool_down, Field2D};
use ilt_optics::{logistic, LithoSimulator};

/// Gradient step on `phi`.
const LEARNING_RATE: f64 = 2.0;
/// Heaviside smearing width in pixels.
const EPSILON: f64 = 1.5;

/// Configuration of the level-set baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct LevelSetConfig {
    /// Redistance `phi` every this many iterations.
    pub redistance_every: usize,
    /// Writable-region policy (GLS-ILT uses the Option-2 corridor).
    pub region: OptimizeRegion,
    /// Optimization scale factor (1 = full resolution, the GLS-ILT
    /// setting; larger values accelerate tests).
    pub scale: usize,
}

impl Default for LevelSetConfig {
    fn default() -> Self {
        LevelSetConfig {
            redistance_every: 10,
            region: OptimizeRegion::option2_default(),
            scale: 1,
        }
    }
}

/// Result of a level-set run.
#[derive(Clone, Debug)]
pub struct LevelSetResult {
    /// Final binary mask at full resolution.
    pub mask: Field2D,
    /// Final level-set function (at the optimization scale).
    pub phi: Field2D,
    /// Loss trace.
    pub loss_history: Vec<LossRecord>,
}

/// The level-set ILT baseline.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use ilt_baselines::{LevelSetConfig, LevelSetIlt};
/// use ilt_field::Field2D;
/// use ilt_optics::{LithoSimulator, OpticsConfig};
///
/// # fn main() -> Result<(), String> {
/// let cfg = OpticsConfig { grid: 64, nm_per_px: 8.0, num_kernels: 3, ..OpticsConfig::default() };
/// let sim = Arc::new(LithoSimulator::new(cfg)?);
/// let target = Field2D::from_fn(64, 64, |r, c| {
///     if (24..40).contains(&r) && (16..48).contains(&c) { 1.0 } else { 0.0 }
/// });
/// let ls = LevelSetIlt::new(sim, LevelSetConfig { scale: 2, ..LevelSetConfig::default() });
/// let result = ls.run(&target, 4);
/// assert_eq!(result.mask.shape(), (64, 64));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LevelSetIlt {
    sim: Arc<LithoSimulator>,
    cfg: LevelSetConfig,
}

impl LevelSetIlt {
    /// Creates the baseline.
    pub fn new(sim: Arc<LithoSimulator>, cfg: LevelSetConfig) -> Self {
        LevelSetIlt { sim, cfg }
    }

    /// Runs `iterations` of level-set evolution on `target`.
    ///
    /// # Panics
    ///
    /// Panics if the target does not match the simulator grid or the scale
    /// is invalid.
    pub fn run(&self, target: &Field2D, iterations: usize) -> LevelSetResult {
        let n = self.sim.config().grid;
        assert_eq!(target.shape(), (n, n), "target must match simulator grid {n}");
        let s = self.cfg.scale;
        assert!(s >= 1 && s.is_power_of_two(), "bad scale {s}");
        let nm = self.sim.config().nm_per_px;

        let target_s = if s > 1 { avg_pool_down(target, s).threshold(0.5) } else { target.clone() };
        let region_s = self.cfg.region.region_mask_at_scale(target, nm, s);
        let mut phi = signed_distance(&target_s);

        let mut history = Vec::new();
        for iteration in 0..iterations {
            // M = sigma(-phi / eps): 1 inside (phi < 0), 0 outside.
            let mask_field = phi.map(|p| logistic(p / EPSILON));

            let (loss, dl_dm) = LossWeights::paper().eq5(&self.sim, &mask_field, 1, &target_s);
            history.push(LossRecord { stage: 0, iteration, scale: s, loss });

            // dM/dphi = -(1/eps) sigma (1 - sigma).
            let dl_dphi =
                dl_dm.zip_map(&mask_field, |gm, mv| -gm * mv * (1.0 - mv) / EPSILON);
            let step = dl_dphi.hadamard(&region_s).scale(LEARNING_RATE);
            phi -= &step;

            if (iteration + 1) % self.cfg.redistance_every == 0 {
                phi = signed_distance(&phi.map(|p| if p < 0.0 { 1.0 } else { 0.0 }));
            }
        }

        let mask_s = phi.map(|p| if p < 0.0 { 1.0 } else { 0.0 });
        // Outside the writable region the mask is forced opaque.
        let mask_s = mask_s.hadamard(&region_s);
        let mask = if s > 1 { ilt_field::upsample_nearest(&mask_s, s) } else { mask_s };
        LevelSetResult { mask, phi, loss_history: history }
    }
}

/// Signed chamfer distance to the mask boundary: negative inside, positive
/// outside, approximately Euclidean (3-4 chamfer weights).
///
/// # Examples
///
/// ```
/// use ilt_baselines::signed_distance;
/// use ilt_field::Field2D;
///
/// let mut mask = Field2D::zeros(9, 9);
/// for r in 3..6 { for c in 3..6 { mask[(r, c)] = 1.0; } }
/// let phi = signed_distance(&mask);
/// assert!(phi[(4, 4)] < 0.0);  // inside
/// assert!(phi[(0, 0)] > 0.0);  // outside
/// ```
pub fn signed_distance(mask: &Field2D) -> Field2D {
    let dist_to_fg = chamfer(mask, true); // zero on foreground pixels
    let dist_to_bg = chamfer(mask, false); // zero on background pixels
    // Interior: -distance to the boundary; exterior: +distance.
    dist_to_fg.zip_map(&dist_to_bg, |to_fg, to_bg| to_fg - to_bg)
}

/// Chamfer distance (3-4 weights, normalized by 3) to the set where
/// `mask >= 0.5` (if `to_foreground`) or `< 0.5` (otherwise).
fn chamfer(mask: &Field2D, to_foreground: bool) -> Field2D {
    let (rows, cols) = mask.shape();
    let big = (rows + cols) as f64 * 4.0;
    let mut d = Field2D::from_fn(rows, cols, |r, c| {
        let fg = mask[(r, c)] >= 0.5;
        if fg == to_foreground {
            0.0
        } else {
            big
        }
    });
    // Forward pass.
    for r in 0..rows {
        for c in 0..cols {
            let mut best = d[(r, c)];
            if r > 0 {
                best = best.min(d[(r - 1, c)] + 1.0);
                if c > 0 {
                    best = best.min(d[(r - 1, c - 1)] + 4.0 / 3.0);
                }
                if c + 1 < cols {
                    best = best.min(d[(r - 1, c + 1)] + 4.0 / 3.0);
                }
            }
            if c > 0 {
                best = best.min(d[(r, c - 1)] + 1.0);
            }
            d[(r, c)] = best;
        }
    }
    // Backward pass.
    for r in (0..rows).rev() {
        for c in (0..cols).rev() {
            let mut best = d[(r, c)];
            if r + 1 < rows {
                best = best.min(d[(r + 1, c)] + 1.0);
                if c > 0 {
                    best = best.min(d[(r + 1, c - 1)] + 4.0 / 3.0);
                }
                if c + 1 < cols {
                    best = best.min(d[(r + 1, c + 1)] + 4.0 / 3.0);
                }
            }
            if c + 1 < cols {
                best = best.min(d[(r, c + 1)] + 1.0);
            }
            d[(r, c)] = best;
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_optics::{OpticsConfig, SourceSpec};

    fn sim() -> Arc<LithoSimulator> {
        let cfg = OpticsConfig {
            grid: 64,
            nm_per_px: 8.0,
            num_kernels: 4,
            source: SourceSpec::Annular { sigma_in: 0.5, sigma_out: 0.9 },
            defocus_nm: 60.0,
            ..OpticsConfig::default()
        };
        Arc::new(LithoSimulator::new(cfg).expect("valid config"))
    }

    fn target() -> Field2D {
        Field2D::from_fn(64, 64, |r, c| {
            if (24..40).contains(&r) && (14..50).contains(&c) {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn signed_distance_properties() {
        let t = target();
        let phi = signed_distance(&t);
        // Negative exactly on the foreground.
        for r in 0..64 {
            for c in 0..64 {
                if t[(r, c)] >= 0.5 {
                    assert!(phi[(r, c)] < 0.0, "({r},{c})");
                } else {
                    assert!(phi[(r, c)] > 0.0, "({r},{c})");
                }
            }
        }
        // Distance grows monotonically away from the boundary on a ray.
        assert!(phi[(0, 30)] > phi[(20, 30)]);
        assert!(phi[(32, 30)] < phi[(25, 30)]);
    }

    #[test]
    fn signed_distance_is_approximately_euclidean() {
        let mut mask = Field2D::zeros(32, 32);
        mask[(16, 16)] = 1.0;
        let phi = signed_distance(&mask);
        // Straight-line distance is exact under chamfer weights.
        assert!((phi[(16, 26)] - 10.0).abs() < 0.5);
        // Diagonal distance within 6% (3-4 chamfer error bound).
        let diag = phi[(24, 24)];
        let want = (2.0f64).sqrt() * 8.0;
        assert!((diag - want).abs() / want < 0.06, "{diag} vs {want}");
    }

    #[test]
    fn loss_decreases() {
        let ls = LevelSetIlt::new(
            sim(),
            LevelSetConfig { scale: 2, ..LevelSetConfig::default() },
        );
        let result = ls.run(&target(), 8);
        let first = result.loss_history.first().unwrap().loss;
        let best = result.loss_history.iter().map(|r| r.loss).fold(f64::INFINITY, f64::min);
        assert!(best < first, "level set must converge: {best} vs {first}");
    }

    #[test]
    fn final_mask_is_binary_and_covers_target_core() {
        let ls = LevelSetIlt::new(
            sim(),
            LevelSetConfig { scale: 2, ..LevelSetConfig::default() },
        );
        let result = ls.run(&target(), 6);
        for &v in result.mask.as_slice() {
            assert!(v == 0.0 || v == 1.0);
        }
        // The mask keeps the central body of the target feature.
        assert_eq!(result.mask[(32, 32)], 1.0);
    }

    #[test]
    fn redistancing_keeps_phi_bounded() {
        let ls = LevelSetIlt::new(
            sim(),
            LevelSetConfig { scale: 2, redistance_every: 2, ..LevelSetConfig::default() },
        );
        let result = ls.run(&target(), 7);
        let bound = 2.0 * 64.0;
        assert!(result.phi.min() > -bound && result.phi.max() < bound);
    }
}
