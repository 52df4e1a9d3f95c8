//! Conventional single-level pixel ILT.
//!
//! This is "ILT without downsampling" from Table I of the paper, and the
//! legacy configuration (`T_R = 0`, no smoothing) whose SRAF-starved
//! behaviour motivates Section III-C. Implemented as a thin preset over the
//! same [`MultiLevelIlt`] engine so every difference in results is
//! attributable to the paper's three ideas rather than implementation
//! drift.

use std::sync::Arc;

use ilt_core::{BinaryFunction, IltConfig, IltResult, MultiLevelIlt, OptimizeRegion, Stage};
use ilt_field::Field2D;
use ilt_optics::LithoSimulator;

/// Conventional full-resolution pixel ILT baseline.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use ilt_baselines::ConventionalIlt;
/// use ilt_core::OptimizeRegion;
/// use ilt_field::Field2D;
/// use ilt_optics::{LithoSimulator, OpticsConfig};
///
/// # fn main() -> Result<(), String> {
/// let cfg = OpticsConfig { grid: 64, nm_per_px: 8.0, num_kernels: 3, ..OpticsConfig::default() };
/// let sim = Arc::new(LithoSimulator::new(cfg)?);
/// let target = Field2D::from_fn(64, 64, |r, c| {
///     if (24..40).contains(&r) && (16..48).contains(&c) { 1.0 } else { 0.0 }
/// });
/// let result = ConventionalIlt::new(sim, OptimizeRegion::option2_default()).run(&target, 5);
/// assert_eq!(result.mask.shape(), (64, 64));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ConventionalIlt {
    engine: MultiLevelIlt,
}

impl ConventionalIlt {
    /// Creates the baseline with the legacy configuration: sigmoid
    /// `T_R = 0` for optimization *and* output, no smoothing pool, no
    /// post-processing, full-resolution only, writing where `region` allows
    /// ([`OptimizeRegion::option2_default`] is the optimizer's own default;
    /// the tables pass theirs for like-for-like comparisons).
    pub fn new(sim: Arc<LithoSimulator>, region: OptimizeRegion) -> Self {
        let cfg = IltConfig {
            binary: BinaryFunction::legacy_sigmoid(),
            output_binary: BinaryFunction::legacy_sigmoid(),
            smoothing: None,
            region,
            postprocess: None,
            ..IltConfig::default()
        };
        ConventionalIlt { engine: MultiLevelIlt::new(sim, cfg) }
    }

    /// Runs `iterations` of full-resolution pixel ILT.
    ///
    /// # Panics
    ///
    /// Panics if the target does not match the simulator grid.
    pub fn run(&self, target: &Field2D, iterations: usize) -> IltResult {
        self.engine.run(target, &[Stage::low_res(1, iterations)])
    }
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

    fn baseline() -> ConventionalIlt {
        ConventionalIlt::new(sim(), OptimizeRegion::option2_default())
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
    fn loss_decreases() {
        let result = baseline().run(&target(), 8);
        let first = result.loss_history.first().unwrap().loss;
        let best = result.loss_history.iter().map(|r| r.loss).fold(f64::INFINITY, f64::min);
        assert!(best < first, "baseline must converge: {best} vs {first}");
    }

    #[test]
    fn runs_at_full_resolution_only() {
        let result = baseline().run(&target(), 3);
        assert!(result.loss_history.iter().all(|r| r.scale == 1));
        assert_eq!(result.final_scale, 1);
    }

    #[test]
    fn uses_legacy_binary_function() {
        // The engine under the legacy binary function with no smoothing
        // pool optimizes the same `M'`, bit for bit; the paper's defaults
        // do not.
        let legacy = IltConfig {
            binary: BinaryFunction::legacy_sigmoid(),
            output_binary: BinaryFunction::legacy_sigmoid(),
            smoothing: None,
            postprocess: None,
            ..IltConfig::default()
        };
        let stages = [Stage::low_res(1, 3)];
        let got = baseline().run(&target(), 3);
        let want = MultiLevelIlt::new(sim(), legacy).run(&target(), &stages);
        assert_eq!((&got.raw_mask, &got.mask), (&want.raw_mask, &want.mask));
        let paper = MultiLevelIlt::new(sim(), IltConfig::default()).run(&target(), &stages);
        assert_ne!(got.raw_mask, paper.raw_mask);
    }
}
