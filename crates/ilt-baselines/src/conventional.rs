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
/// use ilt_field::Field2D;
/// use ilt_optics::{LithoSimulator, OpticsConfig};
///
/// # fn main() -> Result<(), String> {
/// let cfg = OpticsConfig { grid: 64, nm_per_px: 8.0, num_kernels: 3, ..OpticsConfig::default() };
/// let sim = Arc::new(LithoSimulator::new(cfg)?);
/// let target = Field2D::from_fn(64, 64, |r, c| {
///     if (24..40).contains(&r) && (16..48).contains(&c) { 1.0 } else { 0.0 }
/// });
/// let result = ConventionalIlt::new(sim).run(&target, 5);
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
    /// post-processing, full-resolution only.
    pub fn new(sim: Arc<LithoSimulator>) -> Self {
        Self::with_region(sim, OptimizeRegion::option2_default())
    }

    /// Same, but with an explicit writable-region policy (for like-for-like
    /// table comparisons).
    pub fn with_region(sim: Arc<LithoSimulator>, region: OptimizeRegion) -> Self {
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
        let result = ConventionalIlt::new(sim()).run(&target(), 8);
        let first = result.loss_history.first().unwrap().loss;
        let best = result.loss_history.iter().map(|r| r.loss).fold(f64::INFINITY, f64::min);
        assert!(best < first, "baseline must converge: {best} vs {first}");
    }

    #[test]
    fn runs_at_full_resolution_only() {
        let result = ConventionalIlt::new(sim()).run(&target(), 3);
        assert!(result.loss_history.iter().all(|r| r.scale == 1));
        assert_eq!(result.final_scale, 1);
    }

    #[test]
    fn uses_legacy_binary_function() {
        let baseline = ConventionalIlt::new(sim());
        assert_eq!(baseline.engine.config().binary, BinaryFunction::legacy_sigmoid());
        assert!(baseline.engine.config().smoothing.is_none());
    }
}
