//! Optimizer workloads: one Eq. 5 step of [`MultiLevelIlt`] — the binary
//! function, `LossWeights::eq5` (both process corners through
//! `LithoSimulator::soft_corners`) and the binary function's adjoint — at
//! the paper's operating point, in each of Algorithm 1's two branches.

use std::hint::black_box;
use std::sync::Arc;

use ilt_core::{IltConfig, MultiLevelIlt, StageKind};
use ilt_field::avg_pool_down;
use ilt_layouts::iccad2013_case;
use ilt_optics::{LithoSimulator, OpticsConfig};

use crate::measure::{measure, MeasureConfig, Sample};

/// ICCAD case 1 at grid 1024, `s = 4`, 10 kernels (128 px, `s = 2`, 3
/// kernels in smoke mode: the smallest grid whose half still holds the
/// clip's `P = 57` block); the step starts from Algorithm 1's own initial
/// mask, `AvgPool(Z_t, s)`.
fn step(cfg: &MeasureConfig, kind: StageKind, name: &str) -> Result<Sample, String> {
    let (grid, s, kernels) = if cfg.smoke { (128, 2, 3) } else { (1024, 4, 10) };
    let layout = iccad2013_case(1);
    let optics = OpticsConfig {
        grid,
        nm_per_px: layout.nm_per_px(grid),
        num_kernels: kernels,
        ..OpticsConfig::default()
    };
    let sim = LithoSimulator::new(optics).map_err(|e| format!("workload {name}: {e}"))?;
    let ilt = MultiLevelIlt::new(Arc::new(sim), IltConfig::default());
    let z_t_s = avg_pool_down(&layout.rasterize(grid), s);

    let sample = measure(cfg, || {
        black_box(ilt.step(kind, s, &z_t_s, &z_t_s));
    });
    Ok(sample
        .with_extra("grid", grid as f64)
        .with_extra("scale", s as f64)
        .with_extra("kernels", kernels as f64))
}

/// One low-resolution step: everything at `N/s` (Eq. 8).
pub fn step_lo(cfg: &MeasureConfig) -> Result<Sample, String> {
    step(cfg, StageKind::LowRes, "core_step_lo")
}

/// One high-resolution step: mask and gradient at `N/s`, simulation at `N`
/// (Eq. 3).
pub fn step_hi(cfg: &MeasureConfig) -> Result<Sample, String> {
    step(cfg, StageKind::HighRes, "core_step_hi")
}
