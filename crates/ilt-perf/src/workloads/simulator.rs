//! Simulator workload: the SOCS aerial image, the forward simulation every
//! evaluation and every corner print runs.

use std::hint::black_box;

use ilt_layouts::iccad2013_case;
use ilt_optics::{LithoSimulator, OpticsConfig};

use crate::measure::{measure, MeasureConfig, Sample};
use crate::result::PerfError;

/// One aerial image: `num_kernels` pruned inverse transforms plus the
/// coherent sum — the cost of every forward simulation. The fixture is
/// ICCAD case 1 at the serving grid (512 px, 10 kernels) in full mode, a
/// 64 px clip with 3 kernels in smoke mode.
pub fn aerial(cfg: &MeasureConfig) -> Result<Sample, PerfError> {
    let (grid, kernels) = if cfg.smoke { (64, 3) } else { (512, 10) };
    let layout = iccad2013_case(1);
    let mask = layout.rasterize(grid);
    let optics = OpticsConfig {
        grid,
        nm_per_px: layout.nm_per_px(grid),
        num_kernels: kernels,
        ..OpticsConfig::default()
    };
    let sim = LithoSimulator::new(optics).map_err(|e| PerfError::workload("sim_aerial", e))?;
    let sample = measure(cfg, || {
        black_box(sim.aerial(&mask, false));
    });
    Ok(sample.with_extra("grid", grid as f64).with_extra("kernels", kernels as f64))
}
