//! Runtime workload: the tiled batch pipeline end-to-end — tiling, the
//! worker pool, the shared simulator cache, and halo-crop stitching.

use ilt_core::{IltConfig, Stage};
use ilt_layouts::via_pattern;
use ilt_optics::OpticsConfig;
use ilt_runtime::{planned_job_list, run_batch, BatchCase, BatchConfig, SeamPolicy, SimulatorCache};

use crate::measure::{measure, MeasureConfig, Sample};

const NAME: &str = "runtime_tile_pipeline";

/// One full `run_batch` of a via clip split into overlapping tiles on a
/// multi-threaded pool. The simulator cache is shared across reps (as it
/// is across jobs in production), so reps time the steady-state pipeline,
/// not kernel construction.
pub fn tile_pipeline(cfg: &MeasureConfig) -> Result<Sample, String> {
    let (grid, tile, halo, threads, iters) =
        if cfg.smoke { (64, 64, 16, 1, 1) } else { (256, 128, 32, 2, 3) };
    let layout = via_pattern(7);
    let case = BatchCase {
        name: "bench_via7".into(),
        target: layout.rasterize(grid),
        nm_per_px: layout.nm_per_px(grid),
    };
    let config = BatchConfig {
        threads,
        tile,
        halo,
        seam: SeamPolicy::Crop,
        optics: OpticsConfig { num_kernels: 3, ..OpticsConfig::default() },
        ilt: IltConfig::default(),
        schedule: vec![Stage::low_res(2, iters)],
        max_eff_nm: 8.0,
        evaluate_stitched: false,
        ..BatchConfig::default()
    };
    let cases = std::slice::from_ref(&case);
    let tiles = planned_job_list(cases, &config)
        .map_err(|e| format!("workload {NAME}: {e}"))?
        .len();

    let cache = SimulatorCache::new();
    let mut failure: Option<String> = None;
    let sample = measure(cfg, || {
        if failure.is_some() {
            return;
        }
        match run_batch(cases, &config, &cache) {
            Ok(outcome) if outcome.report.failed_jobs() > 0 => {
                failure = Some(format!("{} job(s) failed", outcome.report.failed_jobs()));
            }
            Ok(_) => {}
            Err(e) => failure = Some(e),
        }
    });
    if let Some(detail) = failure {
        return Err(format!("workload {NAME}: {detail}"));
    }
    Ok(sample
        .with_extra("grid", grid as f64)
        .with_extra("tiles", tiles as f64)
        .with_extra("threads", threads as f64))
}
