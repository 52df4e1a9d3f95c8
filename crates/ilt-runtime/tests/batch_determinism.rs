//! End-to-end batch properties: thread-count invariance and failure
//! resilience, exercised through `run_batch` exactly as the CLI drives it.

use ilt_core::Stage;
use ilt_layouts::iccad2013_case;
use ilt_optics::OpticsConfig;
use ilt_runtime::{
    field_hash, run_batch, BatchCase, BatchConfig, FaultPlan, JobStatus, SeamPolicy,
    SimulatorCache,
};

fn m1_case(id: usize, grid: usize) -> BatchCase {
    let layout = iccad2013_case(id);
    BatchCase {
        name: format!("m1_case{id}"),
        target: layout.rasterize(grid),
        nm_per_px: layout.nm_per_px(grid),
    }
}

fn config(threads: usize) -> BatchConfig {
    BatchConfig {
        threads,
        tile: 64,
        halo: 8,
        optics: OpticsConfig { num_kernels: 4, ..OpticsConfig::default() },
        schedule: vec![Stage::low_res(2, 4), Stage::high_res(1, 3)],
        evaluate_stitched: false,
        ..BatchConfig::default()
    }
}

/// Two tiled M1 clips in one batch, on one thread and on four: every output
/// mask bit matches, and so does the whole untimed journal — job lines and
/// the summary line alike, no field stripped.
#[test]
fn two_threads_match_one_thread_bit_for_bit() {
    let run = |threads: usize| {
        let cache = SimulatorCache::new();
        let cases = [m1_case(1, 128), m1_case(2, 128)];
        run_batch(&cases, &config(threads), &cache).expect("batch runs")
    };
    let serial = run(1);
    let parallel = run(4);

    assert_eq!(serial.cases.len(), 2);
    for (a, b) in serial.cases.iter().zip(&parallel.cases) {
        assert_eq!(
            field_hash(&a.mask),
            field_hash(&b.mask),
            "stitched mask for {} differs across thread counts",
            a.name
        );
    }
    let journal = serial.report.to_jsonl_opts(false);
    assert!(journal.contains("\"kind\":\"summary\""), "{journal}");
    assert_eq!(journal, parallel.report.to_jsonl_opts(false));
}

/// Blend stitching must also be thread-count invariant (the accumulation
/// order is fixed by the stitcher, not by job completion order).
#[test]
fn blend_stitch_is_thread_count_invariant() {
    let run = |threads: usize| {
        let cache = SimulatorCache::new();
        let mut cfg = config(threads);
        cfg.seam = SeamPolicy::Blend { band: 4 };
        let cases = [m1_case(2, 128)];
        run_batch(&cases, &cfg, &cache).expect("batch runs")
    };
    assert_eq!(
        field_hash(&run(1).cases[0].mask),
        field_hash(&run(2).cases[0].mask)
    );
}

/// An injected panic consumes a retry, the job still completes, and the
/// journal records the extra attempt.
#[test]
fn injected_failure_is_retried_and_journaled() {
    let cache = SimulatorCache::new();
    let mut cfg = config(2);
    cfg.max_retries = 1;
    // First attempt of job 0 panics.
    cfg.faults = FaultPlan::parse("panic@0:1").unwrap();
    let out = run_batch(&[m1_case(1, 128)], &cfg, &cache).expect("batch runs");

    assert_eq!(out.report.failed_jobs(), 0, "the retry must rescue the job");
    assert_eq!(out.report.total_retries(), 1);
    let rescued = &out.report.records[0];
    assert_eq!(rescued.attempts, 2);
    assert_eq!(rescued.status, JobStatus::Done);
    assert!(out.report.to_jsonl().contains("\"attempts\":2"));
    assert_eq!(out.cases[0].failed_tiles, 0);
}

/// A job that exhausts retries degrades its core to the target geometry
/// while the rest of the batch completes normally.
#[test]
fn exhausted_retries_degrade_only_the_failed_core() {
    let cache = SimulatorCache::new();
    let mut cfg = config(2);
    cfg.max_retries = 0;
    // Every attempt panics, the degraded fallback included: a true failure.
    cfg.faults = FaultPlan::parse("panic@0").unwrap();
    let case = m1_case(1, 128);
    let out = run_batch(&[case.clone()], &cfg, &cache).expect("batch runs");

    assert_eq!(out.report.failed_jobs(), 1);
    assert_eq!(out.cases[0].failed_tiles, 1);
    // The failed tile (grid position 0,0) keeps the target geometry in its
    // core; pick a healthy job's core pixel and check it was optimized.
    let binary = case.target.threshold(0.5);
    let spec0 = ilt_runtime::TileGrid::new(128, 64, 8)
        .unwrap()
        .specs()
        .into_iter()
        .next()
        .unwrap();
    for r in spec0.core_r0..spec0.core_r0 + spec0.core_rows {
        for c in spec0.core_c0..spec0.core_c0 + spec0.core_cols {
            assert_eq!(out.cases[0].mask[(r, c)], binary[(r, c)]);
        }
    }
    // Every other job still completed normally.
    assert!(out.report.records[1..].iter().all(|r| r.status == JobStatus::Done));
}

/// The whole-clip path (target <= tile) and the shared cache interact
/// correctly when sizes are mixed in one batch.
#[test]
fn mixed_sizes_share_the_cache_per_grid() {
    let cache = SimulatorCache::new();
    let cases = [m1_case(1, 64), m1_case(2, 128), m1_case(3, 128)];
    let out = run_batch(&cases, &config(2), &cache).expect("batch runs");
    // Two distinct configurations: the 64-px whole clip images at 32 nm/px
    // while the 64-px tile windows of the 128-px rasters image at 16 nm/px.
    // All 18 tile jobs of both tiled cases share one simulator build.
    assert_eq!(cache.len(), 2);
    assert_eq!(out.report.records.len(), 1 + 9 + 9);
    assert_eq!(out.report.failed_jobs(), 0);
    assert_eq!(cache.misses(), 2);
    assert_eq!(cache.hits(), 17);
}

#[test]
fn journal_has_one_line_per_job_plus_summary() {
    let cache = SimulatorCache::new();
    let out = run_batch(&[m1_case(1, 128)], &config(1), &cache).expect("batch runs");
    let jsonl = out.report.to_jsonl();
    assert_eq!(jsonl.lines().count(), out.report.records.len() + 1);
    for (i, line) in jsonl.lines().take(out.report.records.len()).enumerate() {
        assert!(line.starts_with(&format!("{{\"job_id\":{i},")), "line {i}: {line}");
    }
}

/// Whole-clip batch output equals a direct `MultiLevelIlt` run: the engine
/// adds orchestration, not numerics.
#[test]
fn whole_clip_batch_matches_direct_optimizer() {
    use ilt_core::{IltConfig, MultiLevelIlt};
    let cache = SimulatorCache::new();
    let case = m1_case(4, 64);
    let cfg = config(1);
    let out = run_batch(&[case.clone()], &cfg, &cache).expect("batch runs");

    let sim = cache
        .get_or_build(&OpticsConfig {
            grid: 64,
            nm_per_px: case.nm_per_px,
            num_kernels: 4,
            ..OpticsConfig::default()
        })
        .unwrap();
    // The engine clamps the schedule to the job grid; mirror that here.
    let schedule = ilt_core::schedules::clamp_to_grid(
        &cfg.schedule,
        case.nm_per_px,
        cfg.max_eff_nm,
        64,
        sim.config().kernel_size(),
    );
    let direct = MultiLevelIlt::new(sim, IltConfig::default()).run(&case.target, &schedule);
    assert_eq!(field_hash(&out.cases[0].mask), field_hash(&direct.mask));
}

#[test]
fn report_table_renders() {
    let cache = SimulatorCache::new();
    let out = run_batch(&[m1_case(1, 64)], &config(1), &cache).expect("batch runs");
    let table = out.report.to_string();
    assert!(table.contains("m1_case1"));
    assert!(table.contains("speedup"));
}
