//! Tests that pin the paper's qualitative claims at miniature scale: each
//! test states the claim it guards.

use std::sync::Arc;

use multilevel_ilt::prelude::*;

fn sim(grid: usize, nm_per_px: f64, kernels: usize) -> Arc<LithoSimulator> {
    let cfg = OpticsConfig { grid, nm_per_px, num_kernels: kernels, ..OpticsConfig::default() };
    Arc::new(LithoSimulator::new(cfg).expect("valid optics"))
}

fn bar_target(n: usize) -> Field2D {
    Field2D::from_fn(n, n, |r, c| {
        if (n * 7 / 16..n * 9 / 16).contains(&r) && (n / 4..n * 3 / 4).contains(&c) {
            1.0
        } else {
            0.0
        }
    })
}

/// Section III-C: with `T_R = 0`, the first iterations drive the
/// background strongly negative, locking SRAFs out; with `T_R = 0.5` the
/// background stays plastic. We assert the direct mechanism: after the
/// same iteration budget, the background transmission (soft mask outside
/// the target) is higher under `T_R = 0.5`.
#[test]
fn improved_binary_function_keeps_background_plastic() {
    let s = sim(64, 8.0, 4);
    let target = bar_target(64);
    let background_mass = |binary: BinaryFunction| -> f64 {
        let cfg = IltConfig {
            binary,
            output_binary: binary,
            smoothing: None,
            ..IltConfig::default()
        };
        let result = MultiLevelIlt::new(s.clone(), cfg).run(&target, &[Stage::low_res(1, 10)]);
        // Soft mask value in the background region.
        let soft = binary.apply_field(&result.raw_mask);
        soft.as_slice()
            .iter()
            .zip(target.as_slice())
            .filter(|(_, &t)| t < 0.5)
            .map(|(&m, _)| m)
            .sum()
    };
    let legacy = background_mass(BinaryFunction::legacy_sigmoid());
    let paper = background_mass(BinaryFunction::paper_sigmoid());
    assert!(
        paper > legacy,
        "T_R = 0.5 must keep more background transmission: {paper} vs {legacy}"
    );
}

/// Section III-D: the 3x3 stride-1 average pool smooths contours, so the
/// optimized mask has no more connected components (holes/fragments) than
/// the unsmoothed run.
#[test]
fn smoothing_pool_reduces_mask_fragmentation() {
    let s = sim(64, 8.0, 4);
    let target = bar_target(64);
    let components = |smoothing: Option<Smoothing>| -> usize {
        let cfg = IltConfig { smoothing, ..IltConfig::default() };
        let result = MultiLevelIlt::new(s.clone(), cfg).run(&target, &[Stage::low_res(1, 15)]);
        multilevel_ilt::geom::component_count(&result.mask)
    };
    let with = components(Some(Smoothing::default()));
    let without = components(None);
    assert!(
        with <= without,
        "smoothing must not fragment the mask: {with} vs {without}"
    );
}

/// Section III-B: Eq. 8's all-reduced simulation is much cheaper than the
/// full-resolution Eq. 3 (the paper reports ~17x at s = 4 on 2048 grids;
/// we require >= 3x at s = 4 on a reduced grid, which already includes all
/// fixed overheads). The measured ratio here fell from 16.8x to 5.8x when
/// Eq. 3's per-kernel inverses moved to the intensity's sample grid: Eq. 3
/// got cheaper (2.3 -> 0.38 ms), Eq. 8 did not get slower (137 -> 65 us).
#[test]
fn low_res_simulation_is_much_faster() {
    let s = sim(256, 2.0, 6);
    let target = bar_target(256);
    let mask_s = avg_pool_down(&target, 4);

    // Warm both paths (plan construction).
    let _ = s.aerial(&target, false);
    let _ = s.aerial(&mask_s, false);

    // Each call is timed on its own, the two paths alternating, and the
    // claim is on the median call: a debug Eq. 3 call is ~1 ms, so one
    // preemption by the tests running alongside (several ms) would decide
    // a ratio of sums.
    let reps = 41;
    let (mut fulls, mut lows) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for _ in 0..reps {
        let t = TurnaroundTimer::start();
        std::hint::black_box(s.aerial(&target, false));
        fulls.push(t.elapsed().as_secs_f64());
        let t = TurnaroundTimer::start();
        std::hint::black_box(s.aerial(&mask_s, false));
        lows.push(t.elapsed().as_secs_f64());
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (full, low) = (median(fulls), median(lows));
    assert!(
        full / low >= 3.0,
        "Eq. 8 speedup too small: {:.2}x (median call: full {full:.6}s, low {low:.6}s)",
        full / low
    );
}

/// Section III-B: Eq. 7 equals Eq. 3 sampled every s pixels (exactly, for
/// band-limited kernels) while being significantly cheaper.
#[test]
fn eq7_is_exact_and_cheaper() {
    let s = sim(128, 4.0, 4);
    let target = bar_target(128);
    let full = s.aerial(&target, false);
    let sub = s.aerial_subsampled(&target, 4, false);
    for r in 0..32 {
        for c in 0..32 {
            assert!(
                (full[(r * 4, c * 4)] - sub[(r, c)]).abs() < 1e-9,
                "Eq. 7 must subsample exactly at ({r},{c})"
            );
        }
    }
}

/// Section IV-C: the iteration budget is an upper bound — with an
/// early-exit window the optimizer stops when the loss stalls.
#[test]
fn early_exit_bounds_iterations() {
    let s = sim(64, 8.0, 3);
    let target = bar_target(64);
    let cfg = IltConfig {
        learning_rate: 0.0, // stalls immediately
        early_exit_window: Some(15),
        ..IltConfig::default()
    };
    let result = MultiLevelIlt::new(s, cfg).run(&target, &[Stage::low_res(2, 100)]);
    assert_eq!(result.total_iterations, 16, "15-iteration window plus the first");
}

/// Table I's qualitative ordering, through the runner `ilt tables table1`
/// itself uses, on the table's own clip: downsampled masks are simpler, and
/// the no-downsampling mask has the most shots of the three variants (the
/// paper calls its complexity unacceptable). Ten iterations already separate
/// them (41 / 39 / 87; the table's 100 iterations: 93 / 189 / 450). Counts
/// only — wall-clock ratios are not asserted.
#[test]
fn downsampling_simplifies_masks() {
    let s = sim(256, 8.0, 4);
    let target = iccad2013_case(1).rasterize(256);
    // 8 nm pixels under a 16 nm ceiling: the paper's s = 4 clamps to s = 2.
    let (scale, rows) = multilevel_ilt::perf::tables::table1_variants(&s, &target, 16.0, 10);
    assert_eq!(scale, 2);
    let shots: Vec<usize> = rows.iter().map(|(_, report)| report.shots).collect();
    assert!(
        shots[0] < shots[2] && shots[1] < shots[2],
        "no-downsampling must have the most shots (low-res / high-res / none): {shots:?}"
    );
}

/// Fig. 7: under Option 2 the writable region includes the inter-feature
/// corridor, so the SRAF-capable method gets at least as much writable
/// area as under Option 1.
#[test]
fn option2_grants_more_writable_area() {
    let target = {
        let case = iccad2013_case(2);
        case.rasterize(128)
    };
    let o1 = OptimizeRegion::option1_default().region_mask(&target, 16.0);
    let o2 = OptimizeRegion::option2_default().region_mask(&target, 16.0);
    assert!(o2.count_on() >= o1.count_on());
}

/// Eq. 12 + Section III-C: the final output uses `T_R = 0.4`, which can
/// only keep *more* pixels than the optimization threshold would.
#[test]
fn output_threshold_is_more_permissive() {
    let raw = Field2D::from_fn(16, 16, |r, c| (r as f64 - 8.0) * 0.1 + (c as f64) * 0.01);
    let opt = BinaryFunction::paper_sigmoid().apply_field(&raw).threshold(0.5);
    let out = BinaryFunction::output_sigmoid().apply_field(&raw).threshold(0.5);
    for (a, b) in opt.as_slice().iter().zip(out.as_slice()) {
        assert!(b >= a, "output binarization must be a superset");
    }
    assert!(out.count_on() >= opt.count_on());
}
