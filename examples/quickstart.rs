//! Quickstart: optimize one ICCAD-2013-style clip with multi-level ILT and
//! report the five contest metrics.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::error::Error;
use std::sync::Arc;

use multilevel_ilt::prelude::*;

fn main() -> Result<(), Box<dyn Error>> {
    // A 256-pixel grid at 8 nm/pixel = the contest's 2048 nm clip, reduced
    // 8x so this example finishes in seconds on a laptop. Increase `grid`
    // (and drop `nm_per_px`) to approach the paper's full resolution.
    let grid = 256;
    let case = iccad2013_case(1);
    let nm_per_px = case.nm_per_px(grid);

    println!("== multi-level ILT quickstart ==");
    println!(
        "case {:8}  clip {} nm  grid {}x{} ({} nm/px)  polygon area {} nm^2",
        case.name(),
        case.clip_nm(),
        grid,
        grid,
        nm_per_px,
        case.area_nm2()
    );

    let optics = OpticsConfig {
        grid,
        nm_per_px,
        num_kernels: 8,
        ..OpticsConfig::default()
    };
    println!(
        "building SOCS kernels (N_k = {}, P = {}) ...",
        optics.num_kernels,
        optics.kernel_size()
    );
    let sim = Arc::new(LithoSimulator::new(optics)?);
    println!(
        "kernel energy captured: nominal {:.1}%, defocused {:.1}%",
        sim.kernels(false).captured_energy() * 100.0,
        sim.kernels(true).captured_energy() * 100.0
    );

    let target = case.rasterize(grid);

    // The paper's "Our-fast" recipe; scales clamped so the effective
    // low-res pitch stays within the regime where the approximation helps
    // (<= 8 nm; the paper's s = 4 at 1 nm/px is 4 nm).
    let schedule = schedules::clamp_effective_pitch(&schedules::our_fast(), nm_per_px, 8.0);
    let schedule = schedules::clamp_scales(&schedule, grid, 64);
    println!("schedule: {schedule:?}");

    let timer = TurnaroundTimer::start();
    let ilt = MultiLevelIlt::new(sim.clone(), IltConfig::default());
    let result = ilt.run(&target, &schedule);
    let tat = timer.elapsed();

    let report = evaluate_mask(&sim, &target, &result.mask, tat);

    println!("iterations run: {}", result.total_iterations);
    println!("{report}");

    write_pgm(&target, "quickstart_target.pgm", 0.0, 1.0)?;
    write_pgm(&result.mask, "quickstart_mask.pgm", 0.0, 1.0)?;
    let wafer = sim.print(&result.mask, ProcessCondition::nominal());
    write_pgm(&wafer, "quickstart_wafer.pgm", 0.0, 1.0)?;
    println!("wrote quickstart_target.pgm / quickstart_mask.pgm / quickstart_wafer.pgm");
    Ok(())
}
