//! Full M1 flow: run multi-level ILT ("Our-exact") against the
//! conventional single-level baseline on an ICCAD 2013 case and compare
//! every metric — a miniature of the paper's Table II comparison.
//!
//! ```text
//! cargo run --release --example m1_benchmark_flow -- [case_id] [grid]
//! ```

use std::error::Error;
use std::sync::Arc;

use multilevel_ilt::prelude::*;

fn main() -> Result<(), Box<dyn Error>> {
    let mut args = std::env::args().skip(1);
    let case_id: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(4);
    let grid: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(256);

    let case = iccad2013_case(case_id);
    let nm_per_px = case.nm_per_px(grid);
    let target = case.rasterize(grid);

    println!("== {} at {grid} px ({nm_per_px} nm/px) ==", case.name());
    let optics = OpticsConfig { grid, nm_per_px, num_kernels: 8, ..OpticsConfig::default() };
    let sim = Arc::new(LithoSimulator::new(optics)?);

    let evaluate =
        |mask: &Field2D, tat: std::time::Duration| evaluate_mask(&sim, &target, mask, tat);

    // How bad is it with no correction at all?
    let raw = evaluate(&target, std::time::Duration::ZERO);
    println!("target-as-mask   : {raw}");

    // Conventional single-level pixel ILT (T_R = 0, no smoothing).
    let timer = TurnaroundTimer::start();
    let conventional = ConventionalIlt::new(sim.clone()).run(&target, 30);
    let conv_report = evaluate(&conventional.mask, timer.elapsed());
    println!("conventional ILT : {conv_report}");

    // The paper's "Our-exact" schedule, clamped so the effective low-res
    // pitch stays <= 8 nm on this grid.
    let schedule = schedules::clamp_effective_pitch(&schedules::our_exact(), nm_per_px, 8.0);
    let schedule = schedules::clamp_scales(&schedule, grid, 64);
    let timer = TurnaroundTimer::start();
    let ours = MultiLevelIlt::new(sim.clone(), IltConfig::default()).run(&target, &schedule);
    let ours_report = evaluate(&ours.mask, timer.elapsed());
    println!("our-exact        : {ours_report}");

    let l2_gain = 100.0 * (1.0 - ours_report.l2_nm2 / conv_report.l2_nm2.max(1.0));
    let pvb_gain = 100.0 * (1.0 - ours_report.pvband_nm2 / conv_report.pvband_nm2.max(1.0));
    println!("vs conventional  : L2 {l2_gain:+.1}%  PVB {pvb_gain:+.1}%");

    write_pgm(&ours.mask, format!("{}_ours_mask.pgm", case.name()), 0.0, 1.0)?;
    write_pgm(
        &conventional.mask,
        format!("{}_conventional_mask.pgm", case.name()),
        0.0,
        1.0,
    )?;
    println!("wrote {0}_ours_mask.pgm / {0}_conventional_mask.pgm", case.name());
    Ok(())
}
