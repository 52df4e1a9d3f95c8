//! Via-layer optimization (Section IV-C of the paper): run the multi-stage
//! coarse-to-fine via recipe with early exit and verify that every via
//! prints at the nominal corner.
//!
//! ```text
//! cargo run --release --example via_optimization -- [seed] [grid]
//! ```

use std::error::Error;
use std::sync::Arc;

use multilevel_ilt::geom::label_components;
use multilevel_ilt::prelude::*;

fn main() -> Result<(), Box<dyn Error>> {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().map(|s| s.parse()).transpose()?.unwrap_or(0);
    let grid: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(256);

    let clip = via_pattern(seed);
    let nm_per_px = clip.nm_per_px(grid);
    let target = clip.rasterize(grid);
    let via_count = label_components(&target).len();
    println!(
        "== via clip seed {seed}: {via_count} vias on a {grid} px grid ({nm_per_px} nm/px) =="
    );

    let optics = OpticsConfig { grid, nm_per_px, num_kernels: 8, ..OpticsConfig::default() };
    let sim = Arc::new(LithoSimulator::new(optics)?);

    // Via recipe: low-res s = 8, 4, 2 then high-res, with the paper's
    // 15-iteration early-exit window ("the number we set is only an upper
    // bound of iterations").
    let schedule = schedules::clamp_effective_pitch(&schedules::via_recipe(), nm_per_px, 8.0);
    let schedule = schedules::clamp_scales(&schedule, grid, 64);
    let cfg = IltConfig { early_exit_window: Some(15), ..IltConfig::default() };

    let timer = TurnaroundTimer::start();
    let result = MultiLevelIlt::new(sim.clone(), cfg).run(&target, &schedule);
    let tat = timer.elapsed();
    println!(
        "ran {} iterations across {} stages in {:.2} s",
        result.total_iterations,
        schedule.len(),
        tat.as_secs_f64()
    );

    println!("{}", evaluate_mask(&sim, &target, &result.mask, tat));
    let wafer = sim.print(&result.mask, ProcessCondition::nominal());

    // Fig. 8's acceptance rule: every via must print.
    let mut printed = 0;
    for comp in label_components(&target) {
        let hit = comp.pixels.iter().any(|&(r, c)| wafer[(r, c)] >= 0.5);
        if hit {
            printed += 1;
        }
    }
    println!("vias printed at nominal: {printed}/{via_count}");

    write_pgm(&target, "via_target.pgm", 0.0, 1.0)?;
    write_pgm(&result.mask, "via_mask.pgm", 0.0, 1.0)?;
    write_pgm(&wafer, "via_wafer.pgm", 0.0, 1.0)?;
    println!("wrote via_target.pgm / via_mask.pgm / via_wafer.pgm");
    Ok(())
}
