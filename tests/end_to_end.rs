//! Cross-crate integration tests: layouts -> optics -> multi-level ILT ->
//! metrics, at small physical scale (512 nm clips) so the whole suite runs
//! in seconds.

use std::sync::Arc;

use multilevel_ilt::prelude::*;

fn small_sim(grid: usize, nm_per_px: f64, kernels: usize) -> Arc<LithoSimulator> {
    let cfg = OpticsConfig {
        grid,
        nm_per_px,
        num_kernels: kernels,
        ..OpticsConfig::default()
    };
    Arc::new(LithoSimulator::new(cfg).expect("valid optics"))
}

fn bar_target(n: usize) -> Field2D {
    Field2D::from_fn(n, n, |r, c| {
        if (n * 3 / 8..n * 5 / 8).contains(&r) && (n / 4..n * 3 / 4).contains(&c) {
            1.0
        } else {
            0.0
        }
    })
}

#[test]
fn full_pipeline_improves_over_uncorrected_mask() {
    let sim = small_sim(64, 8.0, 4);
    let target = bar_target(64);

    // Print the raw target as the no-correction reference.
    let raw = sim.print_corners(&target);
    let raw_l2 = squared_l2(&raw.nominal, &target, 8.0);

    let ilt = MultiLevelIlt::new(sim.clone(), IltConfig::default());
    let result = ilt.run(&target, &[Stage::low_res(1, 12)]);
    let opt = sim.print_corners(&result.mask);
    let opt_l2 = squared_l2(&opt.nominal, &target, 8.0);

    assert!(
        opt_l2 < raw_l2,
        "optimization must beat no correction: {opt_l2} vs {raw_l2}"
    );
}

#[test]
fn multi_level_schedule_is_faster_than_single_level_same_iterations() {
    let sim = small_sim(128, 4.0, 4);
    let target = bar_target(128);
    let ilt = MultiLevelIlt::new(sim.clone(), IltConfig::default());

    let timer = TurnaroundTimer::start();
    let _ = ilt.run(&target, &[Stage::low_res(2, 10)]);
    let low = timer.elapsed();

    let timer = TurnaroundTimer::start();
    let _ = ilt.run(&target, &[Stage::low_res(1, 10)]);
    let full = timer.elapsed();

    assert!(
        low.as_secs_f64() < full.as_secs_f64(),
        "low-res iterations must be cheaper: {low:?} vs {full:?}"
    );
}

#[test]
fn runs_are_deterministic() {
    let sim = small_sim(64, 8.0, 3);
    let target = bar_target(64);
    let ilt = MultiLevelIlt::new(sim.clone(), IltConfig::default());
    let a = ilt.run(&target, &[Stage::low_res(2, 6), Stage::high_res(2, 2)]);
    let b = ilt.run(&target, &[Stage::low_res(2, 6), Stage::high_res(2, 2)]);
    assert_eq!(a.mask, b.mask);
    assert_eq!(a.loss_history.len(), b.loss_history.len());
    for (ra, rb) in a.loss_history.iter().zip(&b.loss_history) {
        assert_eq!(ra.loss, rb.loss);
    }
}

#[test]
fn layout_rasterization_feeds_the_simulator() {
    // A real benchmark layout at reduced grid flows through the whole stack.
    let case = iccad2013_case(10); // the single-square case
    let grid = 128;
    let target = case.rasterize(grid);
    let sim = small_sim(grid, case.nm_per_px(grid), 4);
    let corners = sim.print_corners(&target);
    assert!(corners.nominal.count_on() > 0, "case 10's square must print");
    let pvb = pvband(&corners.inner, &corners.outer, case.nm_per_px(grid));
    assert!(pvb > 0.0);
}

#[test]
fn eval_report_fields_are_consistent() {
    let sim = small_sim(64, 8.0, 3);
    let target = bar_target(64);
    let result = MultiLevelIlt::new(sim.clone(), IltConfig::default())
        .run(&target, &[Stage::low_res(2, 8)]);
    let corners = sim.print_corners(&result.mask);
    let report =
        evaluate_mask(&sim, &target, &result.mask, std::time::Duration::from_secs(1));
    assert_eq!(report.shots, shot_count(&result.mask));
    assert_eq!(
        report.l2_nm2,
        squared_l2(&corners.nominal, &target, 8.0)
    );
    assert_eq!(
        report.pvband_nm2,
        pvband(&corners.inner, &corners.outer, 8.0)
    );
}

#[test]
fn baselines_and_ours_run_on_the_same_engine() {
    let sim = small_sim(64, 8.0, 3);
    let target = bar_target(64);

    let ours = MultiLevelIlt::new(sim.clone(), IltConfig::default())
        .run(&target, &[Stage::low_res(2, 8)]);
    let conv =
        ConventionalIlt::new(sim.clone(), OptimizeRegion::option2_default()).run(&target, 8);
    let ls = LevelSetIlt::new(
        sim.clone(),
        LevelSetConfig { scale: 2, ..LevelSetConfig::default() },
    )
    .run(&target, 8);

    for (label, mask) in [
        ("ours", &ours.mask),
        ("conventional", &conv.mask),
        ("levelset", &ls.mask),
    ] {
        assert_eq!(mask.shape(), (64, 64), "{label}");
        assert!(mask.as_slice().iter().all(|&v| v == 0.0 || v == 1.0), "{label}");
        // Every method must produce a printable mask.
        let z = sim.print(mask, ProcessCondition::nominal());
        assert!(z.count_on() > 0, "{label} printed nothing");
    }
}

#[test]
fn postprocessing_reduces_or_preserves_shot_count() {
    let sim = small_sim(64, 8.0, 3);
    let target = bar_target(64);
    let plain = MultiLevelIlt::new(sim.clone(), IltConfig::default())
        .run(&target, &[Stage::low_res(1, 10)]);
    let post = MultiLevelIlt::new(
        sim.clone(),
        IltConfig {
            postprocess: Some(SimplifyConfig { min_area: 4, ..SimplifyConfig::default() }),
            ..IltConfig::default()
        },
    )
    .run(&target, &[Stage::low_res(1, 10)]);
    assert!(
        shot_count(&post.mask) <= shot_count(&plain.mask),
        "post-processing must not add shots: {} vs {}",
        shot_count(&post.mask),
        shot_count(&plain.mask)
    );
}

/// `ilt bench` through the real binary: `list` shows the registry, `run`
/// prints the provenance line over one row per selected workload, and
/// everything else is refused with a message.
#[test]
fn bench_lists_runs_and_refuses_through_the_cli() {
    let bench = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ilt"))
            .arg("bench")
            .args(args)
            .output()
            .expect("run ilt");
        let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8");
        (out.status.success(), text(out.stdout), text(out.stderr))
    };

    let (ok, list, _) = bench(&["list"]);
    assert!(ok);
    assert_eq!(list.lines().count(), 6, "{list}");

    let (ok, run, err) = bench(&["run", "--smoke", "fft_*"]);
    assert!(ok, "{err}");
    let lines: Vec<&str> = run.lines().collect();
    assert_eq!(lines.len(), 4, "{run}");
    assert!(lines[0].starts_with("# rev ") && lines[0].contains(", simd "), "{run}");
    assert!(lines[1..].iter().all(|l| l.starts_with("fft_") && l.contains(" us/op")), "{run}");

    for (args, refusal) in [
        (&["diff"][..], "unknown bench subcommand"),
        (&["run", "--baselines", "."], "unknown flag --baselines"),
        (&["run", "no_such_*"], "no workloads match"),
    ] {
        let (ok, _, err) = bench(args);
        assert!(!ok && err.contains(refusal), "{args:?}: {err}");
    }
}

/// Every command refuses a flag it does not read, before it does anything,
/// as it refuses one that does not exist.
#[test]
fn every_command_refuses_a_flag_it_does_not_read() {
    for (args, refusal) in [
        (&["run", "--case", "1", "--journal", "j.jsonl"][..], "run does not take --journal"),
        (&["batch", "--case", "1", "case1"], "batch does not take --case"),
        (&["serve", "--grid", "64"], "serve does not take --grid"),
        (&["worker", "--queue", "4"], "worker does not take --queue"),
        (&["evaluate", "--out", "o"], "evaluate does not take --out"),
        (&["fracture", "--mask", "m", "--schedule", "exact"], "fracture does not take --schedule"),
        (&["kernels", "--smoke", "--reps", "3"], "kernels does not take --smoke"),
        (&["bench", "list", "--grid", "9"], "bench does not take --grid"),
        (&["tables", "table1", "--threads", "2"], "tables does not take --threads"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ilt"))
            .args(args)
            .output()
            .expect("run ilt");
        let err = String::from_utf8(out.stderr).expect("utf-8");
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(refusal), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} did work before refusing");
    }
}

/// A reader that stops early (`ilt kernels | head -1`) ends the command
/// cleanly: exit 0 and no panic, though every later line meets a closed
/// pipe. The kernels are built after the first line is written, so the
/// pipe is closed long before the second.
#[test]
fn a_closed_stdout_is_a_clean_exit() {
    use std::io::BufRead;
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_ilt"))
        .args(["kernels", "--grid", "64", "--kernels", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run ilt");
    let mut first = String::new();
    let stdout = child.stdout.take().expect("piped stdout");
    std::io::BufReader::new(stdout).read_line(&mut first).expect("one line");
    assert!(first.starts_with("grid 64"), "{first}");
    let out = child.wait_with_output().expect("ilt exits");
    let err = String::from_utf8(out.stderr).expect("utf-8");
    assert!(!err.contains("panicked"), "{err}");
    assert_eq!(out.status.code(), Some(0), "{err}");
}
