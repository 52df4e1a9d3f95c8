//! The paper's tables, figures, Section III-B timing study and the design
//! ablations, regenerated as markdown — the library behind `ilt tables`.
//!
//! ```text
//! ilt tables table1 --grid 1024
//! ilt tables table2 table3 --case 4
//! ilt tables fig4 fig6 --out bench-out/figs
//! ilt tables timing --reps 50
//! ilt tables all --grid 1024
//! ```
//!
//! Selectors are `table1`..`table4`, `fig1`, `fig4`..`fig8`, `timing`,
//! `ablation`, or `all`. Every run is headed by the command line that
//! reproduces it and by [`env_stamp`], so a block pasted into
//! EXPERIMENTS.md names the revision and FFT kernel that produced it.
//! Schedules go through the one schedule clamp
//! ([`schedules::clamp_to_grid`]), masks through the one evaluator
//! ([`evaluate_mask`]), timings through [`measure`]; [`published`] holds
//! the paper's own numbers printed beside the measured ones.

use std::error::Error;
use std::hint::black_box;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ilt_baselines::{ConventionalIlt, LevelSetConfig, LevelSetIlt};
use ilt_core::{
    schedules, BinaryFunction, IltConfig, LossWeights, MultiLevelIlt, OptimizeRegion, Smoothing,
    SmoothingPlacement, Stage, UpdateRule,
};
use ilt_field::{avg_pool_down, write_csv, write_pgm, Field2D};
use ilt_geom::{component_count, label_components};
use ilt_layouts::{iccad2013_case, m1_case, via_pattern, Layout};
use ilt_metrics::{pvband, squared_l2, EvalReport, TurnaroundTimer};
use ilt_optics::{LithoSimulator, OpticsConfig, ProcessCondition};
use ilt_runtime::{evaluate_mask, SimulatorCache};

use crate::measure::{env_stamp, measure, MeasureConfig};
use crate::published::{self, PublishedRow};

type Res<T = ()> = Result<T, Box<dyn Error>>;

/// Sizing of one `ilt tables` run: the values of `--grid --kernels
/// --max-eff-nm --case --smoke --reps --out`.
#[derive(Clone, Debug)]
pub struct TablesConfig {
    /// Simulation grid (paper: 2048 px on the 2048-nm clips).
    pub grid: usize,
    /// SOCS kernels per focus condition (paper: 24).
    pub kernels: usize,
    /// Pitch ceiling of the schedule clamp, nm.
    pub max_eff_nm: f64,
    /// Run Tables II-IV on this one case instead of all ten.
    pub case: Option<usize>,
    /// `reps` of the timing study. `smoke` cuts every iteration budget to 2
    /// so all twelve runners finish in seconds; tier-1 drives them that way.
    pub measure: MeasureConfig,
    /// Directory for the figures' PGM / CSV dumps.
    pub out: PathBuf,
}

/// One run's state: its sizing, the simulators built so far (every clip is
/// 2048 nm wide, so one per run) and the sink the markdown goes to.
struct Run<'a> {
    cfg: &'a TablesConfig,
    cache: SimulatorCache,
    w: &'a mut dyn Write,
}

/// `base` under the one schedule clamp, at `sim`'s pitch, grid and kernel
/// support.
fn clamp(base: &[Stage], sim: &LithoSimulator, max_eff_nm: f64) -> Vec<Stage> {
    let c = sim.config();
    schedules::clamp_to_grid(base, c.nm_per_px, max_eff_nm, c.grid, c.kernel_size())
}

impl Run<'_> {
    /// A layout's target and the simulator at its pixel pitch.
    fn clip(&self, layout: &Layout) -> Res<(Field2D, Arc<LithoSimulator>)> {
        let grid = self.cfg.grid;
        let optics = OpticsConfig {
            grid,
            nm_per_px: layout.nm_per_px(grid),
            num_kernels: self.cfg.kernels,
            ..OpticsConfig::default()
        };
        Ok((layout.rasterize(grid), self.cache.get_or_build(&optics)?))
    }

    fn budget(&self, iterations: usize) -> usize {
        if self.cfg.measure.smoke {
            iterations.min(2)
        } else {
            iterations
        }
    }

    fn schedule(&self, base: &[Stage], sim: &LithoSimulator) -> Vec<Stage> {
        clamp(base, sim, self.cfg.max_eff_nm)
            .into_iter()
            .map(|st| Stage { iterations: self.budget(st.iterations), ..st })
            .collect()
    }

    fn heading(&mut self, title: &str) -> Res {
        Ok(writeln!(self.w, "\n### {title}\n")?)
    }

    fn dump(&self, field: &Field2D, name: &str) -> Res {
        Ok(write_pgm(field, self.cfg.out.join(name), 0.0, 1.0)?)
    }
}

type Runner = fn(&mut Run) -> Res;

const SELECTORS: [(&str, Runner); 12] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("fig1", figure1),
    ("fig4", figure4),
    ("fig5", figure5),
    ("fig6", figure6),
    ("fig7", figure7),
    ("fig8", figure8),
    ("timing", timing),
    ("ablation", ablation),
];

/// Runs the selected tables and figures in the paper's order, writing
/// markdown to `w` and figure dumps under [`TablesConfig::out`].
///
/// # Errors
///
/// An empty or unknown selector, a case id outside `1..=20`, an optics
/// configuration the simulator rejects, and any I/O error on `w` or the
/// output directory.
pub fn run(selectors: &[String], cfg: &TablesConfig, w: &mut dyn Write) -> Res {
    let names = SELECTORS.map(|(name, _)| name).join("|");
    if selectors.is_empty() {
        return Err(format!(
            "usage: ilt tables <{names}|all>... [--grid N] [--kernels K] [--max-eff-nm F] \
             [--case ID] [--smoke] [--reps R] [--out DIR]"
        )
        .into());
    }
    let known = |s: &String| s == "all" || SELECTORS.iter().any(|(name, _)| name == s);
    if let Some(bad) = selectors.iter().find(|s| !known(s)) {
        return Err(format!("unknown selector {bad} ({names}|all)").into());
    }
    if let Some(id) = cfg.case {
        m1_case(id)?;
    }
    std::fs::create_dir_all(&cfg.out)?;

    let env = env_stamp();
    writeln!(
        w,
        "# ilt tables {} --grid {} --kernels {} --max-eff-nm {}{}{} --reps {}",
        selectors.join(" "),
        cfg.grid,
        cfg.kernels,
        cfg.max_eff_nm,
        cfg.case.map_or(String::new(), |id| format!(" --case {id}")),
        if cfg.measure.smoke { " --smoke" } else { "" },
        cfg.measure.reps
    )?;
    writeln!(w, "# rev {}, simd {}, {} hardware thread(s)", env.git_rev, env.simd, env.threads)?;

    let mut run = Run { cfg, cache: SimulatorCache::new(), w };
    let all = selectors.iter().any(|s| s == "all");
    for (name, runner) in SELECTORS {
        if all || selectors.iter().any(|s| s == name) {
            runner(&mut run)?;
        }
    }
    Ok(())
}

/// Table I's three variants on one clip — low-res, high-res and
/// no-downsampling ILT, `iterations` each at lr = 1, at the paper's `s = 4`
/// under the schedule clamp — as `(s, [(label, report); 3])`.
/// `tests/paper_claims.rs` asserts the shot ordering through this function.
pub fn table1_variants(
    sim: &Arc<LithoSimulator>,
    target: &Field2D,
    max_eff_nm: f64,
    iterations: usize,
) -> (usize, Vec<(&'static str, EvalReport)>) {
    let s = clamp(&[Stage::low_res(4, iterations)], sim, max_eff_nm)[0].scale;
    let rows = [
        ("low-res ILT", Stage::low_res(s, iterations), Some(Smoothing::default())),
        ("high-res ILT", Stage::high_res(s, iterations), None),
        ("ILT w/o downsampling", Stage::low_res(1, iterations), None),
    ]
    .into_iter()
    .map(|(label, stage, smoothing)| {
        let cfg = IltConfig { smoothing, ..IltConfig::default() };
        let timer = TurnaroundTimer::start();
        let mask = MultiLevelIlt::new(sim.clone(), cfg).run(target, &[stage]).mask;
        (label, evaluate_mask(sim, target, &mask, timer.elapsed()))
    })
    .collect();
    (s, rows)
}

/// Table I — downsampling ablation on case 1, 100 iterations per variant.
fn table1(run: &mut Run) -> Res {
    let (target, sim) = run.clip(&iccad2013_case(1))?;
    let iterations = run.budget(100);
    let (s, rows) = table1_variants(&sim, &target, run.cfg.max_eff_nm, iterations);
    run.heading(&format!(
        "Table I — downsampling ablation on case1 ({iterations} iters, lr = 1, s = {s})"
    ))?;
    writeln!(run.w, "| variant | L2 (nm^2) | PVB (nm^2) | #shots | TAT (s) |")?;
    writeln!(run.w, "|---------|-----------|------------|--------|---------|")?;
    for (label, r) in &rows {
        writeln!(
            run.w,
            "| {label} | {:.0} | {:.0} | {} | {:.2} |",
            r.l2_nm2, r.pvband_nm2, r.shots, r.tat_seconds
        )?;
    }
    if s == 1 {
        writeln!(run.w, "\ns clamped to 1 at this grid: rows 2 and 3 are the same run")?;
        return Ok(());
    }
    let tat = |i: usize| rows[i].1.tat_seconds;
    writeln!(
        run.w,
        "\nlow-res speedup over high-res: {:.1}x (paper: ~18x at s = 4 on a 2048 grid)",
        tat(1) / tat(0)
    )?;
    writeln!(run.w, "low-res speedup over no-downsampling: {:.1}x", tat(2) / tat(0))?;
    Ok(())
}

/// The live methods of Tables II-IV.
#[derive(Clone, Copy)]
enum Method {
    /// Conventional single-level pixel ILT (`T_R = 0`), 40 iterations.
    Conventional,
    /// GLS-ILT-style level-set baseline, 40 iterations.
    LevelSet,
    /// Multi-level ILT, "Our-fast" schedule.
    OurFast,
    /// Multi-level ILT, "Our-exact" schedule.
    OurExact,
}

impl Method {
    fn label(self) -> &'static str {
        match self {
            Method::Conventional => "conv-ilt",
            Method::LevelSet => "levelset",
            Method::OurFast => "our-fast",
            Method::OurExact => "our-exact",
        }
    }

    /// Optimizes `target` and scores the mask; TAT covers the optimization.
    fn run(
        self,
        run: &Run,
        sim: &Arc<LithoSimulator>,
        target: &Field2D,
        region: OptimizeRegion,
    ) -> (Field2D, EvalReport) {
        let multi_level = |base: &[Stage]| {
            let cfg = IltConfig { region, ..IltConfig::default() };
            MultiLevelIlt::new(sim.clone(), cfg).run(target, &run.schedule(base, sim)).mask
        };
        let timer = TurnaroundTimer::start();
        let mask = match self {
            Method::Conventional => {
                ConventionalIlt::with_region(sim.clone(), region).run(target, run.budget(40)).mask
            }
            Method::LevelSet => {
                let cfg = LevelSetConfig { region, ..LevelSetConfig::default() };
                LevelSetIlt::new(sim.clone(), cfg).run(target, run.budget(40)).mask
            }
            Method::OurFast => multi_level(&schedules::our_fast()),
            Method::OurExact => multi_level(&schedules::our_exact()),
        };
        let report = evaluate_mask(sim, target, &mask, timer.elapsed());
        (mask, report)
    }
}

/// One comparison table: a row per case with every method's five columns
/// (written as each case finishes), their averages, then the paper's
/// published averages for reference.
fn suite(
    run: &mut Run,
    title: &str,
    first_id: usize,
    methods: &[Method],
    region: OptimizeRegion,
    paper: &[(&str, &[PublishedRow; 10])],
) -> Res {
    let ids: Vec<usize> = match run.cfg.case {
        Some(id) => vec![id],
        None => (first_id..first_id + 10).collect(),
    };
    run.heading(title)?;
    let head: String = methods
        .iter()
        .map(|m| format!(" {} L2 | PVB | EPE | #shots | TAT(s) |", m.label()))
        .collect();
    writeln!(run.w, "| case |{head}")?;
    writeln!(run.w, "|------|{}", "---|---|---|---|---|".repeat(methods.len()))?;

    let mut sums = vec![[0.0f64; 5]; methods.len()];
    for &id in &ids {
        let case = m1_case(id)?;
        let (target, sim) = run.clip(&case)?;
        write!(run.w, "| {id} |")?;
        for (m, sum) in methods.iter().zip(&mut sums) {
            let r = m.run(run, &sim, &target, region).1;
            let cols =
                [r.l2_nm2, r.pvband_nm2, r.epe_violations() as f64, r.shots as f64, r.tat_seconds];
            write!(
                run.w,
                " {:.0} | {:.0} | {:.0} | {:.0} | {:.2} |",
                cols[0], cols[1], cols[2], cols[3], cols[4]
            )?;
            sum.iter_mut().zip(cols).for_each(|(s, c)| *s += c);
        }
        writeln!(run.w)?;
    }
    let n = ids.len() as f64;
    write!(run.w, "| avg |")?;
    for s in &sums {
        write!(
            run.w,
            " {:.0} | {:.0} | {:.1} | {:.0} | {:.2} |",
            s[0] / n,
            s[1] / n,
            s[2] / n,
            s[3] / n,
            s[4] / n
        )?;
    }
    writeln!(run.w)?;

    writeln!(
        run.w,
        "\npaper-reported averages (2048 px, RTX 3090; absolute values are not comparable \
         to the run above — compare *ratios*):"
    )?;
    for (label, table) in paper {
        let avg = |f: fn(&PublishedRow) -> f64| published::average(table, f);
        writeln!(
            run.w,
            "  {label:<12} L2 {:>9.1}  PVB {:>9.1}  #shots {:>6.1}  TAT {:>7.2}s",
            avg(|r| r.l2),
            avg(|r| r.pvb),
            avg(|r| r.shots),
            avg(|r| r.tat)
        )?;
    }
    Ok(())
}

/// Table II — ICCAD 2013 cases under the Option-1 region.
fn table2(run: &mut Run) -> Res {
    suite(
        run,
        "Table II — ICCAD 2013 M1 cases, Option-1 region",
        1,
        &[Method::Conventional, Method::OurFast, Method::OurExact],
        OptimizeRegion::option1_default(),
        &[
            ("Neural-ILT", &published::NEURAL_ILT_T2),
            ("A2-ILT", &published::A2_ILT_T2),
            ("Our-fast", &published::OUR_FAST_T2),
            ("Our-exact", &published::OUR_EXACT_T2),
        ],
    )
}

/// Table III — ICCAD 2013 cases under the Option-2 region, with the
/// level-set baseline standing in for GLS-ILT.
fn table3(run: &mut Run) -> Res {
    suite(
        run,
        "Table III — ICCAD 2013 M1 cases, Option-2 region",
        1,
        &[Method::LevelSet, Method::OurFast, Method::OurExact],
        OptimizeRegion::option2_default(),
        &[
            ("GLS-ILT", &published::GLS_ILT_T3),
            ("DevelSet", &published::DEVELSET_T3),
            ("Our-fast", &published::OUR_FAST_T3),
            ("Our-exact", &published::OUR_EXACT_T3),
        ],
    )
}

/// Table IV — the ten denser extended cases.
fn table4(run: &mut Run) -> Res {
    suite(
        run,
        "Table IV — extended cases 11-20",
        11,
        &[Method::Conventional, Method::OurFast, Method::OurExact],
        OptimizeRegion::option1_default(),
        &[
            ("Neural-ILT", &published::NEURAL_ILT_T4),
            ("Our-fast", &published::OUR_FAST_T4),
            ("Our-exact", &published::OUR_EXACT_T4),
        ],
    )
}

/// Fig. 1 — mask outputs: prior-style (conventional, `T_R = 0`) vs ours.
fn figure1(run: &mut Run) -> Res {
    run.heading("Figure 1 — optimized mask outputs (PGM dumps)")?;
    let (target, sim) = run.clip(&iccad2013_case(1))?;
    run.dump(&target, "fig1_target.pgm")?;
    for (tag, method) in [("prior", Method::Conventional), ("ours", Method::OurExact)] {
        let (mask, report) = method.run(run, &sim, &target, OptimizeRegion::option1_default());
        writeln!(
            run.w,
            "  {tag:>5}: {report} | components {} (regularity proxy)",
            component_count(&mask)
        )?;
        run.dump(&mask, &format!("fig1_{tag}_mask.pgm"))?;
    }
    writeln!(run.w, "  wrote fig1_target.pgm / fig1_prior_mask.pgm / fig1_ours_mask.pgm")?;
    Ok(())
}

/// Fig. 4 — binarized masks with `T_R = 0` vs `T_R = 0.5` after 40 low-res
/// iterations.
fn figure4(run: &mut Run) -> Res {
    let (target, sim) = run.clip(&iccad2013_case(1))?;
    let schedule = run.schedule(&[Stage::low_res(4, 40)], &sim);
    run.heading(&format!(
        "Figure 4 — binary-function threshold study ({} low-res iters at s = {})",
        schedule[0].iterations, schedule[0].scale
    ))?;
    for (tag, binary, output_binary) in [
        ("tr0", BinaryFunction::legacy_sigmoid(), BinaryFunction::legacy_sigmoid()),
        ("tr05", BinaryFunction::paper_sigmoid(), BinaryFunction::output_sigmoid()),
    ] {
        let cfg = IltConfig { binary, output_binary, ..IltConfig::default() };
        let mask = MultiLevelIlt::new(sim.clone(), cfg).run(&target, &schedule).mask;
        let r = evaluate_mask(&sim, &target, &mask, Duration::ZERO);
        let srafs = label_components(&mask)
            .into_iter()
            .filter(|c| c.pixels.iter().all(|&(row, col)| target[(row, col)] < 0.5))
            .count();
        writeln!(
            run.w,
            "  {tag:>4}: L2 {:>10.0}  PVB {:>10.0}  SRAF components {srafs}",
            r.l2_nm2, r.pvband_nm2
        )?;
        run.dump(&mask, &format!("fig4_mask_{tag}.pgm"))?;
    }
    writeln!(run.w, "  paper (2048 px): tr0 L2 50626 PVB 51465; tr05 L2 43452 PVB 46361")?;
    Ok(())
}

/// Fig. 5 — sigmoid transformation and gradient curves.
fn figure5(run: &mut Run) -> Res {
    run.heading("Figure 5 — sigmoid curves (CSV)")?;
    let samples = 401;
    let mut curve = Field2D::zeros(samples, 5);
    let f0 = BinaryFunction::legacy_sigmoid();
    let f5 = BinaryFunction::paper_sigmoid();
    for i in 0..samples {
        let x = -2.0 + 4.0 * i as f64 / (samples - 1) as f64;
        curve[(i, 0)] = x;
        curve[(i, 1)] = f0.value(x);
        curve[(i, 2)] = f5.value(x);
        curve[(i, 3)] = f0.derivative(x);
        curve[(i, 4)] = f5.derivative(x);
    }
    let path = run.cfg.out.join("fig5_sigmoid_curves.csv");
    write_csv(&curve, &path)?;
    writeln!(run.w, "  wrote {} (x, sig_tr0, sig_tr05, grad_tr0, grad_tr05)", path.display())?;
    // The Fig. 5(b) observation: at the background's initial value M' = 0,
    // the legacy gradient is at its maximum while the paper's is not.
    writeln!(
        run.w,
        "  grad at M'=0: tr0 {:.3} (its maximum), tr05 {:.3}",
        f0.derivative(0.0),
        f5.derivative(0.0)
    )?;
    Ok(())
}

/// Fig. 6 — smoothing pool on vs off.
fn figure6(run: &mut Run) -> Res {
    let (target, sim) = run.clip(&iccad2013_case(1))?;
    let schedule = run.schedule(&[Stage::low_res(4, 40)], &sim);
    run.heading(&format!(
        "Figure 6 — contour smoothing ablation ({} low-res iters at s = {})",
        schedule[0].iterations, schedule[0].scale
    ))?;
    for (tag, smoothing) in [("with-pool", Some(Smoothing::default())), ("without-pool", None)] {
        let cfg = IltConfig { smoothing, ..IltConfig::default() };
        let mask = MultiLevelIlt::new(sim.clone(), cfg).run(&target, &schedule).mask;
        let r = evaluate_mask(&sim, &target, &mask, Duration::ZERO);
        writeln!(
            run.w,
            "  {tag:>12}: L2 {:>10.0}  PVB {:>10.0}  #shots {:>4}  components {:>3}",
            r.l2_nm2,
            r.pvband_nm2,
            r.shots,
            component_count(&mask)
        )?;
        run.dump(&mask, &format!("fig6_mask_{tag}.pgm"))?;
    }
    writeln!(
        run.w,
        "  paper (2048 px): with (70308, 69069); without (69043, 70762), more complex"
    )?;
    Ok(())
}

/// Fig. 7 — optimizing-region options.
fn figure7(run: &mut Run) -> Res {
    run.heading("Figure 7 — optimizing-region options")?;
    let (target, sim) = run.clip(&iccad2013_case(1))?;
    let schedule = run.schedule(&schedules::our_exact(), &sim);
    for (tag, region) in [
        ("option1", OptimizeRegion::option1_default()),
        ("option2", OptimizeRegion::option2_default()),
    ] {
        let cfg = IltConfig { region, ..IltConfig::default() };
        let mask = MultiLevelIlt::new(sim.clone(), cfg).run(&target, &schedule).mask;
        writeln!(run.w, "  {tag}: {}", evaluate_mask(&sim, &target, &mask, Duration::ZERO))?;
        run.dump(&mask, &format!("fig7_mask_{tag}.pgm"))?;
        let writable = region.region_mask(&target, sim.config().nm_per_px);
        run.dump(&writable, &format!("fig7_region_{tag}.pgm"))?;
    }
    Ok(())
}

/// Fig. 8 — the worst of fifteen via clips: target, binarized mask, final
/// mask and wafer image; every via must print.
fn figure8(run: &mut Run) -> Res {
    run.heading("Figure 8 — via patterns (worst of 15 clips)")?;
    let cfg = IltConfig { early_exit_window: Some(15), ..IltConfig::default() };
    // Pass 1: scan all fifteen clips with a short recipe; the full via
    // recipe reruns on the worst clip only.
    let mut worst = (0u64, f64::NEG_INFINITY);
    for seed in 0..15u64 {
        let (target, sim) = run.clip(&via_pattern(seed))?;
        let nm = sim.config().nm_per_px;
        let schedule = run.schedule(&[Stage::low_res(4, 40), Stage::high_res(4, 5)], &sim);
        let result = MultiLevelIlt::new(sim.clone(), cfg.clone()).run(&target, &schedule);
        let corners = sim.print_corners(&result.mask);
        let l2 = squared_l2(&corners.nominal, &target, nm);
        let vias = label_components(&target);
        let printed = vias
            .iter()
            .filter(|c| c.pixels.iter().any(|&(row, col)| corners.nominal[(row, col)] >= 0.5))
            .count();
        writeln!(
            run.w,
            "  via{seed:02}: L2 {l2:>9.0}  PVB {:>9.0}  vias printed {printed}/{}  iters {}",
            pvband(&corners.inner, &corners.outer, nm),
            vias.len(),
            result.total_iterations
        )?;
        if l2 > worst.1 {
            worst = (seed, l2);
        }
    }
    let (seed, l2) = worst;
    writeln!(run.w, "  worst clip: via{seed:02} (L2 {l2:.0}); dumping Fig. 8 panels")?;

    let (target, sim) = run.clip(&via_pattern(seed))?;
    let schedule = run.schedule(&schedules::via_recipe(), &sim);
    let result = MultiLevelIlt::new(sim.clone(), cfg).run(&target, &schedule);
    run.dump(&target, "fig8_target.pgm")?;
    run.dump(
        &BinaryFunction::output_sigmoid().apply_field(&result.raw_mask),
        "fig8_binarized.pgm",
    )?;
    run.dump(&result.mask, "fig8_final_mask.pgm")?;
    run.dump(&sim.print(&result.mask, ProcessCondition::nominal()), "fig8_wafer.pgm")?;
    writeln!(run.w, "  wrote fig8_target/binarized/final_mask/wafer .pgm")?;
    Ok(())
}

/// Section III-B timing: one forward simulation under Eq. 3, Eq. 7 and
/// Eq. 8 (the paper reports 8.173 / 0.767 / 0.466 s for 200 runs).
fn timing(run: &mut Run) -> Res {
    let mcfg = &run.cfg.measure;
    run.heading(&format!(
        "Forward-simulation timing (median of {} run(s) per variant)",
        mcfg.effective_reps()
    ))?;
    let (target, sim) = run.clip(&iccad2013_case(1))?;
    // The pitch ceiling guards mask quality and a forward simulation has no
    // mask to degrade, so only the grid floor applies: the paper's s = 4
    // wherever N/s still holds a kernel.
    let s = clamp(&[Stage::low_res(4, 1)], &sim, f64::INFINITY)[0].scale;
    let ms = |op: &dyn Fn() -> Field2D| measure(mcfg, || drop(black_box(op()))).median_us / 1e3;

    let eq3 = ms(&|| sim.aerial(&target, false));
    writeln!(run.w, "| variant | ms per run | speedup vs Eq. 3 |")?;
    writeln!(run.w, "|---------|------------|------------------|")?;
    writeln!(run.w, "| Eq. 3 (full, N = {}) | {eq3:.3} | 1.0x |", run.cfg.grid)?;
    if s == 1 {
        for variant in ["Eq. 7 (reduced iFFTs)", "Eq. 8 (all reduced)"] {
            writeln!(run.w, "| {variant} | n/a at this grid (N/2 < P) | n/a |")?;
        }
    } else {
        let mask_s = avg_pool_down(&target, s);
        let eq7 = ms(&|| sim.aerial_subsampled(&target, s, false));
        let eq8 = ms(&|| sim.aerial(&mask_s, false));
        writeln!(run.w, "| Eq. 7 (reduced iFFTs, s = {s}) | {eq7:.3} | {:.1}x |", eq3 / eq7)?;
        writeln!(run.w, "| Eq. 8 (all reduced, s = {s}) | {eq8:.3} | {:.1}x |", eq3 / eq8)?;
    }
    let (p3, p7, p8) = published::FORWARD_SIM_SECONDS;
    writeln!(
        run.w,
        "\npaper (200 runs, 2048 px, s = 4, GPU): {p3} / {p7} / {p8} s -> {:.1}x and {:.1}x",
        p3 / p7,
        p3 / p8
    )?;
    Ok(())
}

/// Design-choice ablations beyond the paper's own figures, each a full
/// Our-exact run on case 1 with one setting changed.
fn ablation(run: &mut Run) -> Res {
    use SmoothingPlacement::{AfterBinarize, BeforeBinarize};
    run.heading("Ablations — design choices called out in DESIGN.md")?;
    let (target, sim) = run.clip(&iccad2013_case(1))?;
    let schedule = run.schedule(&schedules::our_exact(), &sim);

    let d = IltConfig::default;
    let smoothed =
        |kernel, placement| IltConfig { smoothing: Some(Smoothing { kernel, placement }), ..d() };
    let binary = |f: BinaryFunction| IltConfig { binary: f, output_binary: f, ..d() };
    let output =
        |t_r| IltConfig { output_binary: BinaryFunction::Sigmoid { beta: 4.0, t_r }, ..d() };
    let lr = |learning_rate| IltConfig { learning_rate, ..d() };
    let rule = |update_rule, learning_rate| IltConfig { update_rule, learning_rate, ..d() };
    let weighted = |loss_weights| IltConfig { loss_weights, ..d() };
    let groups: [(&str, Vec<(&str, IltConfig)>); 7] = [
        (
            "smoothing placement (paper text smooths before binarizing; the Algorithm 1 \
             listing smooths after)",
            vec![
                ("smooth-before-binarize (default)", smoothed(3, BeforeBinarize)),
                ("smooth-after-binarize (listing)", smoothed(3, AfterBinarize)),
                ("no smoothing", IltConfig { smoothing: None, ..d() }),
            ],
        ),
        (
            "smoothing kernel size",
            vec![
                ("kernel 3x3", smoothed(3, BeforeBinarize)),
                ("kernel 5x5", smoothed(5, BeforeBinarize)),
            ],
        ),
        (
            "binary function family",
            vec![
                ("sigmoid T_R=0.5/0.4 (paper)", d()),
                ("sigmoid T_R=0 (legacy)", binary(BinaryFunction::legacy_sigmoid())),
                (
                    "cosine ([11], lr-sensitive)",
                    IltConfig { learning_rate: 0.1, ..binary(BinaryFunction::Cosine) },
                ),
            ],
        ),
        (
            "output threshold T_R (optimization fixed at 0.5)",
            vec![
                ("output T_R = 0.5", output(0.5)),
                ("output T_R = 0.4", output(0.4)),
                ("output T_R = 0.3", output(0.3)),
            ],
        ),
        ("learning rate", vec![("lr = 0.5", lr(0.5)), ("lr = 1", lr(1.0)), ("lr = 2", lr(2.0))]),
        (
            "update rule (the paper uses SGD; A2-ILT uses Adam)",
            vec![
                ("sgd (paper)", d()),
                ("momentum 0.9", rule(UpdateRule::Momentum { beta: 0.9 }, 0.3)),
                ("adam (lr 0.1)", rule(UpdateRule::adam_default(), 0.1)),
            ],
        ),
        (
            "loss regularizers (extensions; paper = both off)",
            vec![
                ("eq5 only (paper)", d()),
                (
                    "curvature 0.1",
                    weighted(LossWeights { curvature: 0.1, ..LossWeights::default() }),
                ),
                ("gray 0.05", weighted(LossWeights { gray: 0.05, ..LossWeights::default() })),
            ],
        ),
    ];
    for (group, variants) in groups {
        writeln!(run.w, "-- {group} --")?;
        for (label, cfg) in variants {
            let timer = TurnaroundTimer::start();
            let mask = MultiLevelIlt::new(sim.clone(), cfg).run(&target, &schedule).mask;
            let report = evaluate_mask(&sim, &target, &mask, timer.elapsed());
            writeln!(run.w, "  {label:<34} {report}")?;
        }
    }
    Ok(())
}
