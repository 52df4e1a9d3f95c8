//! The repo benchmark. One process measures one workload:
//!
//! ```text
//! ilt-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
//! ```
//!
//! `--trace 0` times the workload and prints the end-to-end metrics;
//! `--trace 1` records spans around the calls into each layer, runs the
//! layer probes and prints the per-layer metrics. Every metric is printed as
//! `workload metric value unit`; the last line of standard output is the
//! result object the driver reads. See `benchmark/README.md`.

mod batch;
mod checks;
mod harness;
mod m1;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use checks::Quality;
use harness::{
    fast_decile, median, metrics_json, peak_rss_mb, quantile, stamp_json, Budget, Metrics,
    RunConfig, Shapes, Tracer, Window, CYCLE,
};

/// Cold set-ups timed per run; `setup_s` reports their median.
const SETUP_REPS: usize = 3;

/// A workload: a cold set-up, windows of ops, and the quality of the
/// reference input's mask.
pub trait Workload: Sized {
    /// Builds inputs, simulators and servers from nothing, then runs one
    /// priming op so that whatever the program builds lazily is built: the
    /// state it returns is ready to be timed.
    fn setup(cfg: &RunConfig) -> Result<Self, String>;
    /// `(name, used, wanted)` of each kind of compute thread or client.
    fn threads(&self) -> Vec<(&'static str, usize, usize)>;
    /// Runs ops until the budget is spent. Op 0 is always the reference
    /// input; every op checks its own output.
    fn window(&mut self, budget: Budget, tracer: &Tracer) -> Window;
    /// Evaluates the reference input's mask (after a window produced it).
    fn quality(&mut self) -> Result<Quality, String>;
    /// Stops servers and removes temporary files.
    fn teardown(self);
}

const WORKLOADS: [&str; 4] = ["m1_fast", "m1_lowres", "batch_tiles", "serve_small"];

fn parse_args() -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
        shapes: Shapes::PAPER,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?,
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => cfg.trace = value()? != "0",
            "--out" => cfg.out_dir = PathBuf::from(value()?),
            "--smoke" => cfg.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            cfg.workload
        ));
    }
    if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
        return Err(format!("--seconds must be positive, got {}", cfg.seconds));
    }
    if cfg.smoke {
        cfg.shapes = Shapes::SMOKE;
    }
    Ok(cfg)
}

/// What a finished run hands to the output stage.
struct Outcome {
    metrics: Metrics,
    attempted: usize,
    failed: usize,
    /// Why the run is not correct, when it is not.
    problems: Vec<String>,
    threads: Vec<(&'static str, usize, usize)>,
    /// The measured window: every op's wall time, and the window's own.
    op_s: Vec<f64>,
    window_s: f64,
}

/// The budget of a measured window: `share` of `--seconds`, at least
/// `min_ops` ops; a smoke run does two ops whatever the clock says.
fn budget(cfg: &RunConfig, share: f64, min_ops: usize) -> Budget {
    if cfg.smoke {
        Budget {
            seconds: 0.0,
            min_ops: 2,
            max_ops: Some(2),
        }
    } else {
        Budget {
            seconds: cfg.seconds * share,
            min_ops,
            max_ops: None,
        }
    }
}

/// Cold set-up, repeated; returns the last state and each repetition's time.
fn timed_setups<W: Workload>(cfg: &RunConfig, reps: usize) -> Result<(W, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps {
        if let Some(previous) = state.take() {
            W::teardown(previous);
        }
        let t = Instant::now();
        state = Some(W::setup(cfg)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((state.expect("at least one set-up"), times))
}

/// Runs one window and notes its failures.
fn window_of<W: Workload>(
    state: &mut W,
    budget: Budget,
    tracer: &Tracer,
    problems: &mut Vec<String>,
) -> Window {
    let window = state.window(budget, tracer);
    if window.failed > 0 {
        problems.push(format!(
            "{} of {} ops failed: {:?}",
            window.failed,
            window.attempted(),
            window.errors
        ));
    }
    window
}

/// The reference mask's quality. Smoke grids (16 nm pixels, a handful of
/// iterations) are too coarse for optimization to beat the bare target, so
/// that check only applies at the paper's shapes.
fn checked_quality<W: Workload>(
    cfg: &RunConfig,
    state: &mut W,
    problems: &mut Vec<String>,
) -> Result<Quality, String> {
    let quality = state.quality()?;
    if !cfg.smoke {
        problems.extend(quality.check().err());
    }
    Ok(quality)
}

/// `--trace 0`: the end-to-end metrics.
fn run_untraced<W: Workload>(cfg: &RunConfig) -> Result<Outcome, String> {
    let (mut state, setups) = timed_setups::<W>(cfg, if cfg.smoke { 1 } else { SETUP_REPS })?;
    let mut problems = Vec::new();
    // One op more than the input cycle, so at least one input repeats and
    // its mask hash is compared.
    let window = window_of(
        &mut state,
        budget(cfg, 1.0, CYCLE + 1),
        &Tracer::new(false),
        &mut problems,
    );
    let quality = checked_quality(cfg, &mut state, &mut problems)?;
    let threads = state.threads();
    state.teardown();

    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put("op_s_p10", fast_decile(&window.op_s), "s");
    m.put("l2_nm2", quality.l2_nm2, "nm2");
    m.put("pvband_nm2", quality.pvband_nm2, "nm2");
    m.put("shots", quality.shots, "count");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(Outcome {
        metrics: m,
        attempted: window.attempted(),
        failed: window.failed,
        problems,
        threads,
        window_s: window.wall_s,
        op_s: window.op_s,
    })
}

/// `--trace 1`: the workload's ops with spans on, then every layer probe.
fn run_traced<W: Workload>(cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    let mut state = W::setup(cfg)?;
    let mut problems = Vec::new();
    // The same ops without and with spans: the difference is what tracing
    // costs.
    let plain = window_of(
        &mut state,
        budget(cfg, 0.25, 2),
        &Tracer::new(false),
        &mut problems,
    );
    let traced = window_of(&mut state, budget(cfg, 0.25, 3), tracer, &mut problems);
    let quality = checked_quality(cfg, &mut state, &mut problems)?;
    let threads = state.threads();
    state.teardown();

    let mut m = Metrics::default();
    m1::probes(cfg, tracer, &mut m)?;
    batch::probes(cfg, tracer, &mut m)?;
    serve::probes(cfg, tracer, &mut m)?;
    m.put("quality.epe", quality.epe, "count");
    m.put("loadgen.ops", traced.attempted() as f64, "count");
    m.put(
        "loadgen.ops_per_s",
        traced.attempted() as f64 / traced.wall_s,
        "1/s",
    );
    m.put("loadgen.op_s_min", quantile(&traced.op_s, 0.0), "s");
    m.put("loadgen.op_s_p50", median(&traced.op_s), "s");
    m.put("loadgen.op_s_p90", quantile(&traced.op_s, 0.9), "s");
    m.put(
        "loadgen.op_s_iqr",
        quantile(&traced.op_s, 0.75) - quantile(&traced.op_s, 0.25),
        "s",
    );
    m.put(
        "loadgen.cpu_s_per_op",
        fast_decile(&traced.cpu_s_per_op_groups()),
        "s",
    );
    let (fast_plain, fast_traced) = (fast_decile(&plain.op_s), fast_decile(&traced.op_s));
    m.put(
        "loadgen.trace_overhead_share",
        (fast_traced - fast_plain) / fast_plain,
        "ratio",
    );
    Ok(Outcome {
        metrics: m,
        attempted: plain.attempted() + traced.attempted(),
        failed: plain.failed + traced.failed,
        problems,
        threads,
        window_s: traced.wall_s,
        op_s: traced.op_s,
    })
}

fn run<W: Workload>(cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    if cfg.trace {
        run_traced::<W>(cfg, tracer)
    } else {
        run_untraced::<W>(cfg)
    }
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("ilt-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!(
            "ilt-benchmark: cannot create {}: {e}",
            cfg.out_dir.display()
        );
        return ExitCode::from(2);
    }
    let tracer = Tracer::new(cfg.trace);
    let outcome = match cfg.workload.as_str() {
        "m1_fast" | "m1_lowres" => run::<m1::M1>(&cfg, &tracer),
        "batch_tiles" => run::<batch::Batch>(&cfg, &tracer),
        _ => run::<serve::Serve>(&cfg, &tracer),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("ilt-benchmark: {} could not run: {e}", cfg.workload);
            return ExitCode::from(1);
        }
    };

    let w = &cfg.workload;
    for problem in &outcome.problems {
        eprintln!("{w}: INCORRECT: {problem}");
    }
    println!("{w} samples {} count", outcome.attempted);
    for m in &outcome.metrics.0 {
        println!("{w} {} {} {}", m.name, m.value, m.unit);
    }
    let stamp = stamp_json(&cfg, &outcome.threads, outcome.attempted, outcome.window_s);
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.problems.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics.0)
    );
    let prefix = if cfg.smoke { "smoke_" } else { "" };
    let kind = if cfg.trace { "layers" } else { "result" };
    let written = std::fs::write(
        cfg.out_dir.join(format!("{prefix}{kind}_{w}.json")),
        format!(
            "{{\"stamp\":{stamp},\"op_s\":{:?},\"result\":{result}}}\n",
            outcome.op_s
        ),
    )
    .and_then(|()| {
        if cfg.trace {
            tracer.write(&cfg.out_dir.join(format!("{prefix}trace_{w}.json")), &stamp)
        } else {
            Ok(())
        }
    });
    if let Err(e) = written {
        eprintln!(
            "ilt-benchmark: cannot write under {}: {e}",
            cfg.out_dir.display()
        );
        return ExitCode::from(1);
    }
    println!("{result}");
    ExitCode::SUCCESS
}
