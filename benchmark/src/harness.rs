//! What every workload shares: the run configuration, the op loop, order
//! statistics, process accounting, the span recorder and the output files.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use ilt_layouts::Xorshift64Star;
use ilt_runtime::json_escape;

/// The shapes a run uses. `paper` is what the numbers are quoted at;
/// `smoke` only exercises the harness and is never compared.
#[derive(Clone, Copy, Debug)]
pub struct Shapes {
    /// Full M1 grid `N` (`hi`); the low-resolution size is `hi / scale`.
    pub hi: usize,
    /// The multi-level scale factor `s`.
    pub scale: usize,
    /// SOCS kernels for the M1 and batch workloads.
    pub kernels: usize,
    /// `batch_tiles`: clip grid, tile window, halo.
    pub batch: (usize, usize, usize),
    /// `serve_small`: clip grid, tile window, halo.
    pub serve: (usize, usize, usize),
}

impl Shapes {
    pub const PAPER: Shapes = Shapes {
        hi: 1024,
        scale: 4,
        kernels: 10,
        batch: (512, 256, 32),
        serve: (128, 64, 8),
    };
    /// 128-px M1 clips are 16 nm/px, where the kernel support is 57 px, so
    /// the reduced grid cannot go below 64.
    pub const SMOKE: Shapes = Shapes {
        hi: 128,
        scale: 2,
        kernels: 3,
        batch: (128, 64, 8),
        serve: (64, 64, 8),
    };

    pub fn lo(&self) -> usize {
        self.hi / self.scale
    }
}

/// One invocation's settings.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
    pub shapes: Shapes,
    /// `std::thread::available_parallelism`, the cap on compute threads.
    pub nproc: usize,
}

impl RunConfig {
    /// `wanted` compute threads (or clients), never more than the cores.
    pub fn capped(&self, wanted: usize) -> usize {
        wanted.min(self.nproc).max(1)
    }

    pub fn rng(&self, stream: u64) -> Xorshift64Star {
        Xorshift64Star::new(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
    }

    /// A fresh, empty directory under the output directory for journals and
    /// WALs; the caller removes it outside the timed window.
    pub fn temp_dir(&self, tag: &str) -> PathBuf {
        let dir = self
            .out_dir
            .join(format!("tmp_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir under the output directory");
        dir
    }
}

/// The M1 cases a run cycles through: the reference case, then `CYCLE - 1`
/// of cases `2..=10` picked and ordered by the seed. The reference mask
/// (quality metrics) is the same for every seed; the cycle is short so that
/// a window revisits its inputs and the mask-hash check has something to
/// compare.
pub fn seeded_cycle(rng: &mut Xorshift64Star) -> Vec<usize> {
    let mut rest: Vec<usize> = (2..=10).collect();
    for i in (1..rest.len()).rev() {
        let j = rng.gen_range_u32(0, i as u32) as usize;
        rest.swap(i, j);
    }
    std::iter::once(1).chain(rest).take(CYCLE).collect()
}

/// Inputs per cycle of the M1 and batch workloads.
pub const CYCLE: usize = 4;

/// When an op loop stops: after `seconds` and at least `min_ops`, or at
/// `max_ops` (smoke runs).
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub seconds: f64,
    pub min_ops: usize,
    pub max_ops: Option<usize>,
}

/// Exactly one op.
pub const ONE_OP: Budget = Budget {
    seconds: 0.0,
    min_ops: 1,
    max_ops: Some(1),
};

impl Budget {
    pub fn done(&self, ops: usize, elapsed: f64) -> bool {
        self.max_ops.is_some_and(|m| ops >= m) || (ops >= self.min_ops && elapsed >= self.seconds)
    }
}

const CPU_GROUPS: usize = 16;

/// What a timed window produced.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Wall time of each op, seconds, in completion order.
    pub op_s: Vec<f64>,
    /// Ops that returned an error or failed an output check.
    pub failed: usize,
    /// First few failure messages, for the operator.
    pub errors: Vec<String>,
    /// Process CPU seconds read as each op completed, in the same order.
    pub cpu_marks: Vec<f64>,
    /// Process CPU seconds when the window opened.
    pub cpu_start: f64,
    pub wall_s: f64,
}

impl Window {
    pub fn attempted(&self) -> usize {
        self.op_s.len()
    }

    /// CPU seconds per op over each of (at most) `CPU_GROUPS` runs of
    /// consecutive ops. Grouping keeps the 10 ms tick of the kernel's CPU
    /// clock small beside a group's CPU time when ops are short.
    pub fn cpu_s_per_op_groups(&self) -> Vec<f64> {
        let per_group = self.cpu_marks.len().div_ceil(CPU_GROUPS).max(1);
        let mut before = self.cpu_start;
        self.cpu_marks
            .chunks(per_group)
            .map(|group| {
                let mark = group[group.len() - 1];
                let per_op = (mark - before) / group.len() as f64;
                before = mark;
                per_op
            })
            .collect()
    }

    pub fn record(&mut self, seconds: f64, cpu_mark: f64, outcome: Result<(), String>) {
        self.op_s.push(seconds);
        self.cpu_marks.push(cpu_mark);
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// Runs `op(i)` back to back on the calling thread until the budget is
/// spent; an op in flight at the deadline is finished and counted.
pub fn run_ops(budget: Budget, mut op: impl FnMut(usize) -> Result<(), String>) -> Window {
    let mut w = Window {
        cpu_start: cpu_seconds(),
        ..Window::default()
    };
    let start = Instant::now();
    while !budget.done(w.op_s.len(), start.elapsed().as_secs_f64()) {
        let t = Instant::now();
        let outcome = op(w.op_s.len());
        w.record(t.elapsed().as_secs_f64(), cpu_seconds(), outcome);
    }
    w.wall_s = start.elapsed().as_secs_f64();
    w
}

/// Median wall time of `reps` calls after one untimed call.
pub fn median_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The fast decile. Every op of a workload does the same work, so on a
/// shared machine an op's time is that work plus whatever else the core was
/// doing; the interference only ever adds, and it comes and goes over
/// seconds to minutes. The tenth percentile stays near the undisturbed time
/// where the median follows the neighbours.
pub fn fast_decile(samples: &[f64]) -> f64 {
    quantile(samples, 0.1)
}

/// Process CPU time (user + system, all threads) from `/proc/self/stat`,
/// in seconds. Linux reports it in 100 Hz ticks.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall.
    let rest = stat.rsplit_once(") ").map_or("", |(_, r)| r);
    let mut fields = rest.split(' ').skip(11);
    let ticks = |s: Option<&str>| s.and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(fields.next()) + ticks(fields.next())) / 100.0
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in the order they are measured.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// A span recorded by the benchmark around a call into a layer.
struct Span {
    parent: Option<usize>,
    name: String,
    op: usize,
    start_us: f64,
    end_us: f64,
    /// `bench` for spans timed here, `journal` for stage times a
    /// `JobRecord` reported.
    source: &'static str,
}

/// In-memory span recorder; written out once, at exit. When disabled every
/// call returns immediately, so untraced windows pay nothing.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a span recorder never panics while locked")
    }

    /// Opens a span; `None` when tracing is off.
    pub fn begin(&self, name: &str, parent: Option<usize>, op: usize) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_us = self.now_us();
        let mut spans = self.lock();
        spans.push(Span {
            parent,
            name: name.to_string(),
            op,
            start_us,
            end_us: start_us,
            source: "bench",
        });
        Some(spans.len() - 1)
    }

    pub fn end(&self, id: Option<usize>) {
        if let Some(id) = id {
            let end_us = self.now_us();
            self.lock()[id].end_us = end_us;
        }
    }

    /// Times `f` as a child span of `parent`.
    pub fn scope<R>(
        &self,
        name: &str,
        parent: Option<usize>,
        op: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, op);
        let r = f();
        self.end(id);
        r
    }

    /// Adds a child span whose duration was reported by the program (a
    /// journal stage time), laid out from `offset_us` after the parent's
    /// start.
    pub fn import(
        &self,
        name: &str,
        parent: Option<usize>,
        op: usize,
        offset_us: f64,
        dur_us: f64,
    ) {
        let Some(parent_id) = parent else { return };
        let mut spans = self.lock();
        let start_us = spans[parent_id].start_us + offset_us;
        spans.push(Span {
            parent,
            name: name.to_string(),
            op,
            start_us,
            end_us: start_us + dur_us,
            source: "journal",
        });
    }

    /// Writes every span with its self time (duration minus the part its
    /// children cover) as one JSON document.
    pub fn write(&self, path: &Path, stamp: &str) -> std::io::Result<()> {
        let spans = self.lock();
        let mut child_us = vec![0.0f64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut body = format!("{{\"stamp\":{stamp},\"spans\":[\n");
        for (id, s) in spans.iter().enumerate() {
            let dur = s.end_us - s.start_us;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                body,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"op\":{},\"start_us\":{:.1},\
                 \"end_us\":{:.1},\"self_us\":{:.1},\"source\":\"{}\"}}",
                json_escape(&s.name),
                s.op,
                s.start_us,
                s.end_us,
                (dur - child_us[id]).max(0.0),
                s.source
            );
            body.push_str(if id + 1 < spans.len() { ",\n" } else { "\n" });
        }
        body.push_str("]}\n");
        std::fs::write(path, body)
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment stamp carried by every output file, as a JSON object.
/// `threads` are the compute threads or clients the workload really used,
/// each with the number it asked for, so a cap by `nproc` is on record.
pub fn stamp_json(
    cfg: &RunConfig,
    threads: &[(&str, usize, usize)],
    ops: usize,
    window_s: f64,
) -> String {
    let mut s = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"nproc\":{},",
        json_escape(&cfg.workload),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        cfg.smoke,
        cfg.nproc
    );
    for (name, used, wanted) in threads {
        let _ = write!(s, "\"{name}\":{used},\"{name}_wanted\":{wanted},");
    }
    let _ = write!(
        s,
        "\"fft_kernel\":\"{}\",\"git_rev\":\"{}\",\"rustc\":\"{}\",\"ops\":{ops},\"window_s\":{window_s}}}",
        ilt_fft::active_kernel(),
        json_escape(&command_line("git", &["rev-parse", "--short", "HEAD"])),
        json_escape(&command_line("rustc", &["-V"])),
    );
    s
}

/// The `metrics` object of the result line: `{"name":{"value":v,"unit":"u"},..}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}
