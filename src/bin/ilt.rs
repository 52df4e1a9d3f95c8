//! `ilt` — command-line front end for the multi-level ILT stack.
//!
//! ```text
//! ilt run      (--case N | --via SEED | --target design.pgm) [--out prefix]
//!              [--grid 512] [--kernels 10] [--clip-nm 2048]
//!              [--schedule fast|exact|via] [--max-eff-nm 8]
//! ilt batch    [--out prefix] [--journal run.jsonl] [--no-timing] [--no-eval]
//!              [--checkpoint] [--resume] [--no-degrade]
//!              [--inject SPEC[,SPEC...]] [JOB FLAGS]
//!              case1 case2 via3 design.pgm ...
//! ilt serve    [--addr 127.0.0.1:8080] [--threads 2] [--queue 16]
//!              [--journal served.jsonl] [--retries 1] [--timeout-s 0]
//!              [--cache 16] [--state-dir DIR] [--result-ttl-s 0]
//!              [--max-masks 0] [--quota-inflight 0] [--quota-queued 0]
//!              [--inject SPEC[,SPEC...]] [--compact-bytes 0]
//!              [--keep-alive 32] [--idle-timeout-s 5]
//!              [--workers host:port,host:port | --cluster] [--heartbeat-ms 500]
//!              [--speculate-factor 3] [--speculate-after 3]
//! ilt worker   [--addr 127.0.0.1:8080] [--threads 4]
//!              [--inject SPEC[,SPEC...]] [--register HOST:PORT]
//! ilt evaluate (--case N | --via SEED | --target design.pgm) --mask mask.pgm
//!              [--grid 512] [--kernels 10] [--clip-nm 2048]
//! ilt fracture --mask mask.pgm
//! ilt kernels  [--grid 512] [--kernels 10] [--clip-nm 2048]
//! ilt bench    <list|run> [NAME_GLOB ...] [--smoke] [--reps 5]
//! ilt tables   <table1..4|fig1|fig4..8|timing|ablation|all>... [--grid 512]
//!              [--kernels 10] [--max-eff-nm 8] [--case N] [--smoke]
//!              [--reps 5] [--out bench-out/tables]
//! JOB FLAGS:   [--grid 512] [--kernels 10] [--clip-nm 2048]
//!              [--schedule fast|exact|via] [--max-eff-nm 8] [--threads 1]
//!              [--tile 512] [--halo 64] [--retries 1] [--timeout-s 0]
//! ```
//!
//! A command refuses a flag it does not read (`kernels does not take
//! --smoke`), as it refuses one that does not exist.
//!
//! Targets may come from the built-in benchmark generators (`--case`,
//! `--via`) or from a PGM file (`--target`); masks are written/read as
//! binary PGM so the tool round-trips with itself. A job is described to
//! this tool exactly as it is to `POST /v1/jobs`: each job flag is the
//! decoder's query key spelled with dashes (`--grid 128` is `grid=128`,
//! `--no-eval` is `eval=0`, a target `caseN | viaS | x.pgm` is `case= |
//! via= | body` + `name=<stem>`), handed to `JobParams::from_pairs` — the
//! one decoder, which owns every default and check — and turned into the
//! engine's inputs by `JobParams::plan`, so `batch` and a served job with
//! the same description compute the same thing. `run` and `evaluate` work
//! on the whole clip, untiled, and read only the flags that shape it (the
//! grid, pitch, kernels and, for `run`, the schedule), so they match
//! `batch` when the grid is at most `--tile`. `batch` takes its cases
//! as positional arguments (`caseN`, `viaN`, or a PGM path), splits targets
//! wider than `--tile` into overlapping tiles, runs everything on a worker
//! pool with a shared simulator cache, and journals one JSON line per job;
//! it exits non-zero if any job exhausts its retries. `--no-timing` drops
//! the wall-clock fields from the journal so runs diff byte-for-byte.
//! `--checkpoint` persists each finished tile mask durably under
//! `<journal>.ckpt/` (atomic write + fsynced write-ahead log), and
//! `--resume` reruns the same command after a crash, restoring every tile
//! the WAL can vouch for and recomputing only the rest; the resumed
//! journal and masks are byte-identical to an uninterrupted run.
//! `--inject` gives the process a deterministic fault plan
//! (`panic@J[:A[-B]]`, `delay@J:A=MS`, `nan@J:A`) for chaos testing; `batch`, `serve` (every job it runs in-process; a
//! coordinator refuses it) and `worker` (every shard it runs) take one,
//! and no job description carries one (`inject=` is refused on every
//! route). `--no-degrade` disables the low-resolution fallback that
//! otherwise rescues tiles which exhaust their retry budget.
//! `serve` turns the same engine into a long-lived HTTP job service (see
//! the `ilt-server` crate docs for the API); `--state-dir` makes job state
//! survive restarts, and `--result-ttl-s`/`--max-masks` bound how long
//! finished masks stay resident before eviction (with a state directory,
//! an evicted mask is re-hydrated from disk on demand instead of
//! answering 410). Requests may carry `X-Ilt-Client` and `X-Ilt-Priority`
//! (`high|normal|low`) headers; the queue serves classes by weighted
//! round-robin and `--quota-inflight`/`--quota-queued` cap what one
//! client may hold (0 = unlimited, breaches answer 429). `--compact-bytes` sets
//! the state-log size past which live jobs are snapshotted and the log
//! truncated (0 = never compact); `--keep-alive` caps requests served per
//! connection and `--idle-timeout-s` bounds how long a persistent
//! connection may sit idle. With `--workers` (or `--cluster` for an
//! initially empty membership), `serve` becomes a cluster coordinator:
//! each job's tile plan is sharded across the live `ilt worker` replicas
//! and reassembled centrally (byte-identical to a local run). Membership
//! is dynamic — `POST /v1/members` joins, drains, or removes replicas at
//! runtime — and supervision is self-healing: `--heartbeat-ms` sets the
//! interval of the `/healthz` probes that alone decide a worker's death
//! (three failed in a row; dead workers get their shards re-dispatched),
//! while failed shards feed only a per-worker circuit breaker that
//! quarantines flaky-but-alive ones — and `--speculate-factor` /
//! `--speculate-after` govern straggler speculation (a shard running
//! longer than factor × the job's median latency races a second replica;
//! first result wins, and both results must agree bit-exactly). Every
//! other supervision setting is
//! `ClusterConfig::default()`. `worker` starts one replica;
//! `--register HOST:PORT` makes it announce itself to that coordinator
//! after binding (and deregister on shutdown); its `--inject` fault plan
//! is its own (a shard dispatch that carries `inject=` is refused with
//! `400`) and damages only the compute, never the reply's bytes. A worker
//! keeps no state: a lost shard is recomputed elsewhere, and each dispatch
//! carries its own retries and timeout, so `--threads` (the most pool
//! threads one shard may use) is its only execution setting. `bench` is the
//! hermetic, std-only performance barometer (the `ilt-perf` crate): `list`
//! shows the workload registry (FFT, simulator and optimizer step
//! families) and `run` measures the selected workloads, printing the
//! median and MAD of each under a revision / FFT kernel / thread-count
//! line. It measures and does not gate: compare two binaries by running
//! both in turn on the same box. `run` exits non-zero when a workload
//! fails, as an FFT workload does whose fast path diverges from its dense
//! reference.
//! `tables` regenerates the paper's tables, figures, Section III-B timing
//! study and the design ablations as markdown (the same crate's `tables`
//! module), headed by the reproducing command line and the revision / FFT
//! kernel stamp; `--case` narrows Tables II-IV to one clip and `--smoke`
//! cuts every iteration budget to 2 for a seconds-long dry run. Both are
//! std-only: no python, no registry crates.

use std::error::Error;
use std::io::{ErrorKind, Write};
use std::sync::Arc;
use std::time::Duration;

use multilevel_ilt::cluster::{post_membership, ExecPolicy, JobParams};
use multilevel_ilt::geom::fracture;
use multilevel_ilt::prelude::*;

/// The long flags that are part of a job's description. Each is the
/// decoder's query key spelled with dashes (`--max-eff-nm 8` is
/// `max_eff_nm=8`), and that is how it is kept: as a pair for
/// [`JobParams::from_pairs`], which owns every default and every check.
const JOB_FLAGS: [&str; 10] = [
    "--grid", "--kernels", "--clip-nm", "--schedule", "--max-eff-nm", "--threads", "--tile",
    "--halo", "--retries", "--timeout-s",
];

/// Every other long flag, and whether it takes a value. What a flag means
/// is read where it is used, by its key ([`Cli::get`], [`Cli::flag`],
/// [`Cli::on`]); this table only tells a known flag from a typo.
const FLAGS: [(&str, bool); 31] = [
    ("--no-eval", false), ("--case", true), ("--via", true), ("--target", true),
    ("--mask", true), ("--out", true), ("--journal", true), ("--no-timing", false),
    ("--checkpoint", false), ("--resume", false), ("--no-degrade", false), ("--addr", true),
    ("--queue", true), ("--cache", true), ("--state-dir", true), ("--result-ttl-s", true),
    ("--max-masks", true), ("--quota-inflight", true), ("--quota-queued", true),
    ("--inject", true), ("--compact-bytes", true), ("--keep-alive", true),
    ("--idle-timeout-s", true), ("--workers", true), ("--cluster", false),
    ("--heartbeat-ms", true), ("--speculate-factor", true), ("--speculate-after", true),
    ("--register", true), ("--reps", true), ("--smoke", false),
];

/// A command's entry point: it writes what it reports to the one stdout
/// handle `main` passes it.
type Run = fn(&Cli, &mut dyn Write) -> Result<(), Box<dyn Error>>;

/// Every command: its name, its entry point, the [`JOB_FLAGS`] it hands to
/// the job decoder, and the other flags it takes. Any other flag is refused
/// with `<cmd> does not take --<flag>`. The usage block at the top of this
/// file lists the same sets (`[JOB FLAGS]` for all of them).
const COMMANDS: [(&str, Run, &[&str], &[&str]); 9] = [
    ("run", cmd_run, &["--grid", "--kernels", "--clip-nm", "--schedule", "--max-eff-nm"],
        &["--case", "--via", "--target", "--out"]),
    ("batch", cmd_batch, &JOB_FLAGS, &["--out", "--journal", "--no-timing", "--no-eval",
        "--checkpoint", "--resume", "--no-degrade", "--inject"]),
    ("serve", cmd_serve, &[], &["--addr", "--threads", "--queue", "--journal", "--retries",
        "--timeout-s", "--cache", "--state-dir", "--result-ttl-s", "--max-masks",
        "--quota-inflight", "--quota-queued", "--inject", "--compact-bytes", "--keep-alive",
        "--idle-timeout-s", "--workers", "--cluster", "--heartbeat-ms", "--speculate-factor",
        "--speculate-after"]),
    ("worker", cmd_worker, &[], &["--addr", "--threads", "--inject", "--register"]),
    ("evaluate", cmd_evaluate, &["--grid", "--kernels", "--clip-nm"],
        &["--case", "--via", "--target", "--mask"]),
    ("fracture", cmd_fracture, &[], &["--mask"]),
    ("kernels", cmd_kernels, &[], &["--grid", "--kernels", "--clip-nm"]),
    ("bench", cmd_bench, &[], &["--smoke", "--reps"]),
    ("tables", cmd_tables, &[], &["--grid", "--kernels", "--max-eff-nm", "--case", "--smoke",
        "--reps", "--out"]),
];

/// `--addr` when it is not given (`serve`, `worker`).
const DEFAULT_ADDR: &str = "127.0.0.1:8080";

#[derive(Default)]
struct Cli {
    /// The job flags that were given, as `key=value` pairs (`--no-eval` is
    /// `eval=0`). A flag that was not given is not here.
    job: Vec<(String, String)>,
    /// Every other flag that was given, keyed the same way (`--state-dir`
    /// is `state_dir`); a switch's value is `true`.
    opts: Vec<(String, String)>,
    /// `--case N | --via SEED | --target x.pgm`, as `caseN | viaSEED | x.pgm`.
    target: Option<String>,
    cases: Vec<String>,
    /// Every flag given, as spelled.
    given: Vec<String>,
}

impl Cli {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<(String, Cli), Box<dyn Error>> {
        let command =
            args.next().ok_or("usage: ilt <run|batch|serve|worker|evaluate|fracture|kernels|bench|tables> ...")?;
        let mut cli = Cli::default();
        while let Some(flag) = args.next() {
            if !flag.starts_with("--") {
                cli.cases.push(flag);
                continue;
            }
            let is_job = JOB_FLAGS.contains(&flag.as_str());
            let takes_value = is_job
                || FLAGS
                    .iter()
                    .find(|(name, _)| *name == flag)
                    .ok_or_else(|| format!("unknown flag {flag}"))?
                    .1;
            let value = match takes_value {
                true => args.next().ok_or_else(|| format!("{flag} needs a value"))?,
                false => "true".into(),
            };
            let key = flag[2..].replace('-', "_");
            match key.as_str() {
                "no_eval" => cli.job.push(("eval".into(), "0".into())),
                "case" | "via" => cli.target = Some(format!("{key}{value}")),
                "target" => cli.target = Some(value),
                // A lookup reads the first pair of a key; a flag given twice
                // means its last value.
                _ if is_job => cli.job.insert(0, (key, value)),
                _ => cli.opts.insert(0, (key, value)),
            }
            cli.given.push(flag);
        }
        Ok((command, cli))
    }

    /// The value a flag was given, job flag or not.
    fn get(&self, key: &str) -> Option<&str> {
        self.job.iter().chain(&self.opts).find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Was this switch (or flag) given?
    fn on(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// A flag's value parsed, if it was given.
    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key).map(|raw| raw.parse().map_err(|_| format!("bad {key}={raw:?}"))).transpose()
    }

    /// A flag's value parsed, or the reading command's own `default` when
    /// it was not given (`serve`'s pool size, `kernels`' grid).
    fn flag<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.parsed(key)?.unwrap_or(default))
    }

    /// `--inject` as this process's fault plan (`batch`, `serve`,
    /// `worker`); empty when it was not given.
    fn faults(&self) -> Result<FaultPlan, String> {
        let spec = self.get("inject").unwrap_or("");
        FaultPlan::parse(spec).map_err(|e| format!("bad --inject {spec}: {e}"))
    }

    /// One job through the decoder every route shares: the job flags as
    /// given, plus `spec` (`caseN | viaSEED | x.pgm`) as `case= | via= |
    /// body` + `name=<stem>`. The command line may use every thread it asks
    /// for.
    fn plan(&self, spec: &str) -> Result<(JobParams, BatchCase, BatchConfig), Box<dyn Error>> {
        let mut pairs = self.job.clone();
        let mut body = Vec::new();
        if spec.ends_with(".pgm") {
            body = std::fs::read(spec).map_err(|e| format!("cannot read {spec}: {e}"))?;
            let stem = std::path::Path::new(spec).file_stem().unwrap_or(spec.as_ref());
            pairs.push(("name".into(), stem.to_string_lossy().into_owned()));
        } else {
            let key = if spec.starts_with("via") { "via" } else { "case" };
            pairs.push((key.into(), spec.into()));
        }
        let policy = ExecPolicy { max_threads_per_job: usize::MAX, ..ExecPolicy::default() };
        let params =
            JobParams::from_pairs(&pairs, &body, &policy).map_err(|e| format!("{spec}: {e}"))?;
        let (case, config) = params.plan()?;
        Ok((params, case, config))
    }

    /// The planned `--case | --via | --target` job of `run` / `evaluate`
    /// and the whole-clip simulator it runs on.
    fn single(&self) -> Result<(BatchCase, BatchConfig, Arc<LithoSimulator>), Box<dyn Error>> {
        let spec =
            self.target.as_ref().ok_or("pass one of --case N, --via SEED or --target file.pgm")?;
        let (_, case, config) = self.plan(spec)?;
        let optics = OpticsConfig {
            grid: case.target.shape().0,
            nm_per_px: case.nm_per_px,
            ..config.optics.clone()
        };
        Ok((case, config, Arc::new(LithoSimulator::new(optics)?)))
    }
}

fn cmd_run(cli: &Cli, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let (BatchCase { target, nm_per_px: nm, .. }, config, sim) = cli.single()?;
    let grid = target.shape().0;
    let schedule = schedules::clamp_to_grid(
        &config.schedule,
        nm,
        config.max_eff_nm,
        grid,
        sim.config().kernel_size(),
    );
    writeln!(out, "optimizing {grid} px clip at {nm} nm/px with schedule {schedule:?}")?;
    let timer = TurnaroundTimer::start();
    let result = MultiLevelIlt::new(sim.clone(), config.ilt).run(&target, &schedule);
    let tat = timer.elapsed();
    writeln!(out, "ran {} iterations in {:.2} s", result.total_iterations, tat.as_secs_f64())?;
    writeln!(out, "{}", evaluate_mask(&sim, &target, &result.mask, tat))?;

    let prefix = cli.get("out").unwrap_or("ilt");
    let mask_path = format!("{prefix}_mask.pgm");
    let wafer_path = format!("{prefix}_wafer.pgm");
    write_pgm(&result.mask, &mask_path, 0.0, 1.0)?;
    write_pgm(
        &sim.print(&result.mask, ProcessCondition::nominal()),
        &wafer_path,
        0.0,
        1.0,
    )?;
    writeln!(out, "wrote {mask_path} and {wafer_path}")?;
    Ok(())
}

fn cmd_batch(cli: &Cli, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    // The cases share every job flag, so any one plan carries the batch's
    // configuration.
    let mut cases = Vec::with_capacity(cli.cases.len());
    let mut shared = None;
    for spec in &cli.cases {
        let (params, case, config) = cli.plan(spec)?;
        cases.push(case);
        shared = Some((params.schedule, config));
    }
    let (schedule, plan) =
        shared.ok_or("batch needs at least one case (caseN, viaN or file.pgm)")?;
    let prefix = cli.get("out").unwrap_or("ilt");
    let journal_path =
        cli.get("journal").map_or_else(|| format!("{prefix}_journal.jsonl"), Into::into);
    let resume = cli.on("resume");
    // Only what is not part of a job is set here.
    let config = BatchConfig {
        degrade: !cli.on("no_degrade"),
        checkpoint: (cli.on("checkpoint") || resume)
            .then(|| std::path::PathBuf::from(format!("{journal_path}.ckpt"))),
        faults: cli.faults()?,
        ..plan
    };
    writeln!(
        out,
        "batch: {} case(s), {} thread(s), tile {} px, halo {} px, schedule {}",
        cases.len(),
        config.threads,
        config.tile,
        config.halo,
        schedule
    )?;
    if let Some(dir) = &config.checkpoint {
        writeln!(out, "checkpoint: {}", dir.display())?;
    }

    let cache = SimulatorCache::new();
    let outcome = run_batch_resume(&cases, &config, &cache, resume)?;
    if resume {
        writeln!(
            out,
            "resume: {} job(s) restored from durable checkpoints",
            outcome.restored_jobs
        )?;
    }
    write!(out, "{}", outcome.report)?;
    writeln!(
        out,
        "simulator cache: {} build(s), {} hit(s)",
        cache.misses(),
        cache.hits()
    )?;

    for case in &outcome.cases {
        let mask_path = format!("{prefix}_{}_mask.pgm", case.name);
        write_pgm(&case.mask, &mask_path, 0.0, 1.0)
            .map_err(|e| format!("cannot write {mask_path}: {e}"))?;
        match &case.eval {
            Some(eval) => writeln!(
                out,
                "{}: {} tile(s), {} failed, {} degraded -> {mask_path}\n{eval}",
                case.name, case.tiles, case.failed_tiles, case.degraded_tiles
            )?,
            None => writeln!(
                out,
                "{}: {} tile(s), {} failed, {} degraded -> {mask_path}",
                case.name, case.tiles, case.failed_tiles, case.degraded_tiles
            )?,
        }
    }

    outcome
        .report
        .write_jsonl_opts(&journal_path, !cli.on("no_timing"))
        .map_err(|e| format!("cannot write {journal_path}: {e}"))?;
    writeln!(out, "journal: {journal_path}")?;

    let failed = outcome.report.failed_jobs();
    if failed > 0 {
        return Err(format!("{failed} job(s) failed after retries; see {journal_path}").into());
    }
    Ok(())
}

/// `serve`'s flags as a [`ServerConfig`]. A flag that was not given keeps
/// the value `ServerConfig::default()` / `ClusterConfig::default()` /
/// `ExecPolicy::default()` gives its field — the defaults live there, not
/// here.
fn server_config(cli: &Cli) -> Result<ServerConfig, String> {
    let base = ServerConfig::default();
    let workers: Vec<String> = cli
        .get("workers")
        .map(|list| list.split(',').map(str::trim).filter(|s| !s.is_empty()).map(Into::into))
        .map_or_else(Vec::new, Iterator::collect);
    if cli.on("workers") && workers.is_empty() {
        return Err("--workers needs at least one host:port".into());
    }
    // `--workers` lists initial replicas; `--cluster` alone starts an empty
    // coordinator that workers register with (`ilt worker --register`).
    let cluster = if cli.on("cluster") || !workers.is_empty() {
        let base = ClusterConfig::default();
        let heartbeat_ms = cli.flag("heartbeat_ms", base.heartbeat.as_millis() as u64)?;
        Some(ClusterConfig {
            workers,
            heartbeat: Duration::from_millis(heartbeat_ms.max(10)),
            speculate_factor: cli.flag("speculate_factor", base.speculate_factor)?.max(0.0),
            speculate_min_samples: cli.flag("speculate_after", base.speculate_min_samples)?.max(1),
            ..base
        })
    } else {
        None
    };
    if cluster.is_some() && cli.on("inject") {
        return Err("a coordinator runs no tile itself; give its workers --inject".into());
    }
    let idle_timeout_s = cli.flag("idle_timeout_s", base.idle_timeout.as_secs_f64())?;
    Ok(ServerConfig {
        addr: cli.get("addr").unwrap_or(DEFAULT_ADDR).into(),
        workers: cli.flag("threads", base.workers)?.max(1),
        queue_cap: cli.flag("queue", base.queue_cap)?,
        journal: cli.get("journal").map(Into::into),
        cache_capacity: cli.flag("cache", base.cache_capacity)?,
        // The defaults a request that sets neither runs with.
        policy: ExecPolicy {
            default_timeout_s: cli.flag("timeout_s", base.policy.default_timeout_s)?,
            default_retries: cli.flag("retries", base.policy.default_retries)?,
            ..base.policy
        },
        faults: cli.faults()?,
        state_dir: cli.get("state_dir").map(Into::into),
        // `0` spells the unbounded value of each.
        result_ttl: match cli.parsed::<f64>("result_ttl_s")? {
            Some(s) => (s > 0.0).then(|| Duration::from_secs_f64(s)),
            None => base.result_ttl,
        },
        max_resident_masks: match cli.parsed("max_masks")? {
            Some(0) => usize::MAX,
            Some(n) => n,
            None => base.max_resident_masks,
        },
        quota_inflight: cli.flag("quota_inflight", base.quota_inflight)?,
        quota_queued: cli.flag("quota_queued", base.quota_queued)?,
        compact_state_bytes: cli.flag("compact_bytes", base.compact_state_bytes)?,
        keep_alive_requests: cli.flag("keep_alive", base.keep_alive_requests)?.max(1),
        idle_timeout: Duration::from_secs_f64(idle_timeout_s.max(0.05)),
        cluster,
        ..base
    })
}

/// `worker`'s flags as a [`WorkerConfig`], defaults as in [`server_config`].
/// A dispatch carries its own retries and timeout, so the policy takes only
/// the thread cap.
fn worker_config(cli: &Cli) -> Result<WorkerConfig, String> {
    let base = ExecPolicy::default();
    Ok(WorkerConfig {
        addr: cli.get("addr").unwrap_or(DEFAULT_ADDR).into(),
        faults: cli.faults()?,
        policy: ExecPolicy {
            max_threads_per_job: cli.flag("threads", base.max_threads_per_job)?.max(1),
            ..base
        },
    })
}

fn cmd_serve(cli: &Cli, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let config = server_config(cli)?;
    let workers = config.workers;
    let queue = config.queue_cap;
    if let Some(dir) = &config.state_dir {
        writeln!(out, "state: {}", dir.display())?;
    }
    let replicas = config.cluster.as_ref().map(|c| c.workers.clone());
    let server = Server::bind(config)?;
    // `tests/cluster_e2e.rs` parses this line to find the ephemeral port.
    writeln!(out, "listening on http://{}", server.local_addr())?;
    writeln!(out, "{workers} worker(s), queue capacity {queue}; POST /v1/shutdown to drain")?;
    if let Some(replicas) = replicas {
        if replicas.is_empty() {
            writeln!(out, "coordinating an empty cluster; workers register via POST /v1/members")?;
        } else {
            writeln!(
                out,
                "coordinating {} cluster replica(s): {}",
                replicas.len(),
                replicas.join(", ")
            )?;
        }
    }
    server.run()?;
    writeln!(out, "drained")?;
    Ok(())
}

fn cmd_worker(cli: &Cli, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let worker = Worker::bind(worker_config(cli)?)?;
    let local = worker.local_addr()?;
    // Parsed like `serve`'s listen line.
    writeln!(out, "worker listening on http://{local}")?;
    writeln!(out, "POST /v1/shutdown to stop")?;
    // Self-registration: announce this replica to the coordinator once the
    // socket is bound; connections wait in its backlog until it has joined
    // or given up. Retried 40 times, 250 ms apart, so a worker started
    // moments before its coordinator still joins.
    let register = cli.get("register");
    let (me, timeout) = (local.to_string(), Duration::from_secs(2));
    if let Some(coordinator) = register {
        for attempt in 0..40u32 {
            match post_membership(coordinator, &me, "join", timeout) {
                Ok(()) => {
                    writeln!(out, "registered with coordinator {coordinator}")?;
                    break;
                }
                Err(e) if attempt == 39 => eprintln!("registration failed: {e}"),
                Err(_) => std::thread::sleep(Duration::from_millis(250)),
            }
        }
    }
    worker.run();
    if let Some(coordinator) = register {
        // Best-effort goodbye so the coordinator stops dispatching here.
        let _ = post_membership(coordinator, &me, "leave", timeout);
    }
    writeln!(out, "stopped")?;
    Ok(())
}

fn cmd_evaluate(cli: &Cli, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let (BatchCase { target, .. }, _, sim) = cli.single()?;
    let mask_path = cli.get("mask").ok_or("evaluate needs --mask file.pgm")?;
    let mask = multilevel_ilt::field::read_pgm(mask_path)?.threshold(0.5);
    if mask.shape() != target.shape() {
        return Err(format!(
            "mask {:?} does not match target {:?}",
            mask.shape(),
            target.shape()
        )
        .into());
    }
    writeln!(out, "{}", evaluate_mask(&sim, &target, &mask, Duration::ZERO))?;
    Ok(())
}

fn cmd_fracture(cli: &Cli, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let mask_path = cli.get("mask").ok_or("fracture needs --mask file.pgm")?;
    let mask = multilevel_ilt::field::read_pgm(mask_path)?.threshold(0.5);
    let rects = fracture(&mask);
    // One line per shot: buffer them rather than write each.
    let mut out = std::io::BufWriter::new(out);
    writeln!(out, "#shots: {}", rects.len())?;
    writeln!(out, "# row0 col0 row1 col1 (half-open pixel coordinates)")?;
    for r in &rects {
        writeln!(out, "{} {} {} {}", r.r0, r.c0, r.r1, r.c1)?;
    }
    Ok(out.flush()?)
}

fn cmd_kernels(cli: &Cli, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let grid = cli.flag("grid", 512usize)?;
    let nm = cli.flag("clip_nm", 2048.0)? / grid as f64;
    let cfg = OpticsConfig {
        grid,
        nm_per_px: nm,
        num_kernels: cli.flag("kernels", 10)?,
        ..OpticsConfig::default()
    };
    writeln!(
        out,
        "grid {} ({} nm/px), P = {}, N_k = {}",
        grid,
        nm,
        cfg.kernel_size(),
        cfg.num_kernels
    )?;
    let (nominal, defocused) = KernelSet::focus_pair(&cfg);
    writeln!(
        out,
        "captured energy: nominal {:.2}%, defocused {:.2}%",
        nominal.captured_energy() * 100.0,
        defocused.captured_energy() * 100.0
    )?;
    for k in 0..nominal.num_kernels() {
        writeln!(
            out,
            "kernel {k:>2}: w_nominal = {:.6}, w_defocus = {:.6}",
            nominal.weights()[k],
            defocused.weights()[k]
        )?;
    }
    Ok(())
}

/// The performance barometer: `ilt bench <list|run>` over the
/// [`multilevel_ilt::perf`] workload registry.
///
/// `run` prints the provenance line `ilt tables` also opens with, then one
/// row per selected workload: median and MAD of its rep times. Entirely
/// std-only: no python, no network.
fn cmd_bench(cli: &Cli, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    use multilevel_ilt::perf::{env_stamp, select, MeasureConfig};

    let usage = "usage: ilt bench <list|run> [NAME_GLOB ...] [--smoke] [--reps N]";
    let sub = cli.cases.first().map(String::as_str).ok_or(usage)?;
    // Positionals after the subcommand are name globs; a family is a name
    // prefix (`'fft_*'`). No globs select every workload.
    let workloads = select(&cli.cases[1..]);
    match sub {
        "list" | "run" if workloads.is_empty() => Err("no workloads match the selection".into()),
        "list" => {
            for w in &workloads {
                writeln!(out, "{:<24} {}", w.name, w.notes)?;
            }
            Ok(())
        }
        "run" => {
            let cfg = MeasureConfig { smoke: cli.on("smoke"), reps: cli.flag("reps", 5usize)?.max(1) };
            writeln!(out, "{}", env_stamp())?;
            for w in &workloads {
                let sample = (w.run)(&cfg)?;
                writeln!(out, "{:<24} {:>12.1} us/op (mad {:.1})", w.name, sample.median_us, sample.mad_us)?;
            }
            Ok(())
        }
        other => Err(format!("unknown bench subcommand {other}\n{usage}").into()),
    }
}

/// The paper's tables and figures: `ilt tables <selector>...` over
/// [`multilevel_ilt::perf::tables`].
fn cmd_tables(cli: &Cli, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    use multilevel_ilt::perf::{tables, MeasureConfig};
    let config = tables::TablesConfig {
        grid: cli.flag("grid", 512)?,
        kernels: cli.flag("kernels", 10)?,
        max_eff_nm: cli.flag("max_eff_nm", 8.0)?,
        case: match cli.target.as_deref().and_then(|t| t.strip_prefix("case")) {
            Some(id) => Some(id.parse().map_err(|_| format!("bad --case {id}"))?),
            None => None,
        },
        measure: MeasureConfig { smoke: cli.on("smoke"), reps: cli.flag("reps", 5usize)?.max(1) },
        out: cli.get("out").unwrap_or("bench-out/tables").into(),
    };
    tables::run(&cli.cases, &config, out)
}

/// Runs `command` on `cli`, refusing before any work the first flag given
/// that its [`COMMANDS`] entry does not take.
fn dispatch(command: &str, cli: &Cli, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let Some(&(name, run, job, takes)) = COMMANDS.iter().find(|(name, ..)| *name == command) else {
        return Err(format!("unknown command {command} ({})", COMMANDS.map(|c| c.0).join("|")).into());
    };
    let taken = |flag: &str| job.contains(&flag) || takes.contains(&flag);
    match cli.given.iter().find(|flag| !taken(flag)) {
        Some(flag) => Err(format!("{name} does not take {flag}").into()),
        None => run(cli, out),
    }
}

fn main() {
    let (command, cli) = match Cli::parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = dispatch(&command, &cli, &mut std::io::stdout()) {
        // Whoever reads the output stopped (`ilt ... | head`): a clean exit.
        let kind = e.downcast_ref::<std::io::Error>().map(std::io::Error::kind);
        if kind != Some(ErrorKind::BrokenPipe) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        let argv = std::iter::once("serve").chain(args.iter().copied()).map(String::from);
        Cli::parse(argv).expect("known flags").1
    }

    /// The usage block at the top of this file lists, command by command,
    /// exactly the flags [`COMMANDS`] lets each take (`[JOB FLAGS]` for all
    /// of [`JOB_FLAGS`], which its own entry spells out); and every flag of
    /// [`FLAGS`] is taken by some command.
    #[test]
    fn usage_block_is_the_command_table() {
        use std::collections::BTreeSet;
        let block = include_str!("ilt.rs").split("//! ```").nth(1).expect("a usage block");
        let mut doc: Vec<(String, bool, BTreeSet<String>)> = Vec::new();
        for line in block.lines().map(|line| line.trim_start_matches("//!").trim()) {
            if let Some(rest) = line.strip_prefix("ilt ") {
                let name = rest.split_whitespace().next().expect("a command name");
                doc.push((name.into(), false, BTreeSet::new()));
            } else if line.starts_with("JOB FLAGS:") {
                doc.push(("JOB FLAGS".into(), false, BTreeSet::new()));
            }
            let Some((_, job, flags)) = doc.last_mut() else { continue };
            *job |= line.contains("[JOB FLAGS]");
            for word in line.split_whitespace().map(|w| w.trim_start_matches(['[', '('])) {
                if let Some(name) = word.strip_prefix("--") {
                    let name = name.split(|c: char| !c.is_ascii_lowercase() && c != '-').next();
                    flags.insert(format!("--{}", name.unwrap_or_default()));
                }
            }
        }
        let set = |flags: &[&str]| flags.iter().map(|f| f.to_string()).collect::<BTreeSet<_>>();
        let job_entry = doc.pop().expect("a JOB FLAGS entry");
        assert_eq!(job_entry, ("JOB FLAGS".into(), false, set(&JOB_FLAGS)));
        let table: Vec<_> = COMMANDS
            .iter()
            .map(|&(name, _, job, takes)| match job == JOB_FLAGS {
                true => (name.into(), true, set(takes)),
                false => (name.into(), false, &set(job) | &set(takes)),
            })
            .collect();
        assert_eq!(doc, table, "the usage block and COMMANDS disagree");

        for (name, _, job, takes) in COMMANDS {
            assert!(job.iter().all(|f| JOB_FLAGS.contains(f)), "{name} reads a non-job flag");
            let known = |f: &&str| JOB_FLAGS.contains(f) || FLAGS.iter().any(|(k, _)| k == f);
            assert!(takes.iter().all(known), "{name} takes an unknown flag: {takes:?}");
        }
        for (flag, _) in FLAGS {
            assert!(COMMANDS.iter().any(|c| c.3.contains(&flag)), "no command takes {flag}");
        }

        // A command refuses, before any work, a flag it would ignore. `run`
        // and `evaluate` run no pool, so they take no fault plan and no
        // tiling, and `evaluate` optimizes nothing; a worker keeps no state,
        // and each dispatch carries its own retries and timeout.
        let refused: [(&str, &[&str], &str); 9] = [
            ("run", &["--case", "1", "--grid", "64", "--inject", "panic@0"], "--inject"),
            ("run", &["--case", "1", "--tile", "256"], "--tile"),
            ("run", &["--case", "1", "--threads", "2"], "--threads"),
            ("evaluate", &["--case", "1", "--mask", "m.pgm", "--inject", "panic@0"], "--inject"),
            ("evaluate", &["--case", "1", "--mask", "m.pgm", "--schedule", "exact"], "--schedule"),
            ("evaluate", &["--case", "1", "--mask", "m.pgm", "--max-eff-nm", "4"], "--max-eff-nm"),
            ("worker", &["--state-dir", "d"], "--state-dir"),
            ("worker", &["--retries", "2"], "--retries"),
            ("worker", &["--timeout-s", "1"], "--timeout-s"),
        ];
        for (command, args, flag) in refused {
            let err = dispatch(command, &cli(args), &mut std::io::sink()).unwrap_err();
            assert_eq!(err.to_string(), format!("{command} does not take {flag}"));
        }
    }

    /// The whole flag -> config mapping of `serve` and `worker`: no flag
    /// leaves every field at its crate's default (bar the CLI's own listen
    /// address), and each flag alone moves exactly its field — compared
    /// through `Debug`, which prints every field.
    #[test]
    fn serve_and_worker_flags_map_onto_the_config_defaults() {
        type Edit<T> = fn(&mut T);
        let serve: &[(&[&str], Edit<ServerConfig>)] = &[
            (&[], |_| {}),
            (&["--addr", "0.0.0.0:9"], |c| c.addr = "0.0.0.0:9".into()),
            (&["--threads", "3"], |c| c.workers = 3),
            (&["--threads", "0"], |c| c.workers = 1),
            (&["--queue", "7"], |c| c.queue_cap = 7),
            (&["--journal", "j.jsonl"], |c| c.journal = Some("j.jsonl".into())),
            (&["--cache", "5"], |c| c.cache_capacity = 5),
            (&["--retries", "3"], |c| c.policy.default_retries = 3),
            (&["--timeout-s", "2.5"], |c| c.policy.default_timeout_s = 2.5),
            (&["--inject", "delay@0=5"], |c| c.faults = FaultPlan::parse("delay@0=5").unwrap()),
            (&["--state-dir", "sd"], |c| c.state_dir = Some("sd".into())),
            (&["--result-ttl-s", "2.5"], |c| c.result_ttl = Some(Duration::from_millis(2500))),
            (&["--result-ttl-s", "0"], |c| c.result_ttl = None),
            (&["--max-masks", "9"], |c| c.max_resident_masks = 9),
            (&["--max-masks", "0"], |c| c.max_resident_masks = usize::MAX),
            (&["--quota-inflight", "3"], |c| c.quota_inflight = 3),
            (&["--quota-queued", "4"], |c| c.quota_queued = 4),
            (&["--compact-bytes", "4096"], |c| c.compact_state_bytes = 4096),
            (&["--keep-alive", "8"], |c| c.keep_alive_requests = 8),
            (&["--keep-alive", "0"], |c| c.keep_alive_requests = 1),
            (&["--idle-timeout-s", "1.5"], |c| c.idle_timeout = Duration::from_millis(1500)),
            (&["--idle-timeout-s", "0"], |c| c.idle_timeout = Duration::from_millis(50)),
            (&["--cluster"], |c| c.cluster = Some(ClusterConfig::default())),
            (&["--workers", "a:1, b:2"], |c| {
                let workers = vec!["a:1".to_string(), "b:2".to_string()];
                c.cluster = Some(ClusterConfig { workers, ..ClusterConfig::default() });
            }),
            (&["--cluster", "--heartbeat-ms", "250"], |c| {
                let heartbeat = Duration::from_millis(250);
                c.cluster = Some(ClusterConfig { heartbeat, ..ClusterConfig::default() });
            }),
            (&["--cluster", "--heartbeat-ms", "1"], |c| {
                let heartbeat = Duration::from_millis(10);
                c.cluster = Some(ClusterConfig { heartbeat, ..ClusterConfig::default() });
            }),
            (&["--cluster", "--speculate-factor", "-1"], |c| {
                c.cluster = Some(ClusterConfig { speculate_factor: 0.0, ..ClusterConfig::default() });
            }),
            (&["--cluster", "--speculate-after", "0"], |c| {
                c.cluster =
                    Some(ClusterConfig { speculate_min_samples: 1, ..ClusterConfig::default() });
            }),
        ];
        for (args, edit) in serve {
            let mut want = ServerConfig { addr: DEFAULT_ADDR.into(), ..ServerConfig::default() };
            edit(&mut want);
            let got = server_config(&cli(args)).unwrap_or_else(|e| panic!("{args:?}: {e}"));
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "serve {args:?}");
        }
        let bad: [&[&str]; 5] = [
            &["--workers", ""],
            &["--workers", " , "],
            &["--queue", "many"],
            &["--inject", "crash@0"],
            &["--cluster", "--inject", "delay@0=5"],
        ];
        for bad in bad {
            assert!(server_config(&cli(bad)).is_err(), "serve {bad:?} must be refused");
        }

        let worker: &[(&[&str], Edit<WorkerConfig>)] = &[
            (&[], |_| {}),
            (&["--threads", "3"], |c| c.policy.max_threads_per_job = 3),
            (&["--threads", "0"], |c| c.policy.max_threads_per_job = 1),
            (&["--inject", "nan@0"], |c| c.faults = FaultPlan::parse("nan@0").unwrap()),
        ];
        for (args, edit) in worker {
            let mut want = WorkerConfig { addr: DEFAULT_ADDR.into(), ..WorkerConfig::default() };
            edit(&mut want);
            let got = worker_config(&cli(args)).unwrap_or_else(|e| panic!("{args:?}: {e}"));
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "worker {args:?}");
        }
        assert!(worker_config(&cli(&["--inject", "bogus"])).is_err());
    }
}
