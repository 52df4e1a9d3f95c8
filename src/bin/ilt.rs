//! `ilt` — command-line front end for the multi-level ILT stack.
//!
//! ```text
//! ilt run      --case 1 [--grid 512] [--schedule fast|exact|via] [--out prefix]
//! ilt run      --via 3  [--grid 256] ...
//! ilt run      --target design.pgm --clip-nm 2048 ...
//! ilt batch    [--threads 4] [--tile 512] [--halo 64] [--seam crop|blend:K]
//!              [--journal run.jsonl] [--no-timing] [--retries 1]
//!              [--timeout-s 0] [--no-eval] [--checkpoint] [--resume]
//!              [--inject SPEC[,SPEC...]] [--no-degrade]
//!              case1 case2 via3 design.pgm ...
//! ilt serve    [--addr 127.0.0.1:8080] [--threads 2] [--queue 16]
//!              [--journal served.jsonl] [--retries 1] [--timeout-s 0]
//!              [--cache 16] [--state-dir DIR] [--result-ttl-s 0]
//!              [--max-masks 0] [--quota-inflight 0] [--quota-queued 0]
//!              [--allow-inject] [--compact-bytes 0]
//!              [--keep-alive 32] [--idle-timeout-s 5]
//!              [--workers host:port,host:port] [--heartbeat-ms 500]
//! ilt worker   [--addr 127.0.0.1:8080] [--threads 4] [--state-dir DIR]
//!              [--retries 1] [--timeout-s 0] [--inject SPEC[,SPEC...]]
//! ilt evaluate --target design.pgm --mask mask.pgm [--grid 512] [--clip-nm 2048]
//! ilt fracture --mask mask.pgm
//! ilt kernels  [--grid 512] [--kernels 10]
//! ilt bench    <list|run|diff> [NAME_GLOB ...] [--smoke] [--reps 5]
//!              [--out bench-out/perf] [--baselines .]
//! ilt tables   <table1..4|fig1|fig4..8|timing|ablation|all>... [--grid 512]
//!              [--kernels 10] [--max-eff-nm 8] [--case N] [--smoke]
//!              [--reps 5] [--out bench-out/tables]
//! ```
//!
//! Targets may come from the built-in benchmark generators (`--case`,
//! `--via`) or from a PGM file (`--target`); masks are written/read as
//! binary PGM so the tool round-trips with itself. A job is described to
//! this tool exactly as it is to `POST /v1/jobs`: each job flag is the
//! decoder's query key spelled with dashes (`--grid 128` is `grid=128`,
//! `--no-eval` is `eval=0`, a target `caseN | viaS | x.pgm` is `case= |
//! via= | body` + `name=<stem>`), handed to `JobParams::from_pairs` — the
//! one decoder, which owns every default and check — and turned into the
//! engine's inputs by `JobParams::plan`, so `run`, `evaluate`, `batch`
//! and a served job with the same description compute the same thing.
//! `batch` takes its cases
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
//! `--inject` drives the deterministic fault plan (`panic@J[:A[-B]]`,
//! `delay@J:A=MS`, `build@J:A`, `nan@J:A`, `ckpt@J`, `crash@J`) for chaos
//! testing, and `--no-degrade` disables the low-resolution fallback that
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
//! worker-death probe interval (dead workers get their shards
//! re-dispatched; flaky-but-alive ones are quarantined by a per-worker
//! circuit breaker) and `--speculate-factor`/`--speculate-after` govern
//! straggler speculation (a shard running longer than factor × the job's
//! median latency races a second replica; first result wins, and both
//! results must agree bit-exactly). Every other supervision setting is
//! `ClusterConfig::default()`. `worker` starts one replica;
//! `--register HOST:PORT` makes it announce itself to that coordinator
//! after binding (and deregister on shutdown); its `--inject` fault plan
//! is deliberately local (never forwarded by a coordinator) and now
//! includes transport faults (`conn_refuse@J[:A]`, `read_stall@J[:A]=MS`,
//! `torn_response@J[:A]`, `garble@J[:A]`) that damage shard responses on
//! the wire while `/healthz` stays green; `--state-dir` keeps per-shard
//! checkpoint WALs so a restarted worker resumes a re-dispatched shard
//! instead of recomputing it. `bench` is the
//! hermetic, std-only performance barometer (the `ilt-perf` crate): `list`
//! shows the workload registry (FFT, simulator and optimizer step
//! families), `run` measures the selected workloads and writes one
//! `BENCH_<name>.json` (schema `ilt-bench/v2`) per workload, and `diff`
//! compares a fresh run against the checked-in baselines, exiting non-zero
//! past each workload's regression threshold either way (slower:
//! `REGRESSED`; faster: a `STALE` baseline) — the standing perf gate.
//! `tables` regenerates the paper's tables, figures, Section III-B timing
//! study and the design ablations as markdown (the same crate's `tables`
//! module), headed by the reproducing command line and the revision / FFT
//! kernel stamp; `--case` narrows Tables II-IV to one clip and `--smoke`
//! cuts every iteration budget to 2 for a seconds-long dry run. Both are
//! std-only: no python, no registry crates.

use std::error::Error;
use std::sync::Arc;
use std::time::Duration;

use multilevel_ilt::cluster::{ExecPolicy, JobParams};
use multilevel_ilt::geom::fracture;
use multilevel_ilt::prelude::*;

/// The long flags that are part of a job's description. Each is the
/// decoder's query key spelled with dashes (`--max-eff-nm 8` is
/// `max_eff_nm=8`), and that is how it is kept: as a pair for
/// [`JobParams::from_pairs`], which owns every default and every check.
const JOB_FLAGS: [&str; 12] = [
    "--grid", "--kernels", "--clip-nm", "--schedule", "--max-eff-nm", "--threads", "--tile",
    "--halo", "--seam", "--retries", "--timeout-s", "--inject",
];

/// Every other long flag, and whether it takes a value. What a flag means
/// is read where it is used, by its key ([`Cli::get`], [`Cli::flag`],
/// [`Cli::on`]); this table only tells a known flag from a typo.
const FLAGS: [(&str, bool); 32] = [
    ("--no-eval", false), ("--case", true), ("--via", true), ("--target", true),
    ("--mask", true), ("--out", true), ("--journal", true), ("--no-timing", false),
    ("--checkpoint", false), ("--resume", false), ("--no-degrade", false), ("--addr", true),
    ("--queue", true), ("--cache", true), ("--state-dir", true), ("--result-ttl-s", true),
    ("--max-masks", true), ("--quota-inflight", true), ("--quota-queued", true),
    ("--allow-inject", false), ("--compact-bytes", true), ("--keep-alive", true),
    ("--idle-timeout-s", true), ("--workers", true), ("--cluster", false),
    ("--heartbeat-ms", true), ("--speculate-factor", true), ("--speculate-after", true),
    ("--register", true), ("--reps", true), ("--baselines", true), ("--smoke", false),
];

/// `--addr` when it is not given (`serve`, `worker`).
const DEFAULT_ADDR: &str = "127.0.0.1:8080";

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
}

impl Cli {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<(String, Cli), Box<dyn Error>> {
        let command =
            args.next().ok_or("usage: ilt <run|batch|serve|worker|evaluate|fracture|kernels|bench|tables> ...")?;
        let mut cli = Cli { job: Vec::new(), opts: Vec::new(), target: None, cases: Vec::new() };
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

    /// `--timeout-s` / `--retries` as the defaults `serve` and `worker` give
    /// requests that do not set their own.
    fn policy(&self) -> Result<ExecPolicy, String> {
        let base = ExecPolicy::default();
        Ok(ExecPolicy {
            default_timeout_s: self.flag("timeout_s", base.default_timeout_s)?,
            default_retries: self.flag("retries", base.default_retries)?,
            ..base
        })
    }

    /// One job through the decoder every route shares: the job flags as
    /// given, plus `spec` (`caseN | viaSEED | x.pgm`) as `case= | via= |
    /// body` + `name=<stem>`. The command line may use every thread it asks
    /// for and may inject faults.
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
        let policy = ExecPolicy {
            max_threads_per_job: usize::MAX,
            allow_inject: true,
            ..ExecPolicy::default()
        };
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

fn cmd_run(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let (BatchCase { target, nm_per_px: nm, .. }, config, sim) = cli.single()?;
    let grid = target.shape().0;
    let schedule = schedules::clamp_to_grid(
        &config.schedule,
        nm,
        config.max_eff_nm,
        grid,
        sim.config().kernel_size(),
    );
    println!("optimizing {grid} px clip at {nm} nm/px with schedule {schedule:?}");
    let timer = TurnaroundTimer::start();
    let result = MultiLevelIlt::new(sim.clone(), config.ilt).run(&target, &schedule);
    let tat = timer.elapsed();
    println!("ran {} iterations in {:.2} s", result.total_iterations, tat.as_secs_f64());
    println!("{}", evaluate_mask(&sim, &target, &result.mask, tat));

    let out = cli.get("out").unwrap_or("ilt");
    let mask_path = format!("{out}_mask.pgm");
    let wafer_path = format!("{out}_wafer.pgm");
    write_pgm(&result.mask, &mask_path, 0.0, 1.0)?;
    write_pgm(
        &sim.print(&result.mask, ProcessCondition::nominal()),
        &wafer_path,
        0.0,
        1.0,
    )?;
    println!("wrote {mask_path} and {wafer_path}");
    Ok(())
}

fn cmd_batch(cli: &Cli) -> Result<(), Box<dyn Error>> {
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
    let out = cli.get("out").unwrap_or("ilt");
    let journal_path =
        cli.get("journal").map_or_else(|| format!("{out}_journal.jsonl"), Into::into);
    let resume = cli.on("resume");
    // Only what is not part of a job is set here.
    let config = BatchConfig {
        degrade: !cli.on("no_degrade"),
        checkpoint: (cli.on("checkpoint") || resume)
            .then(|| std::path::PathBuf::from(format!("{journal_path}.ckpt"))),
        ..plan
    };
    println!(
        "batch: {} case(s), {} thread(s), tile {} px, halo {} px, schedule {}",
        cases.len(),
        config.threads,
        config.tile,
        config.halo,
        schedule
    );
    if let Some(dir) = &config.checkpoint {
        println!("checkpoint: {}", dir.display());
    }

    let cache = SimulatorCache::new();
    let outcome = run_batch_resume(&cases, &config, &cache, resume)?;
    if resume {
        println!(
            "resume: {} job(s) restored from durable checkpoints",
            outcome.restored_jobs
        );
    }
    print!("{}", outcome.report);
    println!(
        "simulator cache: {} build(s), {} hit(s)",
        cache.misses(),
        cache.hits()
    );

    for case in &outcome.cases {
        let mask_path = format!("{out}_{}_mask.pgm", case.name);
        write_pgm(&case.mask, &mask_path, 0.0, 1.0)
            .map_err(|e| format!("cannot write {mask_path}: {e}"))?;
        match &case.eval {
            Some(eval) => println!(
                "{}: {} tile(s), {} failed, {} degraded -> {mask_path}\n{eval}",
                case.name, case.tiles, case.failed_tiles, case.degraded_tiles
            ),
            None => println!(
                "{}: {} tile(s), {} failed, {} degraded -> {mask_path}",
                case.name, case.tiles, case.failed_tiles, case.degraded_tiles
            ),
        }
    }

    outcome
        .report
        .write_jsonl_opts(&journal_path, !cli.on("no_timing"))
        .map_err(|e| format!("cannot write {journal_path}: {e}"))?;
    println!("journal: {journal_path}");

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
    let idle_timeout_s = cli.flag("idle_timeout_s", base.idle_timeout.as_secs_f64())?;
    Ok(ServerConfig {
        addr: cli.get("addr").unwrap_or(DEFAULT_ADDR).into(),
        workers: cli.flag("threads", base.workers)?.max(1),
        queue_cap: cli.flag("queue", base.queue_cap)?,
        journal: cli.get("journal").map(Into::into),
        cache_capacity: cli.flag("cache", base.cache_capacity)?,
        policy: ExecPolicy { allow_inject: cli.on("allow_inject"), ..cli.policy()? },
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
fn worker_config(cli: &Cli) -> Result<WorkerConfig, String> {
    let spec = cli.get("inject").unwrap_or("");
    let policy = cli.policy()?;
    Ok(WorkerConfig {
        addr: cli.get("addr").unwrap_or(DEFAULT_ADDR).into(),
        state_dir: cli.get("state_dir").map(Into::into),
        faults: FaultPlan::parse(spec).map_err(|e| format!("bad --inject {spec}: {e}"))?,
        policy: ExecPolicy {
            max_threads_per_job: cli.flag("threads", policy.max_threads_per_job)?.max(1),
            ..policy
        },
    })
}

fn cmd_serve(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let config = server_config(cli)?;
    let workers = config.workers;
    let queue = config.queue_cap;
    if let Some(dir) = &config.state_dir {
        println!("state: {}", dir.display());
    }
    let replicas = config.cluster.as_ref().map(|c| c.workers.clone());
    let server = Server::bind(config)?;
    // `tests/cluster_e2e.rs` parses this line to find the ephemeral port.
    println!("listening on http://{}", server.local_addr());
    println!(
        "{workers} worker(s), queue capacity {queue}; POST /v1/shutdown to drain"
    );
    if let Some(replicas) = replicas {
        if replicas.is_empty() {
            println!("coordinating an empty cluster; workers register via POST /v1/members");
        } else {
            println!(
                "coordinating {} cluster replica(s): {}",
                replicas.len(),
                replicas.join(", ")
            );
        }
    }
    server.run()?;
    println!("drained");
    Ok(())
}

fn cmd_worker(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let config = worker_config(cli)?;
    if let Some(dir) = &config.state_dir {
        println!("state: {}", dir.display());
    }
    let worker = Worker::bind(config)?;
    let local = worker.local_addr()?;
    // Parsed like `serve`'s listen line.
    println!("worker listening on http://{local}");
    println!("POST /v1/shutdown to stop");
    // Self-registration: announce this replica to the coordinator once the
    // socket is bound. Retried in the background so a worker started
    // moments before its coordinator still joins.
    let register = cli.get("register").map(String::from);
    if let Some(coordinator) = register.clone() {
        let me = local.to_string();
        std::thread::spawn(move || {
            let timeout = Duration::from_secs(2);
            for attempt in 0..40u32 {
                match multilevel_ilt::cluster::post_membership(&coordinator, &me, "join", timeout)
                {
                    Ok(()) => {
                        println!("registered with coordinator {coordinator}");
                        return;
                    }
                    Err(e) if attempt == 39 => eprintln!("registration failed: {e}"),
                    Err(_) => std::thread::sleep(Duration::from_millis(250)),
                }
            }
        });
    }
    worker.run();
    if let Some(coordinator) = &register {
        // Best-effort goodbye so the coordinator stops dispatching here.
        let _ = multilevel_ilt::cluster::post_membership(
            coordinator,
            &local.to_string(),
            "leave",
            Duration::from_secs(2),
        );
    }
    println!("stopped");
    Ok(())
}

fn cmd_evaluate(cli: &Cli) -> Result<(), Box<dyn Error>> {
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
    println!("{}", evaluate_mask(&sim, &target, &mask, Duration::ZERO));
    Ok(())
}

fn cmd_fracture(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let mask_path = cli.get("mask").ok_or("fracture needs --mask file.pgm")?;
    let mask = multilevel_ilt::field::read_pgm(mask_path)?.threshold(0.5);
    let rects = fracture(&mask);
    // Write through a buffered handle and treat a broken pipe (e.g.
    // `ilt fracture ... | head`) as a clean exit.
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let result: std::io::Result<()> = (|| {
        writeln!(out, "#shots: {}", rects.len())?;
        writeln!(out, "# row0 col0 row1 col1 (half-open pixel coordinates)")?;
        for r in &rects {
            writeln!(out, "{} {} {} {}", r.r0, r.c0, r.r1, r.c1)?;
        }
        out.flush()
    })();
    match result {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        other => other.map_err(Into::into),
    }
}

fn cmd_kernels(cli: &Cli) -> Result<(), Box<dyn Error>> {
    let grid = cli.flag("grid", 512usize)?;
    let nm = cli.flag("clip_nm", 2048.0)? / grid as f64;
    let cfg = OpticsConfig {
        grid,
        nm_per_px: nm,
        num_kernels: cli.flag("kernels", 10)?,
        ..OpticsConfig::default()
    };
    println!(
        "grid {} ({} nm/px), P = {}, N_k = {}",
        grid,
        nm,
        cfg.kernel_size(),
        cfg.num_kernels
    );
    let (nominal, defocused) = KernelSet::focus_pair(&cfg);
    println!(
        "captured energy: nominal {:.2}%, defocused {:.2}%",
        nominal.captured_energy() * 100.0,
        defocused.captured_energy() * 100.0
    );
    for k in 0..nominal.num_kernels() {
        println!(
            "kernel {k:>2}: w_nominal = {:.6}, w_defocus = {:.6}",
            nominal.weights()[k],
            defocused.weights()[k]
        );
    }
    Ok(())
}

/// The performance barometer: `ilt bench <list|run|diff>` over the
/// [`multilevel_ilt::perf`] workload registry.
///
/// `run` executes the selected workloads and writes one `BENCH_<name>.json`
/// (schema `ilt-bench/v2`) per workload into `--out`; `diff` compares a
/// fresh run directory against the checked-in baselines in `--baselines`
/// and exits non-zero past each workload's threshold, slower or faster. Entirely
/// std-only: no python, no network.
fn cmd_bench(cli: &Cli) -> Result<(), Box<dyn Error>> {
    use multilevel_ilt::perf::{diff_dirs, env_stamp, select, BenchResult, MeasureConfig};
    use std::path::Path;

    let usage = "usage: ilt bench <list|run|diff> [NAME_GLOB ...] \
                 [--smoke] [--reps N] [--out DIR] [--baselines DIR]";
    let sub = cli.cases.first().map(String::as_str).ok_or(usage)?;
    // Positionals after the subcommand are name globs; a family is a name
    // prefix (`'fft_*'`). No globs select every workload.
    let globs = &cli.cases[1..];
    // Fresh results live out of the way by default; baselines are the
    // checked-in BENCH_*.json at the repo root.
    let out_dir = cli.get("out").unwrap_or("bench-out/perf");

    match sub {
        "list" => {
            let workloads = select(globs);
            if workloads.is_empty() {
                return Err("no workloads match the selection".into());
            }
            println!("{:<24} {:>10}  notes", "workload", "threshold");
            for w in &workloads {
                println!("{:<24} {:>9.0}%  {}", w.name, w.threshold * 100.0, w.notes);
            }
            Ok(())
        }
        "run" => {
            let workloads = select(globs);
            if workloads.is_empty() {
                return Err("no workloads match the selection".into());
            }
            let cfg = MeasureConfig { smoke: cli.on("smoke"), reps: cli.flag("reps", 5usize)?.max(1) };
            let env = env_stamp();
            std::fs::create_dir_all(out_dir)
                .map_err(|e| format!("cannot create {out_dir}: {e}"))?;
            println!(
                "bench run: {} workload(s), median of {} rep(s){}",
                workloads.len(),
                cfg.effective_reps(),
                if cfg.smoke { ", smoke fixtures" } else { "" }
            );
            for w in &workloads {
                let sample = (w.run)(&cfg)?;
                let result = BenchResult::new(w, &sample, &cfg, &env);
                let path = result.write(Path::new(out_dir))?;
                println!(
                    "{:<24} {:>12.1} us/op (mad {:.1})  -> {}",
                    w.name,
                    sample.median_us,
                    sample.mad_us,
                    path.display()
                );
            }
            Ok(())
        }
        "diff" => {
            let report = diff_dirs(
                Path::new(cli.get("baselines").unwrap_or(".")),
                Path::new(out_dir),
                globs,
            )?;
            print!("{}", report.render());
            let (regressed, stale) = (report.regressions(), report.stale());
            if regressed + stale > 0 {
                return Err(format!(
                    "{regressed} workload(s) regressed past threshold, {stale} baseline(s) stale \
                     (re-record with `ilt bench run <workload> --out <baseline dir>`)"
                )
                .into());
            }
            println!("bench diff: {} workload(s) within threshold", report.rows.len());
            Ok(())
        }
        other => Err(format!("unknown bench subcommand {other}\n{usage}").into()),
    }
}

/// The paper's tables and figures: `ilt tables <selector>...` over
/// [`multilevel_ilt::perf::tables`].
fn cmd_tables(cli: &Cli) -> Result<(), Box<dyn Error>> {
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
    tables::run(&cli.cases, &config, &mut std::io::stdout().lock())
}

fn main() {
    let (command, cli) = match Cli::parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let result = match command.as_str() {
        "run" => cmd_run(&cli),
        "batch" => cmd_batch(&cli),
        "serve" => cmd_serve(&cli),
        "worker" => cmd_worker(&cli),
        "evaluate" => cmd_evaluate(&cli),
        "fracture" => cmd_fracture(&cli),
        "kernels" => cmd_kernels(&cli),
        "bench" => cmd_bench(&cli),
        "tables" => cmd_tables(&cli),
        other => Err(format!(
            "unknown command {other} (run|batch|serve|worker|evaluate|fracture|kernels|bench|tables)"
        )
        .into()),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        let argv = std::iter::once("serve").chain(args.iter().copied()).map(String::from);
        Cli::parse(argv).expect("known flags").1
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
            (&["--allow-inject"], |c| c.policy.allow_inject = true),
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
        for bad in [&["--workers", ""][..], &["--workers", " , "], &["--queue", "many"]] {
            assert!(server_config(&cli(bad)).is_err(), "serve {bad:?} must be refused");
        }

        let worker: &[(&[&str], Edit<WorkerConfig>)] = &[
            (&[], |_| {}),
            (&["--threads", "3"], |c| c.policy.max_threads_per_job = 3),
            (&["--threads", "0"], |c| c.policy.max_threads_per_job = 1),
            (&["--retries", "0"], |c| c.policy.default_retries = 0),
            (&["--timeout-s", "9"], |c| c.policy.default_timeout_s = 9.0),
            (&["--state-dir", "sd"], |c| c.state_dir = Some("sd".into())),
            (&["--inject", "garble@0"], |c| c.faults = FaultPlan::parse("garble@0").unwrap()),
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
