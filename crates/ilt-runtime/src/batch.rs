//! The batch engine: cases → tiles → jobs → pool → stitched masks + journal.
//!
//! `run_batch` is the full-chip entry point. Each case whose target fits in
//! one tile runs as a single whole-clip job; larger targets are decomposed
//! by [`TileGrid`] and every tile becomes an independent job. All jobs of
//! all cases go into one pool so a mix of clip sizes load-balances,
//! and all simulators come from one shared [`SimulatorCache`] so each
//! distinct optics configuration is built exactly once per process.
//!
//! Failed tiles degrade, not abort: a tile that exhausts its retries first
//! falls back to its coarse low-resolution ILT result (journaled as
//! `Degraded`), and only if that also fails does its core fall back to the
//! raw target geometry with a `Failed` record — a single bad tile costs
//! local mask quality instead of the batch.
//!
//! With [`BatchConfig::checkpoint`] set, every finished job is persisted to
//! a write-ahead log as it completes, and [`run_batch_resume`] can pick a
//! crashed run back up: it verifies the recorded configuration fingerprint,
//! restores every job with a durable successful checkpoint, and re-runs
//! only the rest — producing masks and a journal byte-identical to an
//! uninterrupted run.
//!
//! There is one execution path. [`run_batch`] / [`run_batch_resume`] run
//! every planned job and then [`assemble_batch`]; [`run_shard`] — the
//! cluster worker's entry point — runs a subset and returns it un-stitched
//! for [`assemble_batch`] on the coordinator. Both are the same private
//! `execute` (plan, restore from the WAL, pool, merge in job-id order), so
//! a sharded mask equals a local one because the same code made it.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ilt_core::{schedules, IltConfig, Stage};
use ilt_field::Field2D;
use ilt_metrics::EvalReport;
use ilt_optics::OpticsConfig;

use crate::cache::SimulatorCache;
use crate::cancel::{CancelToken, Progress};
use crate::checkpoint::{config_fingerprint, load_wal, restore_output, CheckpointSink};
use crate::fault::FaultPlan;
use crate::job::{evaluate_mask, IltJob};
use crate::journal::{JobStatus, RunReport};
use crate::pool::{run_jobs, JobOutput};
use crate::tiler::{SeamPolicy, TileGrid};

/// One input to a batch run: a named target clip.
#[derive(Clone, Debug)]
pub struct BatchCase {
    /// Label used in the journal and output files.
    pub name: String,
    /// Binary target, square power-of-two.
    pub target: Field2D,
    /// Physical pixel pitch of the target.
    pub nm_per_px: f64,
}

/// Full configuration of a batch run.
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Attempts run at once, each on its own thread.
    pub threads: usize,
    /// Tile window size in pixels (power of two).
    pub tile: usize,
    /// Guard band in pixels; targets larger than `tile` are decomposed into
    /// windows overlapping by `2 * halo`.
    pub halo: usize,
    /// Seam handling when stitching tiled masks; [`SeamPolicy::Crop`] is
    /// its one value.
    pub seam: SeamPolicy,
    /// Optics template; `grid` and `nm_per_px` are overridden per job.
    pub optics: OpticsConfig,
    /// ILT hyper-parameters shared by all jobs.
    pub ilt: IltConfig,
    /// Base multi-level schedule; clamped per job to its grid and to the
    /// effective-pitch ceiling.
    pub schedule: Vec<Stage>,
    /// Coarsest admissible effective pixel pitch, nm (see
    /// [`schedules::clamp_effective_pitch`]).
    pub max_eff_nm: f64,
    /// Per-attempt wall-clock budget; `None` waits indefinitely.
    pub timeout: Option<Duration>,
    /// Extra attempts per job after a failure.
    pub max_retries: u32,
    /// Evaluate each stitched full-size mask (builds a full-size simulator;
    /// disable for targets too large to simulate in one FFT).
    pub evaluate_stitched: bool,
    /// After the retry budget, run the degraded low-res fallback pass.
    pub degrade: bool,
    /// Checkpoint directory: when set, finished jobs are persisted to a
    /// write-ahead log there as they complete, enabling crash-safe resume.
    pub checkpoint: Option<PathBuf>,
    /// Deterministic fault injection (chaos testing); empty in production.
    pub faults: FaultPlan,
    /// Cooperative cancellation: set from any thread to stop the run at the
    /// next tile boundary. Tiles not yet started end as `cancelled` records
    /// (their cores fall back to the target geometry when stitching).
    /// Excluded from the configuration fingerprint — it never affects what
    /// a job computes, only whether it runs.
    pub cancel: CancelToken,
    /// Live tile counter: ticks once per executed tile as its outcome lands,
    /// readable from other threads while the batch runs.
    pub progress: Progress,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            tile: 512,
            halo: 64,
            seam: SeamPolicy::Crop,
            optics: OpticsConfig::default(),
            ilt: IltConfig::default(),
            schedule: schedules::our_fast(),
            max_eff_nm: 8.0,
            timeout: None,
            max_retries: 1,
            evaluate_stitched: true,
            degrade: true,
            checkpoint: None,
            faults: FaultPlan::none(),
            cancel: CancelToken::new(),
            progress: Progress::new(),
        }
    }
}

/// Per-case product of a batch run.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// Case label.
    pub name: String,
    /// Stitched (or whole-clip) binary mask at the target's grid.
    pub mask: Field2D,
    /// Number of jobs the case decomposed into.
    pub tiles: usize,
    /// Jobs that exhausted retries; their cores fell back to the target.
    pub failed_tiles: usize,
    /// Jobs rescued by the degraded low-res fallback (usable, coarse mask).
    pub degraded_tiles: usize,
    /// Jobs cancelled before running (cores fell back to the target).
    pub cancelled_tiles: usize,
    /// Full-size evaluation of the stitched mask, when requested.
    pub eval: Option<EvalReport>,
}

/// Everything a batch run produces.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// The journal: one record per job plus aggregates.
    pub report: RunReport,
    /// Stitched results, one per input case, input order.
    pub cases: Vec<CaseResult>,
    /// Jobs restored from durable checkpoints instead of re-running
    /// (always 0 for a fresh run).
    pub restored_jobs: usize,
}

struct CasePlan {
    first_job: usize,
    jobs: usize,
    grid: Option<TileGrid>,
}

/// Validates a case's geometry and plans its tile decomposition without
/// building any job (no window extraction): the shared front half of
/// `execute`, [`planned_job_list`], [`planned_jobs`] and [`assemble_batch`].
fn plan_case(case: &BatchCase, config: &BatchConfig, first_job: usize) -> Result<CasePlan, String> {
    let (rows, cols) = case.target.shape();
    if rows != cols || !rows.is_power_of_two() {
        return Err(format!(
            "case {}: target must be square power-of-two, got {rows}x{cols}",
            case.name
        ));
    }
    if rows <= config.tile {
        Ok(CasePlan { first_job, jobs: 1, grid: None })
    } else {
        let grid = TileGrid::new(rows, config.tile, config.halo)
            .map_err(|e| format!("case {}: {e}", case.name))?;
        Ok(CasePlan { first_job, jobs: grid.len(), grid: Some(grid) })
    }
}

/// One entry of a batch's job plan, as exposed to a dispatcher that farms
/// jobs out (e.g. the cluster coordinator): enough identity to label —
/// and, when a shard is lost, to synthesize a terminal record for — each
/// job without materializing its target window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlannedJob {
    /// Global job id within the batch (the tile/journal id).
    pub id: usize,
    /// Case label.
    pub case: String,
    /// Tile-grid coordinates, `None` for a whole-clip job.
    pub tile: Option<(usize, usize)>,
    /// Simulation grid of the job's window, px.
    pub grid: usize,
}

/// The full job plan of a batch, in job-id order — exactly the jobs
/// [`run_batch`] would create for the same inputs.
///
/// # Errors
///
/// Rejects the same malformed inputs as [`run_batch`].
pub fn planned_job_list(
    cases: &[BatchCase],
    config: &BatchConfig,
) -> Result<Vec<PlannedJob>, String> {
    let mut out = Vec::new();
    for case in cases {
        let plan = plan_case(case, config, out.len())?;
        match &plan.grid {
            None => out.push(PlannedJob {
                id: plan.first_job,
                case: case.name.clone(),
                tile: None,
                grid: case.target.shape().0,
            }),
            Some(grid) => {
                for spec in grid.specs() {
                    out.push(PlannedJob {
                        id: plan.first_job + spec.index,
                        case: case.name.clone(),
                        tile: Some((spec.grid_row, spec.grid_col)),
                        grid: grid.tile(),
                    });
                }
            }
        }
    }
    Ok(out)
}

/// Runs every case through the tiled ILT pool and stitches the results.
///
/// # Errors
///
/// Returns a message for malformed inputs (non-square or non-power-of-two
/// target, bad tile geometry, zero threads). Per-job failures are *not*
/// errors; they surface as [`CaseResult::failed_tiles`] and journal records.
pub fn run_batch(
    cases: &[BatchCase],
    config: &BatchConfig,
    cache: &SimulatorCache,
) -> Result<BatchOutcome, String> {
    run_batch_resume(cases, config, cache, false)
}

/// [`run_batch`] with optional resume from the checkpoint WAL in
/// [`BatchConfig::checkpoint`].
///
/// On resume the WAL's recorded configuration fingerprint must match the
/// current one; jobs whose checkpoints are durable (WAL success record +
/// mask file matching the recorded hash) are restored without re-running,
/// everything else — failed, missing, or torn — runs again. The merged
/// outcome is byte-identical to an uninterrupted run of the same inputs.
///
/// # Errors
///
/// Everything [`run_batch`] rejects, plus: resume without a checkpoint
/// directory, an unreadable WAL, a fingerprint mismatch, or a WAL that
/// records more jobs than the current configuration plans.
pub fn run_batch_resume(
    cases: &[BatchCase],
    config: &BatchConfig,
    cache: &SimulatorCache,
    resume: bool,
) -> Result<BatchOutcome, String> {
    let (ran, total_wall_ms) = execute(cases, config, cache, None, resume)?;
    let outcome = assemble_batch(cases, config, ran.outputs, cache, total_wall_ms)?;
    Ok(BatchOutcome { restored_jobs: ran.restored_jobs, ..outcome })
}

/// The one way jobs run, behind [`run_batch_resume`] (every planned job)
/// and [`run_shard`] (the `wanted` ids, sorted): plan the cases, keep the
/// wanted jobs, restore what the checkpoint WAL vouches for, run the rest
/// on the pool, merge in job-id order. Also returns the pool's wall time,
/// ms.
fn execute(
    cases: &[BatchCase],
    config: &BatchConfig,
    cache: &SimulatorCache,
    wanted: Option<&[usize]>,
    resume: bool,
) -> Result<(ShardOutcome, f64), String> {
    if config.threads == 0 {
        return Err("batch needs at least one thread".into());
    }
    let mut jobs = Vec::new();
    for case in cases {
        let plan = plan_case(case, config, jobs.len())?;
        build_case_jobs(case, &plan, config, &mut jobs);
    }
    let planned = jobs.len();
    let in_plan = |what: &str, max_id: Option<usize>| match max_id {
        Some(id) if id >= planned => {
            Err(format!("{what} job {id}, but only {planned} jobs are planned"))
        }
        _ => Ok(()),
    };
    in_plan("shard targets", wanted.and_then(|w| w.last().copied()))?;
    in_plan("fault plan targets", config.faults.max_job_id())?;
    if let Some(wanted) = wanted {
        jobs.retain(|j| wanted.binary_search(&j.id).is_ok());
    }

    let fingerprint = config_fingerprint(cases, config);
    let mut restored: HashMap<usize, JobOutput> = HashMap::new();
    if resume {
        let dir = config
            .checkpoint
            .as_deref()
            .ok_or("resume requires a checkpoint directory")?;
        let loaded = load_wal(dir)?;
        if loaded.fingerprint != fingerprint {
            return Err(format!(
                "checkpoint fingerprint mismatch: recorded {:016x}, current {fingerprint:016x} — \
                 resume must use the same cases and result-affecting configuration",
                loaded.fingerprint
            ));
        }
        // A whole batch owns its checkpoint directory, so a record beyond
        // the plan is an error; a shard's reused directory may hold records
        // from a differently-shaped predecessor, which are not its jobs.
        if wanted.is_none() {
            in_plan("checkpoint WAL records", loaded.records.keys().next_back().copied())?;
        }
        for (id, rec) in &loaded.records {
            if jobs.binary_search_by_key(id, |j| j.id).is_ok() {
                if let Some(output) = restore_output(dir, rec) {
                    restored.insert(*id, output);
                }
            }
        }
    }

    let sink = match &config.checkpoint {
        Some(dir) => Some(
            CheckpointSink::create(dir, fingerprint, jobs.len(), resume, config.faults.clone())
                .map_err(|e| format!("cannot open checkpoint dir {}: {e}", dir.display()))?,
        ),
        None => None,
    };

    jobs.retain(|j| !restored.contains_key(&j.id));
    let restored_jobs = restored.len();
    let started = Instant::now();
    let fresh = run_jobs(jobs, config, cache, sink.as_ref());
    let total_wall_ms = started.elapsed().as_secs_f64() * 1e3;

    let mut outputs: Vec<JobOutput> = restored.into_values().chain(fresh).collect();
    outputs.sort_by_key(|o| o.record.job_id);
    Ok((ShardOutcome { outputs, restored_jobs }, total_wall_ms))
}

/// Materializes a planned case into pool jobs (extracting tile windows),
/// appending them to `jobs` in global job-id order.
fn build_case_jobs(case: &BatchCase, plan: &CasePlan, config: &BatchConfig, jobs: &mut Vec<IltJob>) {
    match &plan.grid {
        None => {
            let rows = case.target.shape().0;
            jobs.push(make_job(plan.first_job, case, None, case.target.clone(), rows, config));
        }
        Some(grid) => {
            for spec in grid.specs() {
                let window = grid.extract(&case.target, &spec);
                jobs.push(make_job(
                    plan.first_job + spec.index,
                    case,
                    Some(spec),
                    window,
                    grid.tile(),
                    config,
                ));
            }
        }
    }
}

/// The outputs of one shard of a case's job plan.
#[derive(Clone, Debug)]
pub struct ShardOutcome {
    /// One output per requested job id, sorted by job id.
    pub outputs: Vec<JobOutput>,
    /// Jobs restored from the shard's checkpoint WAL instead of re-running.
    pub restored_jobs: usize,
}

/// Runs a designated subset of a case's planned tile jobs — the worker half
/// of the cluster's sharded execution. Jobs are planned exactly as
/// [`run_batch`] plans them for the same `(case, config)` (ids are the
/// global batch job ids), then only `job_ids` run; the per-tile results are
/// returned un-stitched for central reassembly via [`assemble_batch`].
///
/// With [`BatchConfig::checkpoint`] set, the shard writes the same WAL
/// [`run_batch_resume`] uses; `resume` restores any job in `job_ids` whose
/// checkpoint is durable, so a restarted worker re-runs only what it lost.
///
/// # Errors
///
/// Everything [`run_batch`] rejects, plus an empty, duplicate, or
/// out-of-range `job_ids`, and the resume errors of [`run_batch_resume`].
pub fn run_shard(
    case: &BatchCase,
    config: &BatchConfig,
    cache: &SimulatorCache,
    job_ids: &[usize],
    resume: bool,
) -> Result<ShardOutcome, String> {
    if job_ids.is_empty() {
        return Err("shard has no job ids".into());
    }
    let mut wanted: Vec<usize> = job_ids.to_vec();
    wanted.sort_unstable();
    wanted.dedup();
    if wanted.len() != job_ids.len() {
        return Err("shard job ids contain duplicates".into());
    }
    execute(std::slice::from_ref(case), config, cache, Some(&wanted), resume).map(|(ran, _)| ran)
}

/// Reassembles a batch outcome from per-job outputs produced elsewhere
/// (e.g. collected from cluster workers via [`run_shard`]): stitches each
/// case with the same halo crop [`run_batch`] applies and runs the same
/// optional full-size evaluation, so the result is byte-identical
/// to a single-process run of the same inputs.
///
/// `outputs` must hold exactly one output per planned job, in any order.
///
/// # Errors
///
/// Rejects the malformed inputs [`run_batch`] rejects, plus an output set
/// whose job ids do not match the plan.
pub fn assemble_batch(
    cases: &[BatchCase],
    config: &BatchConfig,
    mut outputs: Vec<JobOutput>,
    cache: &SimulatorCache,
    total_wall_ms: f64,
) -> Result<BatchOutcome, String> {
    let mut plans = Vec::with_capacity(cases.len());
    let mut total = 0usize;
    for case in cases {
        let plan = plan_case(case, config, total)?;
        total += plan.jobs;
        plans.push(plan);
    }
    outputs.sort_by_key(|o| o.record.job_id);
    if outputs.len() != total
        || outputs.iter().enumerate().any(|(i, o)| o.record.job_id != i)
    {
        return Err(format!(
            "assemble: expected outputs for jobs 0..{total}, got {} outputs",
            outputs.len()
        ));
    }
    let mut results = Vec::with_capacity(cases.len());
    for (case, plan) in cases.iter().zip(&plans) {
        results.push(assemble_case(case, plan, &outputs, config, cache)?);
    }
    let report = RunReport {
        threads: config.threads,
        records: outputs.into_iter().map(|o| o.record).collect(),
        total_wall_ms,
    };
    Ok(BatchOutcome { report, cases: results, restored_jobs: 0 })
}

fn make_job(
    id: usize,
    case: &BatchCase,
    spec: Option<crate::tiler::TileSpec>,
    target: Field2D,
    grid: usize,
    config: &BatchConfig,
) -> IltJob {
    let optics = OpticsConfig {
        grid,
        nm_per_px: case.nm_per_px,
        ..config.optics.clone()
    };
    let schedule = schedules::clamp_to_grid(
        &config.schedule,
        case.nm_per_px,
        config.max_eff_nm,
        grid,
        optics.kernel_size(),
    );
    IltJob {
        id,
        case: case.name.clone(),
        tile: spec,
        target,
        optics,
        ilt: config.ilt.clone(),
        schedule,
    }
}

fn assemble_case(
    case: &BatchCase,
    plan: &CasePlan,
    outputs: &[JobOutput],
    config: &BatchConfig,
    cache: &SimulatorCache,
) -> Result<CaseResult, String> {
    let slice = &outputs[plan.first_job..plan.first_job + plan.jobs];
    let cancelled_tiles = slice
        .iter()
        .filter(|o| matches!(o.record.status, JobStatus::Cancelled))
        .count();
    let failed_tiles = slice.iter().filter(|o| o.mask.is_none()).count() - cancelled_tiles;
    let degraded_tiles = slice
        .iter()
        .filter(|o| matches!(o.record.status, JobStatus::Degraded(_)))
        .count();
    // A failed tile's core falls back to the target geometry: the
    // uncorrected design is the safest stand-in for a missing correction.
    let binary_target = case.target.threshold(0.5);
    let mask = match &plan.grid {
        None => slice[0].mask.clone().unwrap_or_else(|| binary_target.clone()),
        Some(grid) => {
            let tiles: Vec<Option<Field2D>> = slice.iter().map(|o| o.mask.clone()).collect();
            grid.stitch(&tiles, config.seam, &binary_target)
        }
    };
    let eval = if config.evaluate_stitched {
        let n = case.target.shape().0;
        let optics = OpticsConfig {
            grid: n,
            nm_per_px: case.nm_per_px,
            ..config.optics.clone()
        };
        let sim = cache.get_or_build(&optics)?;
        let tat = Duration::from_secs_f64(
            slice.iter().map(|o| o.record.wall_ms).sum::<f64>() / 1e3,
        );
        Some(evaluate_mask(&sim, &binary_target, &mask, tat))
    } else {
        None
    };
    Ok(CaseResult {
        name: case.name.clone(),
        mask,
        tiles: plan.jobs,
        failed_tiles,
        degraded_tiles,
        cancelled_tiles,
        eval,
    })
}

/// Number of pool jobs a case will decompose into under `config` — the
/// denominator of a "tiles done so far" progress report, computable before
/// the batch runs.
///
/// # Errors
///
/// Rejects the same malformed inputs as [`run_batch`] (non-square or
/// non-power-of-two target, bad tile geometry).
pub fn planned_jobs(case: &BatchCase, config: &BatchConfig) -> Result<usize, String> {
    plan_case(case, config, 0).map(|plan| plan.jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bar_case(name: &str, n: usize) -> BatchCase {
        let target = Field2D::from_fn(n, n, |r, c| {
            if (n / 4..n / 2).contains(&r) && (n / 8..n - n / 8).contains(&c) {
                1.0
            } else {
                0.0
            }
        });
        BatchCase { name: name.into(), target, nm_per_px: 8.0 }
    }

    fn small_config(threads: usize) -> BatchConfig {
        BatchConfig {
            threads,
            tile: 64,
            halo: 8,
            optics: OpticsConfig { num_kernels: 3, ..OpticsConfig::default() },
            schedule: vec![Stage::low_res(2, 3), Stage::high_res(1, 2)],
            evaluate_stitched: false,
            ..BatchConfig::default()
        }
    }

    #[test]
    fn whole_clip_case_runs_one_job() {
        let cache = SimulatorCache::new();
        let out = run_batch(&[bar_case("clip", 64)], &small_config(1), &cache).unwrap();
        assert_eq!(out.report.records.len(), 1);
        assert_eq!(out.cases[0].tiles, 1);
        assert_eq!(out.cases[0].failed_tiles, 0);
        assert_eq!(out.cases[0].degraded_tiles, 0);
        assert_eq!(out.restored_jobs, 0);
        assert_eq!(out.cases[0].mask.shape(), (64, 64));
    }

    #[test]
    fn oversized_case_is_tiled_and_stitched_to_full_size() {
        let cache = SimulatorCache::new();
        let out = run_batch(&[bar_case("big", 128)], &small_config(2), &cache).unwrap();
        assert_eq!(out.cases[0].mask.shape(), (128, 128));
        // 128 px field, 64 px tile, 8 px halo -> 48 px core -> 3x3 tiles.
        assert_eq!(out.cases[0].tiles, 9);
        assert_eq!(out.report.records.len(), 9);
        assert!(out.report.records.iter().all(|r| r.status == JobStatus::Done));
        // One shared configuration: every tile job simulates at 64 px.
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn mixed_cases_share_one_pool_run() {
        let cache = SimulatorCache::new();
        let cases = [bar_case("a", 64), bar_case("b", 128)];
        let out = run_batch(&cases, &small_config(2), &cache).unwrap();
        assert_eq!(out.cases.len(), 2);
        assert_eq!(out.report.records.len(), 1 + 9);
        // Records stay grouped by case in submission order.
        assert_eq!(out.report.records[0].case, "a");
        assert!(out.report.records[1..].iter().all(|r| r.case == "b"));
    }

    #[test]
    fn injected_failure_falls_back_to_target_geometry() {
        let cache = SimulatorCache::new();
        let mut config = small_config(1);
        config.max_retries = 0;
        // The panic covers every attempt including the degraded fallback,
        // so the tile truly fails and its core reverts to the target.
        config.faults = FaultPlan::parse("panic@0").unwrap();
        let case = bar_case("clip", 64);
        let out = run_batch(&[case.clone()], &config, &cache).unwrap();
        assert_eq!(out.cases[0].failed_tiles, 1);
        assert_eq!(out.report.failed_jobs(), 1);
        assert_eq!(out.cases[0].mask, case.target.threshold(0.5));
    }

    #[test]
    fn persistent_failure_degrades_to_low_res_result() {
        let cache = SimulatorCache::new();
        let mut config = small_config(1);
        config.max_retries = 0;
        // Attempt 1 panics; the degraded fallback (attempt 2) is clean.
        config.faults = FaultPlan::parse("panic@0:1").unwrap();
        let case = bar_case("clip", 64);
        let out = run_batch(&[case.clone()], &config, &cache).unwrap();
        assert_eq!(out.cases[0].failed_tiles, 0);
        assert_eq!(out.cases[0].degraded_tiles, 1);
        assert_eq!(out.report.degraded_jobs(), 1);
        assert_eq!(out.report.failed_jobs(), 0);
        // The degraded result is a real optimized mask with metrics, and it
        // matches what the coarse-only recipe computes directly.
        let mut coarse = small_config(1);
        coarse.schedule = vec![Stage::low_res(2, 3)];
        let direct = run_batch(&[case], &coarse, &cache).unwrap();
        assert_eq!(
            out.report.records[0].metrics.unwrap().mask_hash,
            direct.report.records[0].metrics.unwrap().mask_hash,
            "degraded fallback is exactly the Eq. 8 coarse pass"
        );
    }

    #[test]
    fn bad_inputs_are_reported() {
        let cache = SimulatorCache::new();
        let config = small_config(1);
        let bad = BatchCase {
            name: "rect".into(),
            target: Field2D::zeros(64, 32),
            nm_per_px: 8.0,
        };
        assert!(run_batch(&[bad], &config, &cache).is_err());
        let mut zero = small_config(1);
        zero.threads = 0;
        assert!(run_batch(&[bar_case("x", 64)], &zero, &cache).is_err());
        let mut inject = small_config(1);
        inject.faults = FaultPlan::parse("panic@99").unwrap();
        assert!(run_batch(&[bar_case("x", 64)], &inject, &cache).is_err());
        let mut resume = small_config(1);
        resume.checkpoint = None;
        assert!(run_batch_resume(&[bar_case("x", 64)], &resume, &cache, true).is_err());
    }

    #[test]
    fn cancelled_batch_reports_cancelled_tiles_and_falls_back_to_target() {
        let cache = SimulatorCache::new();
        let config = small_config(2);
        config.cancel.cancel();
        let case = bar_case("big", 128);
        let out = run_batch(&[case.clone()], &config, &cache).unwrap();
        assert_eq!(out.cases[0].tiles, 9);
        assert_eq!(out.cases[0].cancelled_tiles, 9);
        assert_eq!(out.cases[0].failed_tiles, 0, "cancelled tiles are not failures");
        let cancelled = out.report.records.iter().filter(|r| r.status == JobStatus::Cancelled);
        assert_eq!(cancelled.count(), 9);
        assert_eq!(out.report.failed_jobs(), 0);
        assert_eq!(config.progress.done(), 0);
        assert_eq!(out.cases[0].mask, case.target.threshold(0.5));
        assert_eq!(planned_jobs(&case, &config).unwrap(), 9);
        assert_eq!(planned_jobs(&bar_case("clip", 64), &config).unwrap(), 1);
    }

    #[test]
    fn batch_digest_is_thread_count_invariant() {
        let run = |threads| {
            let cache = SimulatorCache::new();
            run_batch(&[bar_case("big", 128)], &small_config(threads), &cache)
                .unwrap()
                .report
                .to_jsonl_opts(false)
        };
        assert_eq!(run(1), run(3));
    }
}
