//! Job definition and single-attempt execution.
//!
//! An [`IltJob`] is a self-contained unit of work: a power-of-two target
//! clip (a whole layout or one tile window), the optics it images under,
//! the multi-level recipe to run, and bookkeeping identity. Execution is a
//! pure function of the job — no shared mutable state beyond the read-only
//! simulator cache — which is what makes the pool's result deterministic
//! under any thread count.
//!
//! Faults are injected here, at the attempt boundary, from the run's
//! [`FaultPlan`]: a panic fires before any work, a delay stalls the attempt
//! into its timeout, and a NaN poison corrupts the finished mask so the
//! numeric guard below must catch it. The guard itself is not a test
//! fixture: any non-finite value escaping the optimizer (poisoned or real)
//! fails the attempt with a typed `"numeric"` reason instead of journaling
//! a garbage mask.

use std::time::{Duration, Instant};

use ilt_core::{IltConfig, MultiLevelIlt, Stage};
use ilt_field::Field2D;
use ilt_metrics::{EpeChecker, EvalReport};
use ilt_optics::{LithoSimulator, OpticsConfig};

use crate::cache::SimulatorCache;
use crate::fault::FaultPlan;
use crate::journal::{field_hash, JobMetrics, StageTimes};
use crate::tiler::TileSpec;

/// One schedulable unit: a whole clip or one tile of a larger field.
#[derive(Clone, Debug)]
pub struct IltJob {
    /// Unique job id; also the result-ordering key.
    pub id: usize,
    /// Case the job belongs to (journal label).
    pub case: String,
    /// Tile placement when the job is one tile of a larger field.
    pub tile: Option<TileSpec>,
    /// The (window) target to optimize, square power-of-two.
    pub target: Field2D,
    /// Optics for this job; `grid` must equal the target side length.
    pub optics: OpticsConfig,
    /// ILT hyper-parameters.
    pub ilt: IltConfig,
    /// Multi-level schedule, already clamped to the job's grid.
    pub schedule: Vec<Stage>,
}

impl IltJob {
    /// The degraded-fallback recipe: only the coarsest low-resolution stage
    /// of the job's schedule (the paper's Eq. 8 scale-`s` path). A tile
    /// that keeps failing its full recipe still gets a *corrected* mask
    /// from the cheap coarse pass instead of raw target geometry. `None`
    /// when the schedule is empty or already consists of exactly one
    /// stage at the coarsest scale (the fallback would just repeat it).
    pub fn degraded_schedule(&self) -> Option<Vec<Stage>> {
        let coarsest = self.schedule.iter().max_by_key(|s| s.scale)?;
        let fallback = vec![Stage::low_res(coarsest.scale, coarsest.iterations)];
        if fallback == self.schedule {
            return None;
        }
        Some(fallback)
    }
}

/// Scores a finished mask with the contest metrics: prints it at the three
/// process corners of `sim` and evaluates L2 / PVB / EPE / shots against
/// `target` at the simulator's pixel pitch. The one mask evaluator of the
/// workspace — the CLI, the batch runtime, the paper tables, the examples
/// and the golden tests all score through it.
pub fn evaluate_mask(
    sim: &LithoSimulator,
    target: &Field2D,
    mask: &Field2D,
    tat: Duration,
) -> EvalReport {
    let corners = sim.print_corners(mask);
    let checker = EpeChecker { nm_per_px: sim.config().nm_per_px, ..EpeChecker::default() };
    EvalReport::evaluate(
        target,
        mask,
        &corners.nominal,
        &corners.inner,
        &corners.outer,
        &checker,
        tat,
    )
}

/// The product of a successful attempt.
#[derive(Clone, Debug)]
pub struct JobSuccess {
    /// Final binary mask at the job's grid.
    pub mask: Field2D,
    /// Contest metrics of the job's own window.
    pub metrics: JobMetrics,
    /// Per-stage wall-times.
    pub times: StageTimes,
}

/// Runs one attempt of a job to completion, with `schedule` selecting the
/// recipe: the job's own, or its [`IltJob::degraded_schedule`]. Faults keyed
/// to `attempt` fire either way, so chaos plans can kill the fallback too.
///
/// # Errors
///
/// Returns the simulator-construction error for an invalid optics
/// configuration, or a typed `numeric:` error when the result contains
/// non-finite values.
///
/// # Panics
///
/// Panics when the fault plan targets `(job.id, attempt)` with a panic, and
/// on the usual contract violations (target/grid mismatch); the pool
/// converts panics into failed attempts via `catch_unwind`.
pub fn run_attempt(
    job: &IltJob,
    schedule: &[Stage],
    attempt: u32,
    cache: &SimulatorCache,
    faults: &FaultPlan,
) -> Result<JobSuccess, String> {
    if let Some(stall) = faults.delay(job.id, attempt) {
        std::thread::sleep(stall);
    }
    assert!(
        !faults.should_panic(job.id, attempt),
        "injected failure: job {} attempt {attempt}",
        job.id
    );

    let t_sim = Instant::now();
    let sim = cache.get_or_build(&job.optics)?;
    let sim_ms = t_sim.elapsed().as_secs_f64() * 1e3;

    let t_opt = Instant::now();
    let mut result = MultiLevelIlt::new(sim.clone(), job.ilt.clone()).run(&job.target, schedule);
    let optimize_ms = t_opt.elapsed().as_secs_f64() * 1e3;
    if faults.poison_nan(job.id, attempt) {
        result.mask[(0, 0)] = f64::NAN;
    }
    // Numeric guard: never let a non-finite value reach the journal or the
    // stitcher. The reason is typed ("numeric") so the journal summary and
    // the server's failure counters can track it separately; the failure is
    // ordinary and retryable like any other.
    if !result.mask.as_slice().iter().all(|v| v.is_finite()) {
        return Err(format!(
            "numeric: non-finite values in optimized mask (job {} attempt {attempt})",
            job.id
        ));
    }

    let t_eval = Instant::now();
    let report = evaluate_mask(&sim, &job.target, &result.mask, t_opt.elapsed());
    let evaluate_ms = t_eval.elapsed().as_secs_f64() * 1e3;
    if !(report.l2_nm2.is_finite() && report.pvband_nm2.is_finite()) {
        return Err(format!(
            "numeric: non-finite evaluation metrics (job {} attempt {attempt})",
            job.id
        ));
    }

    let metrics = JobMetrics {
        l2_nm2: report.l2_nm2,
        pvband_nm2: report.pvband_nm2,
        epe_violations: report.epe_violations(),
        shots: report.shots,
        iterations: result.total_iterations,
        mask_hash: field_hash(&result.mask),
    };
    Ok(JobSuccess {
        mask: result.mask,
        metrics,
        times: StageTimes { sim_ms, optimize_ms, evaluate_ms },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_core::Stage;

    fn small_job() -> IltJob {
        let n = 64;
        let target = Field2D::from_fn(n, n, |r, c| {
            if (24..40).contains(&r) && (16..48).contains(&c) { 1.0 } else { 0.0 }
        });
        IltJob {
            id: 0,
            case: "unit".into(),
            tile: None,
            target,
            optics: OpticsConfig {
                grid: n,
                nm_per_px: 8.0,
                num_kernels: 3,
                ..OpticsConfig::default()
            },
            ilt: IltConfig::default(),
            schedule: vec![Stage::low_res(2, 4)],
        }
    }

    /// An attempt with the job's own (full) recipe.
    fn own_recipe(
        job: &IltJob,
        attempt: u32,
        cache: &SimulatorCache,
        faults: &FaultPlan,
    ) -> Result<JobSuccess, String> {
        run_attempt(job, &job.schedule, attempt, cache, faults)
    }

    fn panics(n: u32) -> FaultPlan {
        FaultPlan::parse(&format!("panic@0:1-{n}")).unwrap()
    }

    #[test]
    fn attempt_produces_mask_and_metrics() {
        let cache = SimulatorCache::new();
        let out = own_recipe(&small_job(), 1, &cache, &FaultPlan::none()).expect("job runs");
        assert_eq!(out.mask.shape(), (64, 64));
        assert_eq!(out.metrics.iterations, 4);
        assert!(out.metrics.l2_nm2.is_finite());
        assert!(out.times.optimize_ms > 0.0);
    }

    #[test]
    fn attempts_are_deterministic() {
        let cache = SimulatorCache::new();
        let a = own_recipe(&small_job(), 1, &cache, &FaultPlan::none()).unwrap();
        let b = own_recipe(&small_job(), 1, &cache, &FaultPlan::none()).unwrap();
        assert_eq!(a.metrics.mask_hash, b.metrics.mask_hash);
        assert_eq!(a.metrics.l2_nm2.to_bits(), b.metrics.l2_nm2.to_bits());
    }

    #[test]
    #[should_panic(expected = "injected failure")]
    fn injected_failure_panics_until_budget_spent() {
        let cache = SimulatorCache::new();
        let _ = own_recipe(&small_job(), 1, &cache, &panics(1));
    }

    #[test]
    fn injected_failure_clears_on_retry() {
        let cache = SimulatorCache::new();
        assert!(own_recipe(&small_job(), 2, &cache, &panics(1)).is_ok());
    }

    #[test]
    fn bad_optics_is_an_error_not_a_panic() {
        let cache = SimulatorCache::new();
        let mut job = small_job();
        job.optics.grid = 100; // not a power of two
        assert!(own_recipe(&job, 1, &cache, &FaultPlan::none()).is_err());
    }

    #[test]
    fn poisoned_result_trips_the_numeric_guard() {
        let cache = SimulatorCache::new();
        let faults = FaultPlan::parse("nan@0:1").unwrap();
        let err = own_recipe(&small_job(), 1, &cache, &faults).unwrap_err();
        assert!(err.starts_with("numeric:"), "{err}");
        // The next attempt (no fault) is clean.
        assert!(own_recipe(&small_job(), 2, &cache, &faults).is_ok());
    }

    #[test]
    fn degraded_schedule_is_the_coarsest_low_res_stage() {
        let mut job = small_job();
        job.schedule = vec![Stage::low_res(4, 10), Stage::low_res(2, 5), Stage::high_res(1, 3)];
        assert_eq!(job.degraded_schedule(), Some(vec![Stage::low_res(4, 10)]));
        // A schedule that already *is* its own coarsest pass has no cheaper
        // fallback.
        job.schedule = vec![Stage::low_res(2, 4)];
        assert!(job.degraded_schedule().is_none());
        job.schedule.clear();
        assert!(job.degraded_schedule().is_none());
    }

    #[test]
    fn degraded_attempt_runs_the_fallback_recipe() {
        let cache = SimulatorCache::new();
        let mut job = small_job();
        job.schedule = vec![Stage::low_res(2, 4), Stage::high_res(1, 2)];
        let fallback = job.degraded_schedule().expect("fallback exists");
        let out =
            run_attempt(&job, &fallback, 3, &cache, &FaultPlan::none()).expect("fallback runs");
        assert_eq!(out.mask.shape(), (64, 64));
        assert_eq!(out.metrics.iterations, 4, "only the coarse stage runs");
    }
}
