//! A std-only attempt pool with retries, timeouts, and panic isolation.
//!
//! One supervisor loop on the caller's thread drains a queue of
//! [`IltJob`]s, keeping at most `threads` attempts live. Each *attempt*
//! runs on a dedicated short-lived thread behind `catch_unwind` and reports
//! `(slot, attempt, result)` on one shared `mpsc` channel; the loop waits on
//! that channel, with `recv_timeout` until the oldest live attempt's
//! deadline when the batch has a timeout. No other thread exists: nothing
//! sleeps while an attempt computes except the loop itself, which joins
//! each attempt thread that reported before it starts the next. That split
//! buys two properties:
//!
//! - a panicking job becomes a failed attempt (possibly retried), never a
//!   torn-down loop or an aborted process;
//! - a wedged job times out at the loop while the runaway thread is
//!   abandoned to finish (or spin) in the background and its late report is
//!   ignored — the pool's throughput degrades by one concurrent slot at
//!   worst, but the batch completes.
//!
//! When the retry budget runs dry and degradation is enabled, the job goes
//! back to the front of the queue once more with its degraded recipe (the
//! coarsest low-resolution pass), numbered as the next attempt so fault
//! plans can target it; success yields a [`JobStatus::Degraded`] record
//! whose mask is real, corrected output — just coarse.
//!
//! Results are collected into a vector indexed by submission order, so the
//! output — and the journal built from it — is byte-identical no matter how
//! many attempts ran at once. Each finished job is optionally pushed
//! through a [`CheckpointSink`] on the loop thread the moment its outcome is
//! known, making progress durable long before the pool drains.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use ilt_core::Stage;
use ilt_fft::{hold_core, with_installed_scratch, ScratchPool};
use ilt_field::Field2D;

use crate::batch::BatchConfig;
use crate::cache::SimulatorCache;
use crate::checkpoint::CheckpointSink;
use crate::job::{run_attempt, IltJob, JobSuccess};
use crate::journal::{JobRecord, JobStatus};

/// A finished job: its journal record plus the mask when it succeeded.
#[derive(Clone, Debug)]
pub struct JobOutput {
    /// Journal record (always present, also for failed jobs).
    pub record: JobRecord,
    /// Final mask; `None` when every attempt failed.
    pub mask: Option<Field2D>,
}

struct Queued {
    /// Shared with the attempt threads, which may outlive the pool.
    job: Arc<IltJob>,
    /// Index into the outputs (submission order, not job id).
    slot: usize,
    /// 1-based attempt about to run.
    attempt: u32,
    /// Wall-time already burned by failed attempts, in ms.
    spent_ms: f64,
    /// Once the retries are used up: the degraded recipe, and the error
    /// that used them up.
    fallback: Option<(Vec<Stage>, String)>,
}

/// What an attempt thread sends back: `(slot, attempt, result)`.
type Report = (usize, u32, Result<JobSuccess, String>);

/// Runs `jobs` to completion, at most `config.threads` attempts at once,
/// under the batch's resilience policy (`timeout`, `max_retries`,
/// `degrade`, `faults`, `cancel`, `progress`).
///
/// The returned vector is ordered like `jobs` regardless of scheduling; a
/// job exhausted of retries yields a [`JobStatus::Degraded`] record (when
/// the fallback pass succeeds) or a [`JobStatus::Failed`] record with no
/// mask rather than an `Err`, so one bad tile cannot sink a batch. With a
/// `sink`, every finished job is persisted (mask + WAL line) the moment its
/// outcome is known, so a crash mid-run loses at most the jobs in flight.
///
/// # Panics
///
/// Panics if `config.threads == 0` or if attempt threads cannot be spawned.
pub fn run_jobs(
    jobs: Vec<IltJob>,
    config: &BatchConfig,
    cache: &SimulatorCache,
    sink: Option<&CheckpointSink>,
) -> Vec<JobOutput> {
    assert!(config.threads >= 1, "pool needs at least one thread");
    let mut outputs: Vec<Option<JobOutput>> = jobs.iter().map(|_| None).collect();
    let mut queue: VecDeque<Queued> = jobs
        .into_iter()
        .enumerate()
        .map(|(slot, job)| {
            Queued { job: Arc::new(job), slot, attempt: 1, spent_ms: 0.0, fallback: None }
        })
        .collect();
    // Live attempts in start order, so the first has the earliest deadline.
    let mut live: Vec<(Queued, Instant, JoinHandle<()>)> = Vec::with_capacity(config.threads);
    let (tx, rx) = mpsc::channel::<Report>();
    loop {
        while live.len() < config.threads {
            let Some(queued) = queue.pop_front() else { break };
            // The tile boundary: a cancellation observed here turns the
            // popped job (and, one by one, the rest of the queue) into a
            // cancelled record without starting its attempt. Retries and
            // fallbacks of a live job land back on the queue and are swept
            // up the same way. Cancelled outputs are deliberately not
            // checkpointed — on a resume they are exactly the jobs that
            // should run.
            if config.cancel.is_cancelled() {
                // No attempt runs for this pop: count only those spent.
                let Queued { job, slot, attempt, spent_ms, .. } = queued;
                let status = JobStatus::Cancelled;
                outputs[slot] = Some(output(&job, attempt - 1, status, spent_ms, None));
                continue;
            }
            let thread = spawn_attempt(&queued, config, cache, tx.clone());
            live.push((queued, Instant::now(), thread));
        }
        let Some(&(_, oldest, _)) = live.first() else { break };
        let report = match config.timeout {
            Some(budget) => {
                rx.recv_timeout(budget.saturating_sub(oldest.elapsed())).map_err(|_| budget)
            }
            None => Ok(rx.recv().expect("the loop holds a sender")),
        };
        let (Queued { job, slot, attempt, spent_ms, fallback }, started, result) = match report {
            Ok((slot, attempt, result)) => {
                let at = live.iter().position(|(q, ..)| (q.slot, q.attempt) == (slot, attempt));
                // Not live: the late report of a timed-out, abandoned attempt.
                let Some(at) = at else { continue };
                // The reporter is exiting. Joining it before the next spawn
                // frees its malloc arena for that thread (glibc gives a new
                // thread a free arena if there is one): without the join,
                // 128-px tiles optimize 20-30 % slower on a 2-core box.
                let (queued, started, thread) = live.remove(at);
                thread.join().expect("an attempt thread does nothing after its report");
                (queued, started, result)
            }
            Err(budget) => {
                let (queued, started, _abandoned) = live.remove(0);
                let secs = budget.as_secs_f64();
                let error = format!("timed out after {secs:.1}s (attempt thread abandoned)");
                (queued, started, Err(error))
            }
        };
        let spent_ms = spent_ms + started.elapsed().as_secs_f64() * 1e3;
        let (status, attempts, success) = match (result, fallback) {
            (Ok(success), None) => (JobStatus::Done, attempt, Some(success)),
            // The fallback is numbered after the last full-recipe attempt,
            // which is all the record counts.
            (Ok(success), Some((_, why))) => (JobStatus::Degraded(why), attempt - 1, Some(success)),
            (Err(_), Some((_, why))) => (JobStatus::Failed(why), attempt - 1, None),
            (Err(error), None) => {
                let next = attempt + 1;
                if attempt <= config.max_retries {
                    queue.push_back(Queued { job, slot, attempt: next, spent_ms, fallback: None });
                    continue;
                }
                match job.degraded_schedule().filter(|_| config.degrade) {
                    Some(recipe) => {
                        let fallback = Some((recipe, error));
                        queue.push_front(Queued { job, slot, attempt: next, spent_ms, fallback });
                        continue;
                    }
                    None => (JobStatus::Failed(error), attempt, None),
                }
            }
        };
        let finished = output(&job, attempts, status, spent_ms, success);
        if let Some(sink) = sink {
            sink.persist(&finished);
        }
        config.progress.tick();
        outputs[slot] = Some(finished);
    }
    outputs
        .into_iter()
        .map(|slot| slot.expect("every job slot filled when the pool drains"))
        .collect()
}

/// Process-wide recycling of FFT workspaces across attempt threads.
///
/// Every attempt runs on a fresh short-lived thread, whose thread-local FFT
/// arena would start cold: grown buffers gone, memoized twist tables gone.
/// Checking a workspace out of this pool and installing it for the attempt's
/// duration makes the warm state survive thread turnover — a workspace that
/// simulated a given tile shape once carries its tables to every later
/// attempt of that shape. A timed-out attempt's abandoned thread simply
/// never returns its workspace; the pool grows a new one on the next
/// checkout.
fn scratch_pool() -> &'static ScratchPool {
    static POOL: OnceLock<ScratchPool> = OnceLock::new();
    POOL.get_or_init(ScratchPool::new)
}

/// Starts one attempt on its own thread so panics and overruns stay
/// contained; the thread reports on `tx` whether or not the loop still
/// listens.
fn spawn_attempt(
    queued: &Queued,
    config: &BatchConfig,
    cache: &SimulatorCache,
    tx: mpsc::Sender<Report>,
) -> JoinHandle<()> {
    let (slot, attempt) = (queued.slot, queued.attempt);
    let schedule = queued.fallback.as_ref().map_or(&queued.job.schedule, |(s, _)| s).clone();
    let job = Arc::clone(&queued.job);
    let cache = cache.clone();
    let faults = config.faults.clone();
    thread::Builder::new()
        .name(format!("ilt-job-{}-a{attempt}", job.id))
        .spawn(move || {
            let pool = scratch_pool();
            let mut workspace = pool.checkout();
            // The attempt holds its core: a fork inside it borrows a helper
            // only when another core is idle.
            let result = catch_unwind(AssertUnwindSafe(|| {
                with_installed_scratch(&mut workspace, || {
                    hold_core(|| run_attempt(&job, &schedule, attempt, &cache, &faults))
                })
            }));
            // Recycle the workspace even after a panic: the installed-scratch
            // guard has already swapped the (grown) arena state back into it.
            pool.restore(workspace);
            let result = result.unwrap_or_else(|payload| {
                Err(format!("panic: {}", panic_message(payload.as_ref())))
            });
            // The receiver is gone once the pool drains; nothing to do.
            let _ = tx.send((slot, attempt, result));
        })
        .expect("spawn job attempt thread")
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// A job's output; metrics, stage times and mask come from `success`.
fn output(
    job: &IltJob,
    attempts: u32,
    status: JobStatus,
    wall_ms: f64,
    success: Option<JobSuccess>,
) -> JobOutput {
    let (metrics, times, mask) = match success {
        Some(s) => (Some(s.metrics), s.times, Some(s.mask)),
        None => (None, Default::default(), None),
    };
    let record = JobRecord {
        job_id: job.id,
        case: job.case.clone(),
        tile: job.tile.as_ref().map(|t| (t.grid_row, t.grid_col)),
        grid: job.target.shape().0,
        attempts,
        status,
        metrics,
        times,
        wall_ms,
    };
    JobOutput { record, mask }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use std::time::Duration;
    use ilt_core::{IltConfig, Stage};
    use ilt_optics::OpticsConfig;

    fn job(id: usize) -> IltJob {
        let n = 64;
        let target = Field2D::from_fn(n, n, |r, c| {
            if (20 + id % 3..44).contains(&r) && (16..48).contains(&c) { 1.0 } else { 0.0 }
        });
        IltJob {
            id,
            case: format!("case{}", id / 2),
            tile: None,
            target,
            optics: OpticsConfig {
                grid: n,
                nm_per_px: 8.0,
                num_kernels: 3,
                ..OpticsConfig::default()
            },
            ilt: IltConfig::default(),
            schedule: vec![Stage::low_res(2, 3)],
        }
    }

    /// A job whose schedule has a cheaper coarse stage to fall back to.
    fn two_stage_job(id: usize) -> IltJob {
        let mut j = job(id);
        j.schedule = vec![Stage::low_res(2, 3), Stage::high_res(1, 2)];
        j
    }

    #[test]
    fn pool_preserves_submission_order() {
        let cache = SimulatorCache::new();
        let jobs: Vec<_> = (0..5).map(job).collect();
        let config = BatchConfig { threads: 3, ..BatchConfig::default() };
        let outputs = run_jobs(jobs, &config, &cache, None);
        assert_eq!(outputs.len(), 5);
        for (i, out) in outputs.iter().enumerate() {
            assert_eq!(out.record.job_id, i);
            assert!(matches!(out.record.status, JobStatus::Done));
            assert!(out.mask.is_some());
        }
        // All five jobs share one optics configuration.
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn injected_panic_is_retried_and_succeeds() {
        let cache = SimulatorCache::new();
        let outputs = run_jobs(
            vec![job(0)],
            &BatchConfig {
                threads: 1,
                max_retries: 1,
                faults: FaultPlan::parse("panic@0:1").unwrap(),
                ..BatchConfig::default()
            },
            &cache,
            None,
        );
        assert!(matches!(outputs[0].record.status, JobStatus::Done));
        assert_eq!(outputs[0].record.attempts, 2);
        assert!(outputs[0].mask.is_some());
    }

    #[test]
    fn retries_are_bounded_and_failure_is_isolated() {
        let cache = SimulatorCache::new();
        // Job 0 always panics (fallback included); job 1 is healthy — the
        // batch still completes.
        let outputs = run_jobs(
            vec![job(0), job(1)],
            &BatchConfig {
                threads: 2,
                max_retries: 2,
                faults: FaultPlan::parse("panic@0").unwrap(),
                ..BatchConfig::default()
            },
            &cache,
            None,
        );
        match &outputs[0].record.status {
            JobStatus::Failed(msg) => assert!(msg.contains("injected failure"), "{msg}"),
            other => panic!("expected failure, got {other:?}"),
        }
        assert_eq!(outputs[0].record.attempts, 3, "1 initial + 2 retries");
        assert!(outputs[0].mask.is_none());
        assert!(matches!(outputs[1].record.status, JobStatus::Done));
    }

    #[test]
    fn exhausted_retries_fall_back_to_degraded_low_res() {
        let cache = SimulatorCache::new();
        // Panic on attempts 1..=2 (initial + the one retry); the degraded
        // attempt is attempt 3 and is clean.
        let outputs = run_jobs(
            vec![two_stage_job(0)],
            &BatchConfig {
                threads: 1,
                max_retries: 1,
                faults: FaultPlan::parse("panic@0:1-2").unwrap(),
                ..BatchConfig::default()
            },
            &cache,
            None,
        );
        match &outputs[0].record.status {
            JobStatus::Degraded(why) => assert!(why.contains("injected failure"), "{why}"),
            other => panic!("expected degraded, got {other:?}"),
        }
        let metrics = outputs[0].record.metrics.expect("degraded results carry metrics");
        assert_eq!(metrics.iterations, 3, "only the coarse stage ran");
        assert!(outputs[0].mask.is_some(), "degraded results carry a usable mask");
        // With degradation off the same run fails outright.
        let outputs = run_jobs(
            vec![two_stage_job(0)],
            &BatchConfig {
                threads: 1,
                max_retries: 1,
                degrade: false,
                faults: FaultPlan::parse("panic@0:1-2").unwrap(),
                ..BatchConfig::default()
            },
            &cache,
            None,
        );
        assert!(matches!(outputs[0].record.status, JobStatus::Failed(_)));
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let digest_with = |threads: usize| {
            let cache = SimulatorCache::new();
            let jobs: Vec<_> = (0..4).map(job).collect();
            let outputs = run_jobs(
                jobs,
                &BatchConfig { threads, ..BatchConfig::default() },
                &cache,
                None,
            );
            outputs
                .iter()
                .map(|o| o.record.to_json_opts(false))
                .collect::<Vec<_>>()
        };
        assert_eq!(digest_with(1), digest_with(2));
    }

    #[test]
    fn timeout_marks_job_failed() {
        let cache = SimulatorCache::new();
        let mut j = job(0);
        // Plenty of iterations at full resolution: will not finish in 1 ms.
        j.schedule = vec![Stage::high_res(1, 500)];
        let outputs = run_jobs(
            vec![j],
            &BatchConfig {
                threads: 1,
                timeout: Some(Duration::from_millis(1)),
                max_retries: 0,
                degrade: false,
                faults: FaultPlan::none(),
                ..BatchConfig::default()
            },
            &cache,
            None,
        );
        match &outputs[0].record.status {
            JobStatus::Failed(msg) => assert!(msg.contains("timed out"), "{msg}"),
            other => panic!("expected timeout failure, got {other:?}"),
        }
    }

    #[test]
    fn injected_delay_trips_the_timeout_then_recovers() {
        let cache = SimulatorCache::new();
        let j = job(0);
        // Prewarm so the clean retry only pays for optimization, keeping
        // the timeout budget honest in slow debug builds.
        cache.get_or_build(&j.optics).unwrap();
        // The unfaulted reference runs under a budget no deadline can hold.
        let unbounded = BatchConfig { timeout: Some(Duration::MAX), ..BatchConfig::default() };
        let clean = run_jobs(vec![j.clone()], &unbounded, &cache, None);
        // Attempt 1 overstays the 3 s budget by 0.3 s, so its late report
        // lands while attempt 2 (1 s stall) is still live and is ignored.
        let outputs = run_jobs(
            vec![j],
            &BatchConfig {
                threads: 1,
                timeout: Some(Duration::from_secs(3)),
                max_retries: 1,
                degrade: true,
                faults: FaultPlan::parse("delay@0:1=3300,delay@0:2=1000").unwrap(),
                ..BatchConfig::default()
            },
            &cache,
            None,
        );
        let record = &outputs[0].record;
        assert!(matches!(record.status, JobStatus::Done), "retry is clean: {:?}", record.status);
        assert_eq!(record.attempts, 2);
        assert!(record.wall_ms >= 4_000.0, "the full timeout plus attempt 2's stall");
        let hash = |o: &JobOutput| o.record.metrics.expect("a done job has metrics").mask_hash;
        assert_eq!(hash(&outputs[0]), hash(&clean[0]), "same mask as an unfaulted run");
    }

    #[test]
    fn pre_cancelled_pool_drains_without_running_anything() {
        let cache = SimulatorCache::new();
        let config = BatchConfig { threads: 2, ..BatchConfig::default() };
        config.cancel.cancel();
        let outputs = run_jobs((0..4).map(job).collect(), &config, &cache, None);
        assert_eq!(outputs.len(), 4);
        for out in &outputs {
            assert!(matches!(out.record.status, JobStatus::Cancelled), "{:?}", out.record);
            assert!(out.mask.is_none());
        }
        assert_eq!(cache.len(), 0, "no attempt ever touched the simulator");
        assert_eq!(config.progress.done(), 0, "cancelled jobs are not progress");
    }

    #[test]
    fn mid_run_cancellation_finishes_the_in_flight_job_only() {
        let cache = SimulatorCache::new();
        // Job 0 sleeps 400 ms before running; the cancel lands during that
        // window, so job 0 (already in flight) completes while jobs 1..3
        // are swept off the queue as cancelled.
        let config = BatchConfig {
            threads: 1,
            faults: FaultPlan::parse("delay@0:1=400").unwrap(),
            ..BatchConfig::default()
        };
        let token = config.cancel.clone();
        let canceller = thread::spawn(move || {
            thread::sleep(Duration::from_millis(50));
            token.cancel();
        });
        let outputs = run_jobs((0..4).map(job).collect(), &config, &cache, None);
        canceller.join().unwrap();
        assert!(matches!(outputs[0].record.status, JobStatus::Done), "{:?}", outputs[0].record);
        for out in &outputs[1..] {
            assert!(matches!(out.record.status, JobStatus::Cancelled), "{:?}", out.record);
        }
        assert_eq!(config.progress.done(), 1, "only the in-flight job counts");
    }

    #[test]
    fn progress_counts_every_executed_job() {
        let cache = SimulatorCache::new();
        let config = BatchConfig { threads: 2, ..BatchConfig::default() };
        let progress = config.progress.clone();
        assert_eq!(progress.done(), 0);
        let outputs = run_jobs((0..5).map(job).collect(), &config, &cache, None);
        assert_eq!(outputs.len(), 5);
        assert_eq!(progress.done(), 5, "failed and done jobs both tick progress");
    }

    #[test]
    fn nan_poison_retries_then_degrades_when_persistent() {
        let cache = SimulatorCache::new();
        // Poisoned on attempts 1..=2, clean on the degraded attempt 3.
        let outputs = run_jobs(
            vec![two_stage_job(0)],
            &BatchConfig {
                threads: 1,
                max_retries: 1,
                faults: FaultPlan::parse("nan@0:1-2").unwrap(),
                ..BatchConfig::default()
            },
            &cache,
            None,
        );
        match &outputs[0].record.status {
            JobStatus::Degraded(why) => assert!(why.starts_with("numeric:"), "{why}"),
            other => panic!("expected degraded-after-numeric, got {other:?}"),
        }
    }
}
