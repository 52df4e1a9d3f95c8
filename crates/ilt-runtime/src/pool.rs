//! A std-only worker pool with retries, timeouts, and panic isolation.
//!
//! N worker threads drain a shared queue of [`IltJob`]s. Each *attempt* runs
//! on a dedicated short-lived thread behind `catch_unwind`, reporting back
//! over an `mpsc` channel; the worker waits with `recv_timeout`. That split
//! buys two properties the workers themselves could not provide:
//!
//! - a panicking job becomes a failed attempt (possibly retried), never a
//!   torn-down worker or an aborted process;
//! - a wedged job times out at the worker while the runaway thread is
//!   abandoned to finish (or spin) in the background — the pool's throughput
//!   degrades by one concurrent slot at worst, but the batch completes.
//!
//! When the retry budget runs dry and degradation is enabled, the worker
//! makes one final attempt with the job's degraded recipe (the coarsest
//! low-resolution pass); success yields a [`JobStatus::Degraded`] record
//! whose mask is real, corrected output — just coarse.
//!
//! Results are collected into a vector indexed by submission order, so the
//! output — and the journal built from it — is byte-identical no matter how
//! many workers raced over the queue. Each finished job is optionally pushed
//! through a [`CheckpointSink`] the moment it completes, making progress
//! durable long before the pool drains.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread;
use std::time::Instant;

use ilt_fft::{with_installed_scratch, ScratchPool};
use ilt_field::Field2D;

use crate::batch::BatchConfig;
use crate::cache::SimulatorCache;
use crate::checkpoint::CheckpointSink;
use crate::job::{run_attempt, run_degraded_attempt, IltJob, JobSuccess};
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
    job: IltJob,
    /// Index into `outputs` (submission order, not job id).
    slot: usize,
    /// 1-based attempt about to run.
    attempt: u32,
    /// Wall-time already burned by failed attempts, in ms.
    spent_ms: f64,
}

struct State {
    queue: VecDeque<Queued>,
    in_flight: usize,
    /// Slot `i` holds the output of `jobs[i]`, filled as jobs finish.
    outputs: Vec<Option<JobOutput>>,
}

struct Shared {
    state: Mutex<State>,
    wakeup: Condvar,
}

/// Runs `jobs` to completion on `config.threads` workers under the batch's
/// resilience policy (`timeout`, `max_retries`, `degrade`, `faults`,
/// `cancel`, `progress`).
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
/// Panics if `config.threads == 0` or if worker threads cannot be spawned.
pub fn run_jobs(
    jobs: Vec<IltJob>,
    config: &BatchConfig,
    cache: &SimulatorCache,
    sink: Option<&CheckpointSink>,
) -> Vec<JobOutput> {
    assert!(config.threads >= 1, "pool needs at least one worker");
    let n = jobs.len();
    let shared = Shared {
        state: Mutex::new(State {
            queue: jobs
                .into_iter()
                .enumerate()
                .map(|(slot, job)| Queued { job, slot, attempt: 1, spent_ms: 0.0 })
                .collect(),
            in_flight: 0,
            outputs: (0..n).map(|_| None).collect(),
        }),
        wakeup: Condvar::new(),
    };

    thread::scope(|scope| {
        for w in 0..config.threads {
            let shared = &shared;
            thread::Builder::new()
                .name(format!("ilt-worker-{w}"))
                .spawn_scoped(scope, move || worker_loop(shared, config, cache, sink))
                .expect("spawn worker thread");
        }
    });

    let state = shared.state.into_inner().expect("pool state lock poisoned");
    state
        .outputs
        .into_iter()
        .map(|slot| slot.expect("every job slot filled when the pool drains"))
        .collect()
}

fn worker_loop(
    shared: &Shared,
    config: &BatchConfig,
    cache: &SimulatorCache,
    sink: Option<&CheckpointSink>,
) {
    loop {
        let queued = {
            let mut state = shared.state.lock().expect("pool state lock poisoned");
            loop {
                if let Some(q) = state.queue.pop_front() {
                    state.in_flight += 1;
                    break q;
                }
                if state.in_flight == 0 {
                    return; // queue drained and nobody can refill it
                }
                state = shared.wakeup.wait(state).expect("pool state lock poisoned");
            }
        };

        // The tile boundary: a cancellation observed here turns the popped
        // job (and, one by one, the rest of the queue) into a cancelled
        // record without starting its attempt. Retries of an in-flight job
        // land back on the queue and are swept up the same way. Cancelled
        // outputs are deliberately not checkpointed — on a resume they are
        // exactly the jobs that should run.
        if config.cancel.is_cancelled() {
            let output = cancelled(&queued);
            let mut state = shared.state.lock().expect("pool state lock poisoned");
            state.outputs[queued.slot] = Some(output);
            state.in_flight -= 1;
            shared.wakeup.notify_all();
            continue;
        }

        let started = Instant::now();
        let outcome = execute_attempt(&queued.job, queued.attempt, false, config, cache);
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

        let finished_output = match outcome {
            Ok(success) => Some(finished(&queued, success, elapsed_ms)),
            Err(_) if queued.attempt <= config.max_retries => {
                let mut state = shared.state.lock().expect("pool state lock poisoned");
                state.queue.push_back(Queued {
                    job: queued.job,
                    slot: queued.slot,
                    attempt: queued.attempt + 1,
                    spent_ms: queued.spent_ms + elapsed_ms,
                });
                state.in_flight -= 1;
                shared.wakeup.notify_all();
                continue;
            }
            Err(error) => {
                // Retry budget spent: one last stand with the degraded
                // recipe, numbered as the next attempt so fault plans can
                // target (and kill) the fallback too.
                let fallback = if config.degrade {
                    let t = Instant::now();
                    let out =
                        execute_attempt(&queued.job, queued.attempt + 1, true, config, cache);
                    (out, t.elapsed().as_secs_f64() * 1e3)
                } else {
                    (Err(String::new()), 0.0)
                };
                match fallback {
                    (Ok(success), degraded_ms) => {
                        Some(degraded(&queued, success, error, elapsed_ms + degraded_ms))
                    }
                    (Err(_), degraded_ms) => {
                        Some(failed(&queued, error, elapsed_ms + degraded_ms))
                    }
                }
            }
        };

        let output = finished_output.expect("non-retry outcomes always produce an output");
        // Durability first, outside the pool lock: the WAL append and mask
        // write are I/O and must not serialize the other workers.
        if let Some(sink) = sink {
            sink.persist(&output);
        }
        config.progress.tick();
        let mut state = shared.state.lock().expect("pool state lock poisoned");
        state.outputs[queued.slot] = Some(output);
        state.in_flight -= 1;
        // Wake peers: a retry was enqueued, or the pool may now be drained.
        shared.wakeup.notify_all();
    }
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

/// Runs one attempt on its own thread so panics and overruns stay contained.
fn execute_attempt(
    job: &IltJob,
    attempt: u32,
    degraded: bool,
    config: &BatchConfig,
    cache: &SimulatorCache,
) -> Result<JobSuccess, String> {
    let (tx, rx) = mpsc::channel();
    let job = job.clone();
    let cache = cache.clone();
    let faults = config.faults.clone();
    let id = job.id;
    thread::Builder::new()
        .name(format!("ilt-job-{id}-a{attempt}"))
        .spawn(move || {
            let pool = scratch_pool();
            let mut workspace = pool.checkout();
            let result = catch_unwind(AssertUnwindSafe(|| {
                with_installed_scratch(&mut workspace, || {
                    if degraded {
                        run_degraded_attempt(&job, attempt, &cache, &faults)
                            .unwrap_or_else(|| Err("no degraded recipe for this job".into()))
                    } else {
                        run_attempt(&job, attempt, &cache, &faults)
                    }
                })
            }));
            // Recycle the workspace even after a panic: the installed-scratch
            // guard has already swapped the (grown) arena state back into it.
            pool.restore(workspace);
            let flattened = match result {
                Ok(run) => run,
                Err(payload) => Err(format!("panic: {}", panic_message(payload.as_ref()))),
            };
            // The receiver is gone on timeout; nothing to do about it.
            let _ = tx.send(flattened);
        })
        .expect("spawn job attempt thread");

    match config.timeout {
        Some(budget) => rx.recv_timeout(budget).unwrap_or_else(|err| match err {
            mpsc::RecvTimeoutError::Timeout => Err(format!(
                "timed out after {:.1}s (attempt thread abandoned)",
                budget.as_secs_f64()
            )),
            mpsc::RecvTimeoutError::Disconnected => {
                Err("attempt thread died without reporting".into())
            }
        }),
        None => rx
            .recv()
            .unwrap_or_else(|_| Err("attempt thread died without reporting".into())),
    }
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

fn base_record(queued: &Queued, status: JobStatus, wall_ms: f64) -> JobRecord {
    JobRecord {
        job_id: queued.job.id,
        case: queued.job.case.clone(),
        tile: queued.job.tile.as_ref().map(|t| (t.grid_row, t.grid_col)),
        grid: queued.job.target.shape().0,
        attempts: queued.attempt,
        status,
        metrics: None,
        times: Default::default(),
        wall_ms: queued.spent_ms + wall_ms,
    }
}

fn finished(queued: &Queued, success: JobSuccess, elapsed_ms: f64) -> JobOutput {
    let mut record = base_record(queued, JobStatus::Done, elapsed_ms);
    record.metrics = Some(success.metrics);
    record.times = success.times;
    JobOutput { record, mask: Some(success.mask) }
}

fn degraded(queued: &Queued, success: JobSuccess, why: String, elapsed_ms: f64) -> JobOutput {
    let mut record = base_record(queued, JobStatus::Degraded(why), elapsed_ms);
    record.metrics = Some(success.metrics);
    record.times = success.times;
    JobOutput { record, mask: Some(success.mask) }
}

fn failed(queued: &Queued, error: String, elapsed_ms: f64) -> JobOutput {
    JobOutput { record: base_record(queued, JobStatus::Failed(error), elapsed_ms), mask: None }
}

fn cancelled(queued: &Queued) -> JobOutput {
    let mut record = base_record(queued, JobStatus::Cancelled, 0.0);
    // No attempt ran for this pop; report only the attempts already spent.
    record.attempts = queued.attempt.saturating_sub(1);
    JobOutput { record, mask: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan, FaultSpec};
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
                faults: FaultPlan::none().with(FaultSpec::through(0, 1, FaultKind::Panic)),
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
                faults: FaultPlan::none().with(FaultSpec::always(0, FaultKind::Panic)),
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
                faults: FaultPlan::none().with(FaultSpec::through(0, 2, FaultKind::Panic)),
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
                faults: FaultPlan::none().with(FaultSpec::through(0, 2, FaultKind::Panic)),
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
        let outputs = run_jobs(
            vec![j],
            &BatchConfig {
                threads: 1,
                timeout: Some(Duration::from_secs(5)),
                max_retries: 1,
                degrade: true,
                faults: FaultPlan::none()
                    .with(FaultSpec::at(0, 1, FaultKind::Delay { ms: 60_000 })),
                ..BatchConfig::default()
            },
            &cache,
            None,
        );
        assert!(
            matches!(outputs[0].record.status, JobStatus::Done),
            "retry is clean, got {:?}",
            outputs[0].record.status
        );
        assert_eq!(outputs[0].record.attempts, 2);
        assert!(outputs[0].record.wall_ms >= 5_000.0, "attempt 1 burned the full timeout");
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
            faults: FaultPlan::none().with(FaultSpec::at(0, 1, FaultKind::Delay { ms: 400 })),
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
                faults: FaultPlan::none()
                    .with(FaultSpec::through(0, 2, FaultKind::PoisonNan)),
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
