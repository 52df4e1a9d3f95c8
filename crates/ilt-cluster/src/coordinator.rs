//! The coordinator half of sharded execution: splits one job's planned
//! tile set across worker replicas, supervises the shards, and merges the
//! per-tile outputs for central stitching.
//!
//! PR 6 dispatched `tile_id % N` over a fixed worker list; this version is
//! self-healing under partial, asymmetric, and transient failure:
//!
//! - **Dynamic membership**: workers join, drain, and leave a running
//!   coordinator ([`Coordinator::join`] etc., wired to `POST /v1/members`).
//!   Shards are split finer than the worker count and supervisors draw
//!   workers from the *live* set ([`Membership::acquire`]), so a replica
//!   that joins mid-job picks up queued shards immediately.
//! - **Death detection**: a monitor thread probes every member's
//!   `GET /healthz` on a fixed interval; after a configured number of
//!   consecutive failures the worker is marked dead (and revived on the
//!   next successful probe).
//! - **Quarantine**: each member carries a circuit [`Breaker`]
//!   (closed → open → half-open, decorrelated-jitter backoff). Consecutive
//!   *shard* failures open it and only a successful shard closes it — a
//!   flaky-but-alive worker whose heartbeats pass stops receiving
//!   dispatches without being declared dead.
//! - **Straggler speculation**: the coordinator tracks a running median of
//!   shard latency per job; a shard exceeding `speculate_factor × median`
//!   is speculatively re-executed on a second worker. First result wins;
//!   when the loser still delivers, the two results must agree (config
//!   fingerprint and per-job mask hashes) — disagreement poisons the whole
//!   job rather than emitting a possibly-wrong mask.
//! - **Re-dispatch**: a shard whose worker dies or flakes mid-exchange is
//!   re-sent — same shard id, same job ids — to the next admitted worker.
//!   The shard id keys the worker-side checkpoint WAL directory, so a
//!   replica that already holds partial results restores them instead of
//!   recomputing.
//! - **Cancel fan-out**: when the job's [`CancelToken`] fires, each
//!   in-flight shard gets a `DELETE /v1/shards/<sid>`; the coordinator
//!   then *keeps waiting* (bounded by the cancel grace period) for the
//!   worker's cancelled-at-tile-boundary records.
//! - **Lost shards**: a shard that exhausts its attempt budget (or finds
//!   no live worker) synthesizes terminal `failed` records carrying the
//!   full per-attempt history — worker, error, elapsed — so the journal
//!   explains *how* the shard died, not just that it did.
//!
//! Determinism: per-tile masks are bit-exact regardless of which replica
//! computed them (hash-verified in [`crate::wire`]), outputs are merged in
//! job-id order, and stitching/evaluation happen centrally — so any worker
//! count, split, join/leave schedule, or crash/re-dispatch history yields
//! byte-identical masks to a single-process `ilt batch` run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ilt_runtime::{
    CancelToken, JobOutput, JobRecord, JobStatus, PlannedJob, Progress, StageTimes,
};

use crate::breaker::BreakerConfig;
use crate::membership::{Acquire, MemberView, Membership, Settle, WorkerSlot};
use crate::stats::{family, ClusterStats};
use crate::transport::{request, Client, Reply};
use crate::wire::{encode_job_ids, parse_shard_header, parse_shard_job};

/// Connect timeout of every coordinator -> worker connection.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Cluster topology and supervision tuning.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Initial worker replica addresses (`host:port`); may be empty when
    /// workers will register themselves via `POST /v1/members`.
    pub workers: Vec<String>,
    /// Heartbeat probe interval; also the liveness-poll granularity while
    /// waiting on an in-flight shard.
    pub heartbeat: Duration,
    /// Consecutive failed probes before a worker is declared dead.
    pub heartbeat_failures: u32,
    /// After cancel fan-out (or a speculation loss), how long to keep
    /// waiting for a worker's records before giving up on the exchange.
    pub cancel_grace: Duration,
    /// Maximum shards dispatched to one worker concurrently.
    pub max_inflight_per_worker: u32,
    /// Dispatch attempts per shard before it is declared lost
    /// (0 = automatic: `max(4, 2 × members)`).
    pub max_shard_attempts: u32,
    /// Circuit-breaker tuning shared by every member.
    pub breaker: BreakerConfig,
    /// Speculate a shard once it runs longer than this multiple of the
    /// job's median shard latency (0.0 disables speculation).
    pub speculate_factor: f64,
    /// Completed-shard samples required before the median is trusted.
    pub speculate_min_samples: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            workers: Vec::new(),
            heartbeat: Duration::from_millis(500),
            heartbeat_failures: 3,
            cancel_grace: Duration::from_secs(10),
            max_inflight_per_worker: 2,
            max_shard_attempts: 0,
            breaker: BreakerConfig::default(),
            speculate_factor: 3.0,
            speculate_min_samples: 3,
        }
    }
}

/// Supervises a dynamic set of worker replicas and executes jobs across
/// them. Owned by the serving process; dropped (stopping the heartbeat
/// monitor) on shutdown.
pub struct Coordinator {
    config: ClusterConfig,
    members: Arc<Membership>,
    stats: Arc<ClusterStats>,
    /// Set (and notified) on drop; the monitor thread sleeps on it between
    /// heartbeats.
    stop: Arc<(Mutex<bool>, Condvar)>,
}

impl Coordinator {
    /// Builds the coordinator and starts its heartbeat monitor thread.
    /// The initial worker list may be empty — members can join later —
    /// but jobs fail until at least one worker is registered.
    ///
    /// # Errors
    ///
    /// Currently infallible; kept fallible for config validation growth.
    pub fn new(config: ClusterConfig) -> Result<Coordinator, String> {
        let members = Arc::new(Membership::new(&config.workers, config.breaker));
        let stats = Arc::new(ClusterStats::default());
        stats.members_joined.add(members.len() as u64);
        stats.workers_alive.store(members.len() as u64, Ordering::Relaxed);
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let members = Arc::clone(&members);
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            let config = config.clone();
            std::thread::spawn(move || monitor_loop(&config, &members, &stats, &stop));
        }
        Ok(Coordinator { config, members, stats, stop })
    }

    /// The live cluster metrics, for `/metrics` rendering.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// Registers a worker address. Returns `false` when it is already a
    /// member.
    pub fn join(&self, addr: &str) -> bool {
        let joined = self.members.join(addr);
        if joined {
            self.stats.members_joined.inc();
            self.publish_alive();
        }
        joined
    }

    /// Marks a worker as draining: in-flight shards finish, no new
    /// dispatches. Returns `false` for unknown addresses.
    pub fn drain(&self, addr: &str) -> bool {
        self.members.drain(addr)
    }

    /// Removes a worker from the membership. Returns `false` for unknown
    /// addresses.
    pub fn leave(&self, addr: &str) -> bool {
        let left = self.members.leave(addr);
        if left {
            self.stats.members_left.inc();
            self.publish_alive();
        }
        left
    }

    /// Point-in-time views of every member (the `GET /v1/members` rows and
    /// the breaker-state metric source).
    pub fn member_views(&self) -> Vec<MemberView> {
        self.members.snapshot().iter().map(|s| MemberView::of(s)).collect()
    }

    /// Appends the full cluster exposition — counters, histograms, and the
    /// per-worker `ilt_worker_breaker_state` gauge — to `out`.
    pub fn render_metrics(&self, out: &mut String) {
        self.stats.render(self.members.len(), out);
        family(
            out,
            "ilt_worker_breaker_state",
            "Circuit-breaker state per worker (0 closed, 1 half-open, 2 open).",
            "gauge",
        );
        for view in self.member_views() {
            out.push_str(&format!(
                "ilt_worker_breaker_state{{worker=\"{}\"}} {}\n",
                view.addr, view.breaker_gauge
            ));
        }
    }

    /// Executes one job's full tile plan across the cluster and returns
    /// the merged per-tile outputs in job-id order, ready for
    /// [`ilt_runtime::assemble_batch`].
    ///
    /// `query` is the job's persisted parameter query (fault injection
    /// stripped — faults stay local to workers); `body` carries the target
    /// PGM for inline sources. `progress` ticks once per executed
    /// (non-synthesized, non-cancelled) tile as shards complete.
    ///
    /// # Errors
    ///
    /// Returns a message when the plan is empty, no worker is registered,
    /// replicas disagree on the configuration fingerprint, or a
    /// speculation race surfaces disagreeing results (version/parameter
    /// skew — never emit a possibly-wrong mask); lost shards are NOT
    /// errors — they synthesize failed or cancelled records.
    pub fn run_job(
        &self,
        job_id: usize,
        query: &str,
        body: &[u8],
        plan: &[PlannedJob],
        cancel: &CancelToken,
        progress: &Progress,
    ) -> Result<Vec<JobOutput>, String> {
        if plan.is_empty() {
            return Err("job plans no tiles".into());
        }
        let members = self.members.snapshot();
        if members.is_empty() {
            return Err(
                "cluster has no registered workers; start one with `ilt worker --register` \
                 or add it via POST /v1/members"
                    .into(),
            );
        }
        // Split finer than the member count so late joiners find queued
        // shards and stragglers stall less of the plan.
        let shard_count = plan.len().min((members.len() * 2).max(4));
        let mut assignments: Vec<Vec<&PlannedJob>> = vec![Vec::new(); shard_count];
        for job in plan {
            assignments[job.id % shard_count].push(job);
        }
        let latencies = Mutex::new(Vec::new());
        let poison: Mutex<Option<String>> = Mutex::new(None);

        let results: Vec<(usize, ShardResult)> = std::thread::scope(|scope| {
            let handles: Vec<_> = assignments
                .iter()
                .enumerate()
                .filter(|(_, jobs)| !jobs.is_empty())
                .map(|(shard_idx, jobs)| {
                    let latencies = &latencies;
                    let poison = &poison;
                    scope.spawn(move || {
                        let sid = format!("{job_id}-{shard_idx}");
                        let result = self.run_shard_supervised(
                            &sid, query, body, jobs, cancel, latencies, poison,
                        );
                        (shard_idx, result)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard supervisor panicked")).collect()
        });

        if let Some(reason) = poison.into_inner().unwrap() {
            return Err(reason);
        }

        let mut outputs: Vec<JobOutput> = Vec::with_capacity(plan.len());
        let mut fingerprint: Option<u64> = None;
        for (shard_idx, result) in results {
            match result {
                ShardResult::Done { outputs: shard_outputs, fingerprint: fp } => {
                    match fingerprint {
                        None => fingerprint = Some(fp),
                        Some(seen) if seen != fp => {
                            return Err(format!(
                                "workers disagree on configuration fingerprint \
                                 ({seen:016x} vs {fp:016x}) — replica version or parameter skew"
                            ));
                        }
                        Some(_) => {}
                    }
                    for output in shard_outputs {
                        if output.record.status != JobStatus::Cancelled {
                            progress.tick();
                        }
                        outputs.push(output);
                    }
                }
                ShardResult::Lost(reason) => {
                    // The shard can no longer be computed anywhere; finish
                    // the job with terminal records instead of hanging.
                    let status = if cancel.is_cancelled() {
                        JobStatus::Cancelled
                    } else {
                        JobStatus::Failed(format!("shard lost: {reason}"))
                    };
                    for job in &assignments[shard_idx] {
                        outputs.push(synthesize(job, status.clone()));
                    }
                }
            }
        }
        outputs.sort_by_key(|o| o.record.job_id);
        Ok(outputs)
    }

    /// Runs one shard to completion: acquire a worker from the live
    /// membership, dispatch (racing a speculative copy when the shard
    /// straggles), settle breakers, and re-dispatch on retryable failure
    /// until the attempt budget runs out.
    #[allow(clippy::too_many_arguments)]
    fn run_shard_supervised(
        &self,
        sid: &str,
        query: &str,
        body: &[u8],
        jobs: &[&PlannedJob],
        cancel: &CancelToken,
        latencies: &Mutex<Vec<f64>>,
        poison: &Mutex<Option<String>>,
    ) -> ShardResult {
        let ids: Vec<usize> = jobs.iter().map(|j| j.id).collect();
        let path = format!(
            "/v1/shards?shard={sid}&jobs={}{}{query}",
            encode_job_ids(&ids),
            if query.is_empty() { "" } else { "&" }
        );
        let budget = if self.config.max_shard_attempts > 0 {
            self.config.max_shard_attempts
        } else {
            (self.members.len().max(1) as u32 * 2).max(4)
        };
        // Per-attempt history: worker, error, elapsed. Carried into the
        // synthesized failure so the journal explains the shard's death.
        let mut attempts: Vec<String> = Vec::new();
        loop {
            if poison.lock().unwrap().is_some() {
                return ShardResult::Lost("job poisoned by speculation disagreement".into());
            }
            if cancel.is_cancelled() && attempts.is_empty() {
                // Never *start* work for a cancelled job; in-flight shards
                // are handled inside the exchange below.
                return ShardResult::Lost("cancelled before dispatch".into());
            }
            if attempts.len() as u32 >= budget {
                return ShardResult::Lost(format!(
                    "gave up after {} dispatch attempts: {}",
                    attempts.len(),
                    attempts.join("; ")
                ));
            }
            let slot = match self.members.acquire(self.config.max_inflight_per_worker, cancel) {
                Acquire::Ok(slot) => slot,
                Acquire::Cancelled => {
                    return ShardResult::Lost("cancelled before dispatch".into());
                }
                Acquire::NoWorkers => {
                    return ShardResult::Lost(if attempts.is_empty() {
                        "no live worker".into()
                    } else {
                        format!(
                            "no live worker after {} dispatch attempts: {}",
                            attempts.len(),
                            attempts.join("; ")
                        )
                    });
                }
            };
            // Only a dispatch that follows a failed attempt is a re-dispatch;
            // where least-loaded scheduling places the first one is not.
            if !attempts.is_empty() {
                self.stats.shards_redispatched.inc();
            }
            let addr = slot.addr.clone();
            let started = Instant::now();
            match self.race_shard(slot, sid, &path, body, &ids, cancel, latencies, poison) {
                Ok((fingerprint, outputs)) => {
                    let ms = started.elapsed().as_secs_f64() * 1e3;
                    self.stats.shard_ms.observe(ms);
                    latencies.lock().unwrap().push(ms);
                    return ShardResult::Done { outputs, fingerprint };
                }
                Err(ShardError::Permanent(reason)) => {
                    // Deterministic rejection (bad parameters, refused
                    // dispatch) or a poisoned race: re-dispatch cannot help.
                    return ShardResult::Lost(reason);
                }
                Err(retryable) => {
                    // Only loser copies inside the race are superseded; a
                    // race that *returns* it would be a logic error — treat
                    // it as retryable rather than crash.
                    let reason = match retryable {
                        ShardError::Retry(reason) => reason,
                        _ => "superseded".into(),
                    };
                    attempts.push(format!(
                        "attempt {} on {addr}: {reason} ({} ms)",
                        attempts.len() + 1,
                        started.elapsed().as_millis()
                    ));
                }
            }
        }
    }

    /// One supervised dispatch: run the shard on `primary`, and if it
    /// straggles past `speculate_factor × median`, race a speculative copy
    /// on another worker. First result wins; the loser gets a cancel and a
    /// bounded grace to surface its records, and when it does, the two
    /// results must agree.
    #[allow(clippy::too_many_arguments)]
    fn race_shard(
        &self,
        primary: Arc<WorkerSlot>,
        sid: &str,
        path: &str,
        body: &[u8],
        ids: &[usize],
        cancel: &CancelToken,
        latencies: &Mutex<Vec<f64>>,
        poison: &Mutex<Option<String>>,
    ) -> Result<(u64, Vec<JobOutput>), ShardError> {
        struct CopyDone {
            speculative: bool,
            addr: String,
            result: Result<(u64, Vec<JobOutput>), ShardError>,
        }
        let speculation_on = self.config.speculate_factor > 0.0;
        let primary_abort = AtomicBool::new(false);
        let spec_abort = AtomicBool::new(false);
        let (tx, rx) = mpsc::channel::<CopyDone>();

        std::thread::scope(|scope| {
            {
                let tx = tx.clone();
                let primary = Arc::clone(&primary);
                let primary_abort = &primary_abort;
                scope.spawn(move || {
                    let result =
                        self.exchange_shard(&primary, sid, path, body, ids, cancel, primary_abort);
                    self.settle(&primary, &result);
                    let _ = tx.send(CopyDone {
                        speculative: false,
                        addr: primary.addr.clone(),
                        result,
                    });
                });
            }

            let started = Instant::now();
            let mut outstanding = 1usize;
            let mut spec_slot: Option<Arc<WorkerSlot>> = None;
            let mut winner: Option<(bool, String, u64, Vec<JobOutput>)> = None;
            let mut permanent: Option<String> = None;
            let mut retry_errors: Vec<String> = Vec::new();

            while outstanding > 0 {
                match rx.recv_timeout(Duration::from_millis(20)) {
                    Ok(done) => {
                        outstanding -= 1;
                        match done.result {
                            Ok((fp, outs)) => {
                                if let Some((_, waddr, wfp, wouts)) = &winner {
                                    // The loser still delivered: the race is
                                    // only sound if both copies agree.
                                    if let Some(msg) = disagreement(
                                        sid, waddr, *wfp, wouts, &done.addr, fp, &outs,
                                    ) {
                                        *poison.lock().unwrap() = Some(msg.clone());
                                        permanent = Some(msg);
                                    }
                                } else {
                                    winner = Some((done.speculative, done.addr, fp, outs));
                                    if outstanding > 0 {
                                        // Stand the other copy down: cancel
                                        // its pending compute, but let it
                                        // surface already-finished records
                                        // (bounded by cancel_grace) so the
                                        // agreement check above can run.
                                        if done.speculative {
                                            primary_abort.store(true, Ordering::SeqCst);
                                            self.send_cancel(&primary.addr, sid);
                                        } else if let Some(slot) = &spec_slot {
                                            spec_abort.store(true, Ordering::SeqCst);
                                            self.send_cancel(&slot.addr, sid);
                                        }
                                    }
                                }
                            }
                            // The losing copy was cut short: neither a win
                            // nor evidence against the worker.
                            Err(ShardError::Superseded) => {}
                            Err(ShardError::Permanent(reason)) => {
                                permanent.get_or_insert(reason);
                            }
                            Err(ShardError::Retry(reason)) => {
                                retry_errors.push(format!("{}: {reason}", done.addr));
                                if done.speculative {
                                    // The speculative copy died on a flaky
                                    // worker; the straggler is still out
                                    // there, so re-open the slot and let the
                                    // next tick pick a different replica.
                                    spec_slot = None;
                                }
                            }
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        if winner.is_none()
                            && spec_slot.is_none()
                            && speculation_on
                            && !cancel.is_cancelled()
                            && self.should_speculate(started, latencies)
                        {
                            if let Some(slot) = self.members.try_acquire(
                                self.config.max_inflight_per_worker,
                                &[primary.addr.as_str()],
                            ) {
                                self.stats.shards_speculated.inc();
                                outstanding += 1;
                                spec_slot = Some(Arc::clone(&slot));
                                let tx = tx.clone();
                                let spec_abort = &spec_abort;
                                scope.spawn(move || {
                                    let result = self.exchange_shard(
                                        &slot, sid, path, body, ids, cancel, spec_abort,
                                    );
                                    self.settle(&slot, &result);
                                    let _ = tx.send(CopyDone {
                                        speculative: true,
                                        addr: slot.addr.clone(),
                                        result,
                                    });
                                });
                            }
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }

            match winner {
                Some(_) if permanent.is_some() => Err(ShardError::Permanent(permanent.unwrap())),
                Some((speculative, _, fp, outs)) => {
                    if speculative {
                        self.stats.speculation_wins.inc();
                    }
                    Ok((fp, outs))
                }
                None => match permanent {
                    Some(reason) => Err(ShardError::Permanent(reason)),
                    None => Err(ShardError::Retry(if retry_errors.is_empty() {
                        "shard dispatch failed".into()
                    } else {
                        retry_errors.join("; ")
                    })),
                },
            }
        })
    }

    /// Is the current dispatch a straggler worth speculating on?
    fn should_speculate(&self, started: Instant, latencies: &Mutex<Vec<f64>>) -> bool {
        let samples = latencies.lock().unwrap();
        if samples.len() < self.config.speculate_min_samples.max(1) {
            return false;
        }
        let mut sorted = samples.clone();
        drop(samples);
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2].max(1.0);
        started.elapsed().as_secs_f64() * 1e3 > self.config.speculate_factor * median
    }

    /// Applies one exchange outcome to the worker's ledgers: breaker
    /// verdict, suspicion marking, and the inflight release.
    fn settle(&self, slot: &WorkerSlot, result: &Result<(u64, Vec<JobOutput>), ShardError>) {
        let verdict = match result {
            Ok(_) => Settle::Success,
            // Connection-level flakiness: breaker failure, and declare the
            // worker suspect immediately (the monitor confirms or revives).
            Err(ShardError::Retry(_)) => Settle::Failure,
            // Deterministic rejections and superseded losers say nothing
            // about the worker's health.
            Err(ShardError::Permanent(_)) | Err(ShardError::Superseded) => Settle::Neutral,
        };
        if matches!(result, Err(ShardError::Retry(_))) {
            mark_probe(slot, false, &self.config, &self.stats);
            self.publish_alive();
        }
        self.members.release(slot, verdict);
    }

    /// One dispatch attempt: POST the shard, wait for the streamed result,
    /// polling liveness, the cancel token, and the race-abort flag while
    /// the worker computes.
    #[allow(clippy::too_many_arguments)]
    fn exchange_shard(
        &self,
        slot: &WorkerSlot,
        sid: &str,
        path: &str,
        body: &[u8],
        expected_ids: &[usize],
        cancel: &CancelToken,
        abort: &AtomicBool,
    ) -> Result<(u64, Vec<JobOutput>), ShardError> {
        let mut client = Client::connect(&slot.addr, CONNECT_TIMEOUT)?;
        client.send("POST", path, &[], body, true)?;
        // Short read timeouts turn the blocking wait into a poll so
        // cancellation, worker death, and a lost speculation race interrupt
        // a long compute promptly — the poll must stay well under the
        // heartbeat interval or a superseded copy sits blind until its
        // stalled read completes.
        client.set_read_timeout(
            self.config.heartbeat.min(Duration::from_millis(25)).max(Duration::from_millis(5)),
        );
        let mut cancel_deadline: Option<Instant> = None;
        let mut abort_deadline: Option<Instant> = None;
        let Reply { status, body: response_body, .. } = client.read_reply_with(|| {
            if abort.load(Ordering::SeqCst) && abort_deadline.is_none() {
                // The race was decided against this copy. The winner's
                // supervisor already sent the cancel; give the worker a
                // bounded grace to surface whatever it finished (feeding
                // the agreement check), then stand down.
                abort_deadline = Some(Instant::now() + self.config.cancel_grace);
            }
            if abort_deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                return Err(ShardError::Superseded);
            }
            if cancel.is_cancelled() && cancel_deadline.is_none() {
                // Fan the cancellation out to the worker, then keep
                // waiting (bounded) for its cancelled records: the job
                // must not turn terminal while a replica still computes
                // on its behalf.
                self.send_cancel(&slot.addr, sid);
                cancel_deadline = Some(Instant::now() + self.config.cancel_grace);
            }
            if cancel_deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                return Err(ShardError::Permanent(
                    "worker did not acknowledge cancellation in time".into(),
                ));
            }
            if !slot.is_alive() {
                return Err(ShardError::Retry(format!(
                    "worker {} died mid-shard (heartbeat)",
                    slot.addr
                )));
            }
            Ok(())
        })?;
        if status != 200 {
            let reason = format!(
                "worker {} refused shard {sid}: HTTP {status} {}",
                slot.addr,
                String::from_utf8_lossy(&response_body).trim()
            );
            // 4xx is deterministic (bad dispatch); anything else might be
            // replica-local (mid-shutdown, resource pressure) and is worth
            // one try elsewhere.
            return Err(if (400..500).contains(&status) {
                ShardError::Permanent(reason)
            } else {
                ShardError::Retry(reason)
            });
        }
        let text = std::str::from_utf8(&response_body)
            .map_err(|_| "non-utf8 shard response".to_string())?;
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header =
            parse_shard_header(lines.next().ok_or_else(|| "empty shard response".to_string())?)?;
        let mut outputs = Vec::with_capacity(header.jobs);
        for line in lines {
            outputs.push(parse_shard_job(line)?);
        }
        outputs.sort_by_key(|o| o.record.job_id);
        let got: Vec<usize> = outputs.iter().map(|o| o.record.job_id).collect();
        let mut want = expected_ids.to_vec();
        want.sort_unstable();
        if got != want || outputs.len() != header.jobs {
            return Err(ShardError::Retry(format!(
                "shard {sid} answered jobs {got:?}, expected {want:?}"
            )));
        }
        Ok((header.fingerprint, outputs))
    }

    /// Best-effort cancel fan-out to one worker. Any answer is an ack: a
    /// 404 means the shard already finished.
    fn send_cancel(&self, addr: &str, sid: &str) {
        let path = format!("/v1/shards/{sid}");
        let _ = request(addr, "DELETE", &path, &[], CONNECT_TIMEOUT);
    }

    /// Recomputes the `workers_alive` gauge from the membership.
    fn publish_alive(&self) {
        self.stats.workers_alive.store(self.members.alive_count() as u64, Ordering::Relaxed);
        self.members.notify();
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        let (stopped, wake) = &*self.stop;
        // A poisoned flag means the monitor already died; nothing to stop.
        if let Ok(mut stopped) = stopped.lock() {
            *stopped = true;
        }
        wake.notify_all();
    }
}

/// Posts a membership action (`join`, `leave`, `drain`) for `worker_addr`
/// to the coordinator at `coordinator_addr` — the client half of
/// `POST /v1/members`, used by `ilt worker --register`.
///
/// # Errors
///
/// Returns a message when the coordinator is unreachable or refuses the
/// action.
pub fn post_membership(
    coordinator_addr: &str,
    worker_addr: &str,
    action: &str,
    timeout: Duration,
) -> Result<(), String> {
    let path = format!(
        "/v1/members?addr={}&action={action}",
        crate::params::query_encode(worker_addr)
    );
    match request(coordinator_addr, "POST", &path, &[], timeout) {
        Ok((200, _)) => Ok(()),
        Ok((status, body)) => Err(format!(
            "coordinator {coordinator_addr} refused {action}: HTTP {status} {}",
            String::from_utf8_lossy(&body).trim()
        )),
        Err(e) => Err(format!("bad membership response from {coordinator_addr}: {e}")),
    }
}

enum ShardResult {
    Done { outputs: Vec<JobOutput>, fingerprint: u64 },
    Lost(String),
}

enum ShardError {
    /// Worth re-dispatching to another replica.
    Retry(String),
    /// Deterministic or final; re-dispatch cannot help.
    Permanent(String),
    /// This copy lost a speculation race and was cut short.
    Superseded,
}

/// A transport failure (connect, send, a response cut short or malformed)
/// says nothing about the shard: try another replica.
impl From<String> for ShardError {
    fn from(reason: String) -> Self {
        ShardError::Retry(reason)
    }
}

/// When a speculation race yields two results, they must be the same
/// computation: same config fingerprint, and for every job both copies
/// completed, the same mask hash. Records one side cancelled or failed are
/// not evidence either way (worker-local interruption), so they are
/// skipped. Returns the poisoning message on disagreement.
fn disagreement(
    sid: &str,
    winner_addr: &str,
    winner_fp: u64,
    winner: &[JobOutput],
    loser_addr: &str,
    loser_fp: u64,
    loser: &[JobOutput],
) -> Option<String> {
    if winner_fp != loser_fp {
        return Some(format!(
            "speculation disagreement on shard {sid}: configuration fingerprint {winner_fp:016x} \
             (worker {winner_addr}) vs {loser_fp:016x} (worker {loser_addr})"
        ));
    }
    for (a, b) in winner.iter().zip(loser) {
        if a.record.job_id != b.record.job_id {
            return Some(format!(
                "speculation disagreement on shard {sid}: job sets diverge ({} vs {})",
                a.record.job_id, b.record.job_id
            ));
        }
        let both_done =
            a.record.status == JobStatus::Done && b.record.status == JobStatus::Done;
        if let (true, Some(ma), Some(mb)) = (both_done, &a.record.metrics, &b.record.metrics) {
            if ma.mask_hash != mb.mask_hash {
                return Some(format!(
                    "speculation disagreement on shard {sid}: job {} mask hash {:016x} \
                     (worker {winner_addr}) vs {:016x} (worker {loser_addr}) — refusing to \
                     emit a possibly-wrong mask",
                    a.record.job_id, ma.mask_hash, mb.mask_hash
                ));
            }
        }
    }
    None
}

/// Terminal record for a job whose shard could not be computed.
fn synthesize(job: &PlannedJob, status: JobStatus) -> JobOutput {
    JobOutput {
        record: JobRecord {
            job_id: job.id,
            case: job.case.clone(),
            tile: job.tile,
            grid: job.grid,
            attempts: 0,
            status,
            metrics: None,
            times: StageTimes::default(),
            wall_ms: 0.0,
        },
        mask: None,
    }
}

fn monitor_loop(
    config: &ClusterConfig,
    members: &Membership,
    stats: &ClusterStats,
    stop: &(Mutex<bool>, Condvar),
) {
    let (stopped, wake) = stop;
    loop {
        for slot in members.snapshot() {
            let ok = probe(&slot.addr);
            mark_probe(&slot, ok, config, stats);
        }
        stats.workers_alive.store(members.alive_count() as u64, Ordering::Relaxed);
        // Health changed or time passed: unpark waiting supervisors.
        members.notify();
        // One heartbeat of sleep, cut short the moment drop() sets the flag.
        let (stopped, _) = wake
            .wait_timeout_while(
                stopped.lock().expect("stop flag lock"),
                config.heartbeat,
                |stopped| !*stopped,
            )
            .expect("stop flag lock");
        if *stopped {
            return;
        }
    }
}

/// Applies one probe (or dispatch-failure) observation to a slot. Note
/// this touches only *liveness* — a successful heartbeat never closes the
/// worker's breaker; quarantine is earned back through shard successes.
fn mark_probe(slot: &WorkerSlot, ok: bool, config: &ClusterConfig, stats: &ClusterStats) {
    if ok {
        slot.heartbeat_fails().store(0, Ordering::Relaxed);
        slot.set_alive(true);
    } else {
        stats.heartbeat_failures.inc();
        let fails = slot.heartbeat_fails().fetch_add(1, Ordering::Relaxed) + 1;
        if fails >= config.heartbeat_failures {
            slot.set_alive(false);
        }
    }
}

/// One `GET /healthz` probe.
fn probe(addr: &str) -> bool {
    matches!(request(addr, "GET", "/healthz", &[], CONNECT_TIMEOUT), Ok((200, _)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_runtime::JobMetrics;

    #[test]
    fn probe_failures_accumulate_to_death_and_recovery_resets() {
        let config = ClusterConfig { heartbeat_failures: 2, ..ClusterConfig::default() };
        let stats = ClusterStats::default();
        let members = Membership::new(&["x:1".into()], BreakerConfig::default());
        let slot = &members.snapshot()[0];
        mark_probe(slot, false, &config, &stats);
        assert!(slot.is_alive(), "one failure is not death");
        mark_probe(slot, false, &config, &stats);
        assert!(!slot.is_alive(), "threshold reached");
        assert_eq!(stats.heartbeat_failures.get(), 2);
        mark_probe(slot, true, &config, &stats);
        assert!(slot.is_alive(), "a good probe revives");
        assert_eq!(slot.heartbeat_fails().load(Ordering::Relaxed), 0);
    }

    #[test]
    fn empty_membership_is_allowed_and_grows_at_runtime() {
        let c = Coordinator::new(ClusterConfig::default()).unwrap();
        assert_eq!(c.members.len(), 0);
        let plan =
            vec![PlannedJob { id: 0, case: "c".into(), tile: None, grid: 64 }];
        let err = c
            .run_job(0, "", &[], &plan, &CancelToken::new(), &Progress::default())
            .unwrap_err();
        assert!(err.contains("no registered workers"), "{err}");
        assert!(c.join("10.0.0.1:7"));
        assert!(!c.join("10.0.0.1:7"), "duplicate join refused");
        assert_eq!(c.members.len(), 1);
        assert_eq!(c.stats().members_joined.get(), 1);
        assert!(c.drain("10.0.0.1:7"));
        assert!(c.member_views()[0].draining);
        assert!(c.leave("10.0.0.1:7"));
        assert_eq!(c.stats().members_left.get(), 1);
        assert_eq!(c.members.len(), 0);
    }

    #[test]
    fn render_metrics_includes_breaker_gauge_per_worker() {
        let config = ClusterConfig {
            workers: vec!["10.0.0.1:7".into(), "10.0.0.2:7".into()],
            ..ClusterConfig::default()
        };
        let c = Coordinator::new(config).unwrap();
        let mut out = String::new();
        c.render_metrics(&mut out);
        assert!(out.contains("ilt_workers_configured 2\n"), "{out}");
        assert!(out.contains("ilt_members_joined_total 2\n"), "{out}");
        assert!(out.contains("ilt_worker_breaker_state{worker=\"10.0.0.1:7\"} 0\n"), "{out}");
        assert!(out.contains("ilt_worker_breaker_state{worker=\"10.0.0.2:7\"} 0\n"), "{out}");
        for line in out.lines() {
            assert!(line.starts_with('#') || line.split_whitespace().count() == 2, "{line}");
        }
    }

    fn output(job_id: usize, status: JobStatus, hash: u64) -> JobOutput {
        JobOutput {
            record: JobRecord {
                job_id,
                case: "c".into(),
                tile: None,
                grid: 64,
                attempts: 1,
                status: status.clone(),
                metrics: status.has_mask().then_some(JobMetrics {
                    l2_nm2: 0.0,
                    pvband_nm2: 0.0,
                    epe_violations: 0,
                    shots: 0,
                    iterations: 0,
                    mask_hash: hash,
                }),
                times: StageTimes::default(),
                wall_ms: 0.0,
            },
            mask: None,
        }
    }

    #[test]
    fn disagreement_detects_skew_and_skips_interrupted_records() {
        let a = [output(0, JobStatus::Done, 1), output(1, JobStatus::Done, 2)];
        let b = [output(0, JobStatus::Done, 1), output(1, JobStatus::Done, 2)];
        assert!(disagreement("s", "wa", 7, &a, "wb", 7, &b).is_none(), "identical agrees");
        let msg = disagreement("s", "wa", 7, &a, "wb", 8, &b).unwrap();
        assert!(msg.contains("fingerprint"), "{msg}");
        let c = [output(0, JobStatus::Done, 1), output(1, JobStatus::Done, 99)];
        let msg = disagreement("s", "wa", 7, &a, "wb", 7, &c).unwrap();
        assert!(msg.contains("mask hash") && msg.contains("job 1"), "{msg}");
        // A cancelled loser record is an interruption, not evidence.
        let d = [output(0, JobStatus::Done, 1), output(1, JobStatus::Cancelled, 0)];
        assert!(disagreement("s", "wa", 7, &a, "wb", 7, &d).is_none());
    }

    #[test]
    fn synthesized_records_carry_plan_identity() {
        let job = PlannedJob { id: 7, case: "c".into(), tile: Some((1, 2)), grid: 64 };
        let out = synthesize(&job, JobStatus::Cancelled);
        assert_eq!(out.record.job_id, 7);
        assert_eq!(out.record.tile, Some((1, 2)));
        assert_eq!(out.record.status, JobStatus::Cancelled);
        assert!(out.mask.is_none());
    }
}
