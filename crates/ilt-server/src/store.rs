//! Job admission, bookkeeping, and the bounded work queue.
//!
//! The store is the single synchronization point between HTTP handler
//! threads (submit, poll, list) and the job workers (take, finish). Its
//! admission queue is *bounded*: a submission beyond capacity is refused at
//! the door — the handler turns that into `503 Service Unavailable` with a
//! `Retry-After` hint — so a flood of requests costs the flooder latency
//! instead of costing the server memory. Completed masks (the only large
//! retained objects) are bounded too: [`JobStore::sweep`] evicts masks past
//! their TTL or beyond the residency cap, after which the mask endpoint
//! re-hydrates from the state directory when it can (hash-verified) and
//! answers `410 Gone` only when the durable copy is truly unusable.
//!
//! Admission is multi-tenant: every submission carries an [`Admission`]
//! (client id + [`PriorityClass`]), the queue is per-class FIFOs drained by
//! smooth weighted round-robin ([`ilt_runtime::ClassQueues`], weights
//! 4/2/1 — high never starves, low always eventually runs), and per-client
//! queued/in-flight quotas refuse a flooding client with
//! [`SubmitError::Quota`] (a 429 upstream) while other clients proceed.
//!
//! With a state directory configured, the store doubles as a write-ahead
//! log: every admission and every terminal outcome is appended to
//! `state.jsonl` (masks written atomically beside it), and
//! [`JobStore::open`] rebuilds the job table on restart — finished jobs
//! come back with their masks (hash-verified), interrupted ones are
//! re-planned and re-queued.
//!
//! Two lifecycle extensions keep a long-lived server bounded:
//!
//! - **Cancellation** ([`JobStore::cancel`]): a queued job is pulled out of
//!   the queue and turns terminal immediately; a running job has its
//!   cooperative [`CancelToken`] set and stops at the next tile boundary
//!   (the worker then records it via [`JobStore::finish_cancelled`]). Both
//!   paths append a `cancel` record so a restart does not resurrect the job.
//! - **Compaction** ([`JobStore::maybe_compact`]): once `state.jsonl` grows
//!   past a configured byte threshold, the live job table is snapshot to
//!   `state.snapshot.jsonl` (written atomically) and the log is truncated,
//!   so restart replay stays proportional to *live* jobs — cancelled jobs
//!   and evicted masks are dropped from the snapshot and answer 404 after
//!   the next restart. A crash between snapshot and truncate is safe:
//!   recovery replays the snapshot first, then the log, idempotently.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use ilt_field::{pgm_bytes, Field2D};
use ilt_metrics::EvalReport;
use ilt_runtime::json::Value;
use ilt_runtime::{
    field_hash, json_escape, json_f64, load_mask, mask_file_name, planned_jobs, write_atomic,
    AppendLog, BatchCase, BatchConfig, CancelToken, ClassQueues, JobRecord, PriorityClass,
    Progress,
};

use ilt_cluster::params::{ExecPolicy, JobParams, JobSource};

/// Lifecycle of a job inside the store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting in the queue.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished; every tile done.
    Done,
    /// Finished with an error or failed tiles.
    Failed,
    /// Cancelled before completion; terminal, never produces a mask.
    Cancelled,
}

impl JobState {
    fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Cancelled)
    }
}

/// What `DELETE /v1/jobs/{id}` accomplished.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued: it is terminal now, no work ever ran.
    Cancelled,
    /// The job is running: its cancel token is set and it will stop at the
    /// next tile boundary (the handler answers `202 Accepted`).
    Cancelling,
    /// The job already reached a terminal state; nothing to cancel.
    AlreadyFinished(JobState),
    /// No job with that id.
    NoSuchJob,
}

/// The retained product of a finished job.
#[derive(Clone, Debug)]
pub struct JobDone {
    /// Stitched binary mask at the target grid; `None` after eviction (the
    /// hash and journal remain).
    pub mask: Option<Field2D>,
    /// FNV-1a hash of the mask bits.
    pub mask_hash: u64,
    /// Per-tile journal records (empty for jobs restored from the state
    /// log, which persists only the summary).
    pub records: Vec<JobRecord>,
    /// Tiles the job decomposed into.
    pub tiles: usize,
    /// Tiles that exhausted retries.
    pub failed_tiles: usize,
    /// Tiles rescued by the degraded low-res fallback.
    pub degraded_tiles: usize,
    /// Full-size evaluation of the stitched mask, when requested.
    pub eval: Option<EvalReport>,
    /// End-to-end wall-time of the job, ms.
    pub wall_ms: f64,
}

/// Who submitted a job and at what priority — the multi-tenant carriers of
/// every admission (`X-Ilt-Client` / `X-Ilt-Priority` over HTTP).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Admission {
    /// Client identity; quotas and the rejection metric are keyed by it.
    /// Validated upstream to `[A-Za-z0-9._-]{1,64}` because it travels into
    /// metric labels and state-log JSON unescaped.
    pub client: String,
    /// Scheduling class of the job inside the admission queue.
    pub class: PriorityClass,
}

impl Default for Admission {
    fn default() -> Self {
        Admission { client: "anonymous".into(), class: PriorityClass::Normal }
    }
}

/// Live per-client admission counters backing the quota checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientUsage {
    /// Jobs waiting in the class queues.
    pub queued: usize,
    /// Jobs claimed by a worker and not yet terminal.
    pub active: usize,
}

struct JobEntry {
    id: usize,
    name: String,
    /// Submitting client; owns this job's share of the quotas.
    client: String,
    /// Scheduling class the job was admitted under.
    class: PriorityClass,
    state: JobState,
    error: Option<String>,
    /// Pending work, taken by the worker that starts the job.
    work: Option<(BatchCase, BatchConfig)>,
    result: Option<JobDone>,
    /// When the terminal state was recorded; the TTL clock for eviction.
    finished_at: Option<Instant>,
    /// Cooperative cancel token shared with the job's `BatchConfig`.
    cancel: CancelToken,
    /// Tiles completed so far, shared with the job's pool workers.
    progress: Progress,
    /// Tiles the job decomposes into (for the progress denominator).
    tiles_planned: usize,
    /// Persistence query of the submission, retained so compaction can
    /// regenerate the submit line; `None` for non-persisted submissions.
    query: Option<String>,
    /// Side file holding an inline target's raster, when there is one.
    target_file: Option<String>,
}

struct Inner {
    /// Job table keyed by id. A map, not a vector: compaction drops
    /// cancelled ids from persistence, so after a restart the id space has
    /// holes (dropped ids answer 404).
    jobs: BTreeMap<usize, JobEntry>,
    next_id: usize,
    /// Per-class FIFOs drained by smooth weighted round-robin — the pool
    /// feed where priority takes effect.
    queue: ClassQueues<usize>,
    accepting: bool,
    running: usize,
    evicted: usize,
    /// Per-client queued/active counts; entries are dropped the moment both
    /// hit zero, so a drained store reconciles to an empty map.
    usage: BTreeMap<String, ClientUsage>,
}

impl Inner {
    fn usage_add_queued(&mut self, client: &str) {
        self.usage.entry(client.to_string()).or_default().queued += 1;
    }

    /// Moves one of `client`'s jobs from queued to active (worker claim).
    fn usage_claim(&mut self, client: &str) {
        let u = self.usage.get_mut(client).expect("claimed client has usage");
        assert!(u.queued > 0, "claim with zero queued for {client:?}");
        u.queued -= 1;
        u.active += 1;
    }

    fn usage_drop_queued(&mut self, client: &str) {
        let u = self.usage.get_mut(client).expect("dequeued client has usage");
        assert!(u.queued > 0, "queued underflow for {client:?}");
        u.queued -= 1;
        if *u == ClientUsage::default() {
            self.usage.remove(client);
        }
    }

    fn usage_drop_active(&mut self, client: &str) {
        let u = self.usage.get_mut(client).expect("finished client has usage");
        assert!(u.active > 0, "active underflow for {client:?}");
        u.active -= 1;
        if *u == ClientUsage::default() {
            self.usage.remove(client);
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at capacity; retry later.
    Full {
        /// Configured capacity, echoed into the error body.
        capacity: usize,
    },
    /// The server is draining and accepts no new work.
    Draining,
    /// The submitting client is over one of its per-client quotas; the
    /// handler turns this into `429 Too Many Requests` + `Retry-After`.
    Quota {
        /// The client that breached its quota.
        client: String,
        /// Which quota tripped: `"queued"` or `"inflight"`.
        scope: &'static str,
        /// The configured limit, echoed into the error body.
        limit: usize,
    },
}

/// Result of asking for a finished job's mask.
pub enum MaskFetch {
    /// The mask, serialized as an 8-bit binary PGM.
    Ready(Vec<u8>),
    /// The mask, reloaded (hash-verified) from the state directory after a
    /// TTL/residency eviction; byte-identical to [`MaskFetch::Ready`].
    Rehydrated(Vec<u8>),
    /// The job exists but has not produced a mask yet.
    NotReady(JobState),
    /// The job finished but its mask was evicted and is not recoverable:
    /// no state directory, the file is gone (compaction GC), or its bits
    /// no longer hash to what the log recorded.
    Gone,
    /// No job with that id.
    NoSuchJob,
}

/// The compaction snapshot beside `state.jsonl`; always written atomically.
pub const SNAPSHOT_FILE: &str = "state.snapshot.jsonl";

/// The append-only log inside a state directory.
const LOG_FILE: &str = "state.jsonl";

/// Append-only persistence of the job table: one `state.jsonl` line per
/// admission, cancellation, and terminal outcome (an
/// [`ilt_runtime::AppendLog`]), masks and inline targets as
/// atomically-written PGM files beside it. Once the log grows past
/// `compact_bytes` (0 disables), [`JobStore::maybe_compact`] folds the live
/// table into [`SNAPSHOT_FILE`] and truncates the log.
pub struct StateLog {
    dir: PathBuf,
    log: AppendLog,
    compact_bytes: u64,
    /// Terminal transitions mid-persist (line appended, job table not yet
    /// updated). Compaction refuses to truncate while any are in flight —
    /// it would snapshot the job as unfinished *and* discard its outcome
    /// line, losing the result across a restart.
    persisting: AtomicU64,
}

impl StateLog {
    /// Opens (creating if needed) the state log in `dir`, appending to any
    /// existing log so recovery and continuation share one file. Once the
    /// log exceeds `compact_bytes` bytes, the next terminal transition
    /// folds it into a snapshot; `0` disables compaction.
    ///
    /// # Errors
    ///
    /// Propagates directory/file creation failures.
    pub fn open(dir: &Path, compact_bytes: u64) -> std::io::Result<StateLog> {
        std::fs::create_dir_all(dir)?;
        Ok(StateLog {
            dir: dir.to_path_buf(),
            log: AppendLog::open(&dir.join(LOG_FILE))?,
            compact_bytes,
            persisting: AtomicU64::new(0),
        })
    }

    /// The directory holding the log and its PGM side files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn append(&self, line: &str) {
        // Persistence failures must never fail the job; a lost line only
        // means the job is re-run (or forgotten) after a restart.
        let _ = self.log.append(line);
    }

    fn wants_compaction(&self) -> bool {
        self.compact_bytes > 0 && self.log.len() >= self.compact_bytes
    }

    fn begin_persist(&self) {
        self.persisting.fetch_add(1, Ordering::SeqCst);
    }

    fn end_persist(&self) {
        self.persisting.fetch_sub(1, Ordering::SeqCst);
    }

    /// Atomically installs `snapshot` as [`SNAPSHOT_FILE`] and truncates
    /// the log, with no append able to land between the two; a crash in
    /// between leaves snapshot *plus* the full log, which recovery replays
    /// idempotently. Refuses (harmlessly — the next terminal transition
    /// retries) while another thread is between appending an outcome line
    /// and updating the job table.
    fn replace_with_snapshot(&self, snapshot: &[u8]) -> std::io::Result<()> {
        self.log.truncate_after(|| {
            if self.persisting.load(Ordering::SeqCst) > 0 {
                return Err(std::io::Error::other("terminal transition mid-persist"));
            }
            write_atomic(&self.dir, SNAPSHOT_FILE, snapshot)
        })
    }

    fn log_submit(&self, id: usize, params: &JobParams, admission: &Admission) {
        let target = match &params.source {
            JobSource::Inline(img) => {
                let name = target_file_name(id);
                // The target must be durable before the line that references it.
                if write_atomic(&self.dir, &name, &pgm_bytes(img, 0.0, 1.0)).is_err() {
                    return; // without the raster the submission can't be replayed
                }
                Some(name)
            }
            _ => None,
        };
        self.append(&submit_line(
            id,
            &params.to_query(),
            &admission.client,
            admission.class,
            target.as_deref(),
        ));
    }

    fn log_finish(&self, id: usize, outcome: &Result<JobDone, String>) {
        let line = match outcome {
            Ok(done) => {
                let mut mask_file = None;
                if let Some(mask) = &done.mask {
                    let name = mask_file_name(id);
                    // Mask first, then the line claiming it exists.
                    if write_atomic(&self.dir, &name, &pgm_bytes(mask, 0.0, 1.0)).is_ok() {
                        mask_file = Some(name);
                    }
                }
                finish_line_ok(id, done, mask_file.as_deref())
            }
            Err(e) => finish_line_err(id, e),
        };
        self.append(&line);
    }

    fn log_cancel(&self, id: usize) {
        self.append(&format!("{{\"kind\":\"cancel\",\"id\":{id}}}"));
    }
}

/// Side file holding job `id`'s inline target raster.
fn target_file_name(id: usize) -> String {
    format!("job-{id}-target.pgm")
}

/// The `submit` record — the one definition the state log and the
/// compaction snapshot share. The client id was validated at admission to a
/// JSON-safe alphabet; `json_escape` is belt and braces.
fn submit_line(
    id: usize,
    query: &str,
    client: &str,
    class: PriorityClass,
    target: Option<&str>,
) -> String {
    let mut line = format!(
        "{{\"kind\":\"submit\",\"id\":{id},\"query\":\"{}\",\"client\":\"{}\",\"class\":\"{}\"",
        json_escape(query),
        json_escape(client),
        class.as_str()
    );
    if let Some(name) = target {
        line.push_str(&format!(",\"target\":\"{name}\""));
    }
    line.push('}');
    line
}

/// The `finish` record of a successful job; `mask_file` references a PGM
/// already durable in the state directory.
fn finish_line_ok(id: usize, done: &JobDone, mask_file: Option<&str>) -> String {
    let mut line = format!("{{\"kind\":\"finish\",\"id\":{id},\"ok\":true");
    if let Some(name) = mask_file {
        line.push_str(&format!(
            ",\"mask\":\"{name}\",\"mask_hash\":\"{:016x}\"",
            done.mask_hash
        ));
    }
    line.push_str(&format!(
        ",\"tiles\":{},\"failed_tiles\":{},\"degraded_tiles\":{},\"wall_ms\":{}}}",
        done.tiles,
        done.failed_tiles,
        done.degraded_tiles,
        json_f64(done.wall_ms)
    ));
    line
}

fn finish_line_err(id: usize, error: &str) -> String {
    format!(
        "{{\"kind\":\"finish\",\"id\":{id},\"ok\":false,\"error\":\"{}\"}}",
        json_escape(error)
    )
}

/// What [`JobStore::open`] reconstructed from a state directory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Finished jobs restored with a hash-verified mask (or a recorded
    /// failure).
    pub restored: usize,
    /// Interrupted jobs re-planned and re-queued.
    pub requeued: usize,
}

/// The shared job table plus its bounded admission queue.
pub struct JobStore {
    inner: Mutex<Inner>,
    wakeup: Condvar,
    queue_cap: usize,
    /// Per-client cap on non-terminal jobs (queued + active); 0 = unlimited.
    quota_inflight: usize,
    /// Per-client cap on queued jobs; 0 = unlimited.
    quota_queued: usize,
    state: Option<StateLog>,
}

impl JobStore {
    /// An empty store admitting at most `queue_cap` waiting jobs, without
    /// per-client quotas: [`JobStore::open`] with nothing to replay.
    /// Admissions and outcomes are persisted to `state` when there is one.
    pub fn new(queue_cap: usize, state: Option<StateLog>) -> Self {
        Self::empty(queue_cap, 0, 0, state)
    }

    fn empty(
        queue_cap: usize,
        quota_inflight: usize,
        quota_queued: usize,
        state: Option<StateLog>,
    ) -> Self {
        Self {
            inner: Mutex::new(Inner {
                jobs: BTreeMap::new(),
                next_id: 0,
                queue: ClassQueues::new(),
                accepting: true,
                running: 0,
                evicted: 0,
                usage: BTreeMap::new(),
            }),
            wakeup: Condvar::new(),
            queue_cap: queue_cap.max(1),
            quota_inflight,
            quota_queued,
            state,
        }
    }

    /// The constructor: a store admitting at most `queue_cap` waiting jobs
    /// under the per-client quotas (caps on non-terminal and on queued jobs;
    /// 0 = unlimited), persisting to `state` when there is one — and first
    /// rebuilt from its snapshot + log: jobs with a recorded outcome come
    /// back finished (masks loaded and hash-verified), jobs with a recorded
    /// cancellation come back terminal-cancelled, and jobs that were queued
    /// or running when the process died are re-planned from their persisted
    /// parameters and re-queued (bypassing the admission cap — they were
    /// already admitted once), `policy` bounding them. The compaction
    /// snapshot, when present, is replayed before `state.jsonl`; duplicate
    /// submit records are first-win and outcomes are folded in on top, so a
    /// crash between snapshot installation and log truncation replays to
    /// the same table. A torn trailing *log* line (crash mid-append) is
    /// tolerated; that job is simply re-run.
    ///
    /// # Errors
    ///
    /// Returns a message for an unreadable or mid-file-corrupt log or
    /// snapshot.
    pub fn open(
        queue_cap: usize,
        quota_inflight: usize,
        quota_queued: usize,
        state: Option<StateLog>,
        policy: &ExecPolicy,
    ) -> Result<(JobStore, RecoveryStats), String> {
        let store = JobStore::empty(queue_cap, quota_inflight, quota_queued, state);
        let Some(state) = &store.state else {
            return Ok((store, RecoveryStats::default()));
        };
        // Replay: submissions in record order (first submit per id wins, so
        // the snapshot takes precedence over a stale untruncated log),
        // outcomes and cancellations folded in by id.
        let mut submits: Vec<(usize, String, Option<String>, Admission)> = Vec::new();
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut finishes: BTreeMap<usize, Value> = BTreeMap::new();
        let mut cancels: BTreeSet<usize> = BTreeSet::new();
        let mut next_id_floor = 0usize;
        // The snapshot is written atomically, so damage there is real
        // corruption; only the appended log can have a torn tail.
        for (file, tolerate_tail) in [(SNAPSHOT_FILE, false), (LOG_FILE, true)] {
            let path = state.dir.join(file);
            for record in AppendLog::replay(&path, tolerate_tail)?.records {
                let mut fold = || -> Result<(), String> {
                    match record.field_str("kind")? {
                        "submit" => {
                            let id = record.field_usize("id")?;
                            // Pre-multi-tenant logs have no client/class;
                            // they replay under the defaults.
                            let default = Admission::default();
                            let admission = Admission {
                                client: record
                                    .field_str("client")
                                    .map_or(default.client, str::to_string),
                                class: record
                                    .field_str("class")
                                    .ok()
                                    .and_then(PriorityClass::parse)
                                    .unwrap_or(default.class),
                            };
                            if seen.insert(id) {
                                submits.push((
                                    id,
                                    record.field_str("query")?.to_string(),
                                    record.field_str("target").ok().map(str::to_string),
                                    admission,
                                ));
                            }
                        }
                        "finish" => {
                            finishes.insert(record.field_usize("id")?, record.clone());
                        }
                        "cancel" => {
                            cancels.insert(record.field_usize("id")?);
                        }
                        "compact" => {
                            next_id_floor = next_id_floor.max(record.field_usize("next_id")?);
                        }
                        _ => {} // future record kinds are not an error
                    }
                    Ok(())
                };
                fold().map_err(|e| format!("{} holds a corrupt record: {e}", path.display()))?;
            }
        }

        let mut stats = RecoveryStats::default();
        {
            let dir = &state.dir;
            let mut inner = store.lock();
            for (id, query, target, admission) in submits {
                let body = match &target {
                    Some(t) => std::fs::read(dir.join(t)).unwrap_or_default(),
                    None => Vec::new(),
                };
                let planned = JobParams::from_saved(&query, body, policy).and_then(|p| {
                    let (case, config) = p.plan()?;
                    let tiles = planned_jobs(&case, &config)?;
                    Ok((p, case, config, tiles))
                });
                let mut entry = match planned {
                    Err(why) => {
                        stats.restored += 1;
                        new_entry(
                            id,
                            format!("job{id}"),
                            JobState::Failed,
                            Some(format!("unreplayable after restart: {why}")),
                        )
                    }
                    Ok((params, case, config, tiles)) => {
                        let finished = finishes
                            .get(&id)
                            .and_then(|fin| restore_finished(dir, id, params.name.clone(), fin));
                        match finished {
                            Some(entry) => {
                                stats.restored += 1;
                                entry
                            }
                            // A cancellation with no durable outcome stays
                            // cancelled; the job never re-runs.
                            None if cancels.contains(&id) => {
                                stats.restored += 1;
                                new_entry(id, params.name, JobState::Cancelled, None)
                            }
                            // No durable outcome (or an unverifiable mask):
                            // the job runs again with its original id, in
                            // its original class, on its client's quota.
                            None => {
                                stats.requeued += 1;
                                inner.queue.push(admission.class, id);
                                inner.usage_add_queued(&admission.client);
                                queued_entry(id, case, config, tiles)
                            }
                        }
                    }
                };
                entry.query = Some(query);
                entry.target_file = target;
                entry.client = admission.client;
                entry.class = admission.class;
                inner.jobs.insert(id, entry);
            }
            inner.next_id =
                next_id_floor.max(inner.jobs.keys().next_back().map_or(0, |&id| id + 1));
        }
        Ok((store, stats))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("job store lock poisoned")
    }

    /// Admits a planned job for `admission`'s client and class, or refuses
    /// it with the reason the handler turns into a 503/429. With `params`
    /// (every HTTP submission) the description is retained and, when a
    /// state log is configured, persisted so the job survives a restart.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when the queue is at capacity,
    /// [`SubmitError::Draining`] after shutdown started,
    /// [`SubmitError::Quota`] when the client is over a per-client quota.
    ///
    /// # Panics
    ///
    /// If `(case, config)` cannot be planned; [`JobParams::plan`] has
    /// already refused such a job.
    pub fn submit(
        &self,
        params: Option<&JobParams>,
        case: BatchCase,
        config: BatchConfig,
        admission: Admission,
    ) -> Result<usize, SubmitError> {
        let tiles_planned = planned_jobs(&case, &config).expect("submit takes a plannable job");
        let mut inner = self.lock();
        if !inner.accepting {
            return Err(SubmitError::Draining);
        }
        // Per-client verdicts come before the global one: a flooding client
        // is told it is over *its* quota (429) rather than blamed on shared
        // capacity (503).
        let usage = inner.usage.get(&admission.client).copied().unwrap_or_default();
        if self.quota_queued > 0 && usage.queued >= self.quota_queued {
            return Err(SubmitError::Quota {
                client: admission.client,
                scope: "queued",
                limit: self.quota_queued,
            });
        }
        if self.quota_inflight > 0 && usage.queued + usage.active >= self.quota_inflight {
            return Err(SubmitError::Quota {
                client: admission.client,
                scope: "inflight",
                limit: self.quota_inflight,
            });
        }
        if inner.queue.len() >= self.queue_cap {
            return Err(SubmitError::Full { capacity: self.queue_cap });
        }
        let id = inner.next_id;
        inner.next_id += 1;
        // Logged under the lock so state-log order matches id order.
        if let (Some(state), Some(params)) = (&self.state, params) {
            state.log_submit(id, params, &admission);
        }
        let mut entry = queued_entry(id, case, config, tiles_planned);
        entry.query = params.map(|p| p.to_query());
        entry.target_file = params.and_then(|p| match &p.source {
            JobSource::Inline(_) => Some(target_file_name(id)),
            _ => None,
        });
        inner.queue.push(admission.class, id);
        inner.usage_add_queued(&admission.client);
        entry.client = admission.client;
        entry.class = admission.class;
        inner.jobs.insert(id, entry);
        drop(inner);
        self.wakeup.notify_one();
        Ok(id)
    }

    /// Blocks until a job is available and claims it, or returns `None`
    /// when the store is draining and the queue is empty (worker exit
    /// signal). In-flight and already-queued jobs are always drained.
    /// The fourth element is the job's persisted parameter query (present
    /// for every HTTP submission) — the cluster coordinator re-dispatches
    /// from it so workers re-plan through the identical validation path.
    pub fn take_next(&self) -> Option<(usize, BatchCase, BatchConfig, Option<String>)> {
        let mut inner = self.lock();
        loop {
            if let Some((_, id)) = inner.queue.pop() {
                inner.running += 1;
                let entry = inner.jobs.get_mut(&id).expect("queued id exists");
                entry.state = JobState::Running;
                let (case, config) = entry.work.take().expect("queued job retains its work");
                let query = entry.query.clone();
                let client = entry.client.clone();
                inner.usage_claim(&client);
                return Some((id, case, config, query));
            }
            if !inner.accepting {
                return None;
            }
            inner = self.wakeup.wait(inner).expect("job store lock poisoned");
        }
    }

    /// Records a claimed job's terminal state (persisting it first, mask
    /// before log line, when a state log is configured).
    pub fn finish(&self, id: usize, outcome: Result<JobDone, String>) {
        // Persist outside the lock: mask writes are large and fsynced. The
        // persist guard keeps a concurrent compaction from truncating this
        // outcome line away before the table below reflects it.
        if let Some(state) = &self.state {
            state.begin_persist();
            state.log_finish(id, &outcome);
        }
        let mut inner = self.lock();
        inner.running -= 1;
        let entry = inner.jobs.get_mut(&id).expect("finished id exists");
        let client = entry.client.clone();
        match outcome {
            Ok(done) => {
                entry.state =
                    if done.failed_tiles == 0 { JobState::Done } else { JobState::Failed };
                if done.failed_tiles > 0 {
                    entry.error =
                        Some(format!("{} of {} tile(s) failed", done.failed_tiles, done.tiles));
                }
                entry.result = Some(done);
            }
            Err(e) => {
                entry.state = JobState::Failed;
                entry.error = Some(e);
            }
        }
        entry.finished_at = Some(Instant::now());
        inner.usage_drop_active(&client);
        drop(inner);
        if let Some(state) = &self.state {
            state.end_persist();
        }
        // finish() may have emptied the pipeline a drain is waiting on.
        self.wakeup.notify_all();
        self.maybe_compact();
    }

    /// Records a claimed job as cancelled: the worker observed the cancel
    /// token and stopped at a tile boundary without a usable result. The
    /// `cancel` record was already persisted by [`JobStore::cancel`].
    pub fn finish_cancelled(&self, id: usize) {
        let mut inner = self.lock();
        inner.running -= 1;
        let entry = inner.jobs.get_mut(&id).expect("cancelled id exists");
        entry.state = JobState::Cancelled;
        entry.finished_at = Some(Instant::now());
        let client = entry.client.clone();
        inner.usage_drop_active(&client);
        drop(inner);
        self.wakeup.notify_all();
        self.maybe_compact();
    }

    /// Cancels a job: queued jobs leave the queue and turn terminal
    /// immediately; running jobs have their cooperative token set and stop
    /// at the next tile boundary. Terminal jobs and unknown ids report what
    /// they are. The cancellation is persisted (for queued *and* running
    /// jobs) so a restart does not resurrect the job.
    pub fn cancel(&self, id: usize) -> CancelOutcome {
        let mut inner = self.lock();
        let Some(entry) = inner.jobs.get_mut(&id) else {
            return CancelOutcome::NoSuchJob;
        };
        let outcome = match entry.state {
            JobState::Queued => {
                entry.state = JobState::Cancelled;
                entry.work = None;
                entry.finished_at = Some(Instant::now());
                let client = entry.client.clone();
                inner.queue.retain(|&q| q != id);
                inner.usage_drop_queued(&client);
                CancelOutcome::Cancelled
            }
            JobState::Running => {
                entry.cancel.cancel();
                CancelOutcome::Cancelling
            }
            ref terminal => return CancelOutcome::AlreadyFinished(terminal.clone()),
        };
        // Begun under the table lock (compaction also holds it), so the
        // cancel record cannot be lost to a concurrent truncation.
        if let Some(state) = &self.state {
            state.begin_persist();
        }
        drop(inner);
        if let Some(state) = &self.state {
            state.log_cancel(id);
            state.end_persist();
        }
        if outcome == CancelOutcome::Cancelled {
            self.maybe_compact();
        }
        outcome
    }

    /// Folds the state log into [`SNAPSHOT_FILE`] and truncates it, once it
    /// has outgrown the configured threshold. Cancelled jobs and jobs whose
    /// mask was evicted are dropped from the snapshot — after the next
    /// restart those ids answer 404. Returns whether a compaction ran.
    pub fn maybe_compact(&self) -> bool {
        let Some(state) = &self.state else { return false };
        if !state.wants_compaction() {
            return false;
        }
        // Built and installed under the table lock: the snapshot is a
        // consistent point-in-time view, and appends (which also take the
        // store lock on every path that logs) cannot interleave.
        let inner = self.lock();
        let mut snapshot = format!("{{\"kind\":\"compact\",\"next_id\":{}}}\n", inner.next_id);
        // Side files referenced by snapshot entries; everything else in the
        // state directory is orphaned by this compaction and swept after.
        let mut keep: BTreeSet<String> = BTreeSet::new();
        for entry in inner.jobs.values() {
            let Some(query) = &entry.query else { continue }; // never persisted
            if entry.state == JobState::Cancelled {
                continue; // dropped: compaction is how cancelled ids age out
            }
            if entry.result.as_ref().is_some_and(|d| d.mask.is_none()) {
                continue; // mask evicted: not worth resurrecting either
            }
            snapshot.push_str(&submit_line(
                entry.id,
                query,
                &entry.client,
                entry.class,
                entry.target_file.as_deref(),
            ));
            snapshot.push('\n');
            keep.extend(entry.target_file.clone());
            if entry.result.as_ref().is_some_and(|d| d.mask.is_some()) {
                keep.insert(mask_file_name(entry.id));
            }
            if entry.state.is_terminal() {
                let line = match (&entry.result, &entry.error) {
                    (Some(done), _) => {
                        // The mask PGM was made durable by log_finish before
                        // its original finish line was appended.
                        let mask_file =
                            done.mask.as_ref().map(|_| mask_file_name(entry.id));
                        finish_line_ok(entry.id, done, mask_file.as_deref())
                    }
                    (None, Some(error)) => finish_line_err(entry.id, error),
                    (None, None) => finish_line_err(entry.id, "unknown failure"),
                };
                snapshot.push_str(&line);
                snapshot.push('\n');
            }
        }
        let ok = state.replace_with_snapshot(snapshot.as_bytes()).is_ok();
        if ok {
            // Still under the table lock (no submit/finish can be writing
            // new side files), delete the PGM files the snapshot no longer
            // references: masks and targets of compacted-away jobs.
            gc_state_files(&state.dir, &keep);
        }
        drop(inner);
        ok
    }

    /// Evicts resident masks that finished more than `ttl` ago, then the
    /// oldest-finished masks beyond `max_resident`. Evicted jobs keep all
    /// metadata; their mask endpoint answers `410 Gone`. Returns the number
    /// evicted by this sweep.
    pub fn sweep(&self, ttl: Option<Duration>, max_resident: usize) -> usize {
        let mut inner = self.lock();
        let mut evicted = 0usize;
        let mut resident: Vec<(Instant, usize)> = Vec::new();
        for entry in inner.jobs.values_mut() {
            let Some(done) = &mut entry.result else { continue };
            if done.mask.is_none() {
                continue;
            }
            let finished = entry.finished_at.unwrap_or_else(Instant::now);
            if ttl.is_some_and(|ttl| finished.elapsed() > ttl) {
                done.mask = None;
                evicted += 1;
            } else {
                resident.push((finished, entry.id));
            }
        }
        if resident.len() > max_resident {
            resident.sort_by_key(|&(at, _)| at);
            let excess = resident.len() - max_resident;
            for &(_, id) in resident.iter().take(excess) {
                if let Some(done) = inner.jobs.get_mut(&id).and_then(|e| e.result.as_mut()) {
                    done.mask = None;
                    evicted += 1;
                }
            }
        }
        inner.evicted += evicted;
        evicted
    }

    /// Masks evicted since start.
    pub fn evictions(&self) -> usize {
        self.lock().evicted
    }

    /// Stops admissions and wakes every worker so the queue drains.
    pub fn close(&self) {
        self.lock().accepting = false;
        self.wakeup.notify_all();
    }

    /// Fails every still-queued job (only reachable when the server runs
    /// with zero workers, e.g. in admission tests).
    pub fn abandon_queued(&self) {
        let mut inner = self.lock();
        while let Some((_, id)) = inner.queue.pop() {
            let entry = inner.jobs.get_mut(&id).expect("queued id exists");
            entry.state = JobState::Failed;
            entry.error = Some("dropped at shutdown before a worker picked it up".into());
            entry.work = None;
            entry.finished_at = Some(Instant::now());
            let client = entry.client.clone();
            inner.usage_drop_queued(&client);
        }
    }

    /// Jobs waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Queue depth per priority class, indexed like [`PriorityClass::ALL`].
    pub fn queue_depth_by_class(&self) -> [usize; 3] {
        self.lock().queue.len_by_class()
    }

    /// Point-in-time per-client `(client, usage)` pairs. A fully drained
    /// store returns an empty vector — the reconciliation invariant the
    /// fairness fuzz test pins.
    pub fn quota_usage(&self) -> Vec<(String, ClientUsage)> {
        self.lock().usage.iter().map(|(c, u)| (c.clone(), *u)).collect()
    }

    /// Jobs currently executing.
    pub fn running(&self) -> usize {
        self.lock().running
    }

    /// Total jobs ever admitted.
    pub fn len(&self) -> usize {
        self.lock().jobs.len()
    }

    /// True when no job was ever admitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// JSON summary array for `GET /v1/jobs`.
    pub fn render_list(&self) -> String {
        let inner = self.lock();
        let items: Vec<String> = inner.jobs.values().map(render_summary).collect();
        format!("{{\"jobs\":[{}],\"queue_depth\":{}}}", items.join(","), inner.queue.len())
    }

    /// JSON detail object for `GET /v1/jobs/{id}`; `None` for unknown ids.
    /// With `mask_base64` the finished mask is inlined as a base64 PGM.
    pub fn render_detail(&self, id: usize, mask_base64: bool) -> Option<String> {
        let inner = self.lock();
        let entry = inner.jobs.get(&id)?;
        let mut s = render_summary(entry);
        s.pop(); // strip the closing brace to extend the object
        if let Some(done) = &entry.result {
            let records: Vec<String> = done.records.iter().map(|r| r.to_json()).collect();
            s.push_str(&format!(
                ",\"mask_hash\":\"{:016x}\",\"wall_ms\":{},\"records\":[{}]",
                done.mask_hash,
                json_f64(done.wall_ms),
                records.join(",")
            ));
            if let Some(eval) = &done.eval {
                s.push_str(&format!(
                    ",\"eval\":{{\"l2_nm2\":{},\"pvband_nm2\":{},\"epe\":{},\"shots\":{}}}",
                    json_f64(eval.l2_nm2),
                    json_f64(eval.pvband_nm2),
                    eval.epe_violations(),
                    eval.shots
                ));
            }
            if mask_base64 {
                if let Some(mask) = &done.mask {
                    let pgm = ilt_field::pgm_bytes(mask, 0.0, 1.0);
                    s.push_str(&format!(
                        ",\"mask_pgm_base64\":\"{}\"",
                        crate::http::base64_encode(&pgm)
                    ));
                }
            }
        }
        s.push('}');
        Some(s)
    }

    /// The finished mask as PGM bytes, for `GET /v1/jobs/{id}/mask`.
    ///
    /// An evicted mask is *re-hydrated* when a state directory is
    /// configured: the durable `job-{id}.pgm` is reloaded, hash-verified
    /// against the recorded `mask_hash`, re-installed as resident, and
    /// served as [`MaskFetch::Rehydrated`] — byte-identical to the
    /// pre-eviction bytes. Only a missing file (compaction GC'd it) or a
    /// hash mismatch (on-disk corruption) answers [`MaskFetch::Gone`]; the
    /// store never serves a mask the log can't vouch for.
    pub fn mask_pgm(&self, id: usize) -> MaskFetch {
        let (dir, expected_hash) = {
            let inner = self.lock();
            match inner.jobs.get(&id) {
                None => return MaskFetch::NoSuchJob,
                Some(entry) => match &entry.result {
                    Some(done) => match &done.mask {
                        Some(mask) => {
                            return MaskFetch::Ready(ilt_field::pgm_bytes(mask, 0.0, 1.0))
                        }
                        None => {
                            let Some(state) = &self.state else { return MaskFetch::Gone };
                            (state.dir.clone(), done.mask_hash)
                        }
                    },
                    None => return MaskFetch::NotReady(entry.state.clone()),
                },
            }
        };
        // Disk I/O and hashing run outside the lock; scrapes and submits
        // are never blocked on a re-hydration.
        let Ok(loaded) = load_mask(&dir, &mask_file_name(id)) else {
            return MaskFetch::Gone;
        };
        if field_hash(&loaded) != expected_hash {
            return MaskFetch::Gone;
        }
        let bytes = pgm_bytes(&loaded, 0.0, 1.0);
        let mut inner = self.lock();
        if let Some(done) = inner.jobs.get_mut(&id).and_then(|e| e.result.as_mut()) {
            // A concurrent fetch may have re-installed it already; either
            // way the resident mask carries the verified hash.
            if done.mask.is_none() {
                done.mask = Some(loaded);
            }
        }
        MaskFetch::Rehydrated(bytes)
    }
}

/// Deletes `job-*.pgm` side files (masks and inline targets) that the
/// just-installed compaction snapshot no longer references. Runs under the
/// job-table lock, so no concurrent submission or finish can be writing a
/// new side file while the directory is swept; `wal.jsonl`, `state.jsonl`,
/// the snapshot itself, and any foreign files are never touched.
fn gc_state_files(dir: &Path, keep: &BTreeSet<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("job-") && name.ends_with(".pgm") && !keep.contains(name) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// The one place a [`JobEntry`] is spelled out: no work, no result, a
/// fresh cancel token and progress counter, the default admission; a
/// terminal `state` is stamped finished now.
fn new_entry(id: usize, name: String, state: JobState, error: Option<String>) -> JobEntry {
    let default = Admission::default();
    JobEntry {
        id,
        name,
        client: default.client,
        class: default.class,
        finished_at: state.is_terminal().then(Instant::now),
        state,
        error,
        work: None,
        result: None,
        cancel: CancelToken::new(),
        progress: Progress::new(),
        tiles_planned: 0,
        query: None,
        target_file: None,
    }
}

/// A queued entry owning its work, its cancel token and progress counter
/// wired into the batch config the worker will execute.
fn queued_entry(id: usize, case: BatchCase, mut config: BatchConfig, tiles: usize) -> JobEntry {
    let mut entry = new_entry(id, case.name.clone(), JobState::Queued, None);
    config.cancel = entry.cancel.clone();
    config.progress = entry.progress.clone();
    entry.tiles_planned = tiles;
    entry.work = Some((case, config));
    entry
}

/// Reconstructs a terminal [`JobEntry`] from a persisted finish line.
/// Returns `None` when the outcome claims a mask that is missing or fails
/// hash verification — the caller re-queues the job instead of serving a
/// mask the log can't vouch for.
fn restore_finished(dir: &Path, id: usize, name: String, fin: &Value) -> Option<JobEntry> {
    if !fin.get("ok")?.as_bool()? {
        let error = fin.field_str("error").unwrap_or_default().to_string();
        return Some(new_entry(id, name, JobState::Failed, Some(error)));
    }
    // A success without a durable mask returns None here: re-run.
    let mask = load_mask(dir, fin.field_str("mask").ok()?).ok()?;
    if field_hash(&mask) != fin.field_hex("mask_hash").ok()? {
        return None;
    }
    let tiles = fin.field_usize("tiles").ok()?;
    let failed_tiles = fin.field_usize("failed_tiles").ok()?;
    let error = (failed_tiles > 0)
        .then(|| format!("{failed_tiles} of {tiles} tile(s) failed"));
    let state = if failed_tiles == 0 { JobState::Done } else { JobState::Failed };
    let mut entry = new_entry(id, name, state, error);
    entry.result = Some(JobDone {
        mask_hash: field_hash(&mask),
        mask: Some(mask),
        records: Vec::new(),
        tiles,
        failed_tiles,
        degraded_tiles: fin.field_usize("degraded_tiles").unwrap_or(0),
        eval: None,
        wall_ms: fin.field_f64("wall_ms").unwrap_or(0.0),
    });
    Some(entry)
}

fn render_summary(entry: &JobEntry) -> String {
    let mut s = format!(
        "{{\"id\":{},\"name\":\"{}\",\"client\":\"{}\",\"class\":\"{}\",\"state\":\"{}\"",
        entry.id,
        json_escape(&entry.name),
        json_escape(&entry.client),
        entry.class.as_str(),
        entry.state.as_str()
    );
    if let Some(done) = &entry.result {
        s.push_str(&format!(
            ",\"tiles\":{},\"failed_tiles\":{},\"degraded_tiles\":{},\"mask_resident\":{}",
            done.tiles,
            done.failed_tiles,
            done.degraded_tiles,
            done.mask.is_some()
        ));
    } else if !entry.state.is_terminal() {
        // Streaming progress for queued/running jobs: tiles completed so
        // far out of the planned decomposition.
        s.push_str(&format!(
            ",\"tiles_done\":{},\"tiles_planned\":{}",
            entry.progress.done(),
            entry.tiles_planned
        ));
    }
    if let Some(error) = &entry.error {
        s.push_str(&format!(",\"error\":\"{}\"", json_escape(error)));
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Request;

    fn tiny_case(name: &str) -> (BatchCase, BatchConfig) {
        let target = Field2D::from_fn(64, 64, |r, c| {
            if (24..40).contains(&r) && (16..48).contains(&c) { 1.0 } else { 0.0 }
        });
        (
            BatchCase { name: name.into(), target, nm_per_px: 8.0 },
            BatchConfig::default(),
        )
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let store = JobStore::new(2, None);
        let (c, cfg) = tiny_case("a");
        assert_eq!(store.submit(None, c.clone(), cfg.clone(), Admission::default()), Ok(0));
        assert_eq!(store.submit(None, c.clone(), cfg.clone(), Admission::default()), Ok(1));
        assert_eq!(
            store.submit(None, c.clone(), cfg.clone(), Admission::default()),
            Err(SubmitError::Full { capacity: 2 })
        );
        // Claiming one frees a slot.
        let (id, ..) = store.take_next().unwrap();
        assert_eq!(id, 0);
        assert_eq!(store.submit(None, c, cfg, Admission::default()), Ok(2));
        assert_eq!(store.queue_depth(), 2);
        assert_eq!(store.running(), 1);
    }

    #[test]
    fn draining_refuses_submissions_but_serves_queue() {
        let store = JobStore::new(4, None);
        let (c, cfg) = tiny_case("a");
        store.submit(None, c.clone(), cfg.clone(), Admission::default()).unwrap();
        store.close();
        assert_eq!(store.submit(None, c, cfg, Admission::default()), Err(SubmitError::Draining));
        // The queued job is still handed out, then the drain signal.
        assert!(store.take_next().is_some());
        store.finish(0, Err("x".into()));
        assert!(store.take_next().is_none());
    }

    #[test]
    fn finish_transitions_states_and_renders() {
        let store = JobStore::new(4, None);
        let (c, cfg) = tiny_case("m1 \"quoted\"");
        store.submit(None, c, cfg, Admission::default()).unwrap();
        let (id, case, _, _) = store.take_next().unwrap();
        let mask = case.target.threshold(0.5);
        let done = JobDone {
            mask_hash: ilt_runtime::field_hash(&mask),
            mask: Some(mask),
            records: Vec::new(),
            tiles: 1,
            failed_tiles: 0,
            degraded_tiles: 0,
            eval: None,
            wall_ms: 12.0,
        };
        store.finish(id, Ok(done));
        let detail = store.render_detail(0, false).unwrap();
        assert!(detail.contains("\"state\":\"done\""), "{detail}");
        assert!(detail.contains("\\\"quoted\\\""), "escaping shared with the journal");
        assert!(store.render_detail(99, false).is_none());
        match store.mask_pgm(0) {
            MaskFetch::Ready(bytes) => assert!(bytes.starts_with(b"P5\n64 64\n255\n")),
            _ => panic!("mask must be ready"),
        }
        let list = store.render_list();
        assert!(list.starts_with("{\"jobs\":[{"), "{list}");
    }

    #[test]
    fn failed_tiles_mark_the_job_failed() {
        let store = JobStore::new(4, None);
        let (c, cfg) = tiny_case("a");
        store.submit(None, c, cfg, Admission::default()).unwrap();
        let (id, case, _, _) = store.take_next().unwrap();
        let mask = case.target.threshold(0.5);
        store.finish(
            id,
            Ok(JobDone {
                mask_hash: ilt_runtime::field_hash(&mask),
                mask: Some(mask),
                records: Vec::new(),
                tiles: 9,
                failed_tiles: 2,
                degraded_tiles: 0,
                eval: None,
                wall_ms: 1.0,
            }),
        );
        let detail = store.render_detail(0, false).unwrap();
        assert!(detail.contains("\"state\":\"failed\""));
        assert!(detail.contains("2 of 9 tile(s) failed"));
        // The degraded mask is still fetchable.
        assert!(matches!(store.mask_pgm(0), MaskFetch::Ready(_)));
    }

    #[test]
    fn abandon_queued_fails_leftovers() {
        let store = JobStore::new(4, None);
        let (c, cfg) = tiny_case("a");
        store.submit(None, c, cfg, Admission::default()).unwrap();
        store.close();
        store.abandon_queued();
        let detail = store.render_detail(0, false).unwrap();
        assert!(detail.contains("\"state\":\"failed\""));
        assert!(detail.contains("dropped at shutdown"));
        assert!(store.take_next().is_none());
    }

    fn request_with_query(query: &str) -> Request {
        Request {
            method: "POST".into(),
            path: "/v1/jobs".into(),
            query: query
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|p| {
                    let (k, v) = p.split_once('=').unwrap_or((p, ""));
                    (k.to_string(), v.to_string())
                })
                .collect(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    #[test]
    fn params_defaults_mirror_the_batch_cli() {
        let req = request_with_query("case=case1");
        let p = JobParams::from_request(&req, &ExecPolicy::default()).unwrap();
        assert_eq!(p.grid, 512);
        assert_eq!(p.kernels, 10);
        assert_eq!(p.tile, 512);
        assert_eq!(p.halo, 64);
        assert_eq!(p.schedule, "fast");
        assert_eq!(p.retries, 1);
        assert!(p.evaluate);
        let (case, config) = p.plan().unwrap();
        assert_eq!(case.name, "case1");
        assert_eq!(case.target.shape(), (512, 512));
        assert_eq!(config.ilt.early_exit_window, Some(15));
        assert!(config.timeout.is_none());
    }

    #[test]
    fn params_overrides_and_validation() {
        let policy = ExecPolicy { max_threads_per_job: 2, ..ExecPolicy::default() };
        let req = request_with_query("via=7&grid=64&kernels=3&tile=32&halo=8&iters=2&threads=16&eval=0");
        let p = JobParams::from_request(&req, &policy).unwrap();
        assert_eq!(p.threads, 2, "clamped by policy");
        assert!(!p.evaluate);
        let (_, config) = p.plan().unwrap();
        assert!(config.schedule.iter().all(|s| s.iterations == 2));

        for bad in [
            "",                       // no source
            "case=case1&via=2",       // two sources
            "case=case99",            // out of range
            "case=case1&grid=100",    // not a power of two
            "case=case1&seam=zigzag", // unknown seam
            "case=case1&schedule=mystery",
            "case=case1&iters=0",
            "case=case1&eval=maybe",
        ] {
            let req = request_with_query(bad);
            assert!(
                JobParams::from_request(&req, &ExecPolicy::default()).is_err(),
                "query {bad:?} must be rejected"
            );
        }
        // Well-formed values no tile plan can satisfy: the planner's verdict
        // is `plan()`'s, before admission.
        for bad in ["case=1&grid=128&tile=48", "case=1&grid=128&tile=64&halo=40"] {
            let p = JobParams::from_request(&request_with_query(bad), &ExecPolicy::default());
            assert!(p.expect(bad).plan().is_err(), "query {bad:?} must not plan");
        }
    }

    fn done_for(case: &BatchCase, tiles: usize) -> JobDone {
        let mask = case.target.threshold(0.5);
        JobDone {
            mask_hash: field_hash(&mask),
            mask: Some(mask),
            records: Vec::new(),
            tiles,
            failed_tiles: 0,
            degraded_tiles: 0,
            eval: None,
            wall_ms: 5.0,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ilt-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ttl_sweep_evicts_masks_but_keeps_metadata() {
        let store = JobStore::new(4, None);
        let (c, cfg) = tiny_case("a");
        store.submit(None, c.clone(), cfg, Admission::default()).unwrap();
        let (id, case, _, _) = store.take_next().unwrap();
        store.finish(id, Ok(done_for(&case, 1)));

        // A generous TTL keeps the mask; a zero TTL evicts it.
        assert_eq!(store.sweep(Some(Duration::from_secs(3600)), usize::MAX), 0);
        assert!(matches!(store.mask_pgm(0), MaskFetch::Ready(_)));
        assert_eq!(store.sweep(Some(Duration::ZERO), usize::MAX), 1);
        assert_eq!(store.evictions(), 1);
        assert!(matches!(store.mask_pgm(0), MaskFetch::Gone));
        // Metadata and hash survive; only the pixels are gone.
        let detail = store.render_detail(0, true).unwrap();
        assert!(detail.contains("\"mask_resident\":false"), "{detail}");
        assert!(detail.contains("\"mask_hash\""), "{detail}");
        assert!(!detail.contains("mask_pgm_base64"), "{detail}");
        // Re-sweeping does not double-count.
        assert_eq!(store.sweep(Some(Duration::ZERO), usize::MAX), 0);
    }

    #[test]
    fn residency_cap_evicts_oldest_finished_first() {
        let store = JobStore::new(8, None);
        let (c, cfg) = tiny_case("a");
        for _ in 0..3 {
            store.submit(None, c.clone(), cfg.clone(), Admission::default()).unwrap();
        }
        for _ in 0..3 {
            let (id, case, _, _) = store.take_next().unwrap();
            store.finish(id, Ok(done_for(&case, 1)));
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(store.sweep(None, 1), 2, "two oldest evicted");
        assert!(matches!(store.mask_pgm(0), MaskFetch::Gone));
        assert!(matches!(store.mask_pgm(1), MaskFetch::Gone));
        assert!(matches!(store.mask_pgm(2), MaskFetch::Ready(_)));
    }

    #[test]
    fn params_round_trip_through_the_query_codec() {
        let req = request_with_query(
            "via=9&grid=64&kernels=3&tile=32&halo=8&seam=blend:4&schedule=via&iters=7&eval=0",
        );
        let p = JobParams::from_request(&req, &ExecPolicy::default()).unwrap();
        let q = JobParams::from_saved(&p.to_query(), Vec::new(), &ExecPolicy::default()).unwrap();
        assert_eq!(format!("{:?}", p), format!("{:?}", q));
        // Names with query metacharacters survive the round trip.
        let mut named = p.clone();
        named.name = "we&ird=na me%".into();
        let r =
            JobParams::from_saved(&named.to_query(), Vec::new(), &ExecPolicy::default()).unwrap();
        assert_eq!(r.name, "we&ird=na me%");
    }

    #[test]
    fn inject_param_is_gated_by_policy() {
        let req = request_with_query("case=case1&inject=panic@0:1");
        let err = JobParams::from_request(&req, &ExecPolicy::default()).unwrap_err();
        assert!(err.contains("disabled"), "{err}");

        let open = ExecPolicy { allow_inject: true, ..ExecPolicy::default() };
        let p = JobParams::from_request(&req, &open).unwrap();
        assert!(!p.faults.is_empty());
        let (_, config) = p.plan().unwrap();
        assert!(!config.faults.is_empty(), "the plan carries the fault plan");
        // The fault plan round-trips through the persistence query even
        // under a locked-down policy (recovery replays it).
        let r = JobParams::from_saved(&p.to_query(), Vec::new(), &ExecPolicy::default()).unwrap();
        assert_eq!(format!("{}", r.faults), format!("{}", p.faults));

        // A malformed spec is a 400-class error even when allowed.
        let bad = request_with_query("case=case1&inject=explode@zero");
        assert!(JobParams::from_request(&bad, &open).is_err());
    }

    #[test]
    fn fault_grammar_round_trips_through_the_http_query_form() {
        // Every fault kind must survive the real wire parser (percent
        // decoding and all) → JobParams → to_query → from_saved, the path
        // a recovered job's fault plan takes across a restart. `--inject`
        // shares the same grammar, pinned in ilt-runtime's fault tests.
        let open = ExecPolicy { allow_inject: true, ..ExecPolicy::default() };
        for spec in ["panic@0", "delay@1:2=250", "build@2:1", "nan@3:1-3", "ckpt@4", "crash@5"] {
            let raw = format!(
                "POST /v1/jobs?case=case1&inject={spec} HTTP/1.1\r\ncontent-length: 0\r\n\r\n"
            );
            let req = crate::http::Request::read_from(
                &mut raw.as_bytes(),
                &crate::http::Limits::default(),
            )
            .unwrap_or_else(|e| panic!("{spec}: {e:?}"));
            let p = JobParams::from_request(&req, &open).expect(spec);
            assert_eq!(p.faults.to_string(), spec, "wire parse must be lossless");
            let saved = JobParams::from_saved(&p.to_query(), Vec::new(), &ExecPolicy::default())
                .expect(spec);
            assert_eq!(saved.faults.to_string(), spec, "persistence round trip");
        }
    }

    #[test]
    fn state_log_recovers_done_and_requeues_interrupted() {
        let dir = temp_dir("recover");
        let (c, cfg) = tiny_case("a");
        {
            let store =
                JobStore::new(8, Some(StateLog::open(&dir, 0).unwrap()));
            let params = JobParams::from_request(
                &request_with_query("case=case1&grid=64&kernels=3&name=done-job"),
                &ExecPolicy::default(),
            )
            .unwrap();
            store.submit(Some(&params), c.clone(), cfg.clone(), Admission::default()).unwrap();
            let interrupted = JobParams::from_request(
                &request_with_query("case=case2&grid=64&kernels=3&name=interrupted"),
                &ExecPolicy::default(),
            )
            .unwrap();
            store.submit(Some(&interrupted), c.clone(), cfg.clone(), Admission::default()).unwrap();
            // Job 0 finishes; job 1 is taken but never finished (the crash).
            let (id, case, _, _) = store.take_next().unwrap();
            store.finish(id, Ok(done_for(&case, 1)));
            let _ = store.take_next().unwrap();
        }

        let (store, stats) =
            JobStore::open(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()), &ExecPolicy::default()).unwrap();
        assert_eq!(stats, RecoveryStats { restored: 1, requeued: 1 });
        // Job 0 came back finished, mask verified byte-identical.
        let detail = store.render_detail(0, false).unwrap();
        assert!(detail.contains("\"state\":\"done\""), "{detail}");
        assert!(detail.contains("done-job"), "{detail}");
        match store.mask_pgm(0) {
            MaskFetch::Ready(bytes) => {
                assert_eq!(bytes, pgm_bytes(&c.target.threshold(0.5), 0.0, 1.0));
            }
            _ => panic!("recovered mask must be ready"),
        }
        // Job 1 is queued again under its original id and params.
        let (id, case, _, _) = store.take_next().unwrap();
        assert_eq!(id, 1);
        assert_eq!(case.name, "interrupted");

        // A finish line whose mask file was corrupted is not trusted.
        let mask_path = dir.join(mask_file_name(0));
        let mut bytes = std::fs::read(&mask_path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xff;
        std::fs::write(&mask_path, bytes).unwrap();
        let (store, stats) =
            JobStore::open(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()), &ExecPolicy::default()).unwrap();
        assert_eq!(stats, RecoveryStats { restored: 0, requeued: 2 });
        assert_eq!(store.queue_depth(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_state_line_is_tolerated() {
        let dir = temp_dir("torn");
        {
            let store = JobStore::new(8, Some(StateLog::open(&dir, 0).unwrap()));
            let (c, cfg) = tiny_case("a");
            let params = JobParams::from_request(
                &request_with_query("case=case1&grid=64&kernels=3"),
                &ExecPolicy::default(),
            )
            .unwrap();
            store.submit(Some(&params), c.clone(), cfg.clone(), Admission::default()).unwrap();
            store.submit(Some(&params), c, cfg, Admission::default()).unwrap();
        }
        // Chop the last line in half: a crash mid-append.
        let path = dir.join("state.jsonl");
        let raw = std::fs::read_to_string(&path).unwrap();
        let keep = raw.len() - raw.lines().last().unwrap().len() / 2 - 1;
        std::fs::write(&path, &raw.as_bytes()[..keep]).unwrap();

        let (store, stats) =
            JobStore::open(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()), &ExecPolicy::default()).unwrap();
        assert_eq!(stats, RecoveryStats { restored: 0, requeued: 1 });
        assert_eq!(store.len(), 1, "the torn submission is simply forgotten");

        // Mid-file corruption, by contrast, refuses to recover.
        std::fs::write(&path, "{\"kind\":\"submit\",\"id\":garbage\nnot json either\n").unwrap();
        let state = StateLog::open(&dir, 0).unwrap();
        let err = match JobStore::open(8, 0, 0, Some(state), &ExecPolicy::default()) {
            Err(e) => e,
            Ok(_) => panic!("mid-file corruption must refuse recovery"),
        };
        assert!(err.contains("corrupt"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_appended_after_a_torn_tail_is_not_glued_onto_it() {
        // The crash: two submits persisted, the second torn mid-append. The
        // restarted server then finishes job 0 — its `finish` record must
        // start on a fresh line, not continue the half-written submit.
        let dir = temp_dir("glue");
        let (c, cfg) = tiny_case("a");
        {
            let store = JobStore::new(8, Some(StateLog::open(&dir, 0).unwrap()));
            let params = JobParams::from_request(
                &request_with_query("case=case1&grid=64&kernels=3"),
                &ExecPolicy::default(),
            )
            .unwrap();
            store.submit(Some(&params), c.clone(), cfg.clone(), Admission::default()).unwrap();
            store.submit(Some(&params), c, cfg, Admission::default()).unwrap();
        }
        let path = dir.join("state.jsonl");
        let raw = std::fs::read_to_string(&path).unwrap();
        let keep = raw.len() - raw.lines().last().unwrap().len() / 2 - 1;
        std::fs::write(&path, &raw.as_bytes()[..keep]).unwrap();

        let (store, stats) =
            JobStore::open(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()), &ExecPolicy::default()).unwrap();
        assert_eq!(stats, RecoveryStats { restored: 0, requeued: 1 });
        let (id, case, _, _) = store.take_next().unwrap();
        assert_eq!(id, 0);
        // (The recovered job was re-planned from its persisted query.)
        let expected = pgm_bytes(&case.target.threshold(0.5), 0.0, 1.0);
        store.finish(id, Ok(done_for(&case, 1)));
        drop(store);

        let log = std::fs::read_to_string(&path).unwrap();
        for line in log.lines() {
            ilt_runtime::json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
        let (store, stats) =
            JobStore::open(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()), &ExecPolicy::default()).unwrap();
        assert_eq!(stats, RecoveryStats { restored: 1, requeued: 0 });
        assert_eq!(store.len(), 1, "no phantom job from a glued line");
        assert!(store.render_detail(0, false).unwrap().contains("\"state\":\"done\""));
        match store.mask_pgm(0) {
            MaskFetch::Ready(bytes) => assert!(bytes == expected, "restored mask differs"),
            _ => panic!("the finished job must come back with its mask"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_queued_job_is_immediately_terminal() {
        let store = JobStore::new(4, None);
        let (c, cfg) = tiny_case("a");
        store.submit(None, c.clone(), cfg.clone(), Admission::default()).unwrap();
        store.submit(None, c, cfg, Admission::default()).unwrap();
        assert_eq!(store.cancel(1), CancelOutcome::Cancelled);
        assert_eq!(store.queue_depth(), 1, "only job 0 remains queued");
        let detail = store.render_detail(1, false).unwrap();
        assert!(detail.contains("\"state\":\"cancelled\""), "{detail}");
        assert!(matches!(store.mask_pgm(1), MaskFetch::NotReady(JobState::Cancelled)));
        // Cancelling again (or a bogus id) reports what happened.
        assert_eq!(
            store.cancel(1),
            CancelOutcome::AlreadyFinished(JobState::Cancelled)
        );
        assert_eq!(store.cancel(99), CancelOutcome::NoSuchJob);
        // The untouched job still hands out normally.
        let (id, ..) = store.take_next().unwrap();
        assert_eq!(id, 0);
    }

    #[test]
    fn cancel_running_job_sets_the_token_and_lands_cancelled() {
        let store = JobStore::new(4, None);
        let (c, cfg) = tiny_case("a");
        store.submit(None, c, cfg, Admission::default()).unwrap();
        let (id, _case, config, _) = store.take_next().unwrap();
        assert!(!config.cancel.is_cancelled());
        assert_eq!(store.cancel(id), CancelOutcome::Cancelling);
        assert!(config.cancel.is_cancelled(), "the worker's token is the same token");
        // The worker observes the token at a tile boundary and reports in.
        store.finish_cancelled(id);
        assert_eq!(store.running(), 0);
        let detail = store.render_detail(id, false).unwrap();
        assert!(detail.contains("\"state\":\"cancelled\""), "{detail}");
        assert_eq!(
            store.cancel(id),
            CancelOutcome::AlreadyFinished(JobState::Cancelled)
        );
    }

    #[test]
    fn progress_counters_render_for_live_jobs_only() {
        let store = JobStore::new(4, None);
        let target = Field2D::from_fn(64, 64, |r, _| if r < 32 { 1.0 } else { 0.0 });
        let case = BatchCase { name: "p".into(), target, nm_per_px: 8.0 };
        let config = BatchConfig { tile: 32, halo: 8, ..BatchConfig::default() };
        store.submit(None, case, config, Admission::default()).unwrap();
        let detail = store.render_detail(0, false).unwrap();
        assert!(detail.contains("\"tiles_done\":0"), "{detail}");
        assert!(
            detail.contains("\"tiles_planned\":16"),
            "64px field over 16px cores (tile 32 - 2*halo 8) = 4x4: {detail}"
        );
        let (id, case, config, _) = store.take_next().unwrap();
        config.progress.tick();
        config.progress.tick();
        let detail = store.render_detail(id, false).unwrap();
        assert!(detail.contains("\"tiles_done\":2"), "{detail}");
        store.finish(id, Ok(done_for(&case, 4)));
        let detail = store.render_detail(id, false).unwrap();
        assert!(!detail.contains("tiles_done"), "terminal jobs report tiles, not progress: {detail}");
        assert!(detail.contains("\"tiles\":4"), "{detail}");
    }

    #[test]
    fn cancelled_job_survives_restart_as_cancelled() {
        let dir = temp_dir("cancel-restart");
        let (c, cfg) = tiny_case("a");
        {
            let store = JobStore::new(8, Some(StateLog::open(&dir, 0).unwrap()));
            let params = JobParams::from_request(
                &request_with_query("case=case1&grid=64&kernels=3&name=doomed"),
                &ExecPolicy::default(),
            )
            .unwrap();
            store.submit(Some(&params), c.clone(), cfg.clone(), Admission::default()).unwrap();
            store.submit(Some(&params), c, cfg, Admission::default()).unwrap();
            assert_eq!(store.cancel(0), CancelOutcome::Cancelled);
        }
        let (store, stats) =
            JobStore::open(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()), &ExecPolicy::default()).unwrap();
        assert_eq!(stats, RecoveryStats { restored: 1, requeued: 1 });
        let detail = store.render_detail(0, false).unwrap();
        assert!(detail.contains("\"state\":\"cancelled\""), "never re-runs: {detail}");
        assert_eq!(store.queue_depth(), 1, "only the uncancelled job is requeued");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_snapshots_live_jobs_truncates_log_and_drops_cancelled() {
        let dir = temp_dir("compact");
        let (c, cfg) = tiny_case("a");
        let params = |name: &str| {
            JobParams::from_request(
                &request_with_query(&format!("case=case1&grid=64&kernels=3&name={name}")),
                &ExecPolicy::default(),
            )
            .unwrap()
        };
        {
            // Threshold 1 byte: every terminal transition compacts.
            let state = StateLog::open(&dir, 1).unwrap();
            let store = JobStore::new(8, Some(state));
            for name in ["keeper", "doomed", "pending"] {
                store
                    .submit(Some(&params(name)), c.clone(), cfg.clone(), Admission::default())
                    .unwrap();
            }
            let (id, case, _, _) = store.take_next().unwrap();
            store.finish(id, Ok(done_for(&case, 1))); // compacts
            assert_eq!(store.cancel(1), CancelOutcome::Cancelled); // compacts again
        }
        let snapshot = std::fs::read_to_string(dir.join(SNAPSHOT_FILE)).unwrap();
        assert!(snapshot.starts_with("{\"kind\":\"compact\",\"next_id\":3}"), "{snapshot}");
        assert!(snapshot.contains("keeper"), "{snapshot}");
        assert!(snapshot.contains("pending"), "{snapshot}");
        assert!(!snapshot.contains("doomed"), "cancelled jobs age out: {snapshot}");
        let log = std::fs::read_to_string(dir.join("state.jsonl")).unwrap();
        assert!(log.is_empty(), "truncated after the last compaction: {log:?}");

        let (store, stats) =
            JobStore::open(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()), &ExecPolicy::default()).unwrap();
        assert_eq!(stats, RecoveryStats { restored: 1, requeued: 1 });
        // The finished job is byte-identical across the compaction boundary.
        match store.mask_pgm(0) {
            MaskFetch::Ready(bytes) => {
                assert_eq!(bytes, pgm_bytes(&c.target.threshold(0.5), 0.0, 1.0));
            }
            _ => panic!("compacted mask must recover"),
        }
        // The cancelled id is gone for good; ids never recycle.
        assert!(store.render_detail(1, false).is_none());
        let (sc, scfg) = tiny_case("next");
        assert_eq!(store.submit(None, sc, scfg, Admission::default()), Ok(3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_gc_deletes_orphaned_state_files() {
        let dir = temp_dir("gc");
        let img = Field2D::from_fn(64, 64, |r, _| if r < 32 { 1.0 } else { 0.0 });
        let submit = |store: &JobStore, name: &str| {
            let mut req = request_with_query(&format!("clip_nm=512&grid=64&kernels=3&name={name}"));
            req.body = pgm_bytes(&img, 0.0, 1.0);
            let p = JobParams::from_request(&req, &ExecPolicy::default()).unwrap();
            let (case, cfg) = p.plan().unwrap();
            store.submit(Some(&p), case, cfg, Admission::default()).unwrap()
        };
        let exists = |name: &str| dir.join(name).exists();

        // Threshold 1 byte: every terminal transition compacts + sweeps.
        let state = StateLog::open(&dir, 1).unwrap();
        let store = JobStore::new(8, Some(state));
        submit(&store, "done-a");
        submit(&store, "doomed");
        submit(&store, "done-b");
        let (id, case, _, _) = store.take_next().unwrap();
        store.finish(id, Ok(done_for(&case, 1)));
        assert_eq!(store.cancel(1), CancelOutcome::Cancelled);
        let (id, case, _, _) = store.take_next().unwrap();
        store.finish(id, Ok(done_for(&case, 1)));

        // The cancelled job aged out of the snapshot, so its inline-target
        // side file is orphaned and swept; live jobs keep all their files.
        assert!(!exists("job-1-target.pgm"), "cancelled target must be GCed");
        assert!(!exists(&mask_file_name(1)), "never produced, never present");
        for name in ["job-0-target.pgm", "job-2-target.pgm"] {
            assert!(exists(name), "{name} is still referenced");
        }
        for id in [0, 2] {
            assert!(exists(&mask_file_name(id)), "mask {id} is still referenced");
        }

        // Evicting a resident mask drops its job from the next snapshot,
        // which orphans BOTH its files.
        assert_eq!(store.sweep(None, 1), 1, "oldest finished mask evicted");
        submit(&store, "tail"); // grows the log past the threshold again
        assert!(store.maybe_compact());
        assert!(!exists(&mask_file_name(0)), "evicted mask file must be GCed");
        assert!(!exists("job-0-target.pgm"), "dropped job keeps no side files");
        assert!(exists(&mask_file_name(2)));
        assert!(exists("job-2-target.pgm"));
        assert!(exists("job-3-target.pgm"), "queued job keeps its target");
        drop(store);

        // Recovery agrees: the GCed id is gone, the kept one restores
        // byte-identically.
        let (store, _) =
            JobStore::open(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()), &ExecPolicy::default()).unwrap();
        assert!(store.render_detail(0, false).is_none(), "GCed id answers 404");
        assert!(matches!(store.mask_pgm(2), MaskFetch::Ready(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_untruncated_log_after_snapshot_replays_idempotently() {
        // A crash exactly between snapshot installation and log truncation
        // leaves the snapshot AND the full pre-compaction log. Recovery
        // must fold both into the same table a clean compaction produces.
        let dir = temp_dir("compact-crash");
        let (c, cfg) = tiny_case("a");
        let params = JobParams::from_request(
            &request_with_query("case=case1&grid=64&kernels=3&name=surviv"),
            &ExecPolicy::default(),
        )
        .unwrap();
        let pre_compaction_log;
        {
            let store = JobStore::new(8, Some(StateLog::open(&dir, 0).unwrap()));
            store.submit(Some(&params), c.clone(), cfg.clone(), Admission::default()).unwrap();
            store.submit(Some(&params), c.clone(), cfg.clone(), Admission::default()).unwrap();
            let (id, case, _, _) = store.take_next().unwrap();
            store.finish(id, Ok(done_for(&case, 1)));
            pre_compaction_log = std::fs::read_to_string(dir.join("state.jsonl")).unwrap();
        }
        {
            // Compact for real...
            let state = StateLog::open(&dir, 1).unwrap();
            let store = JobStore::open(8, 0, 0, Some(state), &ExecPolicy::default()).unwrap().0;
            assert!(store.maybe_compact());
        }
        // ...then simulate the crash by restoring the un-truncated log.
        std::fs::write(dir.join("state.jsonl"), &pre_compaction_log).unwrap();
        let (store, stats) =
            JobStore::open(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()), &ExecPolicy::default()).unwrap();
        assert_eq!(stats, RecoveryStats { restored: 1, requeued: 1 });
        assert_eq!(store.len(), 2, "no duplicates from replaying both files");
        assert!(matches!(store.mask_pgm(0), MaskFetch::Ready(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn state_log_truncation_fuzz_always_recovers() {
        // Seeded torn-tail fuzz (mirrors the runtime WAL fuzz): a crash can
        // only tear the trailing line, so recovery must tolerate EVERY
        // truncation point — never an error, never a phantom job.
        use ilt_layouts::Xorshift64Star;
        let dir = temp_dir("state-fuzz");
        let (c, cfg) = tiny_case("a");
        {
            let store = JobStore::new(8, Some(StateLog::open(&dir, 0).unwrap()));
            for i in 0..4 {
                let params = JobParams::from_request(
                    &request_with_query(&format!("case=case1&grid=64&kernels=3&name=f{i}")),
                    &ExecPolicy::default(),
                )
                .unwrap();
                store.submit(Some(&params), c.clone(), cfg.clone(), Admission::default()).unwrap();
            }
            for _ in 0..2 {
                let (id, case, _, _) = store.take_next().unwrap();
                store.finish(id, Ok(done_for(&case, 1)));
            }
            store.cancel(2);
        }
        let path = dir.join("state.jsonl");
        let healthy = std::fs::read(&path).unwrap();
        let full_lines = healthy.iter().filter(|&&b| b == b'\n').count();
        let mut rng = Xorshift64Star::new(0x5eed_10c);
        for round in 0..150 {
            let cut = (rng.next_u64() as usize) % healthy.len() + 1;
            std::fs::write(&path, &healthy[..cut]).unwrap();
            let (store, _) =
                JobStore::open(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()), &ExecPolicy::default())
                    .unwrap_or_else(|e| panic!("round {round}: cut {cut} must recover: {e}"));
            // Every fully-intact submit record materializes as a job; the
            // torn trailing line never does.
            let submit_starts = healthy[..cut]
                .split(|&b| b == b'\n')
                .filter(|l| l.starts_with(b"{\"kind\":\"submit\""))
                .count();
            let intact_submits = healthy[..cut]
                .split(|&b| b == b'\n')
                .filter(|l| l.starts_with(b"{\"kind\":\"submit\"") && l.ends_with(b"}"))
                .count();
            assert!(
                store.len() >= intact_submits && store.len() <= submit_starts,
                "round {round}: cut {cut}: {} jobs from {intact_submits}..={submit_starts} submits",
                store.len()
            );
            // Reopen-and-append after the tear: the next record lands on
            // its own line, so every line parses and a second recovery sees
            // exactly the same jobs plus the new one.
            let jobs = store.len();
            let late = JobParams::from_request(
                &request_with_query("case=case1&grid=64&kernels=3&name=late"),
                &ExecPolicy::default(),
            )
            .unwrap();
            store.submit(Some(&late), c.clone(), cfg.clone(), Admission::default()).unwrap();
            drop(store);
            for line in std::fs::read_to_string(&path).unwrap().lines() {
                assert!(
                    ilt_runtime::json::parse(line).is_ok(),
                    "round {round}: cut {cut}: glued line {line}"
                );
            }
            let (again, _) =
                JobStore::open(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()), &ExecPolicy::default())
                    .unwrap_or_else(|e| panic!("round {round}: cut {cut}: second recovery: {e}"));
            assert_eq!(again.len(), jobs + 1, "round {round}: cut {cut}: phantom or lost job");
        }
        // The undamaged log still replays everything.
        std::fs::write(&path, &healthy).unwrap();
        let (store, _) =
            JobStore::open(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()), &ExecPolicy::default()).unwrap();
        assert_eq!(store.len(), 4);
        assert!(full_lines >= 7, "submits + finishes + cancel all logged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inline_pgm_body_is_a_source() {
        let img = Field2D::from_fn(64, 64, |r, _| if r < 32 { 1.0 } else { 0.0 });
        let mut req = request_with_query("clip_nm=512");
        req.body = ilt_field::pgm_bytes(&img, 0.0, 1.0);
        let p = JobParams::from_request(&req, &ExecPolicy::default()).unwrap();
        assert_eq!(p.name, "inline");
        let (case, _) = p.plan().unwrap();
        assert_eq!(case.target.shape(), (64, 64));
        assert!((case.nm_per_px - 8.0).abs() < 1e-12);

        // Garbage body is a 400-class error, not a panic.
        let mut bad = request_with_query("");
        bad.body = b"not a pgm".to_vec();
        assert!(JobParams::from_request(&bad, &ExecPolicy::default()).is_err());
    }
}
