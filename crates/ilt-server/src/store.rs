//! The job table and the lifecycle of a job inside it.
//!
//! The store is the single synchronization point between HTTP handler
//! threads (submit, poll, list) and the job workers (take, finish). What it
//! keeps of a job is its description, a [`JobParams`] — the name, the
//! persistence query, the inline target's side file and the planned work
//! are all derived from it where they are needed, so a queued job costs its
//! description, not a rasterized plan. Its admission queue is *bounded*: a
//! submission beyond capacity is refused at the door — the handler turns
//! that into `503 Service Unavailable` with a `Retry-After` hint — so a
//! flood of requests costs the flooder latency instead of costing the
//! server memory. Completed masks (the only large retained objects) are
//! bounded too: [`JobStore::sweep`] evicts masks past their TTL or beyond
//! the residency cap, after which the mask endpoint re-hydrates from the
//! state directory when it can (hash-verified) and answers `410 Gone` only
//! when the durable copy is truly unusable.
//!
//! Who may queue what — clients, classes, quotas, the weighted class
//! queues — is [`crate::admission`]; persistence, restart and compaction
//! are [`crate::state`]; the JSON views are beside the routes in
//! `server.rs`.
//!
//! **Cancellation** ([`JobStore::cancel`]): a queued job is pulled out of
//! the queue and turns terminal immediately; a running job has its
//! cooperative [`CancelToken`] set and stops at the next tile boundary
//! (the worker then records it via [`JobStore::finish_cancelled`]). Both
//! paths append a `cancel` record so a restart does not resurrect the job.

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use ilt_cluster::params::{JobParams, JobSource};
use ilt_field::{pgm_bytes, Field2D};
use ilt_metrics::EvalReport;
use ilt_runtime::{load_verified_mask, mask_file_name, CancelToken, JobRecord, Progress};

use crate::admission::{Admission, ClassQueues, ClientUsage, PriorityClass, Usage};
use crate::state::{plan_tiles, StateLog};

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
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    pub(crate) fn is_terminal(&self) -> bool {
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

pub(crate) struct JobEntry {
    pub(crate) id: usize,
    /// The job's description; everything else a job is known by — name,
    /// persistence query, target side file, planned work — is derived from
    /// it. Once the job is claimed or terminal an inline target's raster
    /// has left it ([`JobEntry::take_work`]); none of the other three reads
    /// the pixels. `Err` is the raw `(query, target file)` of a persisted
    /// record that no longer decoded at restart: such an entry is terminal
    /// `Failed`, and compaction writes the record back as it found it.
    pub(crate) params: Result<JobParams, (String, Option<String>)>,
    /// Submitting client; owns this job's share of the quotas.
    pub(crate) client: String,
    /// Scheduling class the job was admitted under.
    pub(crate) class: PriorityClass,
    pub(crate) state: JobState,
    pub(crate) error: Option<String>,
    pub(crate) result: Option<JobDone>,
    /// When the terminal state was recorded; the TTL clock for eviction.
    pub(crate) finished_at: Option<Instant>,
    /// Cooperative cancel token, handed to the executor that claims the job.
    pub(crate) cancel: CancelToken,
    /// Tiles completed so far, shared with the job's pool workers.
    pub(crate) progress: Progress,
    /// Tiles the job decomposes into (for the progress denominator).
    pub(crate) tiles_planned: usize,
}

impl JobEntry {
    /// The whole description, for the executor that claims the job — or
    /// for nobody, when the job turns terminal unclaimed. An inline
    /// target's raster goes with it (what the table keeps is an empty
    /// one), so a finished job retains a few dozen bytes of description,
    /// not its pixels.
    fn take_work(&mut self) -> Option<JobParams> {
        let kept = self.params.as_mut().ok()?;
        let source = match &mut kept.source {
            JobSource::Inline(img) => {
                JobSource::Inline(std::mem::replace(img, Field2D::zeros(0, 0)))
            }
            named => named.clone(),
        };
        Some(JobParams { source, ..kept.clone() })
    }
}

pub(crate) struct Inner {
    /// Job table keyed by id. A map, not a vector: compaction drops
    /// cancelled ids from persistence, so after a restart the id space has
    /// holes (dropped ids answer 404).
    pub(crate) jobs: BTreeMap<usize, JobEntry>,
    pub(crate) next_id: usize,
    /// Per-class FIFOs drained by smooth weighted round-robin — the pool
    /// feed where priority takes effect.
    pub(crate) queue: ClassQueues<usize>,
    accepting: bool,
    running: usize,
    pub(crate) usage: Usage,
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
    /// The description does not plan (impossible tile geometry); the handler
    /// answers `400` with the planner's message.
    Unplannable(String),
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

/// The shared job table plus its bounded admission queue.
pub struct JobStore {
    inner: Mutex<Inner>,
    wakeup: Condvar,
    queue_cap: usize,
    /// Per-client cap on non-terminal jobs (queued + active); 0 = unlimited.
    quota_inflight: usize,
    /// Per-client cap on queued jobs; 0 = unlimited.
    quota_queued: usize,
    pub(crate) state: Option<StateLog>,
}

impl JobStore {
    /// An empty store admitting at most `queue_cap` waiting jobs under the
    /// per-client quotas (0 = unlimited), persisting to `state` when there
    /// is one: [`JobStore::open`] with nothing to replay.
    pub(crate) fn empty(
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
                usage: Usage::default(),
            }),
            wakeup: Condvar::new(),
            queue_cap: queue_cap.max(1),
            quota_inflight,
            quota_queued,
            state,
        }
    }

    pub(crate) fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("job store lock poisoned")
    }

    /// Admits the job `params` describes for `admission`'s client and
    /// class, or refuses it with the reason the handler turns into a
    /// 400/503/429. The description is retained — it is all the store keeps
    /// of the work — and, when a state log is configured, persisted so the
    /// job survives a restart.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Unplannable`] when the description does not plan,
    /// [`SubmitError::Full`] when the queue is at capacity,
    /// [`SubmitError::Draining`] after shutdown started,
    /// [`SubmitError::Quota`] when the client is over a per-client quota.
    pub fn submit(&self, params: &JobParams, admission: Admission) -> Result<usize, SubmitError> {
        // Planned once, outside the lock, for the tile count; the executor
        // that claims the job plans it again to run it.
        let tiles_planned = plan_tiles(params).map_err(SubmitError::Unplannable)?;
        let mut inner = self.lock();
        if !inner.accepting {
            return Err(SubmitError::Draining);
        }
        // Per-client verdicts come before the global one: a flooding client
        // is told it is over *its* quota (429) rather than blamed on shared
        // capacity (503).
        inner.usage.admit(&admission.client, self.quota_queued, self.quota_inflight)?;
        if inner.queue.len() >= self.queue_cap {
            return Err(SubmitError::Full { capacity: self.queue_cap });
        }
        let id = inner.next_id;
        inner.next_id += 1;
        // Logged under the lock so state-log order matches id order.
        if let Some(state) = &self.state {
            state.log_submit(id, params, &admission);
        }
        inner.queue.push(admission.class, id);
        inner.usage.shift(&admission.client, 1, 0);
        let queued = new_entry(id, Ok(params.clone()), admission, JobState::Queued, None);
        inner.jobs.insert(id, JobEntry { tiles_planned, ..queued });
        drop(inner);
        self.wakeup.notify_one();
        Ok(id)
    }

    /// Blocks until a job is available and claims it, or returns `None`
    /// when the store is draining and the queue is empty (worker exit
    /// signal). In-flight and already-queued jobs are always drained.
    /// The claim is the job's id, its description — the executor plans it,
    /// the cluster coordinator dispatches it — and the cancel token and
    /// progress counter to wire into the planned run.
    pub fn take_next(&self) -> Option<(usize, JobParams, CancelToken, Progress)> {
        let mut inner = self.lock();
        loop {
            if let Some((_, id)) = inner.queue.pop() {
                inner.running += 1;
                let entry = inner.jobs.get_mut(&id).expect("queued id exists");
                entry.state = JobState::Running;
                let params = entry.take_work().expect("a queued job has its description");
                let claim = (id, params, entry.cancel.clone(), entry.progress.clone());
                let client = entry.client.clone();
                inner.usage.shift(&client, -1, 1);
                return Some(claim);
            }
            if !inner.accepting {
                return None;
            }
            inner = self.wakeup.wait(inner).expect("job store lock poisoned");
        }
    }

    /// Records a claimed job's terminal state (persisting it too, mask
    /// before log line, when a state log is configured).
    pub fn finish(&self, id: usize, outcome: Result<JobDone, String>) {
        // The mask is written outside the lock (it is large and fsynced);
        // compaction keeps a running job's mask file.
        let mask_file = self.state.as_ref().and_then(|state| state.write_mask(id, &outcome));
        let mut inner = self.lock();
        if let Some(state) = &self.state {
            state.log_finish(id, &outcome, mask_file.as_deref());
        }
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
        inner.usage.shift(&client, 0, -1);
        drop(inner);
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
        inner.usage.shift(&client, 0, -1);
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
                entry.take_work();
                entry.finished_at = Some(Instant::now());
                let client = entry.client.clone();
                inner.queue.retain(|&q| q != id);
                inner.usage.shift(&client, -1, 0);
                CancelOutcome::Cancelled
            }
            JobState::Running => {
                entry.cancel.cancel();
                CancelOutcome::Cancelling
            }
            ref terminal => return CancelOutcome::AlreadyFinished(terminal.clone()),
        };
        if let Some(state) = &self.state {
            state.log_cancel(id);
        }
        drop(inner);
        if outcome == CancelOutcome::Cancelled {
            self.maybe_compact();
        }
        outcome
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
        evicted
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
            entry.take_work();
            entry.finished_at = Some(Instant::now());
            let client = entry.client.clone();
            inner.usage.shift(&client, -1, 0);
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
        self.lock().usage.snapshot()
    }

    /// Jobs currently executing.
    pub fn running(&self) -> usize {
        self.lock().running
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
                            return MaskFetch::Ready(pgm_bytes(mask, 0.0, 1.0))
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
        let Some(loaded) = load_verified_mask(&dir, &mask_file_name(id), expected_hash) else {
            return MaskFetch::Gone;
        };
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

/// The one place a [`JobEntry`] is spelled out: no result, a fresh cancel
/// token and progress counter; a terminal `state` is stamped finished now
/// and keeps no work.
pub(crate) fn new_entry(
    id: usize,
    params: Result<JobParams, (String, Option<String>)>,
    admission: Admission,
    state: JobState,
    error: Option<String>,
) -> JobEntry {
    let mut entry = JobEntry {
        id,
        params,
        client: admission.client,
        class: admission.class,
        finished_at: state.is_terminal().then(Instant::now),
        state,
        error,
        result: None,
        cancel: CancelToken::new(),
        progress: Progress::new(),
        tiles_planned: 0,
    };
    if entry.finished_at.is_some() {
        entry.take_work(); // a job restored finished has no work left
    }
    entry
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Request;
    use crate::state::{RecoveryStats, SNAPSHOT_FILE};
    use crate::ExecPolicy;
    use ilt_runtime::{field_hash, BatchCase};
    use std::path::PathBuf;

    /// A 64 px clip with one rectangle.
    /// Jobs the table holds, every state.
    fn jobs(store: &JobStore) -> usize {
        store.lock().jobs.len()
    }

    fn tiny_target() -> Field2D {
        Field2D::from_fn(64, 64, |r, c| {
            if (24..40).contains(&r) && (16..48).contains(&c) { 1.0 } else { 0.0 }
        })
    }

    /// A description that plans in microseconds: [`tiny_target`] inline,
    /// three kernels, two iterations.
    fn tiny_params(name: &str) -> JobParams {
        let params = JobParams::from_saved(
            "clip_nm=512&kernels=3&iters=2",
            pgm_bytes(&tiny_target(), 0.0, 1.0),
            &ExecPolicy::default(),
        );
        JobParams { name: name.into(), ..params.expect("a tiny job decodes") }
    }

    /// The case a finished tiny job reports its mask for.
    fn tiny_case(name: &str) -> BatchCase {
        tiny_params(name).plan().unwrap().0
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let store = JobStore::empty(2, 0, 0, None);
        let p = tiny_params("a");
        assert_eq!(store.submit(&p, Admission::default()), Ok(0));
        assert_eq!(store.submit(&p, Admission::default()), Ok(1));
        assert_eq!(
            store.submit(&p, Admission::default()),
            Err(SubmitError::Full { capacity: 2 })
        );
        // Claiming one frees a slot.
        let (id, ..) = store.take_next().unwrap();
        assert_eq!(id, 0);
        assert_eq!(store.submit(&p, Admission::default()), Ok(2));
        assert_eq!(store.queue_depth(), 2);
        assert_eq!(store.running(), 1);
    }

    #[test]
    fn an_inline_targets_raster_leaves_the_table_with_the_claim() {
        let store = JobStore::empty(4, 0, 0, None);
        store.submit(&tiny_params("claimed"), Admission::default()).unwrap();
        store.submit(&tiny_params("cancelled"), Admission::default()).unwrap();
        let kept = |id: usize| match &store.lock().jobs[&id].params {
            Ok(JobParams { source: JobSource::Inline(img), .. }) => img.shape(),
            other => panic!("job {id} lost its description: {other:?}"),
        };
        assert_eq!((kept(0), kept(1)), ((64, 64), (64, 64)), "queued jobs hold their target");
        let (id, claim, ..) = store.take_next().unwrap();
        assert!(
            matches!(&claim.source, JobSource::Inline(img) if *img == tiny_target().threshold(0.5)),
            "the executor gets the whole description"
        );
        assert_eq!(store.cancel(1), CancelOutcome::Cancelled);
        assert_eq!((kept(0), kept(1)), ((0, 0), (0, 0)), "claimed or terminal: pixels gone");
        // What the table derives from a description never read them.
        store.finish(id, Ok(done_for(&tiny_case("claimed"), 1)));
        assert!(store.render_list().contains(r#""name":"claimed""#));
        let Ok(described) = &store.lock().jobs[&0].params else { panic!("described") };
        assert_eq!(described.to_query(), tiny_params("claimed").to_query());
    }

    #[test]
    fn draining_refuses_submissions_but_serves_queue() {
        let store = JobStore::empty(4, 0, 0, None);
        let p = tiny_params("a");
        store.submit(&p, Admission::default()).unwrap();
        store.close();
        assert_eq!(store.submit(&p, Admission::default()), Err(SubmitError::Draining));
        // The queued job is still handed out, then the drain signal.
        assert!(store.take_next().is_some());
        store.finish(0, Err("x".into()));
        assert!(store.take_next().is_none());
    }

    #[test]
    fn finish_transitions_states_and_renders() {
        let store = JobStore::empty(4, 0, 0, None);
        store.submit(&tiny_params("m1 \"quoted\""), Admission::default()).unwrap();
        let (id, p, ..) = store.take_next().unwrap();
        let mask = p.plan().unwrap().0.target.threshold(0.5);
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
        let detail = store.render_detail(0).unwrap();
        assert!(detail.contains("\"state\":\"done\""), "{detail}");
        assert!(detail.contains("\\\"quoted\\\""), "escaping shared with the journal");
        assert!(store.render_detail(99).is_none());
        match store.mask_pgm(0) {
            MaskFetch::Ready(bytes) => assert!(bytes.starts_with(b"P5\n64 64\n255\n")),
            _ => panic!("mask must be ready"),
        }
        let list = store.render_list();
        assert!(list.starts_with("{\"jobs\":[{"), "{list}");
    }

    #[test]
    fn failed_tiles_mark_the_job_failed() {
        let store = JobStore::empty(4, 0, 0, None);
        store.submit(&tiny_params("a"), Admission::default()).unwrap();
        let (id, p, ..) = store.take_next().unwrap();
        let mask = p.plan().unwrap().0.target.threshold(0.5);
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
        let detail = store.render_detail(0).unwrap();
        assert!(detail.contains("\"state\":\"failed\""));
        assert!(detail.contains("2 of 9 tile(s) failed"));
        // The degraded mask is still fetchable.
        assert!(matches!(store.mask_pgm(0), MaskFetch::Ready(_)));
    }

    #[test]
    fn abandon_queued_fails_leftovers() {
        let store = JobStore::empty(4, 0, 0, None);
        let p = tiny_params("a");
        store.submit(&p, Admission::default()).unwrap();
        store.close();
        store.abandon_queued();
        let detail = store.render_detail(0).unwrap();
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
        let store = JobStore::empty(4, 0, 0, None);
        let (p, c) = (tiny_params("a"), tiny_case("a"));
        store.submit(&p, Admission::default()).unwrap();
        let (id, ..) = store.take_next().unwrap();
        store.finish(id, Ok(done_for(&c, 1)));

        // A generous TTL keeps the mask; a zero TTL evicts it.
        assert_eq!(store.sweep(Some(Duration::from_secs(3600)), usize::MAX), 0);
        assert!(matches!(store.mask_pgm(0), MaskFetch::Ready(_)));
        assert_eq!(store.sweep(Some(Duration::ZERO), usize::MAX), 1);
        assert!(matches!(store.mask_pgm(0), MaskFetch::Gone));
        // Metadata and hash survive; only the pixels are gone.
        let detail = store.render_detail(0).unwrap();
        assert!(detail.contains("\"mask_resident\":false"), "{detail}");
        assert!(detail.contains("\"mask_hash\""), "{detail}");
        // Re-sweeping does not double-count.
        assert_eq!(store.sweep(Some(Duration::ZERO), usize::MAX), 0);
    }

    #[test]
    fn residency_cap_evicts_oldest_finished_first() {
        let store = JobStore::empty(8, 0, 0, None);
        let (p, c) = (tiny_params("a"), tiny_case("a"));
        for _ in 0..3 {
            store.submit(&p, Admission::default()).unwrap();
        }
        for _ in 0..3 {
            let (id, ..) = store.take_next().unwrap();
            store.finish(id, Ok(done_for(&c, 1)));
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
            "via=9&grid=64&kernels=3&tile=32&halo=8&seam=crop&schedule=via&iters=7&eval=0",
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
            let (req, _) =
                crate::http::Request::read_from_buffered(&mut raw.as_bytes(), &mut Vec::new())
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
        let c = tiny_case("a");
        {
            let store =
                JobStore::empty(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()));
            let params = JobParams::from_request(
                &request_with_query("case=case1&grid=64&kernels=3&name=done-job"),
                &ExecPolicy::default(),
            )
            .unwrap();
            store.submit(&params, Admission::default()).unwrap();
            let interrupted = JobParams::from_request(
                &request_with_query("case=case2&grid=64&kernels=3&name=interrupted"),
                &ExecPolicy::default(),
            )
            .unwrap();
            store.submit(&interrupted, Admission::default()).unwrap();
            // Job 0 finishes; job 1 is taken but never finished (the crash).
            let (id, ..) = store.take_next().unwrap();
            store.finish(id, Ok(done_for(&c, 1)));
            let _ = store.take_next().unwrap();
        }

        let (store, stats) =
            JobStore::open(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()), &ExecPolicy::default()).unwrap();
        assert_eq!(stats, RecoveryStats { restored: 1, requeued: 1 });
        // Job 0 came back finished, mask verified byte-identical.
        let detail = store.render_detail(0).unwrap();
        assert!(detail.contains("\"state\":\"done\""), "{detail}");
        assert!(detail.contains("done-job"), "{detail}");
        match store.mask_pgm(0) {
            MaskFetch::Ready(bytes) => {
                assert_eq!(bytes, pgm_bytes(&c.target.threshold(0.5), 0.0, 1.0));
            }
            _ => panic!("recovered mask must be ready"),
        }
        // Job 1 is queued again under its original id and params.
        let (id, p, ..) = store.take_next().unwrap();
        assert_eq!(id, 1);
        assert_eq!(p.name, "interrupted");

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
            let store = JobStore::empty(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()));
            let params = JobParams::from_request(
                &request_with_query("case=case1&grid=64&kernels=3"),
                &ExecPolicy::default(),
            )
            .unwrap();
            store.submit(&params, Admission::default()).unwrap();
            store.submit(&params, Admission::default()).unwrap();
        }
        // Chop the last line in half: a crash mid-append.
        let path = dir.join("state.jsonl");
        let raw = std::fs::read_to_string(&path).unwrap();
        let keep = raw.len() - raw.lines().last().unwrap().len() / 2 - 1;
        std::fs::write(&path, &raw.as_bytes()[..keep]).unwrap();

        let (store, stats) =
            JobStore::open(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()), &ExecPolicy::default()).unwrap();
        assert_eq!(stats, RecoveryStats { restored: 0, requeued: 1 });
        assert_eq!(jobs(&store), 1, "the torn submission is simply forgotten");

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
        let c = tiny_case("a");
        {
            let store = JobStore::empty(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()));
            let params = JobParams::from_request(
                &request_with_query("case=case1&grid=64&kernels=3"),
                &ExecPolicy::default(),
            )
            .unwrap();
            store.submit(&params, Admission::default()).unwrap();
            store.submit(&params, Admission::default()).unwrap();
        }
        let path = dir.join("state.jsonl");
        let raw = std::fs::read_to_string(&path).unwrap();
        let keep = raw.len() - raw.lines().last().unwrap().len() / 2 - 1;
        std::fs::write(&path, &raw.as_bytes()[..keep]).unwrap();

        let (store, stats) =
            JobStore::open(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()), &ExecPolicy::default()).unwrap();
        assert_eq!(stats, RecoveryStats { restored: 0, requeued: 1 });
        let (id, ..) = store.take_next().unwrap();
        assert_eq!(id, 0);
        let expected = pgm_bytes(&c.target.threshold(0.5), 0.0, 1.0);
        store.finish(id, Ok(done_for(&c, 1)));
        drop(store);

        let log = std::fs::read_to_string(&path).unwrap();
        for line in log.lines() {
            ilt_runtime::json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
        let (store, stats) =
            JobStore::open(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()), &ExecPolicy::default()).unwrap();
        assert_eq!(stats, RecoveryStats { restored: 1, requeued: 0 });
        assert_eq!(jobs(&store), 1, "no phantom job from a glued line");
        assert!(store.render_detail(0).unwrap().contains("\"state\":\"done\""));
        match store.mask_pgm(0) {
            MaskFetch::Ready(bytes) => assert!(bytes == expected, "restored mask differs"),
            _ => panic!("the finished job must come back with its mask"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_queued_job_is_immediately_terminal() {
        let store = JobStore::empty(4, 0, 0, None);
        let p = tiny_params("a");
        store.submit(&p, Admission::default()).unwrap();
        store.submit(&p, Admission::default()).unwrap();
        assert_eq!(store.cancel(1), CancelOutcome::Cancelled);
        assert_eq!(store.queue_depth(), 1, "only job 0 remains queued");
        let detail = store.render_detail(1).unwrap();
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
        let store = JobStore::empty(4, 0, 0, None);
        let p = tiny_params("a");
        store.submit(&p, Admission::default()).unwrap();
        let (id, _, cancel, _) = store.take_next().unwrap();
        assert!(!cancel.is_cancelled());
        assert_eq!(store.cancel(id), CancelOutcome::Cancelling);
        assert!(cancel.is_cancelled(), "the worker's token is the same token");
        // The worker observes the token at a tile boundary and reports in.
        store.finish_cancelled(id);
        assert_eq!(store.running(), 0);
        let detail = store.render_detail(id).unwrap();
        assert!(detail.contains("\"state\":\"cancelled\""), "{detail}");
        assert_eq!(
            store.cancel(id),
            CancelOutcome::AlreadyFinished(JobState::Cancelled)
        );
    }

    #[test]
    fn progress_counters_render_for_live_jobs_only() {
        let store = JobStore::empty(4, 0, 0, None);
        let p = JobParams { tile: 32, halo: 8, ..tiny_params("p") };
        store.submit(&p, Admission::default()).unwrap();
        let detail = store.render_detail(0).unwrap();
        assert!(detail.contains("\"tiles_done\":0"), "{detail}");
        assert!(
            detail.contains("\"tiles_planned\":16"),
            "64px field over 16px cores (tile 32 - 2*halo 8) = 4x4: {detail}"
        );
        let (id, _, _, progress) = store.take_next().unwrap();
        progress.tick();
        progress.tick();
        let detail = store.render_detail(id).unwrap();
        assert!(detail.contains("\"tiles_done\":2"), "{detail}");
        store.finish(id, Ok(done_for(&tiny_case("p"), 4)));
        let detail = store.render_detail(id).unwrap();
        assert!(!detail.contains("tiles_done"), "terminal jobs report tiles, not progress: {detail}");
        assert!(detail.contains("\"tiles\":4"), "{detail}");
    }

    #[test]
    fn cancelled_job_survives_restart_as_cancelled() {
        let dir = temp_dir("cancel-restart");
        {
            let store = JobStore::empty(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()));
            let params = JobParams::from_request(
                &request_with_query("case=case1&grid=64&kernels=3&name=doomed"),
                &ExecPolicy::default(),
            )
            .unwrap();
            store.submit(&params, Admission::default()).unwrap();
            store.submit(&params, Admission::default()).unwrap();
            assert_eq!(store.cancel(0), CancelOutcome::Cancelled);
        }
        let (store, stats) =
            JobStore::open(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()), &ExecPolicy::default()).unwrap();
        assert_eq!(stats, RecoveryStats { restored: 1, requeued: 1 });
        let detail = store.render_detail(0).unwrap();
        assert!(detail.contains("\"state\":\"cancelled\""), "never re-runs: {detail}");
        assert_eq!(store.queue_depth(), 1, "only the uncancelled job is requeued");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_snapshots_live_jobs_truncates_log_and_drops_cancelled() {
        let dir = temp_dir("compact");
        let c = tiny_case("a");
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
            let store = JobStore::empty(8, 0, 0, Some(state));
            for name in ["keeper", "doomed", "pending"] {
                store
                    .submit(&params(name), Admission::default())
                    .unwrap();
            }
            let (id, ..) = store.take_next().unwrap();
            store.finish(id, Ok(done_for(&c, 1))); // compacts
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
        assert!(store.render_detail(1).is_none());
        assert_eq!(store.submit(&tiny_params("next"), Admission::default()), Ok(3));
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
            store.submit(&p, Admission::default()).unwrap()
        };
        let c = tiny_case("a");
        let exists = |name: &str| dir.join(name).exists();

        // Threshold 1 byte: every terminal transition compacts + sweeps.
        let state = StateLog::open(&dir, 1).unwrap();
        let store = JobStore::empty(8, 0, 0, Some(state));
        submit(&store, "done-a");
        submit(&store, "doomed");
        submit(&store, "done-b");
        let (id, ..) = store.take_next().unwrap();
        store.finish(id, Ok(done_for(&c, 1)));
        assert_eq!(store.cancel(1), CancelOutcome::Cancelled);
        let (id, ..) = store.take_next().unwrap();
        store.finish(id, Ok(done_for(&c, 1)));

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
        assert!(store.render_detail(0).is_none(), "GCed id answers 404");
        assert!(matches!(store.mask_pgm(2), MaskFetch::Ready(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A finish writes its mask before it takes the table lock and appends
    /// the line naming it under the lock; a compaction in between keeps the
    /// running job's `job-<id>.pgm`, and a running job's cancel line
    /// survives into the snapshot.
    #[test]
    fn compaction_keeps_a_running_jobs_mask_and_cancel() {
        let dir = temp_dir("running-gc");
        let store = JobStore::empty(8, 0, 0, Some(StateLog::open(&dir, 1).unwrap()));
        store.submit(&tiny_params("running"), Admission::default()).unwrap();
        store.submit(&tiny_params("cancelling"), Admission::default()).unwrap();
        let (running, ..) = store.take_next().unwrap();
        let (cancelling, ..) = store.take_next().unwrap();
        assert_eq!(store.cancel(cancelling), CancelOutcome::Cancelling);

        // The first half of finish(): the mask, durable before any lock.
        let done = Ok(done_for(&tiny_case("running"), 1));
        let state = store.state.as_ref().unwrap();
        assert_eq!(state.write_mask(running, &done), Some(mask_file_name(running)));
        assert!(store.maybe_compact());
        assert!(dir.join(mask_file_name(running)).exists(), "a running job's mask is kept");
        store.finish(running, done);
        drop(store);

        let (store, stats) =
            JobStore::open(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()), &ExecPolicy::default())
                .unwrap();
        assert_eq!(stats, RecoveryStats { restored: 2, requeued: 0 });
        assert!(matches!(store.mask_pgm(running), MaskFetch::Ready(_)));
        let detail = store.render_detail(cancelling).expect("the cancelled job is kept");
        assert!(detail.contains("\"state\":\"cancelled\""), "{detail}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_untruncated_log_after_snapshot_replays_idempotently() {
        // A crash exactly between snapshot installation and log truncation
        // leaves the snapshot AND the full pre-compaction log. Recovery
        // must fold both into the same table a clean compaction produces.
        let dir = temp_dir("compact-crash");
        let c = tiny_case("a");
        let params = JobParams::from_request(
            &request_with_query("case=case1&grid=64&kernels=3&name=surviv"),
            &ExecPolicy::default(),
        )
        .unwrap();
        let pre_compaction_log;
        {
            let store = JobStore::empty(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()));
            store.submit(&params, Admission::default()).unwrap();
            store.submit(&params, Admission::default()).unwrap();
            let (id, ..) = store.take_next().unwrap();
            store.finish(id, Ok(done_for(&c, 1)));
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
        assert_eq!(jobs(&store), 2, "no duplicates from replaying both files");
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
        let c = tiny_case("a");
        {
            let store = JobStore::empty(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()));
            for i in 0..4 {
                let params = JobParams::from_request(
                    &request_with_query(&format!("case=case1&grid=64&kernels=3&name=f{i}")),
                    &ExecPolicy::default(),
                )
                .unwrap();
                store.submit(&params, Admission::default()).unwrap();
            }
            for _ in 0..2 {
                let (id, ..) = store.take_next().unwrap();
                store.finish(id, Ok(done_for(&c, 1)));
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
                jobs(&store) >= intact_submits && jobs(&store) <= submit_starts,
                "round {round}: cut {cut}: {} jobs from {intact_submits}..={submit_starts} submits",
                jobs(&store)
            );
            // Reopen-and-append after the tear: the next record lands on
            // its own line, so every line parses and a second recovery sees
            // exactly the same jobs plus the new one.
            let before = jobs(&store);
            let late = JobParams::from_request(
                &request_with_query("case=case1&grid=64&kernels=3&name=late"),
                &ExecPolicy::default(),
            )
            .unwrap();
            store.submit(&late, Admission::default()).unwrap();
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
            assert_eq!(jobs(&again), before + 1, "round {round}: cut {cut}: phantom or lost job");
        }
        // The undamaged log still replays everything.
        std::fs::write(&path, &healthy).unwrap();
        let (store, _) =
            JobStore::open(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()), &ExecPolicy::default()).unwrap();
        assert_eq!(jobs(&store), 4);
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
