//! Persistence of the job table: the state log, its replay at restart,
//! compaction, and the side-file GC.
//!
//! With a state directory configured, the store doubles as a write-ahead
//! log: every admission and every terminal outcome is appended to
//! `state.jsonl` (masks written atomically beside it), and
//! [`JobStore::open`] rebuilds the job table on restart — finished jobs
//! come back with their masks (hash-verified) and are decoded, not planned;
//! interrupted ones are re-planned and re-queued.
//!
//! **Compaction** ([`JobStore::maybe_compact`]): once `state.jsonl` grows
//! past a configured byte threshold, the live job table is snapshot to
//! `state.snapshot.jsonl` (written atomically) and the log is truncated,
//! so restart replay stays proportional to *live* jobs — cancelled jobs
//! and evicted masks are dropped from the snapshot and answer 404 after
//! the next restart. A crash between snapshot and truncate is safe:
//! recovery replays the snapshot first, then the log, idempotently.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ilt_cluster::params::{ExecPolicy, JobParams, JobSource};
use ilt_field::pgm_bytes;
use ilt_runtime::json::Value;
use ilt_runtime::{
    field_hash, json_escape, json_f64, load_mask, mask_file_name, planned_jobs, write_atomic,
    AppendLog,
};

use crate::admission::{Admission, PriorityClass};
use crate::store::{new_entry, JobDone, JobEntry, JobState, JobStore};

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
    /// The directory holding the log and its PGM side files.
    pub(crate) dir: PathBuf,
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

    fn append(&self, line: &str) {
        // Persistence failures must never fail the job; a lost line only
        // means the job is re-run (or forgotten) after a restart.
        let _ = self.log.append(line);
    }

    fn wants_compaction(&self) -> bool {
        self.compact_bytes > 0 && self.log.len() >= self.compact_bytes
    }

    pub(crate) fn begin_persist(&self) {
        self.persisting.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn end_persist(&self) {
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

    pub(crate) fn log_submit(&self, id: usize, params: &JobParams, admission: &Admission) {
        let target = target_file_name(id, params);
        if let JobSource::Inline(img) = &params.source {
            // The target must be durable before the line that references it.
            let name = target.as_deref().expect("an inline target has a side file");
            if write_atomic(&self.dir, name, &pgm_bytes(img, 0.0, 1.0)).is_err() {
                return; // without the raster the submission can't be replayed
            }
        }
        self.append(&submit_line(
            id,
            &params.to_query(),
            &admission.client,
            admission.class,
            target.as_deref(),
        ));
    }

    pub(crate) fn log_finish(&self, id: usize, outcome: &Result<JobDone, String>) {
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

    pub(crate) fn log_cancel(&self, id: usize) {
        self.append(&format!("{{\"kind\":\"cancel\",\"id\":{id}}}"));
    }
}

/// Side file holding job `id`'s inline target raster, when it has one.
fn target_file_name(id: usize, params: &JobParams) -> Option<String> {
    matches!(params.source, JobSource::Inline(_)).then(|| format!("job-{id}-target.pgm"))
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

impl JobStore {
    /// The constructor: a store admitting at most `queue_cap` waiting jobs
    /// under the per-client quotas (caps on non-terminal and on queued jobs;
    /// 0 = unlimited), persisting to `state` when there is one — and first
    /// rebuilt from its snapshot + log: jobs with a recorded outcome come
    /// back finished (masks loaded and hash-verified; their description is
    /// decoded, never planned), jobs with a recorded cancellation come back
    /// terminal-cancelled, and jobs that were queued or running when the
    /// process died are re-planned from their persisted parameters and
    /// re-queued (bypassing the admission cap — they were already admitted
    /// once), `policy` bounding them. The compaction snapshot, when present,
    /// is replayed before `state.jsonl`; duplicate submit records are
    /// first-win and outcomes are folded in on top, so a crash between
    /// snapshot installation and log truncation replays to the same table.
    /// A torn trailing *log* line (crash mid-append) is tolerated; that job
    /// is simply re-run.
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
                // A recorded outcome or cancellation is terminal: the job is
                // decoded, never planned. Anything else — no durable
                // outcome, or an unverifiable mask — runs again with its
                // original id, in its original class, on its client's
                // quota, and is planned for its tile count.
                let replayed = JobParams::from_saved(&query, body, policy).and_then(|params| {
                    let finished = finishes.get(&id).and_then(|fin| restore_finished(dir, fin));
                    let (state, error, result, tiles_planned) = match finished {
                        Some((state, error, done)) => (state, error, done, 0),
                        None if cancels.contains(&id) => (JobState::Cancelled, None, None, 0),
                        None => (JobState::Queued, None, None, plan_tiles(&params)?),
                    };
                    Ok((params, state, error, result, tiles_planned))
                });
                let entry = match replayed {
                    Err(why) => {
                        stats.restored += 1;
                        let why = format!("unreplayable after restart: {why}");
                        new_entry(id, Err((query, target)), admission, JobState::Failed, Some(why))
                    }
                    Ok((params, state, error, result, tiles_planned)) => {
                        if state == JobState::Queued {
                            stats.requeued += 1;
                            inner.queue.push(admission.class, id);
                            inner.usage.shift(&admission.client, 1, 0);
                        } else {
                            stats.restored += 1;
                        }
                        let entry = new_entry(id, Ok(params), admission, state, error);
                        JobEntry { result, tiles_planned, ..entry }
                    }
                };
                inner.jobs.insert(id, entry);
            }
            inner.next_id =
                next_id_floor.max(inner.jobs.keys().next_back().map_or(0, |&id| id + 1));
        }
        Ok((store, stats))
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
            if entry.state == JobState::Cancelled {
                continue; // dropped: compaction is how cancelled ids age out
            }
            if entry.result.as_ref().is_some_and(|d| d.mask.is_none()) {
                continue; // mask evicted: not worth resurrecting either
            }
            // The submit record is the description written out again; an
            // entry restart could not decode kept its raw record instead.
            let (query, target) = match &entry.params {
                Ok(params) => (params.to_query(), target_file_name(entry.id, params)),
                Err(raw) => raw.clone(),
            };
            snapshot.push_str(&submit_line(
                entry.id,
                &query,
                &entry.client,
                entry.class,
                target.as_deref(),
            ));
            snapshot.push('\n');
            keep.extend(target);
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
}

/// Tiles `params` decomposes into — the progress denominator of a queued
/// job, and the proof that the description plans at all.
pub(crate) fn plan_tiles(params: &JobParams) -> Result<usize, String> {
    let (case, config) = params.plan()?;
    planned_jobs(&case, &config)
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

/// The terminal `(state, error, result)` a persisted finish line records.
/// Returns `None` when the outcome claims a mask that is missing or fails
/// hash verification — the caller re-queues the job instead of serving a
/// mask the log can't vouch for.
fn restore_finished(dir: &Path, fin: &Value) -> Option<(JobState, Option<String>, Option<JobDone>)> {
    if !fin.get("ok")?.as_bool()? {
        let error = fin.field_str("error").unwrap_or_default().to_string();
        return Some((JobState::Failed, Some(error), None));
    }
    // A success without a durable mask returns None here: re-run.
    let mask = load_mask(dir, fin.field_str("mask").ok()?).ok()?;
    let mask_hash = field_hash(&mask);
    if mask_hash != fin.field_hex("mask_hash").ok()? {
        return None;
    }
    let tiles = fin.field_usize("tiles").ok()?;
    let failed_tiles = fin.field_usize("failed_tiles").ok()?;
    let error = (failed_tiles > 0)
        .then(|| format!("{failed_tiles} of {tiles} tile(s) failed"));
    let state = if failed_tiles == 0 { JobState::Done } else { JobState::Failed };
    let done = JobDone {
        mask_hash,
        mask: Some(mask),
        records: Vec::new(),
        tiles,
        failed_tiles,
        degraded_tiles: fin.field_usize("degraded_tiles").unwrap_or(0),
        eval: None,
        wall_ms: fin.field_f64("wall_ms").unwrap_or(0.0),
    };
    Some((state, error, Some(done)))
}
