//! Crash-safe checkpointing: the run journal as a durable write-ahead log.
//!
//! A checkpointed batch run maintains, next to its eventual journal, a
//! checkpoint directory holding:
//!
//! - `wal.jsonl` — a write-ahead log: one header line carrying a
//!   fingerprint of the run configuration, then one line per *completed*
//!   job (success, degraded, or failed), appended with `fsync` as each job
//!   finishes. Each line is the job's full journal record plus a `"ckpt"`
//!   field naming the durable mask file (`null` when the mask could not be
//!   persisted).
//! - `job-<id>.pgm` — the finished mask of each successful job, written
//!   atomically (temp file + `fsync` + rename, then a directory `fsync`).
//!   A write that fails removes its temp file and leaves the job
//!   non-durable: the WAL line says `"ckpt":null`, and a resume re-runs it.
//!
//! The invariant: at any instant — including halfway through a `kill -9` —
//! the WAL plus the mask files form a consistent record of progress. A line
//! torn by a crash can only be the *last* line, and the loader drops it;
//! a mask file either exists complete (the rename happened after its data
//! was on disk) or not at all. Resume therefore needs no repair step: it
//! replays the WAL (duplicates last-wins, truncated tail tolerated),
//! verifies each claimed mask against the record's bit-exact hash, and
//! re-runs exactly the jobs without a durable success.
//!
//! The configuration fingerprint guards against resuming with different
//! inputs: it hashes everything that determines job *results* (cases,
//! tiling, optics, recipe) and deliberately excludes execution-only knobs
//! (thread count, timeout, retry budget, fault plan), which may legally
//! differ between the crashed run and its resume.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

use ilt_core::IltConfig;
use ilt_field::{parse_pgm, pgm_bytes, Field2D};
use ilt_optics::OpticsConfig;

use crate::append_log::AppendLog;
use crate::batch::{BatchCase, BatchConfig};
use crate::journal::{field_hash, fnv1a64, JobMetrics, JobRecord, JobStatus, StageTimes};
use crate::json::Value;
use crate::pool::JobOutput;

/// Name of the write-ahead log inside a checkpoint directory.
pub const WAL_FILE: &str = "wal.jsonl";

/// Fingerprint of everything that determines job results: the cases (name,
/// target bits, pitch) and the result-affecting configuration (tiling, seam
/// policy, optics template, ILT hyper-parameters, schedule, pitch ceiling,
/// stitched evaluation). Excludes threads, timeout, retries, faults, and
/// the checkpoint location itself — those only change *how* the run
/// executes, never what a job computes.
pub fn config_fingerprint(cases: &[BatchCase], config: &BatchConfig) -> u64 {
    fnv1a64(fingerprint_preimage(cases, config).bytes())
}

/// The bytes [`config_fingerprint`] hashes — a written format (DESIGN
/// "Fault model & recovery" has the table), on disk in every WAL header and
/// on the shard wire. The three structs are destructured without `..`, so a
/// new field does not compile until it is written here or bound to `_` as
/// execution-only. Field names, order and the struct-literal spelling are
/// what `#[derive(Debug)]` printed when the format was frozen; a field that
/// has since been deleted keeps the constant text it always rendered to.
fn fingerprint_preimage(cases: &[BatchCase], config: &BatchConfig) -> String {
    let BatchConfig {
        tile,
        halo,
        seam,
        optics,
        ilt,
        schedule,
        max_eff_nm,
        evaluate_stitched,
        // Execution-only: how a run executes, never what a job computes.
        threads: _,
        timeout: _,
        max_retries: _,
        degrade: _,
        checkpoint: _,
        faults: _,
        cancel: _,
        progress: _,
    } = config;
    let OpticsConfig {
        grid,
        nm_per_px,
        na,
        wavelength_nm,
        source,
        defocus_nm,
        num_kernels,
        kernel_size,
        resist_threshold,
        resist_steepness,
    } = optics;
    let IltConfig {
        learning_rate,
        binary,
        output_binary,
        smoothing,
        region,
        early_exit_window,
        frozen_value,
        postprocess,
        loss_weights,
        update_rule,
    } = ilt;
    let mut s = String::new();
    for case in cases {
        s.push_str(&format!(
            "case:{}:{:016x}:{:?};",
            case.name,
            field_hash(&case.target),
            case.nm_per_px
        ));
    }
    s.push_str(&format!("tile:{tile};halo:{halo};seam:{seam:?};"));
    s.push_str(&format!(
        "optics:OpticsConfig {{ grid: {grid}, nm_per_px: {nm_per_px:?}, na: {na:?}, \
         wavelength_nm: {wavelength_nm:?}, source: {source:?}, defocus_nm: {defocus_nm:?}, \
         num_kernels: {num_kernels}, kernel_size: {kernel_size:?}, \
         resist_threshold: {resist_threshold:?}, resist_steepness: {resist_steepness:?}, \
         wavefront: Wavefront {{ terms: [] }} }};"
    ));
    s.push_str(&format!(
        "ilt:IltConfig {{ learning_rate: {learning_rate:?}, binary: {binary:?}, \
         output_binary: {output_binary:?}, final_threshold: 0.5, smoothing: {smoothing:?}, \
         region: {region:?}, early_exit_window: {early_exit_window:?}, \
         frozen_value: {frozen_value:?}, postprocess: {postprocess:?}, \
         loss_weights: {loss_weights:?}, update_rule: {update_rule:?} }};"
    ));
    s.push_str(&format!(
        "schedule:{schedule:?};max_eff_nm:{max_eff_nm:?};eval:{evaluate_stitched}"
    ));
    s
}

/// The durable mask file name for a job.
pub fn mask_file_name(job_id: usize) -> String {
    format!("job-{job_id}.pgm")
}

fn fsync_dir(dir: &Path) {
    // Linux allows fsync on a directory handle; best-effort elsewhere.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Writes `bytes` to `dir/name` atomically: temp file, data fsync, rename,
/// directory fsync. After this returns `Ok`, the file survives a crash
/// complete; before the rename, a crash leaves at most a stray `.tmp`. A
/// write, sync or rename that fails removes the `.tmp` before returning
/// the error, so a failed write leaves nothing behind.
pub fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    let written = File::create(&tmp)
        .and_then(|mut f| f.write_all(bytes).and_then(|()| f.sync_all()))
        .and_then(|()| fs::rename(&tmp, dir.join(name)));
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written?;
    fsync_dir(dir);
    Ok(())
}

/// The mask PGM `dir/name` re-binarized, when its bits hash to exactly
/// `hash` — the record's claim; `None` for a missing, unreadable or
/// corrupt file or one the record cannot vouch for. PGM stores one byte per
/// pixel, so `1.0` round-trips as `255 * (1/255)` — not guaranteed to be
/// the bit pattern of `1.0`; masks are binary by construction, so a
/// threshold restores the exact field and its exact [`field_hash`].
pub fn load_verified_mask(dir: &Path, name: &str, hash: u64) -> Option<Field2D> {
    let mask = parse_pgm(&fs::read(dir.join(name)).ok()?).ok()?.threshold(0.5);
    (field_hash(&mask) == hash).then_some(mask)
}

/// The live end of the write-ahead log: workers push each finished job
/// through [`CheckpointSink::persist`], which makes the mask durable, then
/// the WAL line, in that order.
pub struct CheckpointSink {
    dir: PathBuf,
    wal: AppendLog,
}

impl CheckpointSink {
    /// Opens (or continues) the WAL in `dir`. A fresh run truncates any
    /// prior WAL and writes the header; a resume appends to the existing
    /// log, whose fingerprint the caller has already verified.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors creating the directory or the log.
    pub fn create(dir: &Path, fingerprint: u64, jobs: usize, resume: bool) -> std::io::Result<Self> {
        fs::create_dir_all(dir)?;
        let wal_path = dir.join(WAL_FILE);
        let fresh = !(resume && wal_path.exists());
        let wal = AppendLog::open(&wal_path)?;
        if fresh {
            wal.truncate_after(|| Ok(()))?;
            wal.append(&format!(
                "{{\"kind\":\"run_header\",\"version\":1,\"fingerprint\":\"{fingerprint:016x}\",\"jobs\":{jobs}}}"
            ))?;
        }
        fsync_dir(dir);
        Ok(Self { dir: dir.to_path_buf(), wal })
    }

    /// Makes one finished job durable: mask first (atomic file), WAL line
    /// second (fsynced append). Ordering matters — a WAL line claiming a
    /// mask is written only after the mask itself survived. Persistence
    /// failures never fail the job (the result is still good in memory);
    /// they leave `"ckpt":null` so a later resume re-runs the job.
    pub fn persist(&self, output: &JobOutput) {
        let job_id = output.record.job_id;
        let ckpt = match &output.mask {
            Some(mask) if output.record.status.has_mask() => {
                let name = mask_file_name(job_id);
                match write_atomic(&self.dir, &name, &pgm_bytes(mask, 0.0, 1.0)) {
                    Ok(()) => Some(name),
                    Err(e) => {
                        eprintln!("checkpoint: mask write failed for job {job_id}: {e}");
                        None
                    }
                }
            }
            _ => None,
        };
        if let Err(e) = self.wal.append(&output.record.to_json_wal(ckpt.as_deref())) {
            eprintln!("checkpoint: WAL append failed for job {job_id}: {e}");
        }
    }
}

/// One replayed WAL entry.
#[derive(Clone, Debug)]
pub struct LoadedRecord {
    /// The job's journal record as last written.
    pub record: JobRecord,
    /// Durable mask file name, when the checkpoint write succeeded.
    pub ckpt: Option<String>,
}

/// A replayed write-ahead log.
#[derive(Debug)]
pub struct LoadedRun {
    /// Configuration fingerprint recorded at run start.
    pub fingerprint: u64,
    /// Number of jobs the original run planned.
    pub jobs: usize,
    /// Last record per job id (duplicates resolve last-wins).
    pub records: BTreeMap<usize, LoadedRecord>,
    /// True when a torn trailing line was dropped.
    pub dropped_trailing: bool,
}

/// Replays the WAL in `dir`. Tolerates exactly the damage a crash can
/// cause: a truncated *trailing* line is dropped; duplicate records for
/// one job (a failure later resolved by a resume) resolve last-wins.
/// Corruption anywhere else is an error — it means something other than a
/// crash modified the log.
///
/// # Errors
///
/// Returns a message when the WAL is missing, its header is unreadable, or
/// a non-trailing line is corrupt.
pub fn load_wal(dir: &Path) -> Result<LoadedRun, String> {
    let path = dir.join(WAL_FILE);
    let replay =
        AppendLog::replay(&path, true).map_err(|e| format!("checkpoint WAL unreadable: {e}"))?;
    let (header, rest) = replay
        .records
        .split_first()
        .ok_or_else(|| format!("checkpoint WAL {} is missing or empty", path.display()))?;
    let (fingerprint, jobs) = parse_header(header)
        .map_err(|e| format!("checkpoint WAL {} header unreadable: {e}", path.display()))?;
    let mut records = BTreeMap::new();
    for (i, value) in rest.iter().enumerate() {
        let loaded = parse_wal_record(value).map_err(|e| {
            format!("checkpoint WAL {} record {} is corrupt: {e}", path.display(), i + 1)
        })?;
        records.insert(loaded.record.job_id, loaded);
    }
    Ok(LoadedRun { fingerprint, jobs, records, dropped_trailing: replay.dropped_tail })
}

/// Turns a replayed record back into a pool output, but only when it is a
/// *durable success*: status carries a mask, the mask file exists, and its
/// bits hash to exactly what the record claims. Anything less returns
/// `None` and the job re-runs.
pub fn restore_output(dir: &Path, loaded: &LoadedRecord) -> Option<JobOutput> {
    if !loaded.record.status.has_mask() {
        return None;
    }
    let name = loaded.ckpt.as_deref()?;
    let expected = loaded.record.metrics.as_ref()?.mask_hash;
    let mask = load_verified_mask(dir, name, expected)?;
    Some(JobOutput { record: loaded.record.clone(), mask: Some(mask) })
}

fn parse_header(header: &Value) -> Result<(u64, usize), String> {
    if header.field_str("kind")? != "run_header" {
        return Err("first WAL line is not a run_header".into());
    }
    Ok((header.field_hex("fingerprint")?, header.field_usize("jobs")?))
}

/// Reads one parsed WAL record (or shard job line — the same serialization)
/// back into its [`JobRecord`] + checkpoint name.
///
/// # Errors
///
/// Returns a message describing the first missing or mistyped field.
pub fn parse_wal_record(v: &Value) -> Result<LoadedRecord, String> {
    let tile = match v.get("tile") {
        Some(Value::Null) => None,
        Some(Value::Array(rc)) if rc.len() == 2 => {
            let coord = |x: &Value| x.as_u64().and_then(|n| usize::try_from(n).ok());
            Some(coord(&rc[0]).zip(coord(&rc[1])).ok_or("bad tile coordinates")?)
        }
        _ => return Err("field tile is neither null nor a [row, col] pair".into()),
    };
    let status = match v.field_str("status")? {
        "done" => JobStatus::Done,
        "degraded" => JobStatus::Degraded(v.field_str("reason")?.to_string()),
        "failed" => JobStatus::Failed(v.field_str("reason")?.to_string()),
        "cancelled" => JobStatus::Cancelled,
        other => return Err(format!("unknown status {other}")),
    };
    let metrics = if v.get("mask_hash").is_some() {
        Some(JobMetrics {
            l2_nm2: v.field_f64("l2_nm2")?,
            pvband_nm2: v.field_f64("pvband_nm2")?,
            epe_violations: v.field_usize("epe")?,
            shots: v.field_usize("shots")?,
            iterations: v.field_usize("iterations")?,
            mask_hash: v.field_hex("mask_hash")?,
        })
    } else {
        None
    };
    // Timing is informational: a record without it still restores.
    let ms = |key: &str| v.field_f64(key).unwrap_or(0.0);
    let ckpt = match v.get("ckpt") {
        Some(Value::Null) => None,
        Some(Value::Str(name)) => Some(name.clone()),
        _ => return Err("missing or mistyped field ckpt".into()),
    };
    Ok(LoadedRecord {
        record: JobRecord {
            job_id: v.field_usize("job_id")?,
            case: v.field_str("case")?.to_string(),
            tile,
            grid: v.field_usize("grid")?,
            attempts: u32::try_from(v.field_u64("attempts")?)
                .map_err(|_| "field attempts is out of range")?,
            status,
            metrics,
            times: StageTimes {
                sim_ms: ms("sim_ms"),
                optimize_ms: ms("optimize_ms"),
                evaluate_ms: ms("evaluate_ms"),
            },
            wall_ms: ms("wall_ms"),
        },
        ckpt,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_field::Field2D;
    use std::fs::OpenOptions;

    fn record(id: usize, status: JobStatus, with_metrics: bool) -> JobRecord {
        JobRecord {
            job_id: id,
            case: "case \"x\"".into(),
            tile: if id % 2 == 0 { Some((1, 2)) } else { None },
            grid: 128,
            attempts: 2,
            status,
            metrics: with_metrics.then_some(JobMetrics {
                l2_nm2: 123.5,
                pvband_nm2: 45.25,
                epe_violations: 3,
                shots: 77,
                iterations: 12,
                mask_hash: 0x0123_4567_89ab_cdef,
            }),
            times: StageTimes { sim_ms: 1.5, optimize_ms: 2.5, evaluate_ms: 0.5 },
            wall_ms: 4.5,
        }
    }

    #[test]
    fn wal_record_round_trips() {
        for (status, metrics, ckpt) in [
            (JobStatus::Done, true, Some("job-0.pgm")),
            (JobStatus::Degraded("numeric: NaN".into()), true, Some("job-0.pgm")),
            (JobStatus::Failed("panic: \"quoted\"\nboom".into()), false, None),
        ] {
            let rec = record(0, status, metrics);
            let line = rec.to_json_wal(ckpt);
            let parsed = parse_wal_record(&crate::json::parse(&line).unwrap()).expect(&line);
            assert_eq!(parsed.record, rec, "round trip of {line}");
            assert_eq!(parsed.ckpt.as_deref(), ckpt);
        }
    }

    #[test]
    fn truncated_trailing_line_is_dropped_and_midfile_corruption_is_not() {
        let dir = std::env::temp_dir().join(format!("ilt-wal-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let sink = CheckpointSink::create(&dir, 0xabcd, 3, false).unwrap();
        drop(sink);
        let wal = dir.join(WAL_FILE);
        let r0 = record(0, JobStatus::Done, true).to_json_wal(Some("job-0.pgm"));
        let r1 = record(1, JobStatus::Failed("panic: x".into()), false).to_json_wal(None);
        let torn = &r1[..r1.len() / 2];

        let mut f = OpenOptions::new().append(true).open(&wal).unwrap();
        writeln!(f, "{r0}").unwrap();
        writeln!(f, "{r1}").unwrap();
        write!(f, "{torn}").unwrap(); // crash mid-append: no newline, half a line
        drop(f);
        let run = load_wal(&dir).unwrap();
        assert_eq!(run.fingerprint, 0xabcd);
        assert_eq!(run.jobs, 3);
        assert!(run.dropped_trailing);
        assert_eq!(run.records.len(), 2);
        assert_eq!(run.records[&0].record.status, JobStatus::Done);

        // The same torn text in the *middle* of the log is real corruption.
        let mut f = File::create(&wal).unwrap();
        writeln!(f, "{{\"kind\":\"run_header\",\"version\":1,\"fingerprint\":\"000000000000abcd\",\"jobs\":3}}").unwrap();
        writeln!(f, "{torn}").unwrap();
        writeln!(f, "{r0}").unwrap();
        drop(f);
        assert!(load_wal(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_records_resolve_last_wins() {
        let dir = std::env::temp_dir().join(format!("ilt-wal-dup-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let sink = CheckpointSink::create(&dir, 1, 1, false).unwrap();
        drop(sink);
        let fail = record(0, JobStatus::Failed("panic: first try".into()), false);
        let done = record(0, JobStatus::Done, true);
        let mut f = OpenOptions::new().append(true).open(dir.join(WAL_FILE)).unwrap();
        writeln!(f, "{}", fail.to_json_wal(None)).unwrap();
        writeln!(f, "{}", done.to_json_wal(Some("job-0.pgm"))).unwrap();
        drop(f);
        let run = load_wal(&dir).unwrap();
        assert_eq!(run.records.len(), 1);
        assert_eq!(run.records[&0].record.status, JobStatus::Done, "last record wins");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mask_persistence_is_hash_exact_through_pgm() {
        let dir = std::env::temp_dir().join(format!("ilt-wal-mask-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let mask = Field2D::from_fn(16, 16, |r, c| f64::from(u8::from((r + c) % 3 == 0)));
        write_atomic(&dir, "job-0.pgm", &pgm_bytes(&mask, 0.0, 1.0)).unwrap();
        let loaded = load_verified_mask(&dir, "job-0.pgm", field_hash(&mask));
        assert!(loaded.as_ref() == Some(&mask), "binary masks round-trip bit-exact");
        assert!(load_verified_mask(&dir, "job-0.pgm", field_hash(&mask) ^ 1).is_none());
        assert!(load_verified_mask(&dir, "job-1.pgm", field_hash(&mask)).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_rejects_missing_or_corrupt_masks() {
        let dir = std::env::temp_dir().join(format!("ilt-wal-restore-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let mask = Field2D::from_fn(8, 8, |r, _| f64::from(u8::from(r < 4)));
        let mut rec = record(0, JobStatus::Done, true);
        rec.metrics.as_mut().unwrap().mask_hash = field_hash(&mask);
        let loaded = LoadedRecord { record: rec.clone(), ckpt: Some("job-0.pgm".into()) };

        // No file on disk yet: not durable.
        assert!(restore_output(&dir, &loaded).is_none());
        write_atomic(&dir, "job-0.pgm", &pgm_bytes(&mask, 0.0, 1.0)).unwrap();
        let out = restore_output(&dir, &loaded).expect("durable checkpoint restores");
        assert_eq!(field_hash(out.mask.as_ref().unwrap()), field_hash(&mask));

        // A record whose hash disagrees with the file is not durable.
        let mut bad = loaded.clone();
        bad.record.metrics.as_mut().unwrap().mask_hash ^= 1;
        assert!(restore_output(&dir, &bad).is_none());
        // Failed records never restore, even with a file present.
        let failed = LoadedRecord {
            record: record(0, JobStatus::Failed("x".into()), false),
            ckpt: Some("job-0.pgm".into()),
        };
        assert!(restore_output(&dir, &failed).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// The pre-image is a format: these are the bytes commit 676f030 hashed
    /// (through `format!("{:?}")` of the structs) for the same run, so every
    /// fingerprint already in a WAL header or on the shard wire still
    /// matches. A deliberate format change edits this literal — and orphans
    /// every checkpoint directory on disk.
    #[test]
    fn fingerprint_preimage_is_a_pinned_format() {
        let case = BatchCase {
            name: "c".into(),
            target: Field2D::from_fn(4, 4, |r, _| f64::from(u8::from(r > 1))),
            nm_per_px: 8.0,
        };
        let config = BatchConfig {
            tile: 64,
            halo: 8,
            optics: OpticsConfig { num_kernels: 10, ..OpticsConfig::default() },
            ilt: IltConfig { early_exit_window: Some(15), ..IltConfig::default() },
            schedule: ilt_core::schedules::our_fast(),
            ..BatchConfig::default()
        };
        assert_eq!(
            fingerprint_preimage(&[case], &config),
            "case:c:303b0843c0cb9765:8.0;tile:64;halo:8;seam:Crop;\
             optics:OpticsConfig { grid: 2048, nm_per_px: 1.0, na: 1.35, wavelength_nm: 193.0, \
             source: Annular { sigma_in: 0.6, sigma_out: 0.9 }, defocus_nm: 60.0, \
             num_kernels: 10, kernel_size: None, resist_threshold: 0.225, \
             resist_steepness: 50.0, wavefront: Wavefront { terms: [] } };\
             ilt:IltConfig { learning_rate: 1.0, binary: Sigmoid { beta: 4.0, t_r: 0.5 }, \
             output_binary: Sigmoid { beta: 4.0, t_r: 0.4 }, final_threshold: 0.5, \
             smoothing: Some(Smoothing { kernel: 3, placement: BeforeBinarize }), \
             region: Option2 { margin_nm: 220.0 }, early_exit_window: Some(15), \
             frozen_value: -2.0, postprocess: None, \
             loss_weights: LossWeights { l2: 1.0, pvband: 1.0, curvature: 0.0, gray: 0.0 }, \
             update_rule: Sgd };\
             schedule:[Stage { kind: LowRes, scale: 4, iterations: 35 }, \
             Stage { kind: HighRes, scale: 8, iterations: 5 }];max_eff_nm:8.0;eval:true"
        );
    }

    #[test]
    fn fingerprint_tracks_results_not_execution() {
        let case = BatchCase {
            name: "c".into(),
            target: Field2D::from_fn(64, 64, |r, _| f64::from(u8::from(r > 32))),
            nm_per_px: 8.0,
        };
        let base = BatchConfig::default();
        let fp = config_fingerprint(std::slice::from_ref(&case), &base);
        // Execution-only knobs do not change identity.
        let mut exec = base.clone();
        exec.threads = 16;
        exec.max_retries = 9;
        exec.timeout = Some(std::time::Duration::from_secs(1));
        assert_eq!(fp, config_fingerprint(std::slice::from_ref(&case), &exec));
        // Result-affecting knobs do.
        let mut tiled = base.clone();
        tiled.halo = base.halo + 8;
        assert_ne!(fp, config_fingerprint(std::slice::from_ref(&case), &tiled));
        let mut renamed = case.clone();
        renamed.name = "d".into();
        assert_ne!(fp, config_fingerprint(&[renamed], &base));
    }

    /// One edit per result-affecting field; each must move the fingerprint
    /// (and does so through a leaf's `{:?}`, which the pinned literal above
    /// does not exercise beyond the defaults).
    #[test]
    fn every_result_affecting_field_moves_the_fingerprint() {
        use ilt_core::{BinaryFunction, LossWeights, OptimizeRegion, Stage, UpdateRule};
        let case = BatchCase {
            name: "c".into(),
            target: Field2D::from_fn(8, 8, |r, _| f64::from(u8::from(r > 3))),
            nm_per_px: 8.0,
        };
        let edits: &[(&str, fn(&mut BatchConfig))] = &[
            ("tile", |c| c.tile = 256),
            ("halo", |c| c.halo = 32),
            ("optics.grid", |c| c.optics.grid = 1024),
            ("optics.nm_per_px", |c| c.optics.nm_per_px = 2.0),
            ("optics.na", |c| c.optics.na = 1.2),
            ("optics.wavelength_nm", |c| c.optics.wavelength_nm = 248.0),
            ("optics.source", |c| {
                c.optics.source = ilt_optics::SourceSpec::Annular { sigma_in: 0.5, sigma_out: 0.9 }
            }),
            ("optics.defocus_nm", |c| c.optics.defocus_nm = 25.0),
            ("optics.num_kernels", |c| c.optics.num_kernels = 10),
            ("optics.kernel_size", |c| c.optics.kernel_size = Some(35)),
            ("optics.resist_threshold", |c| c.optics.resist_threshold = 0.3),
            ("optics.resist_steepness", |c| c.optics.resist_steepness = 25.0),
            ("ilt.learning_rate", |c| c.ilt.learning_rate = 0.5),
            ("ilt.binary", |c| c.ilt.binary = BinaryFunction::Cosine),
            ("ilt.output_binary", |c| c.ilt.output_binary = BinaryFunction::Cosine),
            ("ilt.smoothing", |c| c.ilt.smoothing = None),
            ("ilt.region", |c| c.ilt.region = OptimizeRegion::option1_default()),
            ("ilt.early_exit_window", |c| c.ilt.early_exit_window = Some(15)),
            ("ilt.frozen_value", |c| c.ilt.frozen_value = -4.0),
            ("ilt.postprocess", |c| c.ilt.postprocess = Some(Default::default())),
            ("ilt.loss_weights", |c| c.ilt.loss_weights = LossWeights { gray: 0.1, ..c.ilt.loss_weights }),
            ("ilt.update_rule", |c| c.ilt.update_rule = UpdateRule::Momentum { beta: 0.9 }),
            ("schedule", |c| c.schedule = vec![Stage::low_res(4, 35)]),
            ("max_eff_nm", |c| c.max_eff_nm = 16.0),
            ("evaluate_stitched", |c| c.evaluate_stitched = false),
        ];
        let base = config_fingerprint(std::slice::from_ref(&case), &BatchConfig::default());
        let mut seen = std::collections::BTreeSet::from([base]);
        for (field, edit) in edits {
            let mut config = BatchConfig::default();
            edit(&mut config);
            let moved = config_fingerprint(std::slice::from_ref(&case), &config);
            assert!(seen.insert(moved), "{field} does not move the fingerprint");
        }
        let repitched = BatchCase { nm_per_px: 4.0, ..case.clone() };
        assert_ne!(base, config_fingerprint(&[repitched], &BatchConfig::default()));
        let mut redrawn = case.clone();
        redrawn.target[(0, 0)] = 1.0;
        assert_ne!(base, config_fingerprint(&[redrawn], &BatchConfig::default()));
    }
}
