//! The run journal: per-job measurement records and their JSON Lines form.
//!
//! Every batch run produces one [`JobRecord`] per job — what ran, where its
//! tile sits, how many attempts it took, per-stage wall-times and the
//! contest metrics of its result — accumulated into a [`RunReport`]. The
//! report serializes to JSON Lines through a small hand-rolled writer (the
//! workspace is dependency-free by policy, so no serde) and prints an
//! aggregate table. The rebar lesson (BurntSushi's benchmark harness)
//! applied here: measurements are only trustworthy when captured per task,
//! at the moment of execution, into a machine-diffable artifact — so every
//! future performance PR gets its baseline from this journal, not from
//! ad-hoc stopwatch prints.
//!
//! Determinism contract: everything in a record except the `*_ms` timing
//! fields is a pure function of the job's inputs.
//! `RunReport::to_jsonl_opts(false)` serializes exactly the deterministic
//! fields, which is what the `--threads 1` vs `--threads N` equivalence test
//! (`tests/batch_determinism.rs`) compares.

use std::fmt;
use std::io::Write;
use std::path::Path;

use ilt_field::Field2D;

use crate::json::{json_escape, json_f64};

/// Terminal state of a job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// The job produced a mask and metrics.
    Done,
    /// The job exhausted its retry budget but the degraded fallback — the
    /// low-resolution (Eq. 8 scale-`s`) pass — succeeded; the reason the
    /// full recipe kept failing is recorded. The mask is usable but coarse.
    Degraded(String),
    /// The job exhausted its retry budget; the reason of the last attempt.
    Failed(String),
    /// The run was cancelled before this job started; no attempt ran and
    /// there is no mask. Cancelled jobs are terminal but not failures.
    Cancelled,
}

impl JobStatus {
    /// True when the job ended with a usable mask ([`JobStatus::Done`] or
    /// [`JobStatus::Degraded`]).
    pub fn has_mask(&self) -> bool {
        matches!(self, JobStatus::Done | JobStatus::Degraded(_))
    }
}

/// Every label [`failure_kind`] returns, in the order the server's
/// `/metrics` family renders them; `other`, the catch-all, is last.
pub const FAILURE_KINDS: [&str; 4] = ["panic", "timeout", "numeric", "other"];

/// Classifies a failure reason into its typed kind, the label used by the
/// journal summary and the server's `/metrics` failure counters: one of
/// [`FAILURE_KINDS`].
pub fn failure_kind(reason: &str) -> &'static str {
    if reason.starts_with("panic") {
        "panic"
    } else if reason.contains("timed out") {
        "timeout"
    } else if reason.starts_with("numeric") {
        "numeric"
    } else {
        "other"
    }
}

/// Wall-time of each stage of a job, milliseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageTimes {
    /// Simulator acquisition (≈0 on a cache hit, the TCC+eig build on a
    /// miss).
    pub sim_ms: f64,
    /// The multi-level optimization itself.
    pub optimize_ms: f64,
    /// Corner prints + metric evaluation of the finished tile.
    pub evaluate_ms: f64,
}

/// Result metrics of a finished job (the contest columns plus provenance).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobMetrics {
    /// Squared L2 loss in nm².
    pub l2_nm2: f64,
    /// Process-variation band in nm².
    pub pvband_nm2: f64,
    /// EPE violation count.
    pub epe_violations: usize,
    /// Mask fracturing shot count.
    pub shots: usize,
    /// Gradient iterations actually executed.
    pub iterations: usize,
    /// FNV-1a hash of the final mask bits (bit-exact determinism witness).
    pub mask_hash: u64,
}

/// One journal line: the full measurement record of one job.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRecord {
    /// Dense job id; also the result-ordering key.
    pub job_id: usize,
    /// Name of the case the job belongs to.
    pub case: String,
    /// Tile-grid coordinates `(row, col)`; `None` for a whole-clip job.
    pub tile: Option<(usize, usize)>,
    /// Grid size the job simulated at.
    pub grid: usize,
    /// 1-based number of attempts consumed (>1 means retries happened).
    pub attempts: u32,
    /// Terminal state.
    pub status: JobStatus,
    /// Metrics of the final mask (`None` when failed).
    pub metrics: Option<JobMetrics>,
    /// Per-stage wall-times of the successful attempt (or the last one).
    pub times: StageTimes,
    /// End-to-end wall-time of the job including retries, ms.
    pub wall_ms: f64,
}

/// The measurement record of a whole batch run.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Attempts the pool ran at once (`BatchConfig::threads`).
    pub threads: usize,
    /// Per-job records, sorted by `job_id`.
    pub records: Vec<JobRecord>,
    /// Wall-time of the whole pool run, ms.
    pub total_wall_ms: f64,
}

/// FNV-1a's 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash.
pub fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    fnv1a64_from(0xcbf2_9ce4_8422_2325, bytes)
}

/// FNV-1a continued from the state `h`.
fn fnv1a64_from(mut h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Bit-exact hash of a field: FNV-1a over the little-endian bytes of its
/// shape and of every pixel's bit pattern.
///
/// A pixel word of eight zero bytes (`+0.0`, most of a binary mask) is one
/// multiply by `prime^8`: FNV-1a's xor with a zero byte is a no-op, and its
/// wrapping multiplies associate, so the value is the byte-wise one.
pub fn field_hash(f: &Field2D) -> u64 {
    const PRIME_POW8: u64 = FNV_PRIME.wrapping_pow(8);
    let (rows, cols) = f.shape();
    let dims = [rows as u64, cols as u64];
    let mut h = fnv1a64(dims.iter().flat_map(|d| d.to_le_bytes()));
    for v in f.as_slice() {
        let bits = v.to_bits();
        h = match bits {
            0 => h.wrapping_mul(PRIME_POW8),
            _ => fnv1a64_from(h, bits.to_le_bytes()),
        };
    }
    h
}

impl JobRecord {
    /// The record as one JSON object (no trailing newline), timing included.
    pub fn to_json(&self) -> String {
        self.to_json_opts(true)
    }

    /// The record as one JSON object (no trailing newline).
    ///
    /// Key order is fixed, with all nondeterministic timing fields at the
    /// tail. With `timing == false` the `*_ms` fields are omitted entirely,
    /// so the line is a pure function of the job's inputs — determinism
    /// checks diff such journals directly instead of text-stripping the
    /// tail.
    pub fn to_json_opts(&self, timing: bool) -> String {
        let mut s = String::with_capacity(256);
        s.push_str(&format!(
            "{{\"job_id\":{},\"case\":\"{}\",",
            self.job_id,
            json_escape(&self.case)
        ));
        match self.tile {
            Some((r, c)) => s.push_str(&format!("\"tile\":[{r},{c}],")),
            None => s.push_str("\"tile\":null,"),
        }
        s.push_str(&format!("\"grid\":{},\"attempts\":{},", self.grid, self.attempts));
        match &self.status {
            JobStatus::Done => s.push_str("\"status\":\"done\","),
            JobStatus::Degraded(why) => s.push_str(&format!(
                "\"status\":\"degraded\",\"reason\":\"{}\",",
                json_escape(why)
            )),
            JobStatus::Failed(why) => {
                s.push_str(&format!("\"status\":\"failed\",\"reason\":\"{}\",", json_escape(why)))
            }
            JobStatus::Cancelled => s.push_str("\"status\":\"cancelled\","),
        }
        match &self.metrics {
            Some(m) => s.push_str(&format!(
                "\"l2_nm2\":{},\"pvband_nm2\":{},\"epe\":{},\"shots\":{},\"iterations\":{},\"mask_hash\":\"{:016x}\",",
                json_f64(m.l2_nm2),
                json_f64(m.pvband_nm2),
                m.epe_violations,
                m.shots,
                m.iterations,
                m.mask_hash,
            )),
            None => s.push_str("\"metrics\":null,"),
        }
        if timing {
            s.push_str(&format!(
                "\"sim_ms\":{},\"optimize_ms\":{},\"evaluate_ms\":{},\"wall_ms\":{}}}",
                json_f64(self.times.sim_ms),
                json_f64(self.times.optimize_ms),
                json_f64(self.times.evaluate_ms),
                json_f64(self.wall_ms),
            ));
        } else {
            s.pop(); // the trailing comma after the last deterministic field
            s.push('}');
        }
        s
    }

    /// The record as one write-ahead-log line: the full timed record plus a
    /// `"ckpt"` field naming the durable mask file (or `null` when the
    /// result was not persisted). Parsed back by the checkpoint loader.
    pub fn to_json_wal(&self, ckpt: Option<&str>) -> String {
        let mut s = self.to_json_opts(true);
        s.pop(); // the closing brace
        match ckpt {
            Some(name) => s.push_str(&format!(",\"ckpt\":\"{}\"}}", json_escape(name))),
            None => s.push_str(",\"ckpt\":null}"),
        }
        s
    }
}

impl RunReport {
    /// Number of jobs that ended [`JobStatus::Failed`].
    pub fn failed_jobs(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.status, JobStatus::Failed(_)))
            .count()
    }

    /// Number of jobs that ended [`JobStatus::Degraded`] (low-res fallback).
    pub fn degraded_jobs(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.status, JobStatus::Degraded(_)))
            .count()
    }

    /// Number of jobs whose terminal (or degrading) reason classifies as
    /// the typed `"numeric"` failure — the NaN/Inf guard tripping.
    pub fn numeric_failures(&self) -> usize {
        self.records
            .iter()
            .filter(|r| match &r.status {
                JobStatus::Failed(why) | JobStatus::Degraded(why) => {
                    failure_kind(why) == "numeric"
                }
                JobStatus::Done | JobStatus::Cancelled => false,
            })
            .count()
    }

    /// Total attempts beyond the first, across all jobs.
    pub fn total_retries(&self) -> u64 {
        self.records.iter().map(|r| u64::from(r.attempts.saturating_sub(1))).sum()
    }

    /// Sum of per-job wall-times — the serial cost of the work.
    pub fn serial_ms(&self) -> f64 {
        self.records.iter().map(|r| r.wall_ms).sum()
    }

    /// Achieved parallel speedup: serial cost over pool wall-time.
    pub fn speedup(&self) -> f64 {
        if self.total_wall_ms > 0.0 {
            self.serial_ms() / self.total_wall_ms
        } else {
            1.0
        }
    }

    /// The whole report as JSON Lines: one object per job, then a summary
    /// object (`"kind":"summary"`), timing included.
    pub fn to_jsonl(&self) -> String {
        self.to_jsonl_opts(true)
    }

    /// [`RunReport::to_jsonl`] with timing optionally omitted.
    ///
    /// With `timing == false` every record drops its `*_ms` tail and the
    /// summary drops `threads` and the aggregate wall-times, leaving only
    /// fields that are identical across thread counts — two such journals
    /// from equivalent runs must compare byte-for-byte equal.
    pub fn to_jsonl_opts(&self, timing: bool) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_json_opts(timing));
            out.push('\n');
        }
        if timing {
            out.push_str(&format!(
                "{{\"kind\":\"summary\",\"threads\":{},\"jobs\":{},\"failed\":{},\"degraded\":{},\"numeric\":{},\"retries\":{},\"serial_ms\":{},\"total_wall_ms\":{},\"speedup\":{}}}\n",
                self.threads,
                self.records.len(),
                self.failed_jobs(),
                self.degraded_jobs(),
                self.numeric_failures(),
                self.total_retries(),
                json_f64(self.serial_ms()),
                json_f64(self.total_wall_ms),
                json_f64(self.speedup()),
            ));
        } else {
            out.push_str(&format!(
                "{{\"kind\":\"summary\",\"jobs\":{},\"failed\":{},\"degraded\":{},\"numeric\":{},\"retries\":{}}}\n",
                self.records.len(),
                self.failed_jobs(),
                self.degraded_jobs(),
                self.numeric_failures(),
                self.total_retries(),
            ));
        }
        out
    }

    /// Writes [`RunReport::to_jsonl`] to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        self.write_jsonl_opts(path, true)
    }

    /// Writes [`RunReport::to_jsonl_opts`] to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl_opts(&self, path: impl AsRef<Path>, timing: bool) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_jsonl_opts(timing).as_bytes())
    }
}

impl fmt::Display for RunReport {
    /// The aggregate table printed after a batch run.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:>4} {:<14} {:>11} {:>6} {:>10} {:>10} {:>4} {:>6} {:>4} {:>9}",
            "job", "case", "tile", "grid", "L2 nm2", "PVB nm2", "EPE", "shots", "try", "wall ms"
        )?;
        for r in &self.records {
            let tile = match r.tile {
                Some((tr, tc)) => format!("({tr},{tc})"),
                None => "clip".into(),
            };
            match (&r.status, &r.metrics) {
                (JobStatus::Done, Some(m)) => writeln!(
                    f,
                    "{:>4} {:<14} {:>11} {:>6} {:>10.0} {:>10.0} {:>4} {:>6} {:>4} {:>9.1}",
                    r.job_id,
                    r.case,
                    tile,
                    r.grid,
                    m.l2_nm2,
                    m.pvband_nm2,
                    m.epe_violations,
                    m.shots,
                    r.attempts,
                    r.wall_ms
                )?,
                (JobStatus::Degraded(why), Some(m)) => writeln!(
                    f,
                    "{:>4} {:<14} {:>11} {:>6} {:>10.0} {:>10.0} {:>4} {:>6} {:>4} {:>9.1} DEGRADED: {}",
                    r.job_id,
                    r.case,
                    tile,
                    r.grid,
                    m.l2_nm2,
                    m.pvband_nm2,
                    m.epe_violations,
                    m.shots,
                    r.attempts,
                    r.wall_ms,
                    why
                )?,
                (JobStatus::Failed(why), _) => writeln!(
                    f,
                    "{:>4} {:<14} {:>11} {:>6} FAILED after {} attempts: {}",
                    r.job_id, r.case, tile, r.grid, r.attempts, why
                )?,
                (JobStatus::Cancelled, _) => writeln!(
                    f,
                    "{:>4} {:<14} {:>11} {:>6} CANCELLED before any attempt ran",
                    r.job_id, r.case, tile, r.grid
                )?,
                (JobStatus::Done | JobStatus::Degraded(_), None) => writeln!(
                    f,
                    "{:>4} {:<14} {:>11} {:>6} done (no metrics)",
                    r.job_id, r.case, tile, r.grid
                )?,
            }
        }
        writeln!(
            f,
            "{} jobs on {} threads: {} failed, {} degraded, {} retries, serial {:.1} ms, wall {:.1} ms, speedup {:.2}x",
            self.records.len(),
            self.threads,
            self.failed_jobs(),
            self.degraded_jobs(),
            self.total_retries(),
            self.serial_ms(),
            self.total_wall_ms,
            self.speedup()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: usize, status: JobStatus) -> JobRecord {
        JobRecord {
            job_id: id,
            case: "m1_case1".into(),
            tile: Some((0, 192)),
            grid: 256,
            attempts: 1,
            status,
            metrics: Some(JobMetrics {
                l2_nm2: 41250.0,
                pvband_nm2: 8000.5,
                epe_violations: 2,
                shots: 311,
                iterations: 40,
                mask_hash: 0xdead_beef_cafe_f00d,
            }),
            times: StageTimes { sim_ms: 12.0, optimize_ms: 840.0, evaluate_ms: 31.0 },
            wall_ms: 883.0,
        }
    }

    #[test]
    fn json_line_is_wellformed_and_ordered() {
        let line = record(3, JobStatus::Done).to_json();
        assert!(line.starts_with("{\"job_id\":3,\"case\":\"m1_case1\","));
        assert!(line.contains("\"tile\":[0,192]"));
        assert!(line.contains("\"mask_hash\":\"deadbeefcafef00d\""));
        // Timing fields must come after all deterministic fields.
        let det = line.find("\"mask_hash\"").unwrap();
        assert!(line.find("\"sim_ms\"").unwrap() > det);
        assert!(line.ends_with('}'));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    #[test]
    fn failed_record_carries_reason() {
        let mut r = record(1, JobStatus::Failed("panic: boom \"quoted\"".into()));
        r.metrics = None;
        let line = r.to_json();
        assert!(line.contains("\"status\":\"failed\""));
        assert!(line.contains("\\\"quoted\\\""));
        assert!(line.contains("\"metrics\":null"));
    }

    #[test]
    fn no_timing_json_omits_every_nondeterministic_field() {
        let mut a = record(0, JobStatus::Done);
        let mut b = record(0, JobStatus::Done);
        a.wall_ms = 1.0;
        b.wall_ms = 99.0;
        b.times = StageTimes { sim_ms: 7.0, optimize_ms: 9.0, evaluate_ms: 3.0 };
        assert_eq!(a.to_json_opts(false), b.to_json_opts(false));
        let line = a.to_json_opts(false);
        assert!(!line.contains("_ms\""), "{line}");
        assert!(line.ends_with("\"mask_hash\":\"deadbeefcafef00d\"}"), "{line}");
        assert_eq!(line.matches('{').count(), line.matches('}').count());
        // A failed record (metrics:null tail) stays well-formed too.
        let mut f = record(1, JobStatus::Failed("x".into()));
        f.metrics = None;
        assert!(f.to_json_opts(false).ends_with("\"metrics\":null}"));
    }

    #[test]
    fn no_timing_report_is_thread_count_invariant() {
        let report = |threads, wall| RunReport {
            threads,
            records: vec![record(0, JobStatus::Done)],
            total_wall_ms: wall,
        };
        assert_eq!(report(1, 10.0).to_jsonl_opts(false), report(4, 99.0).to_jsonl_opts(false));
        let jsonl = report(1, 10.0).to_jsonl_opts(false);
        assert!(jsonl.lines().last().unwrap().contains("\"kind\":\"summary\""));
        assert!(!jsonl.contains("_ms\""));
        assert!(!jsonl.contains("threads"));
    }

    #[test]
    fn digest_ignores_timing() {
        let mut a = record(0, JobStatus::Done);
        let mut b = record(0, JobStatus::Done);
        a.wall_ms = 1.0;
        b.wall_ms = 99.0;
        b.times.optimize_ms = 1e6;
        assert_eq!(a.to_json_opts(false), b.to_json_opts(false));
        b.metrics.as_mut().unwrap().mask_hash ^= 1;
        assert_ne!(a.to_json_opts(false), b.to_json_opts(false));
    }

    #[test]
    fn report_aggregates() {
        let report = RunReport {
            threads: 4,
            records: vec![record(0, JobStatus::Done), {
                let mut r = record(1, JobStatus::Failed("timeout".into()));
                r.attempts = 3;
                r
            }],
            total_wall_ms: 1000.0,
        };
        assert_eq!(report.failed_jobs(), 1);
        assert_eq!(report.total_retries(), 2);
        assert!((report.serial_ms() - 1766.0).abs() < 1e-9);
        let jsonl = report.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3, "2 jobs + summary");
        assert!(jsonl.lines().last().unwrap().contains("\"kind\":\"summary\""));
        let table = report.to_string();
        assert!(table.contains("FAILED after 3 attempts"));
    }

    #[test]
    fn field_hash_is_bit_exact() {
        let a = Field2D::filled(4, 4, 0.5);
        let mut b = Field2D::filled(4, 4, 0.5);
        assert_eq!(field_hash(&a), field_hash(&b));
        b[(2, 2)] = 0.5 + f64::EPSILON;
        assert_ne!(field_hash(&a), field_hash(&b));
        // Shape participates: a 1x4 and 4x1 of equal data differ.
        let r = Field2D::filled(1, 4, 1.0);
        let c = Field2D::filled(4, 1, 1.0);
        assert_ne!(field_hash(&r), field_hash(&c));
    }

    #[test]
    fn field_hash_is_the_byte_wise_fnv() {
        let byte_wise = |f: &Field2D| {
            let (rows, cols) = f.shape();
            fnv1a64(
                [rows as u64, cols as u64]
                    .iter()
                    .flat_map(|d| d.to_le_bytes())
                    .chain(f.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes())),
            )
        };
        let nan_payload = f64::from_bits(0x7ff8_0000_0000_0001);
        let fields = [
            Field2D::from_fn(32, 32, |r, c| if (r * 7 + c * 3) % 5 < 2 { 1.0 } else { 0.0 }),
            Field2D::from_fn(8, 8, |r, c| if (r + c) % 3 == 0 { -0.0 } else { 0.0 }),
            Field2D::from_fn(4, 8, |r, c| if r == c { nan_payload } else { f64::NAN }),
            Field2D::from_fn(16, 8, |r, c| (r as f64 * 0.37 - c as f64).sin() / 3.0),
            Field2D::zeros(0, 5),
        ];
        for f in &fields {
            assert_eq!(field_hash(f), byte_wise(f), "{:?} field", f.shape());
        }
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c
        assert_eq!(fnv1a64([b'a']), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn degraded_record_keeps_metrics_and_reason() {
        let r = record(2, JobStatus::Degraded("numeric: NaN in tile".into()));
        let line = r.to_json();
        assert!(line.contains("\"status\":\"degraded\""));
        assert!(line.contains("\"reason\":\"numeric: NaN in tile\""));
        assert!(line.contains("\"mask_hash\""), "degraded results carry metrics");
        assert!(r.status.has_mask() && r.status != JobStatus::Done);
        assert!(r.to_json_opts(false).contains("\"status\":\"degraded\",\"reason\":\"numeric"));
        let report = RunReport { threads: 1, records: vec![r], total_wall_ms: 1.0 };
        assert_eq!(report.failed_jobs(), 0);
        assert_eq!(report.degraded_jobs(), 1);
        assert_eq!(report.numeric_failures(), 1);
        assert!(report.to_jsonl_opts(false).contains("\"degraded\":1,\"numeric\":1"));
    }

    #[test]
    fn cancelled_record_serializes_and_counts() {
        let mut r = record(5, JobStatus::Cancelled);
        r.metrics = None;
        let line = r.to_json();
        assert!(line.contains("\"status\":\"cancelled\""), "{line}");
        assert!(line.contains("\"metrics\":null"));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
        assert!(!r.status.has_mask() && r.status != JobStatus::Done);
        assert!(r.to_json_opts(false).contains("\"status\":\"cancelled\""));
        let report = RunReport { threads: 1, records: vec![r], total_wall_ms: 1.0 };
        assert_eq!(report.failed_jobs(), 0);
        assert_eq!(report.numeric_failures(), 0);
        assert!(report.to_string().contains("CANCELLED"));
    }

    #[test]
    fn failure_kinds_classify() {
        // One reason per branch of `failure_kind`, the catch-all last: the
        // labels it returns are exactly FAILURE_KINDS, in order, so the
        // last slot (where `FailureKinds` counts an unknown label) is `other`.
        let reasons = [
            "panic: injected failure",
            "timed out after 1.0s (attempt thread abandoned)",
            "numeric: non-finite values in tile result",
            "grid must be a power of two",
        ];
        let kinds: Vec<&str> = reasons.into_iter().map(failure_kind).collect();
        assert_eq!(kinds, FAILURE_KINDS);
        assert_eq!(FAILURE_KINDS.last(), Some(&"other"));
    }

    #[test]
    fn wal_line_appends_ckpt_field() {
        let r = record(0, JobStatus::Done);
        let with = r.to_json_wal(Some("job-0.pgm"));
        assert!(with.ends_with(",\"ckpt\":\"job-0.pgm\"}"), "{with}");
        let without = r.to_json_wal(None);
        assert!(without.ends_with(",\"ckpt\":null}"), "{without}");
        assert_eq!(with.matches('{').count(), with.matches('}').count());
    }
}
