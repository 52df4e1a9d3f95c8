//! Crash-safe checkpoint/resume, end to end: a run that loses jobs to
//! injected faults, to a failed mask write or to WAL damage must, after
//! resume, produce masks and a timing-stripped journal byte-identical to an
//! uninterrupted run.

use std::fs;
use std::io::Write;
use std::path::PathBuf;

use ilt_core::Stage;
use ilt_field::Field2D;
use ilt_optics::OpticsConfig;
use ilt_runtime::{
    field_hash, load_wal, run_batch, run_batch_resume, BatchCase, BatchConfig, FaultPlan,
    JobStatus, SimulatorCache, WAL_FILE,
};

fn bar_case(name: &str, n: usize) -> BatchCase {
    let target = Field2D::from_fn(n, n, |r, c| {
        if (n / 4..n / 2).contains(&r) && (n / 8..n - n / 8).contains(&c) { 1.0 } else { 0.0 }
    });
    BatchCase { name: name.into(), target, nm_per_px: 8.0 }
}

/// 128-px case over 64-px tiles with an 8-px halo: 3x3 = 9 jobs.
fn tiled_config() -> BatchConfig {
    BatchConfig {
        threads: 2,
        tile: 64,
        halo: 8,
        optics: OpticsConfig { num_kernels: 3, ..OpticsConfig::default() },
        schedule: vec![Stage::low_res(2, 3), Stage::high_res(1, 2)],
        evaluate_stitched: false,
        ..BatchConfig::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ilt-resume-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn resume_after_faulted_run_is_byte_identical_to_uninterrupted() {
    let cases = [bar_case("m1", 128)];

    // Reference: one uninterrupted, checkpointed run.
    let ref_dir = temp_dir("ref");
    let mut ref_cfg = tiled_config();
    ref_cfg.checkpoint = Some(ref_dir.clone());
    let reference = run_batch(&cases, &ref_cfg, &SimulatorCache::new()).unwrap();
    assert_eq!(reference.report.failed_jobs(), 0);

    // Crashed run: job 4 fails every attempt (fallback included), so the
    // WAL records a failure for it — exactly the state a mid-run kill plus
    // a persistent defect leaves behind.
    let dir = temp_dir("crashed");
    let mut faulted = tiled_config();
    faulted.checkpoint = Some(dir.clone());
    faulted.max_retries = 0;
    faulted.faults = FaultPlan::parse("panic@4").unwrap();
    let crashed = run_batch(&cases, &faulted, &SimulatorCache::new()).unwrap();
    assert_eq!(crashed.report.failed_jobs(), 1);

    // Resume with the fault gone (the "fixed" re-invocation).
    let mut resume_cfg = tiled_config();
    resume_cfg.checkpoint = Some(dir.clone());
    resume_cfg.max_retries = 0;
    let resumed = run_batch_resume(&cases, &resume_cfg, &SimulatorCache::new(), true).unwrap();

    assert_eq!(resumed.restored_jobs, 8, "8 durable successes skip re-running");
    assert_eq!(resumed.report.failed_jobs(), 0);
    assert_eq!(
        resumed.report.to_jsonl_opts(false),
        reference.report.to_jsonl_opts(false),
        "timing-stripped journals must be byte-identical"
    );
    assert_eq!(
        field_hash(&resumed.cases[0].mask),
        field_hash(&reference.cases[0].mask),
        "stitched masks must be bit-identical"
    );

    // The WAL now holds duplicate records for job 4 (failed, then done);
    // replay resolves them last-wins.
    let wal = load_wal(&dir).unwrap();
    assert_eq!(wal.records.len(), 9);
    assert_eq!(wal.records[&4].record.status, JobStatus::Done, "last record wins");
    let raw = fs::read_to_string(dir.join(WAL_FILE)).unwrap();
    let job4_lines = raw.lines().filter(|l| l.contains("\"job_id\":4,")).count();
    assert_eq!(job4_lines, 2, "failure and the resumed success both remain in the log");

    let _ = fs::remove_dir_all(&ref_dir);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_trailing_wal_line_reruns_only_the_torn_job() {
    let cases = [bar_case("m1", 128)];
    let dir = temp_dir("torn");
    let mut cfg = tiled_config();
    cfg.checkpoint = Some(dir.clone());
    let full = run_batch(&cases, &cfg, &SimulatorCache::new()).unwrap();

    // Tear the WAL mid-append: chop the final record line in half, exactly
    // what a crash during a write leaves behind.
    let wal_path = dir.join(WAL_FILE);
    let raw = fs::read_to_string(&wal_path).unwrap();
    let lines: Vec<&str> = raw.lines().collect();
    let last = lines.last().unwrap();
    let torn: String = lines[..lines.len() - 1].join("\n") + "\n" + &last[..last.len() / 2];
    fs::write(&wal_path, torn).unwrap();

    let loaded = load_wal(&dir).unwrap();
    assert!(loaded.dropped_trailing);
    assert_eq!(loaded.records.len(), 8);

    let resumed = run_batch_resume(&cases, &cfg, &SimulatorCache::new(), true).unwrap();
    assert_eq!(resumed.restored_jobs, 8, "only the torn job re-runs");
    assert_eq!(
        resumed.report.to_jsonl_opts(false),
        full.report.to_jsonl_opts(false)
    );
    assert_eq!(field_hash(&resumed.cases[0].mask), field_hash(&full.cases[0].mask));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resumed_records_are_never_glued_onto_a_torn_wal_tail() {
    let cases = [bar_case("m1", 128)];
    let dir = temp_dir("glue");
    let mut cfg = tiled_config();
    cfg.checkpoint = Some(dir.clone());
    let full = run_batch(&cases, &cfg, &SimulatorCache::new()).unwrap();

    // The crash: the process died while appending the 4th record, so that
    // line is half there and every later job never reported in. Resuming on
    // 2 threads then appends 6 records, the first of which must not
    // continue the torn half-line.
    let wal_path = dir.join(WAL_FILE);
    let raw = fs::read_to_string(&wal_path).unwrap();
    let lines: Vec<&str> = raw.lines().collect();
    let torn = lines[..4].join("\n") + "\n" + &lines[4][..lines[4].len() / 2];
    fs::write(&wal_path, torn).unwrap();
    let before = load_wal(&dir).unwrap();
    assert!(before.dropped_trailing);
    assert_eq!(before.records.len(), 3);

    let resumed = run_batch_resume(&cases, &cfg, &SimulatorCache::new(), true).unwrap();
    assert_eq!(resumed.restored_jobs, 3);
    assert_eq!(resumed.report.to_jsonl_opts(false), full.report.to_jsonl_opts(false));

    for line in fs::read_to_string(&wal_path).unwrap().lines() {
        ilt_runtime::json::parse(line).unwrap_or_else(|e| panic!("not JSON ({e}): {line}"));
    }
    let after = load_wal(&dir).unwrap();
    assert!(!after.dropped_trailing, "the torn tail was cut off, not built upon");
    assert_eq!(after.records.len(), 9);

    let again = run_batch_resume(&cases, &cfg, &SimulatorCache::new(), true).unwrap();
    assert_eq!(again.restored_jobs, 9, "every job's record survived intact");
    assert_eq!(again.report.to_jsonl_opts(false), full.report.to_jsonl_opts(false));
    assert_eq!(field_hash(&again.cases[0].mask), field_hash(&full.cases[0].mask));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fingerprint_mismatch_rejects_the_resume() {
    let cases = [bar_case("m1", 128)];
    let dir = temp_dir("fpr");
    let mut cfg = tiled_config();
    cfg.checkpoint = Some(dir.clone());
    run_batch(&cases, &cfg, &SimulatorCache::new()).unwrap();

    // Execution-only knobs may change freely...
    let mut more_threads = cfg.clone();
    more_threads.threads = 1;
    more_threads.max_retries = 5;
    assert!(run_batch_resume(&cases, &more_threads, &SimulatorCache::new(), true).is_ok());

    // ...but result-affecting configuration must not.
    let mut different = cfg.clone();
    different.halo = 16;
    let err = run_batch_resume(&cases, &different, &SimulatorCache::new(), true).unwrap_err();
    assert!(err.contains("fingerprint mismatch"), "{err}");

    // Different inputs are rejected too.
    let err = run_batch_resume(&[bar_case("other", 128)], &cfg, &SimulatorCache::new(), true)
        .unwrap_err();
    assert!(err.contains("fingerprint mismatch"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_write_fault_leaves_the_job_nondurable() {
    let cases = [bar_case("solo", 64)]; // one whole-clip job
    let dir = temp_dir("ckptfault");
    // A directory where the mask file goes: the real rename fails with
    // EISDIR. (Permission bits would not do: root ignores them.)
    fs::create_dir_all(dir.join("job-0.pgm")).unwrap();
    let mut cfg = tiled_config();
    cfg.checkpoint = Some(dir.clone());
    let out = run_batch(&cases, &cfg, &SimulatorCache::new()).unwrap();
    assert_eq!(out.report.failed_jobs(), 0, "the job itself succeeds in memory");

    // The WAL records the success but with no durable mask...
    let loaded = load_wal(&dir).unwrap();
    assert_eq!(loaded.records[&0].record.status, JobStatus::Done);
    assert!(loaded.records[&0].ckpt.is_none());
    // ...and the failed write leaves no temp file behind.
    assert!(!dir.join("job-0.pgm.tmp").exists(), "a failed mask write leaves its .tmp");

    // So a resume does not trust the record and re-runs the job.
    let resumed = run_batch_resume(&cases, &cfg, &SimulatorCache::new(), true).unwrap();
    assert_eq!(resumed.restored_jobs, 0);
    assert_eq!(resumed.report.failed_jobs(), 0);
    assert_eq!(
        field_hash(&resumed.cases[0].mask),
        field_hash(&out.cases[0].mask)
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_mask_file_forces_a_rerun() {
    let cases = [bar_case("solo", 64)];
    let dir = temp_dir("badmask");
    let mut cfg = tiled_config();
    cfg.checkpoint = Some(dir.clone());
    let full = run_batch(&cases, &cfg, &SimulatorCache::new()).unwrap();

    // Corrupt the checkpointed mask: flip its body bytes.
    let mask_path = dir.join("job-0.pgm");
    let mut bytes = fs::read(&mask_path).unwrap();
    let n = bytes.len();
    for b in &mut bytes[n - 16..] {
        *b ^= 0xff;
    }
    let mut f = fs::File::create(&mask_path).unwrap();
    f.write_all(&bytes).unwrap();
    drop(f);

    let resumed = run_batch_resume(&cases, &cfg, &SimulatorCache::new(), true).unwrap();
    assert_eq!(resumed.restored_jobs, 0, "hash mismatch disqualifies the checkpoint");
    assert_eq!(field_hash(&resumed.cases[0].mask), field_hash(&full.cases[0].mask));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn chaos_run_with_mixed_faults_still_converges_and_resumes() {
    let cases = [bar_case("m1", 128)];
    let dir = temp_dir("chaos");
    let mut cfg = tiled_config();
    cfg.checkpoint = Some(dir.clone());
    cfg.max_retries = 1;
    // First attempts suffer a panic or a NaN poison on three different
    // jobs; retries are clean.
    cfg.faults = FaultPlan::parse("panic@1:1,nan@3:1,panic@5:1").unwrap();
    let out = run_batch(&cases, &cfg, &SimulatorCache::new()).unwrap();
    assert_eq!(out.report.failed_jobs(), 0);
    assert_eq!(out.report.total_retries(), 3);

    // The retried jobs' final results are durable; everything restores.
    let resumed = run_batch_resume(&cases, &cfg, &SimulatorCache::new(), true).unwrap();
    assert_eq!(resumed.restored_jobs, 9);
    // Restored records keep the attempts they took originally.
    assert_eq!(resumed.report.records[1].attempts, 2);
    assert!(resumed.report.records.iter().all(|r| matches!(r.status, JobStatus::Done)));
    let _ = fs::remove_dir_all(&dir);
}
