//! Golden lines for every record format this crate writes: the run journal
//! (timed, timing-stripped, summary) and the checkpoint WAL (header, record
//! with and without a durable mask). Each literal is pinned both ways —
//! `writer(x) == literal` and `reader(literal) == x` — so a format change is
//! a deliberate edit here, and logs written by earlier commits keep
//! replaying. (The server state log and the shard wire lines have the same
//! tests next to their writers, in `ilt-server` and `ilt-cluster`.)

use std::fs;

use ilt_runtime::json::{self, Value};
use ilt_runtime::{
    load_wal, CheckpointSink, JobMetrics, JobOutput, JobRecord, JobStatus, RunReport,
    StageTimes, WAL_FILE,
};

const JOURNAL_TIMED: &str = r#"{"job_id":3,"case":"m1 \"a\"","tile":[0,192],"grid":256,"attempts":2,"status":"done","l2_nm2":41250.0,"pvband_nm2":8000.5,"epe":2,"shots":311,"iterations":40,"mask_hash":"deadbeefcafef00d","sim_ms":12.0,"optimize_ms":840.25,"evaluate_ms":31.0,"wall_ms":883.5}"#;
const JOURNAL_UNTIMED: &str = r#"{"job_id":3,"case":"m1 \"a\"","tile":[0,192],"grid":256,"attempts":2,"status":"done","l2_nm2":41250.0,"pvband_nm2":8000.5,"epe":2,"shots":311,"iterations":40,"mask_hash":"deadbeefcafef00d"}"#;
const JOURNAL_FAILED_UNTIMED: &str = r#"{"job_id":4,"case":"clip","tile":null,"grid":128,"attempts":3,"status":"failed","reason":"panic: boom\n\ttab","metrics":null}"#;
const SUMMARY_TIMED: &str = r#"{"kind":"summary","threads":4,"jobs":2,"failed":1,"degraded":0,"numeric":0,"retries":3,"serial_ms":884.5,"total_wall_ms":500.0,"speedup":1.769}"#;
const SUMMARY_UNTIMED: &str =
    r#"{"kind":"summary","jobs":2,"failed":1,"degraded":0,"numeric":0,"retries":3}"#;
const WAL_HEADER: &str =
    r#"{"kind":"run_header","version":1,"fingerprint":"000000000000f00d","jobs":2}"#;
const WAL_FAILED: &str = r#"{"job_id":4,"case":"clip","tile":null,"grid":128,"attempts":3,"status":"failed","reason":"panic: boom\n\ttab","metrics":null,"sim_ms":0.0,"optimize_ms":0.0,"evaluate_ms":0.0,"wall_ms":1.0,"ckpt":null}"#;

fn done_record() -> JobRecord {
    JobRecord {
        job_id: 3,
        case: "m1 \"a\"".into(),
        tile: Some((0, 192)),
        grid: 256,
        attempts: 2,
        status: JobStatus::Done,
        metrics: Some(JobMetrics {
            l2_nm2: 41250.0,
            pvband_nm2: 8000.5,
            epe_violations: 2,
            shots: 311,
            iterations: 40,
            mask_hash: 0xdead_beef_cafe_f00d,
        }),
        times: StageTimes { sim_ms: 12.0, optimize_ms: 840.25, evaluate_ms: 31.0 },
        wall_ms: 883.5,
    }
}

fn failed_record() -> JobRecord {
    JobRecord {
        job_id: 4,
        case: "clip".into(),
        tile: None,
        grid: 128,
        attempts: 3,
        status: JobStatus::Failed("panic: boom\n\ttab".into()),
        metrics: None,
        times: StageTimes::default(),
        wall_ms: 1.0,
    }
}

/// The WAL line of a record is its timed journal line plus a `ckpt` field.
fn wal_line(journal: &str, ckpt: &str) -> String {
    format!("{},\"ckpt\":{ckpt}}}", journal.strip_suffix('}').unwrap())
}

fn keys(line: &str) -> Vec<String> {
    match json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}")) {
        Value::Object(fields) => fields.into_iter().map(|(k, _)| k).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

#[test]
fn journal_writers_emit_the_golden_lines() {
    assert_eq!(done_record().to_json(), JOURNAL_TIMED);
    assert_eq!(done_record().to_json_opts(false), JOURNAL_UNTIMED);
    assert_eq!(failed_record().to_json_opts(false), JOURNAL_FAILED_UNTIMED);
    let report = RunReport {
        threads: 4,
        records: vec![done_record(), failed_record()],
        total_wall_ms: 500.0,
    };
    assert_eq!(
        report.to_jsonl(),
        format!("{JOURNAL_TIMED}\n{}\n{SUMMARY_TIMED}\n", failed_record().to_json())
    );
    assert_eq!(
        report.to_jsonl_opts(false),
        format!("{JOURNAL_UNTIMED}\n{JOURNAL_FAILED_UNTIMED}\n{SUMMARY_UNTIMED}\n")
    );
}

#[test]
fn journal_lines_are_strict_json_with_timing_last() {
    // The journal has no typed reader of its own (the WAL's covers the
    // timed record); what consumers rely on is strict JSON in a fixed key
    // order with every nondeterministic field at the tail.
    let timed = keys(JOURNAL_TIMED);
    assert_eq!(timed[..2], ["job_id", "case"]);
    assert_eq!(timed[timed.len() - 4..], ["sim_ms", "optimize_ms", "evaluate_ms", "wall_ms"]);
    assert_eq!(keys(JOURNAL_UNTIMED), timed[..timed.len() - 4]);
    assert!(keys(JOURNAL_FAILED_UNTIMED).ends_with(&["reason".into(), "metrics".into()]));
    let summary = json::parse(SUMMARY_TIMED).unwrap();
    assert_eq!(summary.field_str("kind"), Ok("summary"));
    assert_eq!(summary.field_u64("retries"), Ok(3));
    assert_eq!(summary.field_f64("speedup"), Ok(1.769));
    assert_eq!(keys(SUMMARY_UNTIMED), ["kind", "jobs", "failed", "degraded", "numeric", "retries"]);
}

#[test]
fn wal_writer_and_reader_agree_with_the_golden_lines() {
    let dir = std::env::temp_dir().join(format!("ilt-formats-wal-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let golden =
        format!("{WAL_HEADER}\n{}\n{WAL_FAILED}\n", wal_line(JOURNAL_TIMED, "\"job-3.pgm\""));

    // Writer: a mask makes `ckpt` a file name, no mask leaves it null.
    let sink = CheckpointSink::create(&dir, 0xf00d, 2, false).unwrap();
    let mask = ilt_field::Field2D::filled(4, 4, 1.0);
    sink.persist(&JobOutput { record: done_record(), mask: Some(mask) });
    sink.persist(&JobOutput { record: failed_record(), mask: None });
    drop(sink);
    assert_eq!(fs::read_to_string(dir.join(WAL_FILE)).unwrap(), golden);

    // Reader: the literal text, not what the writer just produced.
    fs::write(dir.join(WAL_FILE), &golden).unwrap();
    let run = load_wal(&dir).unwrap();
    assert_eq!((run.fingerprint, run.jobs, run.dropped_trailing), (0xf00d, 2, false));
    assert_eq!(run.records.len(), 2);
    assert_eq!(run.records[&3].record, done_record());
    assert_eq!(run.records[&3].ckpt.as_deref(), Some("job-3.pgm"));
    assert_eq!(run.records[&4].record, failed_record());
    assert_eq!(run.records[&4].ckpt, None);
    let _ = fs::remove_dir_all(&dir);
}
