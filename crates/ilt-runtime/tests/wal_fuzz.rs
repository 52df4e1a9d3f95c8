//! Seeded fuzz for the checkpoint WAL loader's damage tolerance.
//!
//! The durability contract (see `checkpoint.rs`): a crash can only tear the
//! *trailing* line of the WAL, so the loader drops exactly one torn tail and
//! treats damage anywhere else as corruption. These tests drive that
//! boundary with `Xorshift64Star`-seeded truncations and byte corruptions at
//! arbitrary offsets — every failure replays exactly from its seed.

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use ilt_layouts::Xorshift64Star;
use ilt_runtime::{
    load_wal, CheckpointSink, JobMetrics, JobOutput, JobRecord, JobStatus, StageTimes,
    WAL_FILE,
};

fn record(id: usize) -> JobRecord {
    let status = match id % 3 {
        0 => JobStatus::Done,
        1 => JobStatus::Degraded(format!("numeric: NaN in tile {id}")),
        _ => JobStatus::Failed(format!("panic: injected \"quoted\" failure {id}")),
    };
    JobRecord {
        job_id: id,
        // No `}` outside the escaped-string machinery: a mid-line cut must
        // never leave a coincidentally parseable prefix.
        case: format!("fuzz_case_{id}"),
        tile: (id % 2 == 0).then_some((id, id + 1)),
        grid: 128,
        attempts: 1 + (id as u32 % 3),
        status: status.clone(),
        metrics: status.has_mask().then_some(JobMetrics {
            l2_nm2: 1000.5 + id as f64,
            pvband_nm2: 200.25,
            epe_violations: id,
            shots: 40 + id,
            iterations: 12,
            mask_hash: 0xdead_beef_0000_0000 | id as u64,
        }),
        times: StageTimes { sim_ms: 1.0, optimize_ms: 2.0, evaluate_ms: 3.0 },
        wall_ms: 6.5,
    }
}

/// Writes a healthy WAL of `jobs` records and returns its path + raw bytes.
fn build_wal(dir: &Path, jobs: usize) -> (PathBuf, Vec<u8>) {
    let _ = fs::remove_dir_all(dir);
    let sink = CheckpointSink::create(dir, 0xf00d, jobs, false).unwrap();
    drop(sink);
    let path = dir.join(WAL_FILE);
    let mut f = OpenOptions::new().append(true).open(&path).unwrap();
    for id in 0..jobs {
        writeln!(f, "{}", record(id).to_json_wal((id % 3 == 0).then_some("job-x.pgm"))).unwrap();
    }
    drop(f);
    let bytes = fs::read(&path).unwrap();
    (path, bytes)
}

/// Byte spans of each line, excluding its `\n`: `(start, end)` per line.
fn line_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            spans.push((start, i));
            start = i + 1;
        }
    }
    if start < bytes.len() {
        spans.push((start, bytes.len()));
    }
    spans
}

#[test]
fn truncation_at_any_offset_is_tolerated_as_one_torn_tail() {
    let dir = std::env::temp_dir().join(format!("ilt-wal-fuzz-trunc-{}", std::process::id()));
    let jobs = 6;
    let (path, healthy) = build_wal(&dir, jobs);
    let spans = line_spans(&healthy);
    let header_end = spans[0].1;
    let mut rng = Xorshift64Star::new(0xfeed_face);
    let mut saw_torn = false;
    let mut saw_clean = false;
    for round in 0..200 {
        // Any offset from "mid-header" to "nothing lost".
        let cut = (rng.next_u64() as usize) % healthy.len() + 1;
        fs::write(&path, &healthy[..cut]).unwrap();
        if cut <= header_end {
            // The cut landed inside (or right at the end of) the header
            // line: the loader either rejects the damaged header or sees a
            // complete header with zero records — never a phantom record.
            if let Ok(run) = load_wal(&dir) {
                assert!(run.records.is_empty(), "round {round}: cut {cut} inside the header");
            }
            continue;
        }
        let run = load_wal(&dir)
            .unwrap_or_else(|e| panic!("round {round}: cut {cut} must be tolerated: {e}"));
        // Exactly the records whose full line survived the cut are loaded;
        // the cut line — and only it — is dropped as the torn tail.
        let intact: Vec<usize> =
            spans[1..].iter().enumerate().filter(|(_, s)| s.1 <= cut).map(|(i, _)| i).collect();
        assert_eq!(
            run.records.keys().copied().collect::<Vec<_>>(),
            intact,
            "round {round}: cut {cut}"
        );
        for (id, loaded) in &run.records {
            assert_eq!(loaded.record, record(*id), "round {round}: survivor {id} is bit-exact");
        }
        if run.dropped_trailing {
            saw_torn = true;
        } else {
            saw_clean = true;
        }
        // Reopen-and-append after the tear: the new record starts its own
        // line, so the log is strict JSON throughout and a second replay
        // sees the survivors plus that record — nothing torn, nothing glued.
        let sink = CheckpointSink::create(&dir, 0xf00d, jobs, true).unwrap();
        sink.persist(&JobOutput { record: record(jobs), mask: None });
        drop(sink);
        for line in fs::read_to_string(&path).unwrap().lines() {
            assert!(
                ilt_runtime::json::parse(line).is_ok(),
                "round {round}: cut {cut}: glued line {line}"
            );
        }
        let again = load_wal(&dir).unwrap();
        assert!(!again.dropped_trailing, "round {round}: cut {cut}");
        let mut expected = intact;
        expected.push(jobs);
        assert_eq!(again.records.keys().copied().collect::<Vec<_>>(), expected);
    }
    assert!(saw_torn && saw_clean, "200 seeded cuts must cover both boundary shapes");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corruption_before_the_tail_is_a_hard_error() {
    let dir = std::env::temp_dir().join(format!("ilt-wal-fuzz-corrupt-{}", std::process::id()));
    let jobs = 6;
    let (path, healthy) = build_wal(&dir, jobs);
    let spans = line_spans(&healthy);
    let mut rng = Xorshift64Star::new(0xc0ffee);
    for round in 0..100 {
        // Pick a record line that is NOT the last, and break a structural
        // byte in it (the `:` after "job_id" can never appear this early
        // inside a string value, so the line stops parsing).
        let victim = 1 + (rng.next_u64() as usize) % (spans.len() - 2);
        let (start, end) = spans[victim];
        let line = &healthy[start..end];
        let colon = start + line.iter().position(|&b| b == b':').unwrap();
        let mut damaged = healthy.clone();
        damaged[colon] = b';';
        fs::write(&path, &damaged).unwrap();
        let err = load_wal(&dir).expect_err("mid-file corruption must not be tolerated");
        assert!(err.contains("corrupt"), "round {round}: {err}");
    }
    // The same damage on the *last* line is crash-shaped and tolerated.
    let (start, end) = *spans.last().unwrap();
    let line = &healthy[start..end];
    let colon = start + line.iter().position(|&b| b == b':').unwrap();
    let mut damaged = healthy.clone();
    damaged[colon] = b';';
    fs::write(&path, &damaged).unwrap();
    let run = load_wal(&dir).expect("a damaged trailing line is dropped, not fatal");
    assert!(run.dropped_trailing);
    assert_eq!(run.records.len(), jobs - 1);
    let _ = fs::remove_dir_all(&dir);
}
