//! Golden lines for the server state log (`state.jsonl` and its compaction
//! snapshot), pinned both ways — the store writes exactly these bytes, and
//! these bytes recover to exactly the jobs they describe — plus fixtures in
//! earlier commits' formats that must keep replaying: a pre-multi-tenant
//! `submit`, and a whole state directory written by the binary of commit
//! `588e7d6` (with and without a stale, untruncated log beside its
//! snapshot).

use std::fs;
use std::path::{Path, PathBuf};

use ilt_field::pgm_bytes;
use ilt_runtime::field_hash;
use ilt_server::{
    Admission, CancelOutcome, ExecPolicy, JobDone, JobParams, JobStore, MaskFetch, PriorityClass,
    RecoveryStats, StateLog, SNAPSHOT_FILE,
};

const QUERY: &str = "grid=64&clip_nm=2048&kernels=3&tile=512&halo=64&seam=crop&schedule=fast&iters=2&max_eff_nm=8&threads=1&timeout_s=0&retries=1&eval=0";
const INLINE_QUERY: &str = "grid=64&clip_nm=512&kernels=3&tile=512&halo=64&seam=crop&schedule=fast&iters=2&max_eff_nm=8&threads=1&timeout_s=0&retries=1&eval=0";

fn submit_via() -> String {
    format!(
        r#"{{"kind":"submit","id":0,"query":"via=7&name=alpha&{QUERY}","client":"anonymous","class":"normal"}}"#
    )
}
fn submit_inline() -> String {
    format!(
        r#"{{"kind":"submit","id":1,"query":"name=in%20%22line%22&{INLINE_QUERY}","client":"tenant-a","class":"high","target":"job-1-target.pgm"}}"#
    )
}
fn submit_doomed() -> String {
    format!(
        r#"{{"kind":"submit","id":2,"query":"via=8&name=doomed&{QUERY}","client":"tenant-b","class":"low"}}"#
    )
}
const CANCEL: &str = r#"{"kind":"cancel","id":2}"#;
const FINISH_OK: &str = r#"{"kind":"finish","id":0,"ok":true,"mask":"job-0.pgm","mask_hash":"1b66b7ee066af098","tiles":1,"failed_tiles":0,"degraded_tiles":0,"wall_ms":5.5}"#;
const FINISH_ERR: &str = r#"{"kind":"finish","id":1,"ok":false,"error":"boom \"quoted\"\n"}"#;
const COMPACT: &str = r#"{"kind":"compact","next_id":3}"#;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ilt-formats-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn params(query: &str, body: Vec<u8>) -> JobParams {
    JobParams::from_saved(query, body, &ExecPolicy::default()).expect(query)
}

fn inline_target() -> Vec<u8> {
    let img = ilt_field::Field2D::from_fn(64, 64, |r, c| {
        f64::from(u8::from((24..40).contains(&r) && (12..52).contains(&c)))
    });
    pgm_bytes(&img, 0.0, 1.0)
}

/// Drives the store through every record kind; returns the state dir.
fn write_all_kinds(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    let store = JobStore::new(8, Some(StateLog::open(&dir, 0).unwrap()));
    let submit = |query: &str, body: Vec<u8>, client: &str, class| {
        let admission = Admission { client: client.into(), class };
        store.submit(&params(query, body), admission).unwrap()
    };
    submit(&format!("via=7&name=alpha&{QUERY}"), Vec::new(), "anonymous", PriorityClass::Normal);
    submit(
        &format!("name=in%20%22line%22&{INLINE_QUERY}"),
        inline_target(),
        "tenant-a",
        PriorityClass::High,
    );
    submit(&format!("via=8&name=doomed&{QUERY}"), Vec::new(), "tenant-b", PriorityClass::Low);
    assert_eq!(store.cancel(2), CancelOutcome::Cancelled);
    for _ in 0..2 {
        let (id, p, ..) = store.take_next().unwrap();
        if id == 0 {
            let mask = p.plan().unwrap().0.target.threshold(0.5);
            let done = JobDone {
                mask_hash: field_hash(&mask),
                mask: Some(mask),
                records: Vec::new(),
                tiles: 1,
                failed_tiles: 0,
                degraded_tiles: 0,
                eval: None,
                wall_ms: 5.5,
            };
            store.finish(id, Ok(done));
        } else {
            store.finish(id, Err("boom \"quoted\"\n".into()));
        }
    }
    dir
}

fn lines(path: &Path) -> Vec<String> {
    fs::read_to_string(path).unwrap().lines().map(str::to_string).collect()
}

#[test]
fn state_log_and_snapshot_writers_emit_the_golden_lines() {
    let dir = write_all_kinds("state-writer");
    // High class drains first, so job 1's outcome precedes job 0's.
    assert_eq!(
        lines(&dir.join("state.jsonl")),
        [
            submit_via(),
            submit_inline(),
            submit_doomed(),
            CANCEL.into(),
            FINISH_ERR.into(),
            FINISH_OK.into()
        ]
    );

    // Compaction rewrites the live table with the same line shapes: the
    // cancelled job ages out, each survivor is its submit then its finish.
    let state = StateLog::open(&dir, 1).unwrap();
    let (store, stats) = JobStore::open(8, 0, 0, Some(state), &ExecPolicy::default()).unwrap();
    assert_eq!(stats, RecoveryStats { restored: 3, requeued: 0 });
    assert!(store.maybe_compact());
    assert_eq!(
        lines(&dir.join(SNAPSHOT_FILE)),
        [COMPACT.into(), submit_via(), FINISH_OK.into(), submit_inline(), FINISH_ERR.into()]
    );
    assert!(lines(&dir.join("state.jsonl")).is_empty());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn golden_lines_recover_to_the_jobs_they_describe() {
    // Side files come from a real run; the log is the literal text.
    let dir = write_all_kinds("state-reader");
    let log = [
        submit_via(),
        submit_inline(),
        submit_doomed(),
        CANCEL.into(),
        FINISH_ERR.into(),
        FINISH_OK.into(),
    ];
    fs::write(dir.join("state.jsonl"), log.join("\n") + "\n").unwrap();
    let (store, stats) =
        JobStore::open(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()), &ExecPolicy::default()).unwrap();
    assert_eq!(stats, RecoveryStats { restored: 3, requeued: 0 });
    assert_eq!(
        store.render_list(),
        concat!(
            r#"{"jobs":[{"id":0,"name":"alpha","client":"anonymous","class":"normal","state":"done","tiles":1,"failed_tiles":0,"degraded_tiles":0,"mask_resident":true},"#,
            r#"{"id":1,"name":"in \"line\"","client":"tenant-a","class":"high","state":"failed","error":"boom \"quoted\"\n"},"#,
            r#"{"id":2,"name":"doomed","client":"tenant-b","class":"low","state":"cancelled"}],"queue_depth":0}"#
        )
    );
    assert!(store
        .render_detail(0, false)
        .unwrap()
        .contains(r#""mask_hash":"1b66b7ee066af098","wall_ms":5.5"#));

    // Same for the snapshot form (+ its id floor), with no log at all.
    fs::write(dir.join("state.jsonl"), "").unwrap();
    let snapshot =
        [COMPACT.into(), submit_via(), FINISH_OK.into(), submit_inline(), FINISH_ERR.into()];
    fs::write(dir.join(SNAPSHOT_FILE), snapshot.join("\n") + "\n").unwrap();
    let (store, stats) =
        JobStore::open(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()), &ExecPolicy::default()).unwrap();
    assert_eq!(stats, RecoveryStats { restored: 2, requeued: 0 });
    assert!(store.render_detail(2, false).is_none());
    let p = params(&format!("via=9&name=next&{QUERY}"), Vec::new());
    let next = store.submit(&p, Admission::default());
    assert_eq!(next, Ok(3), "ids continue past the floor");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn pre_multi_tenant_submit_replays_under_the_default_admission() {
    let dir = temp_dir("state-legacy");
    fs::create_dir_all(&dir).unwrap();
    let legacy = format!(r#"{{"kind":"submit","id":0,"query":"via=7&name=old&{QUERY}"}}"#);
    fs::write(dir.join("state.jsonl"), legacy + "\n").unwrap();
    let (store, stats) =
        JobStore::open(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()), &ExecPolicy::default()).unwrap();
    assert_eq!(stats, RecoveryStats { restored: 0, requeued: 1 });
    let detail = store.render_detail(0, false).unwrap();
    assert!(
        detail.contains(r#""name":"old","client":"anonymous","class":"normal","state":"queued""#),
        "{detail}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A private copy of the checked-in state directory (recovery opens the log
/// for append, so it never runs on the fixture itself).
fn fixture_copy(tag: &str) -> PathBuf {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/state_588e7d6");
    let dst = temp_dir(tag);
    fs::create_dir_all(&dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
    dst
}

const FIXTURE_DONE: &str = concat!(
    r#"{"id":0,"name":"alpha","client":"anonymous","class":"normal","state":"done","tiles":1,"failed_tiles":0,"degraded_tiles":0,"mask_resident":true},"#,
    r#"{"id":1,"name":"inline \"b\"","client":"tenant-a","class":"high","state":"done","tiles":1,"failed_tiles":0,"degraded_tiles":0,"mask_resident":true},"#
);
const FIXTURE_TAIL: &str = concat!(
    r#"{"id":3,"name":"gamma","client":"anonymous","class":"normal","state":"done","tiles":1,"failed_tiles":0,"degraded_tiles":0,"mask_resident":true},"#,
    r#"{"id":4,"name":"interrupted","client":"tenant-a","class":"normal","state":"queued","tiles_done":0,"tiles_planned":1}],"queue_depth":1}"#
);

/// The state directory a `588e7d6` server left behind after a restart, a
/// compaction and a `kill -9`: jobs 0, 1 (inline target) and 3 finished,
/// 2 cancelled and compacted away, 4 interrupted. The expected values are
/// what that commit's own `JobStore::open` reports for it.
#[test]
fn state_dir_written_by_the_parent_commit_recovers_identically() {
    let dir = fixture_copy("state-fixture");
    let (store, stats) =
        JobStore::open(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()), &ExecPolicy::default()).unwrap();
    assert_eq!(stats, RecoveryStats { restored: 3, requeued: 1 });
    assert_eq!(store.render_list(), format!("{{\"jobs\":[{FIXTURE_DONE}{FIXTURE_TAIL}"));
    for id in [0, 1, 3] {
        let on_disk = fs::read(dir.join(format!("job-{id}.pgm"))).unwrap();
        assert!(matches!(store.mask_pgm(id), MaskFetch::Ready(bytes) if bytes == on_disk));
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The same directory as if the crash had come between installing the
/// snapshot and truncating the log: the pre-compaction records are all
/// still there, stale. They fold into the snapshot idempotently, and the
/// cancelled job the snapshot had dropped is still known as cancelled.
#[test]
fn parent_commit_snapshot_plus_stale_untruncated_log_recovers_identically() {
    let dir = fixture_copy("state-fixture-stale");
    let mut log = fs::read(dir.join("pre_compaction.jsonl")).unwrap();
    log.extend(fs::read(dir.join("state.jsonl")).unwrap());
    fs::write(dir.join("state.jsonl"), log).unwrap();
    let (store, stats) =
        JobStore::open(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()), &ExecPolicy::default()).unwrap();
    assert_eq!(stats, RecoveryStats { restored: 4, requeued: 1 });
    let cancelled =
        r#"{"id":2,"name":"doomed","client":"tenant-b","class":"low","state":"cancelled"},"#;
    assert_eq!(store.render_list(), format!("{{\"jobs\":[{FIXTURE_DONE}{cancelled}{FIXTURE_TAIL}"));
    let _ = fs::remove_dir_all(&dir);
}

/// Compaction renders each submit record from the job's description, not
/// from a kept copy of the logged query — so it is an identity on what
/// `588e7d6` wrote only if that commit's queries decode (through the
/// transport's one query codec) and re-encode to themselves.
#[test]
fn compacting_the_parent_commits_state_dir_rewrites_its_records_byte_for_byte() {
    let dir = fixture_copy("state-fixture-compact");
    let mut expected = lines(&dir.join(SNAPSHOT_FILE));
    expected[0] = r#"{"kind":"compact","next_id":5}"#.into();
    expected.extend(lines(&dir.join("state.jsonl")));
    let state = StateLog::open(&dir, 1).unwrap();
    let (store, _) = JobStore::open(8, 0, 0, Some(state), &ExecPolicy::default()).unwrap();
    assert!(store.maybe_compact());
    assert_eq!(lines(&dir.join(SNAPSHOT_FILE)), expected);
    let _ = fs::remove_dir_all(&dir);
}

/// Restart decodes a finished job and never plans it: a description that
/// still decodes but no longer plans (`tile=48`) comes back `done` with its
/// mask, where planning it would have turned it into an unreplayable
/// failure — and restart time does not scale with rasterization.
#[test]
fn restart_does_not_plan_finished_jobs() {
    let dir = write_all_kinds("state-unplanned");
    let path = dir.join("state.jsonl");
    let log = fs::read_to_string(&path).unwrap();
    assert_eq!(log.matches("tile=512").count(), 3);
    fs::write(&path, log.replace("tile=512", "tile=48")).unwrap();
    let (store, stats) =
        JobStore::open(8, 0, 0, Some(StateLog::open(&dir, 0).unwrap()), &ExecPolicy::default()).unwrap();
    assert_eq!(stats, RecoveryStats { restored: 3, requeued: 0 });
    let list = store.render_list();
    assert!(list.contains(r#""name":"alpha","client":"anonymous","class":"normal","state":"done""#), "{list}");
    assert!(!list.contains("unreplayable"), "{list}");
    assert!(matches!(store.mask_pgm(0), MaskFetch::Ready(_)));
    let _ = fs::remove_dir_all(&dir);
}
