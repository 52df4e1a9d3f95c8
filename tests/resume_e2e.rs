//! End-to-end crash-safe checkpoint/resume through the real `ilt` binary:
//! a run killed mid-flight (`--inject panic@2,delay@4=60000` fails job 2
//! every attempt and holds job 4 back; the test sends SIGKILL once every
//! other job is in the WAL) and then resumed must be byte-identical —
//! journal and stitched mask — to a run that never crashed; an
//! incompatible resume is rejected; a checkpoint directory written by an
//! earlier commit's binary resumes the same way; and a WAL whose tail was
//! torn by the crash resumes cleanly, twice.

use std::fs;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Output, Stdio};
use std::time::{Duration, Instant};

use multilevel_ilt::runtime::{json, load_wal, WAL_FILE};

const COMMON: &[&str] =
    &["batch", "--threads", "2", "--grid", "128", "--tile", "64", "--kernels", "4", "--no-timing"];

/// `ilt batch` on `case1` (3x3 tiles) writing `<dir>/<tag>.jsonl`,
/// `<dir>/<tag>_case1_mask.pgm` and the checkpoint dir `<dir>/<tag>.jsonl.ckpt`.
fn batch_command(dir: &Path, tag: &str, halo: &str, extra: &[&str]) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_ilt"));
    command
        .args(COMMON)
        .args(["--halo", halo])
        .args(["--out", dir.join(tag).to_str().unwrap()])
        .args(["--journal", dir.join(format!("{tag}.jsonl")).to_str().unwrap()])
        .args(extra)
        .arg("case1");
    command
}

/// [`batch_command`] run to its end.
fn batch(dir: &Path, tag: &str, halo: &str, extra: &[&str]) -> Output {
    batch_command(dir, tag, halo, extra).output().expect("run ilt batch")
}

/// [`batch_command`] with `--checkpoint --inject plan`, killed with SIGKILL
/// once its WAL holds a record of exactly the jobs in `durable`.
fn killed_batch(dir: &Path, tag: &str, plan: &str, durable: &[usize]) -> ExitStatus {
    let mut child = batch_command(dir, tag, "8", &["--checkpoint", "--inject", plan])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ilt batch");
    let ckpt = dir.join(format!("{tag}.jsonl.ckpt"));
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let logged: Vec<usize> =
            load_wal(&ckpt).map(|run| run.records.into_keys().collect()).unwrap_or_default();
        if logged == durable {
            break;
        }
        let exited = child.try_wait().expect("poll ilt batch");
        assert!(exited.is_none(), "the run ended before the kill: {exited:?}, WAL {logged:?}");
        assert!(Instant::now() < deadline, "the WAL never held {durable:?}: {logged:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().expect("SIGKILL ilt batch");
    child.wait().expect("reap ilt batch")
}

fn text(out: &Output) -> String {
    format!("{}{}", String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr))
}

/// Jobs the `resume: N job(s) restored…` line reports.
fn restored(out: &Output) -> usize {
    text(out)
        .lines()
        .find_map(|l| l.strip_prefix("resume: ")?.split(' ').next()?.parse().ok())
        .unwrap_or_else(|| panic!("no resume line in:\n{}", text(out)))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ilt-resume-e2e-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_same_outputs(dir: &Path, a: &str, b: &str) {
    for suffix in [".jsonl", "_case1_mask.pgm"] {
        let (fa, fb) = (dir.join(format!("{a}{suffix}")), dir.join(format!("{b}{suffix}")));
        assert!(fs::read(&fa).unwrap() == fs::read(&fb).unwrap(), "{fa:?} and {fb:?} differ");
    }
}

#[test]
fn crashed_run_resumes_byte_identical_to_an_uninterrupted_one() {
    let dir = temp_dir("crash");
    let reference = batch(&dir, "a", "8", &["--checkpoint"]);
    assert!(reference.status.success(), "{}", text(&reference));

    // The crash: killed mid-run while job 4 stalls, with every other job
    // (job 2 as a failure) in the WAL, no canonical journal, only the WAL.
    let crashed = killed_batch(&dir, "b", "panic@2,delay@4=60000", &[0, 1, 2, 3, 5, 6, 7, 8]);
    assert_eq!(crashed.signal(), Some(9), "the run must die of the SIGKILL: {crashed:?}");
    assert!(!dir.join("b.jsonl").exists(), "a crashed run writes no canonical journal");
    assert!(dir.join("b.jsonl.ckpt").join(WAL_FILE).exists(), "the WAL survives the crash");

    // A resume under a different result-affecting configuration is refused.
    let mismatch = batch(&dir, "b", "16", &["--resume"]);
    assert!(!mismatch.status.success());
    assert!(text(&mismatch).contains("fingerprint mismatch"), "{}", text(&mismatch));

    let resumed = batch(&dir, "b", "8", &["--resume"]);
    assert!(resumed.status.success(), "{}", text(&resumed));
    assert_eq!(restored(&resumed), 7, "every tile but the failed job 2 and the stalled job 4");
    assert_same_outputs(&dir, "a", "b");

    // The same crash as the binary of commit 588e7d6 left it (`panic@2,
    // crash@7` under `--retries 0`: seven durable tiles, one failure
    // record, job 8 never reported): that commit's own `--resume` restores
    // 7 jobs from this directory, and so must every later one.
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ckpt_588e7d6");
    let ckpt = dir.join("p.jsonl.ckpt");
    fs::create_dir_all(&ckpt).unwrap();
    for entry in fs::read_dir(fixture).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), ckpt.join(entry.file_name())).unwrap();
    }
    let resumed = batch(&dir, "p", "8", &["--resume"]);
    assert!(resumed.status.success(), "{}", text(&resumed));
    assert_eq!(restored(&resumed), 7);
    assert_same_outputs(&dir, "a", "p");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_resumes_cleanly_twice() {
    let dir = temp_dir("torn");
    let reference = batch(&dir, "a", "8", &["--checkpoint"]);
    assert!(reference.status.success(), "{}", text(&reference));

    // The crash tore the 4th record mid-append and lost everything after.
    let ckpt = dir.join("a.jsonl.ckpt");
    let wal = ckpt.join(WAL_FILE);
    let raw = fs::read_to_string(&wal).unwrap();
    let lines: Vec<&str> = raw.lines().collect();
    assert_eq!(lines.len(), 10, "header + 9 records");
    fs::write(&wal, lines[..4].join("\n") + "\n" + &lines[4][..lines[4].len() / 2]).unwrap();
    fs::rename(dir.join("a.jsonl"), dir.join("ref.jsonl")).unwrap();
    fs::rename(dir.join("a_case1_mask.pgm"), dir.join("ref_case1_mask.pgm")).unwrap();

    let first = batch(&dir, "a", "8", &["--resume"]);
    assert!(first.status.success(), "{}", text(&first));
    assert_eq!(restored(&first), 3);
    assert_same_outputs(&dir, "ref", "a");
    // Nothing was appended onto the torn half-line: the log is strict JSON
    // throughout and holds every job exactly as the reference run did.
    for line in fs::read_to_string(&wal).unwrap().lines() {
        json::parse(line).unwrap_or_else(|e| panic!("not JSON ({e}): {line}"));
    }
    let replay = load_wal(&ckpt).unwrap();
    assert!(!replay.dropped_trailing);
    assert_eq!(replay.records.len(), 9);

    let second = batch(&dir, "a", "8", &["--resume"]);
    assert!(second.status.success(), "{}", text(&second));
    assert_eq!(restored(&second), 9, "the second resume recomputes nothing");
    assert_same_outputs(&dir, "ref", "a");
    let _ = fs::remove_dir_all(&dir);
}
