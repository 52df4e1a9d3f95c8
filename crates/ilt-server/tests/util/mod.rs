//! The loopback helpers the integration suites share: the shipped
//! [`ilt_server::harness`] (re-exported, so a suite has one `util::`
//! namespace) plus what only tests need — raw and header-carrying
//! exchanges, `DELETE`, a state poll, the tiny job and scratch directories.
#![allow(dead_code)] // each suite compiles this module and uses part of it

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ilt_field::Field2D;
pub use ilt_server::harness::*;
use ilt_server::{ExecPolicy, JobParams};

/// One `connection: close` request with extra headers on a fresh connection.
fn one_shot(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Reply {
    let mut conn = Conn::open(addr);
    conn.send(method, path, headers, body, true).expect("send request");
    conn.read_reply().expect("read response")
}

/// One raw exchange on a fresh connection: sends `raw` verbatim and reads
/// one reply — the tool for malformed-request tests.
pub fn exchange(addr: SocketAddr, raw: &[u8]) -> Reply {
    let mut conn = Conn::open(addr);
    conn.send_raw(raw).expect("send request");
    conn.read_reply().expect("read response")
}

/// [`post`] with extra request headers — the tool for multi-tenant tests
/// that need to speak as a particular client (`X-Ilt-Client`) or priority
/// class (`X-Ilt-Priority`).
pub fn post_with_headers(
    addr: SocketAddr,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Reply {
    one_shot(addr, "POST", path, headers, body)
}

/// `DELETE path` on a fresh connection.
pub fn delete(addr: SocketAddr, path: &str) -> Reply {
    one_shot(addr, "DELETE", path, &[], b"")
}

/// A 64 px clip with one rectangle — the smallest interesting target.
pub fn tiny_target() -> Field2D {
    Field2D::from_fn(64, 64, |r, c| {
        if (24..40).contains(&r) && (16..48).contains(&c) { 1.0 } else { 0.0 }
    })
}

/// [`tiny_target`] encoded as binary PGM, ready to POST.
pub fn tiny_pgm() -> Vec<u8> {
    ilt_field::pgm_bytes(&tiny_target(), 0.0, 1.0)
}

/// Query params for a job small enough to finish in well under a second.
pub const FAST_JOB: &str = "clip_nm=512&kernels=3&iters=2";

/// The [`JobParams`] a server decodes from `POST /v1/jobs?`[`FAST_JOB`]
/// with `target` as the body.
pub fn fast_params(target: Field2D) -> JobParams {
    let pgm = ilt_field::pgm_bytes(&target, 0.0, 1.0);
    JobParams::from_saved(FAST_JOB, pgm, &ExecPolicy::default()).expect("FAST_JOB decodes")
}

/// Polls `GET /v1/jobs/{id}` until its state is `want` — alternatives
/// separated by `|`, e.g. `"done|cancelled"` for a race either side may
/// win — and returns the final detail JSON. Panics on HTTP errors, when the
/// job lands in a terminal state that was not wanted, or after 120 s.
pub fn wait_for_state(addr: SocketAddr, id: usize, want: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let reply = get(addr, &format!("/v1/jobs/{id}"));
        assert_eq!(reply.status, 200, "{}", reply.text());
        let text = reply.text();
        let in_state = |state: &str| text.contains(&format!("\"state\":\"{state}\""));
        if want.split('|').any(in_state) {
            return text;
        }
        let landed = ["done", "failed", "cancelled"].into_iter().find(|s| in_state(s));
        assert!(landed.is_none(), "job {id} landed `{landed:?}` waiting for `{want}`: {text}");
        assert!(Instant::now() < deadline, "job {id} never reached `{want}`: {text}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A fresh scratch directory under the system temp dir, unique per test.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ilt_server_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
