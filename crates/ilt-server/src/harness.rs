//! Shared loopback harness for integration tests and benchmarks.
//!
//! Started life as `tests/util`; promoted into the crate proper so the
//! integration suites and `benchmark/`'s `serve_small` drive the exact
//! same client — and that client is the workspace's one,
//! [`crate::http::Client`]: nothing here encodes a request or frames a
//! response. Everything here panics on protocol violations — it is a dev
//! tool, not production code.
//!
//! - [`exchange`] / [`get`] / [`post`] / [`delete`]: one fresh connection
//!   per request (`connection: close`). [`exchange`] sends raw bytes
//!   verbatim — the tool for malformed-request tests.
//! - [`Conn`]: one persistent connection — the tool for keep-alive,
//!   pipelining, idle timeout and throughput measurement.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ilt_field::Field2D;

use crate::http::Client;
pub use crate::http::Reply;
use crate::{ExecPolicy, JobParams, Server, ServerConfig};

/// A persistent [`Client`] connection to a loopback server.
pub struct Conn(Client);

impl Conn {
    /// Connects to `addr`; responses time out after 30 s.
    pub fn open(addr: SocketAddr) -> Conn {
        Conn(Client::connect(&addr.to_string(), Duration::from_secs(30)).expect("connect"))
    }
}

impl std::ops::Deref for Conn {
    type Target = Client;
    fn deref(&self) -> &Client {
        &self.0
    }
}

impl std::ops::DerefMut for Conn {
    fn deref_mut(&mut self) -> &mut Client {
        &mut self.0
    }
}

/// One raw exchange on a fresh connection: sends `raw` verbatim and reads
/// one reply.
pub fn exchange(addr: SocketAddr, raw: &[u8]) -> Reply {
    let mut conn = Conn::open(addr);
    conn.send_raw(raw).expect("send request");
    conn.read_reply().expect("read response")
}

/// One `connection: close` request on a fresh connection.
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

/// `GET path` on a fresh connection.
pub fn get(addr: SocketAddr, path: &str) -> Reply {
    one_shot(addr, "GET", path, &[], b"")
}

/// `POST path` with `body` on a fresh connection.
pub fn post(addr: SocketAddr, path: &str, body: &[u8]) -> Reply {
    one_shot(addr, "POST", path, &[], body)
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

/// Binds a [`Server`] and runs it on a background thread; returns its
/// (ephemeral) address and the join handle [`shutdown`] consumes.
pub fn start(config: ServerConfig) -> (SocketAddr, JoinHandle<io::Result<()>>) {
    let server = Server::bind(config).expect("bind loopback");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// Drains the server via `POST /v1/shutdown` and joins its thread.
pub fn shutdown(addr: SocketAddr, handle: JoinHandle<io::Result<()>>) {
    let reply = post(addr, "/v1/shutdown", b"");
    assert_eq!(reply.status, 202);
    handle.join().expect("server thread").expect("clean drain");
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

/// Parses the job id out of a submit reply's `Location: /v1/jobs/{id}`
/// header. Shared by the integration suites and the repo benchmark so
/// every client agrees on where the id lives.
pub fn job_id(reply: &Reply) -> Result<usize, String> {
    let loc = reply.header("location").ok_or("submit reply lacks a Location header")?;
    loc.rsplit('/').next().and_then(|s| s.parse().ok()).ok_or(format!("bad Location {loc}"))
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
