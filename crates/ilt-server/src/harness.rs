//! Loopback client for driving an in-process [`Server`]: what
//! `benchmark/`'s `serve_small` runs, and what the integration suites'
//! `tests/util` builds on.
//!
//! Every request goes through the workspace's one client,
//! [`crate::http::Client`]: nothing here encodes a request or frames a
//! response. Everything here panics on protocol violations — it is a dev
//! tool, not production code.
//!
//! - [`get`] / [`post`]: one fresh connection per request
//!   (`connection: close`).
//! - [`Conn`]: one persistent connection — the tool for keep-alive,
//!   pipelining, idle timeout and throughput measurement.

use std::io;
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::http::Client;
pub use crate::http::Reply;
use crate::{Server, ServerConfig};

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

/// One `connection: close` request on a fresh connection.
fn one_shot(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Reply {
    let mut conn = Conn::open(addr);
    conn.send(method, path, &[], body, true).expect("send request");
    conn.read_reply().expect("read response")
}

/// `GET path` on a fresh connection.
pub fn get(addr: SocketAddr, path: &str) -> Reply {
    one_shot(addr, "GET", path, b"")
}

/// `POST path` with `body` on a fresh connection.
pub fn post(addr: SocketAddr, path: &str, body: &[u8]) -> Reply {
    one_shot(addr, "POST", path, body)
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

/// Parses the job id out of a submit reply's `Location: /v1/jobs/{id}`
/// header. Shared by the integration suites and the repo benchmark so
/// every client agrees on where the id lives.
pub fn job_id(reply: &Reply) -> Result<usize, String> {
    let loc = reply.header("location").ok_or("submit reply lacks a Location header")?;
    loc.rsplit('/').next().and_then(|s| s.parse().ok()).ok_or(format!("bad Location {loc}"))
}
