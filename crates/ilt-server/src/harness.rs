//! Shared loopback harness for integration tests and benchmarks.
//!
//! Started life as `tests/util`; promoted into the crate proper so the
//! integration suites and `benchmark/`'s `serve_small` drive the exact
//! same client instead of duplicating it, and responses are parsed by the
//! workspace's one parser, `transport::parse_response`. Everything here
//! panics on protocol violations — it is a dev tool, not production code.
//!
//! Two client shapes, matching the two things callers need to exercise:
//!
//! - [`exchange`] / [`get`] / [`post`] / [`delete`]: one fresh connection
//!   per request. The convenience verbs send `Connection: close` so the
//!   server hangs up after replying and read-to-EOF framing stays valid
//!   even though the server defaults to keep-alive. [`exchange`] sends raw
//!   bytes verbatim — the tool for malformed-request tests.
//! - [`Conn`]: one persistent connection, responses framed by their
//!   `Content-Length` — the tool for keep-alive, pipelining, idle timeout,
//!   and throughput measurement, where reading to EOF would deadlock or
//!   lie.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ilt_field::Field2D;

use crate::http::parse_response;
use crate::{ExecPolicy, JobParams, Server, ServerConfig};

/// One parsed HTTP response.
pub struct Reply {
    /// Status code from the response line.
    pub status: u16,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Raw response body.
    pub body: Vec<u8>,
}

impl Reply {
    /// First header with the given (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Body as lossy UTF-8.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// One raw exchange on a fresh connection: sends `raw` verbatim, reads the
/// response to EOF. The request must make the server close the connection
/// (send `Connection: close`, or be malformed — errors always close).
pub fn exchange(addr: SocketAddr, raw: &[u8]) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(raw).expect("send request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let (status, headers, body) = parse_response(response).expect("response head");
    Reply { status, headers, body }
}

/// `GET path` on a fresh close-delimited connection.
pub fn get(addr: SocketAddr, path: &str) -> Reply {
    exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n").as_bytes(),
    )
}

/// `POST path` with `body` on a fresh close-delimited connection.
pub fn post(addr: SocketAddr, path: &str, body: &[u8]) -> Reply {
    post_with_headers(addr, path, &[], body)
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
    let mut raw = format!("POST {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n").into_bytes();
    for (name, value) in headers {
        raw.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    raw.extend_from_slice(format!("content-length: {}\r\n\r\n", body.len()).as_bytes());
    raw.extend_from_slice(body);
    exchange(addr, &raw)
}

/// `DELETE path` on a fresh close-delimited connection.
pub fn delete(addr: SocketAddr, path: &str) -> Reply {
    exchange(
        addr,
        format!("DELETE {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n").as_bytes(),
    )
}

/// A persistent client connection framing responses by `Content-Length`.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects to `addr`; responses time out after 30 s.
    pub fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        Conn { stream, buf: Vec::new() }
    }

    /// Writes raw bytes without reading anything back (for pipelining).
    pub fn send_raw(&mut self, raw: &[u8]) -> io::Result<()> {
        self.stream.write_all(raw)
    }

    /// Sends one framed request (no `Connection` header: HTTP/1.1 default
    /// keep-alive applies) and reads its reply.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        self.request_with_headers(method, path, &[], body)
    }

    /// [`Conn::request`] with extra request headers (e.g. `X-Ilt-Client`).
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<Reply> {
        let mut raw = format!("{method} {path} HTTP/1.1\r\nhost: t\r\n").into_bytes();
        for (name, value) in headers {
            raw.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        raw.extend_from_slice(format!("content-length: {}\r\n\r\n", body.len()).as_bytes());
        raw.extend_from_slice(body);
        self.send_raw(&raw)?;
        self.read_reply()
    }

    /// Reads one `Content-Length`-framed response from the connection.
    pub fn read_reply(&mut self) -> io::Result<Reply> {
        while !self.buf.windows(4).any(|w| w == b"\r\n\r\n") {
            self.fill("connection closed before a full response head")?;
        }
        let (status, headers, rest) = parse_response(std::mem::take(&mut self.buf))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        self.buf = rest;
        let len: usize = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .expect("server responses always carry content-length");
        while self.buf.len() < len {
            self.fill("connection closed mid-body")?;
        }
        let body: Vec<u8> = self.buf.drain(..len).collect();
        Ok(Reply { status, headers, body })
    }

    /// Appends one read's worth of bytes to the buffer; EOF is `eof`.
    fn fill(&mut self, eof: &'static str) -> io::Result<()> {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, eof));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Reads one byte, expecting the server to have closed the connection
    /// (EOF) rather than sent anything.
    pub fn expect_closed(&mut self) -> bool {
        assert!(self.buf.is_empty(), "unread pipelined data: {:?}", self.buf);
        let mut one = [0u8; 1];
        matches!(self.stream.read(&mut one), Ok(0))
    }
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

/// Polls `GET /v1/jobs/{id}` until the job reaches any terminal state;
/// returns `(state, detail_json)`. Panics only on HTTP errors or if the
/// deadline passes — racing tests decide for themselves which terminal
/// states are acceptable.
pub fn wait_for_terminal(addr: SocketAddr, id: usize) -> (String, String) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let reply = get(addr, &format!("/v1/jobs/{id}"));
        assert_eq!(reply.status, 200, "{}", reply.text());
        let text = reply.text();
        for terminal in ["done", "failed", "cancelled"] {
            if text.contains(&format!("\"state\":\"{terminal}\"")) {
                return (terminal.to_string(), text);
            }
        }
        assert!(Instant::now() < deadline, "job {id} never landed terminal: {text}");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// Polls `GET /v1/jobs/{id}` until its state equals `want`; returns the
/// final detail JSON. Panics if the job lands in a different terminal
/// state or the deadline passes.
pub fn wait_for_state(addr: SocketAddr, id: usize, want: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let reply = get(addr, &format!("/v1/jobs/{id}"));
        assert_eq!(reply.status, 200, "{}", reply.text());
        let text = reply.text();
        if text.contains(&format!("\"state\":\"{want}\"")) {
            return text;
        }
        for terminal in ["done", "failed", "cancelled"] {
            assert!(
                terminal == want || !text.contains(&format!("\"state\":\"{terminal}\"")),
                "job {id} landed `{terminal}` while waiting for `{want}`: {text}"
            );
        }
        assert!(Instant::now() < deadline, "job {id} never reached `{want}`: {text}");
        std::thread::sleep(Duration::from_millis(15));
    }
}

/// A fresh scratch directory under the system temp dir, unique per test.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ilt_server_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
