//! The workspace's whole HTTP/1.1 edge over `TcpStream`, one of each — the
//! shared wire transport of the job service (`ilt serve`), the cluster
//! worker (`ilt worker`), the coordinator and the test harness.
//!
//! Only the subset those need. **Reading:** one message reader frames
//! requests and replies alike — the head up to its blank line under the
//! [`MAX_HEAD_BYTES`] cap in both directions, then exactly `content-length`
//! body bytes, with the surplus kept for the next message (pipelining).
//! **Serving:** on top of it, [`Request::read_from_buffered`] parses the
//! request line, percent-decoded query strings and whether the client
//! permits keep-alive, with bodies capped at [`MAX_BODY_BYTES`];
//! [`serve_connection`] bounds each connection with a request cap and an
//! idle timeout, and [`Listener::serve`] is the one accept loop (connection
//! cap, shutdown wake). The robustness limits are constants:
//! [`MAX_HEAD_BYTES`], [`MAX_BODY_BYTES`], [`MAX_CONNECTIONS`] and the 10 s
//! socket timeout [`serve_connection`] sets for reads and writes (a
//! [`Client`]'s reads time out after its `connect` argument, its writes
//! after 10 s). The reader takes any `Read`, so every handler path is
//! testable without a server. **Calling:** [`Client`] is the one client —
//! one request encoder, the same reader for its replies (status line
//! parsed, no body cap) — and [`request`] a one-shot over it.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Maximum bytes of one message's start line + headers (including the blank
/// line), request or reply.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Maximum bytes of one request's body: a larger `Content-Length` is
/// refused before any body byte is read.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// Connections one [`Listener`] serves at once; past it a connection is
/// answered `503` with `retry-after: 1`.
pub const MAX_CONNECTIONS: usize = 64;

/// Socket read/write timeout while a request or response is in flight.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Why a message could not be read; for a request, maps 1:1 onto an HTTP
/// status.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header, encoding, or a close mid-message (400).
    BadRequest(String),
    /// Declared or actual body larger than [`MAX_BODY_BYTES`] (413).
    PayloadTooLarge(usize),
    /// Head larger than [`MAX_HEAD_BYTES`] (431).
    HeadTooLarge,
    /// Socket error or timeout; no response can be assumed deliverable.
    Io(io::Error),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method token.
    pub method: String,
    /// Percent-decoded path, query stripped.
    pub path: String,
    /// Percent-decoded query pairs, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// The body, possibly empty.
    pub body: Vec<u8>,
}

/// First value under `name` in a header, query or job-key pair list.
pub(crate) fn first<'a>(pairs: &'a [(String, String)], name: &str) -> Option<&'a str> {
    pairs.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
}

impl Request {
    /// First header value with the given (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        first(&self.headers, name)
    }

    /// First query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        first(&self.query, name)
    }

    /// Reads one request from `stream`, consuming any bytes left in `carry`
    /// by the previous request first and leaving pipelined surplus there
    /// for the next call — the building block of a keep-alive connection
    /// loop. Also reports whether the client permits the connection to stay
    /// open (`HTTP/1.1` without `Connection: close`, or an explicit
    /// `Connection: keep-alive`).
    ///
    /// # Errors
    ///
    /// See [`HttpError`]. A clean close at a request boundary (empty buffer,
    /// zero-byte read) surfaces as [`HttpError::Io`] with
    /// [`io::ErrorKind::UnexpectedEof`]: the connection simply ended, and no
    /// response should be written.
    pub fn read_from_buffered(
        stream: &mut impl Read,
        carry: &mut Vec<u8>,
    ) -> Result<(Request, bool), HttpError> {
        let ((mut request, http11), headers, body) =
            read_message(stream, carry, MAX_BODY_BYTES, parse_request_line)?;

        let connection = first(&headers, "connection").map(str::to_ascii_lowercase);
        let keep_alive = match connection.as_deref() {
            Some(v) => {
                let tokens: Vec<&str> = v.split(',').map(str::trim).collect();
                !tokens.contains(&"close") && (http11 || tokens.contains(&"keep-alive"))
            }
            None => http11,
        };
        request.headers = headers;
        request.body = body;
        Ok((request, keep_alive))
    }
}

/// A request line as a [`Request`] with no headers or body yet, and
/// whether it speaks `HTTP/1.1`. [`read_message`] calls it before reading
/// any body byte, so a malformed line that declares a body gets its `400`
/// at once.
fn parse_request_line(line: &str) -> Result<(Request, bool), HttpError> {
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
    {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::BadRequest(format!("malformed request line: {line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!("unsupported version {version:?}")));
    }
    if !target.starts_with('/') {
        return Err(HttpError::BadRequest(format!("unsupported request target {target:?}")));
    }
    let (raw_path, raw_query) = target.split_once('?').unwrap_or((target, ""));
    let path = percent_decode(raw_path, false)
        .map_err(|e| HttpError::BadRequest(format!("bad path encoding: {e}")))?;
    let query = parse_query(raw_query)
        .map_err(|e| HttpError::BadRequest(format!("bad query encoding: {e}")))?;
    let method = method.to_ascii_uppercase();
    let request = Request { method, path, query, headers: Vec::new(), body: Vec::new() };
    Ok((request, version == "HTTP/1.1"))
}

/// The one HTTP/1.1 message reader, requests and replies alike. Reads the
/// head up to its blank line — at most [`MAX_HEAD_BYTES`], blank line
/// included — and hands its start line to the caller's `parse_start`
/// before it reads anything else, so a malformed request or status line is
/// refused before any body byte. Returns what `parse_start` made of it,
/// the headers (names lower-cased) and exactly `content-length` body bytes
/// (none without the header; a length over `max_body` is refused before
/// any body byte is read). Reading starts from `buf`, and bytes past the
/// message stay there for the next call (pipelining). A clean close before
/// the first byte is [`HttpError::Io`] with [`io::ErrorKind::UnexpectedEof`].
fn read_message<T>(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    max_body: usize,
    parse_start: impl FnOnce(&str) -> Result<T, HttpError>,
) -> Result<(T, Vec<(String, String)>, Vec<u8>), HttpError> {
    let mut chunk = [0u8; 16 * 1024];
    let head_end = loop {
        // Only a terminator inside the cap ends an admissible head: one
        // read can bring a whole oversized head.
        let capped = &buf[..buf.len().min(MAX_HEAD_BYTES)];
        if let Some(end) = capped.windows(4).position(|w| w == b"\r\n\r\n") {
            break end;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(if buf.is_empty() {
                // A clean close between messages: the end of a keep-alive
                // connection, not a protocol error.
                HttpError::Io(io::Error::from(io::ErrorKind::UnexpectedEof))
            } else {
                HttpError::BadRequest("connection closed mid-head".into())
            });
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::BadRequest("non-utf8 message head".into()))?;
    let mut lines = head.split("\r\n");
    let start = parse_start(lines.next().unwrap_or_default())?;
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header: {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let len = match first(&headers, "content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::BadRequest(format!("bad content-length {v:?}")))?,
        None => 0,
    };
    if len > max_body {
        return Err(HttpError::PayloadTooLarge(len));
    }
    buf.drain(..head_end + 4);
    while buf.len() < len {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::BadRequest(format!(
                "connection closed mid-body at {} of {len} bytes",
                buf.len()
            )));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let rest = buf.split_off(len);
    Ok((start, headers, std::mem::replace(buf, rest)))
}

/// The one query codec: `k=v` pairs split at `&`, both sides
/// [`percent_decode`]d — a request's query string and a description
/// [`crate::JobParams::to_query`] wrote alike.
pub(crate) fn parse_query(raw: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    for pair in raw.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        out.push((percent_decode(k, true)?, percent_decode(v, true)?));
    }
    Ok(out)
}

/// Decodes `%XX` escapes (and `+` as space inside query components).
fn percent_decode(s: &str, plus_as_space: bool) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                    .ok_or_else(|| format!("truncated %-escape in {s:?}"))?;
                out.push(hex);
                i += 3;
            }
            b'+' if plus_as_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| format!("non-utf8 after decoding {s:?}"))
}

/// One response, written with `Content-Length` and `Connection: close`.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond the always-present length/connection/type.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    content_type: &'static str,
}

impl Response {
    fn new(status: u16, content_type: &'static str, body: Vec<u8>) -> Response {
        Response { status, headers: Vec::new(), body, content_type }
    }

    /// A JSON response (the body must already be serialized JSON).
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        let mut body = body.into();
        if !body.ends_with('\n') {
            body.push('\n');
        }
        Response::new(status, "application/json", body.into_bytes())
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response::new(status, "text/plain; charset=utf-8", body.into().into_bytes())
    }

    /// A binary PGM image response.
    pub fn pgm(body: Vec<u8>) -> Response {
        Response::new(200, "image/x-portable-graymap", body)
    }

    /// A JSON Lines response (shard result streams).
    pub fn jsonl(status: u16, body: impl Into<String>) -> Response {
        Response::new(status, "application/jsonl", body.into().into_bytes())
    }

    /// An error response with a JSON `{"error": ...}` body, using the
    /// workspace-shared escaping helper.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(status, format!("{{\"error\":\"{}\"}}", ilt_runtime::json_escape(message)))
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Serializes status line, headers, and body onto `w`, closing the
    /// connection (`Connection: close`).
    ///
    /// # Errors
    ///
    /// Propagates socket write errors (including write timeouts).
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        self.write_with_connection(w, false)
    }

    /// [`Response::write_to`] with an explicit connection disposition:
    /// `keep_alive` announces `Connection: keep-alive` so the client may
    /// send another request on the same socket.
    ///
    /// Head and body leave in one `write_all`: two writes put two segments
    /// on the wire, and the second then waits for the peer's delayed ACK of
    /// the first.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors (including write timeouts).
    pub fn write_with_connection(&self, w: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" }
        );
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        let mut wire = head.into_bytes();
        wire.extend_from_slice(&self.body);
        w.write_all(&wire)?;
        w.flush()
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        410 => "Gone",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Per-connection keep-alive options for [`serve_connection`]: the job
/// service derives one from its configuration, the cluster worker serves
/// with the default.
#[derive(Clone, Copy, Debug)]
pub struct ConnOptions {
    /// How long a keep-alive connection may sit idle between requests
    /// before it is closed.
    pub idle_timeout: Duration,
    /// Maximum requests served per keep-alive connection (bounds how long
    /// one client can pin a handler thread).
    pub keep_alive_requests: usize,
}

impl Default for ConnOptions {
    fn default() -> Self {
        Self { idle_timeout: Duration::from_secs(5), keep_alive_requests: 32 }
    }
}

/// Serves one connection: a keep-alive loop bounded by the configured
/// per-connection request cap and idle timeout. Pipelined bytes carry over
/// between iterations; any protocol error answers with `Connection: close`
/// and ends the loop. `keep_open` is polled after each served request —
/// returning `false` (e.g. during a drain) downgrades the connection to
/// close after the in-flight response.
pub fn serve_connection(
    mut stream: TcpStream,
    options: &ConnOptions,
    mut route: impl FnMut(&Request) -> Response,
    keep_open: impl Fn() -> bool,
) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    // A response is small and complete when written: never hold it back
    // for the ACK of an earlier one (pipelined replies, `ReadStall` halves).
    let _ = stream.set_nodelay(true);
    let mut carry = Vec::new();
    let mut served = 0usize;
    loop {
        // `refused` marks requests rejected before their input was fully
        // read; those sockets need draining below or the close would RST
        // the client.
        let (response, refused) =
            match Request::read_from_buffered(&mut stream, &mut carry) {
                Ok((request, client_keep_alive)) => {
                    let response = route(&request);
                    served += 1;
                    let keep_alive = client_keep_alive
                        && served < options.keep_alive_requests
                        && keep_open();
                    if keep_alive {
                        if response.write_with_connection(&mut stream, true).is_err() {
                            return;
                        }
                        // Between requests the (usually longer) idle
                        // timeout governs how long the socket may sit open.
                        let _ = stream.set_read_timeout(Some(options.idle_timeout));
                        continue;
                    }
                    (response, false)
                }
                Err(HttpError::BadRequest(why)) => (Response::error(400, &why), true),
                Err(HttpError::PayloadTooLarge(n)) => (
                    Response::error(
                        413,
                        &format!("body of {n} bytes exceeds the {MAX_BODY_BYTES}-byte limit"),
                    ),
                    true,
                ),
                Err(HttpError::HeadTooLarge) => {
                    (Response::error(431, "request head too large"), true)
                }
                // Socket error, idle timeout, or a clean close between
                // requests: nothing trustworthy (or nothing at all) to
                // answer.
                Err(HttpError::Io(_)) => return,
            };
        let _ = response.write_to(&mut stream);
        if refused {
            // Closing with unread input in the receive buffer sends RST,
            // which can discard the error response before the client reads
            // it. Send FIN first, then sink the rest of the client's
            // request (bounded, so a hostile sender can't pin the thread).
            let _ = stream.shutdown(std::net::Shutdown::Write);
            let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
            let mut sink = [0u8; 8192];
            let mut drained = 0usize;
            loop {
                match std::io::Read::read(&mut stream, &mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        drained += n;
                        if drained > MAX_BODY_BYTES {
                            break;
                        }
                    }
                }
            }
        }
        return;
    }
}

/// Standard (RFC 4648) base64 with padding; used to inline mask images in
/// shard result lines.
pub fn base64_encode(bytes: &[u8]) -> String {
    const ALPHABET: &[u8; 64] =
        b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b = [chunk[0], *chunk.get(1).unwrap_or(&0), *chunk.get(2).unwrap_or(&0)];
        let n = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
        let idx = [(n >> 18) & 63, (n >> 12) & 63, (n >> 6) & 63, n & 63];
        for (i, &x) in idx.iter().enumerate() {
            if i <= chunk.len() {
                out.push(ALPHABET[x as usize] as char);
            } else {
                out.push('=');
            }
        }
    }
    out
}

/// Inverse of [`base64_encode`]: standard RFC 4648 base64 with padding.
///
/// # Errors
///
/// Returns a message for a length that is not a multiple of four, a byte
/// outside the alphabet, or misplaced padding.
pub fn base64_decode(s: &str) -> Result<Vec<u8>, String> {
    fn sextet(c: u8) -> Result<u8, String> {
        match c {
            b'A'..=b'Z' => Ok(c - b'A'),
            b'a'..=b'z' => Ok(c - b'a' + 26),
            b'0'..=b'9' => Ok(c - b'0' + 52),
            b'+' => Ok(62),
            b'/' => Ok(63),
            _ => Err(format!("byte {c:#04x} is not base64")),
        }
    }
    let bytes = s.as_bytes();
    if bytes.len() % 4 != 0 {
        return Err(format!("base64 length {} is not a multiple of 4", bytes.len()));
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for (c, chunk) in bytes.chunks(4).enumerate() {
        let pad = match (chunk[2], chunk[3]) {
            (b'=', b'=') => 2,
            (b'=', _) => return Err("misplaced base64 padding".into()),
            (_, b'=') => 1,
            _ => 0,
        };
        if pad > 0 && (c + 1) * 4 != bytes.len() {
            return Err("base64 padding before the final group".into());
        }
        let mut n: u32 = 0;
        for &b in &chunk[..4 - pad] {
            n = (n << 6) | u32::from(sextet(b)?);
        }
        n <<= 6 * pad;
        out.push((n >> 16) as u8);
        if pad < 2 {
            out.push((n >> 8) as u8);
        }
        if pad < 1 {
            out.push(n as u8);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The client: one connection, one request encoder, one framed reader.
// ---------------------------------------------------------------------------

/// One parsed response.
#[derive(Debug)]
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
        first(&self.headers, name)
    }

    /// Body as lossy UTF-8.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// The workspace's one HTTP/1.1 client: a connection that encodes requests
/// one way ([`Client::send`]) and frames every response by its
/// `content-length` ([`Client::read_reply`]), so it serves one-shot
/// exchanges ([`request`]), keep-alive and pipelined sessions, and shard
/// dispatch, whose read blocks through a long compute until the reply or a
/// hang-up ([`Client::hang_up_handle`]).
pub struct Client {
    stream: TcpStream,
    /// Bytes read past the last reply (pipelined responses).
    buf: Vec<u8>,
}

impl Client {
    /// Connects to `addr` with `TCP_NODELAY`; `timeout` bounds the connect
    /// and, until [`Client::hang_up_handle`], each read.
    ///
    /// # Errors
    ///
    /// A message when `addr` does not resolve or accept a connection.
    pub fn connect(addr: &str, timeout: Duration) -> Result<Client, String> {
        let targets: Vec<SocketAddr> =
            addr.to_socket_addrs().map_err(|e| format!("cannot resolve {addr}: {e}"))?.collect();
        let mut last = format!("{addr} resolves to no address");
        for target in targets {
            match TcpStream::connect_timeout(&target, timeout) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(timeout));
                    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                    return Ok(Client { stream, buf: Vec::new() });
                }
                Err(e) => last = format!("cannot connect to {addr}: {e}"),
            }
        }
        Err(last)
    }

    /// Lifts the read timeout, so [`Client::read_reply`] blocks until the
    /// reply arrives or the connection ends, and returns a clone of the
    /// connection: `shutdown` on it ends that blocked read at once (the
    /// coordinator's hang-up).
    ///
    /// # Errors
    ///
    /// A message when the socket cannot be cloned.
    pub fn hang_up_handle(&self) -> Result<TcpStream, String> {
        let _ = self.stream.set_read_timeout(None);
        self.stream.try_clone().map_err(|e| format!("cannot clone the connection: {e}"))
    }

    /// Writes raw bytes without reading anything back (pipelining,
    /// malformed-request tests).
    ///
    /// # Errors
    ///
    /// A message for a socket write error or timeout.
    pub fn send_raw(&mut self, raw: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(raw)
            .and_then(|()| self.stream.flush())
            .map_err(|e| format!("cannot send request: {e}"))
    }

    /// The one request encoder: request line, `host`, `content-length`,
    /// `connection: close` when `close` (HTTP/1.1 keep-alive otherwise),
    /// then `headers`; head and body leave in one write.
    ///
    /// # Errors
    ///
    /// See [`Client::send_raw`].
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
        close: bool,
    ) -> Result<(), String> {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nhost: worker\r\ncontent-length: {}\r\n",
            body.len()
        );
        if close {
            head.push_str("connection: close\r\n");
        }
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        let mut wire = head.into_bytes();
        wire.extend_from_slice(body);
        self.send_raw(&wire)
    }

    /// The one response reader: [`read_message`] with no body cap (a shard
    /// reply outgrows [`MAX_BODY_BYTES`]) and a required `content-length`;
    /// whatever arrived beyond the body stays buffered for the next call.
    ///
    /// # Errors
    ///
    /// A message when a read times out, the connection closes or fails
    /// before the response is complete, or the head is malformed, too
    /// large or carries no `content-length`.
    pub fn read_reply(&mut self) -> Result<Reply, String> {
        let parse_status = |line: &str| {
            let status = line.split(' ').nth(1).and_then(|s| s.parse().ok());
            status.ok_or_else(|| HttpError::BadRequest(format!("bad status line {line:?}")))
        };
        let message = read_message(&mut self.stream, &mut self.buf, usize::MAX, parse_status);
        let (status, headers, body) = message.map_err(|e| match e {
            HttpError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                "connection closed before a full response head".to_string()
            }
            HttpError::Io(e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                "timed out waiting for the response".into()
            }
            HttpError::Io(e) => format!("connection failed mid-response: {e}"),
            HttpError::BadRequest(why) => why,
            HttpError::HeadTooLarge | HttpError::PayloadTooLarge(_) => "response too large".into(),
        })?;
        if first(&headers, "content-length").is_none() {
            return Err("response carries no content-length".into());
        }
        Ok(Reply { status, headers, body })
    }

    /// Reads one byte, expecting the peer to have closed the connection
    /// (EOF) rather than sent anything.
    pub fn expect_closed(&mut self) -> bool {
        let mut one = [0u8; 1];
        self.buf.is_empty() && matches!(self.stream.read(&mut one), Ok(0))
    }
}

/// One request on a fresh connection, `connection: close`: heartbeats,
/// cancel fan-out, membership posts and shutdowns. `timeout` bounds the
/// connect and each read. Returns the status code and body.
///
/// # Errors
///
/// See [`Client::connect`], [`Client::send_raw`] and [`Client::read_reply`].
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> Result<(u16, Vec<u8>), String> {
    let mut client = Client::connect(addr, timeout)?;
    client.send(method, path, &[], body, true)?;
    client.read_reply().map(|reply| (reply.status, reply.body))
}

// ---------------------------------------------------------------------------
// The listener: one accept loop, one connection cap, one shutdown wake.
// ---------------------------------------------------------------------------

/// What a [`Listener`]'s accept loop and its connection handlers share: the
/// shutdown flag (with the address a throwaway connection wakes the loop
/// at) and the count of connections being served.
pub struct Gate {
    addr: SocketAddr,
    shutdown: AtomicBool,
    active: Mutex<usize>,
    /// Notified by the handler that brings `active` to zero.
    idle: Condvar,
}

impl Gate {
    /// Has [`Gate::shut_down`] been called?
    pub fn is_shut_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Stops the accept loop: sets the flag, then (the first time) nudges
    /// the loop out of its blocking accept with a throwaway connection,
    /// which is dropped unanswered.
    pub fn shut_down(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        }
    }

    /// Blocks until no connection is being served, or `timeout` passes —
    /// lets in-flight responses (a shutdown's own ack) finish.
    pub fn wait_idle(&self, timeout: Duration) {
        let active = self.active.lock().expect("connection count lock");
        drop(self.idle.wait_timeout_while(active, timeout, |active| *active > 0));
    }
}

/// One admitted connection's share of the cap, taken at admission. Dropping
/// it — when the handler returns *or its route unwinds* — gives the slot
/// back and wakes [`Gate::wait_idle`] if it was the last.
struct Slot(Arc<Gate>);

impl Drop for Slot {
    fn drop(&mut self) {
        // Never panics: every update leaves the count valid, so a poisoned
        // lock still guards a good value.
        let mut active = self.0.active.lock().unwrap_or_else(|e| e.into_inner());
        *active -= 1;
        if *active == 0 {
            self.0.idle.notify_all();
        }
    }
}

/// A bound listen socket and the one accept loop ([`Listener::serve`]) the
/// job service and the cluster worker both run.
pub struct Listener {
    listener: TcpListener,
    gate: Arc<Gate>,
}

impl Listener {
    /// Binds `addr` (port 0 picks a free port).
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub fn bind(addr: &str) -> io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        let gate = Arc::new(Gate {
            addr: listener.local_addr()?,
            shutdown: AtomicBool::new(false),
            active: Mutex::new(0),
            idle: Condvar::new(),
        });
        Ok(Listener { listener, gate })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.gate.addr
    }

    /// The handle routes use to observe and trigger shutdown.
    pub fn gate(&self) -> Arc<Gate> {
        Arc::clone(&self.gate)
    }

    /// Accepts until [`Gate::shut_down`]: each connection gets a thread
    /// running [`serve_connection`] over `route` (downgraded to
    /// `connection: close` once shutdown starts); beyond [`MAX_CONNECTIONS`]
    /// concurrently served ones, a connection is answered `503` with
    /// `retry-after: 1` and closed.
    pub fn serve(
        &self,
        options: ConnOptions,
        route: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) {
        let route = Arc::new(route);
        for stream in self.listener.incoming() {
            if self.gate.is_shut_down() {
                break; // the wake-up connection itself is dropped unanswered
            }
            let Ok(mut stream) = stream else { continue }; // transient (EMFILE, reset)
            let slot = {
                let mut active = self.gate.active.lock().expect("connection count lock");
                (*active < MAX_CONNECTIONS).then(|| {
                    *active += 1;
                    Slot(self.gate())
                })
            };
            let Some(slot) = slot else {
                let _ = Response::error(503, "connection limit reached")
                    .with_header("retry-after", "1")
                    .write_to(&mut stream);
                continue;
            };
            let route = Arc::clone(&route);
            std::thread::Builder::new()
                .name("ilt-conn".into())
                .spawn(move || {
                    let slot = slot; // released when this thread ends, however it ends
                    serve_connection(stream, &options, |req| route(req), || !slot.0.is_shut_down());
                })
                .expect("spawn connection handler");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        let mut cursor = io::Cursor::new(raw.to_vec());
        Request::read_from_buffered(&mut cursor, &mut Vec::new())
            .map(|(req, _)| req)
    }

    /// A loopback peer for [`Client`]: runs `peer` on the first accepted
    /// connection and returns what it returns.
    fn with_peer<T: Send + 'static>(
        peer: impl FnOnce(TcpStream) -> T + Send + 'static,
    ) -> (String, std::thread::JoinHandle<T>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        (addr, std::thread::spawn(move || peer(listener.accept().unwrap().0)))
    }

    #[test]
    fn response_parse_extracts_status_and_body() {
        // A peer that sends `raw` and closes.
        let read = |raw: &'static [u8]| {
            let (addr, peer) = with_peer(move |mut stream| stream.write_all(raw).unwrap());
            let mut client = Client::connect(&addr, Duration::from_secs(5)).unwrap();
            peer.join().unwrap();
            client.read_reply()
        };
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nx-empty:\r\n\
                    content-length: 5\r\n\r\nhello";
        let Reply { status, headers, body } = read(raw).unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            headers,
            [
                ("content-type".to_string(), "text/plain".to_string()),
                ("x-empty".into(), "".into()),
                ("content-length".into(), "5".into())
            ]
        );
        assert_eq!(body, b"hello");
        assert!(read(b"HTTP/1.1 OK\r\ncontent-length: 0\r\n\r\n").is_err());
        assert!(read(b"HTTP/1.1 200").is_err());
    }

    #[test]
    fn the_one_request_encoder_keeps_production_bytes() {
        let (addr, peer) = with_peer(|mut stream| {
            let mut got = Vec::new();
            stream.read_to_end(&mut got).unwrap();
            got
        });
        let mut client = Client::connect(&addr, Duration::from_secs(5)).unwrap();
        // What the coordinator's dispatch, probe and cancel put on the wire.
        client.send("POST", "/v1/shards?shard=1-0", &[], b"P5", true).unwrap();
        // The keep-alive spelling with extra headers (dev harness only).
        client.send("GET", "/x", &[("x-ilt-client", "alice")], b"", false).unwrap();
        drop(client);
        assert_eq!(
            String::from_utf8(peer.join().unwrap()).unwrap(),
            "POST /v1/shards?shard=1-0 HTTP/1.1\r\nhost: worker\r\ncontent-length: 2\r\n\
             connection: close\r\n\r\nP5\
             GET /x HTTP/1.1\r\nhost: worker\r\ncontent-length: 0\r\nx-ilt-client: alice\r\n\r\n"
        );
    }

    #[test]
    fn replies_are_framed_by_content_length_and_a_hang_up_ends_the_wait() {
        let (addr, peer) = with_peer(|mut stream| {
            // Two pipelined replies in one segment, then a third whose body
            // dribbles in after a pause, then a torn one.
            let mut wire = Vec::new();
            Response::text(200, "one").write_with_connection(&mut wire, true).unwrap();
            Response::text(404, "").write_with_connection(&mut wire, true).unwrap();
            wire.extend_from_slice(b"HTTP/1.1 200 OK\r\ncontent-length: 4\r\n\r\nsl");
            stream.write_all(&wire).unwrap();
            std::thread::sleep(Duration::from_millis(120));
            stream.write_all(b"owHTTP/1.1 200 OK\r\ncontent-length: 9\r\n\r\ntorn").unwrap();
        });
        let mut client = Client::connect(&addr, Duration::from_secs(5)).unwrap();
        let one = client.read_reply().unwrap();
        assert_eq!((one.status, one.text().as_str()), (200, "one"));
        assert_eq!(one.header("connection"), Some("keep-alive"));
        let two = client.read_reply().unwrap();
        assert_eq!((two.status, two.body.len()), (404, 0));
        assert_eq!(client.read_reply().unwrap().text(), "slow", "the read waits out the pause");
        peer.join().unwrap();
        let torn = client.read_reply().unwrap_err();
        assert!(torn.contains("mid-body"), "{torn}");
        assert!(!client.expect_closed(), "the torn bytes stay buffered");

        // A read that times out is an error; a peer that closes without a
        // byte is an error too.
        let (addr, peer) = with_peer(|stream| {
            std::thread::sleep(Duration::from_millis(60));
            drop(stream);
        });
        let mut client = Client::connect(&addr, Duration::from_millis(10)).unwrap();
        assert!(client.read_reply().unwrap_err().contains("timed out"));
        peer.join().unwrap();
        assert!(client.read_reply().unwrap_err().contains("before a full response head"));
        assert!(client.expect_closed());

        // Past `hang_up_handle` no read timeout fires: the read waits on a
        // silent peer until the handle shuts the connection down, and the
        // peer sees that as EOF.
        let (addr, peer) = with_peer(|mut stream| stream.read(&mut [0u8; 1]).unwrap_or(1));
        let mut client = Client::connect(&addr, Duration::from_millis(10)).unwrap();
        let handle = client.hang_up_handle().unwrap();
        let hang_up = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            handle.shutdown(std::net::Shutdown::Both).unwrap();
        });
        let err = client.read_reply().unwrap_err();
        assert!(err.contains("before a full response head"), "{err}");
        hang_up.join().unwrap();
        assert_eq!(peer.join().unwrap(), 0);

        // A reply head that outgrows the cap is refused as soon as the cap
        // is passed, not buffered until the peer stops sending.
        let (addr, peer) = with_peer(|mut stream| {
            let mut head = b"HTTP/1.1 200 OK\r\nx-pad: ".to_vec();
            head.extend(std::iter::repeat(b'a').take(MAX_HEAD_BYTES));
            stream.write_all(&head).unwrap();
            stream.read(&mut [0u8; 1]).unwrap_or(1) // held open until the client leaves
        });
        let mut client = Client::connect(&addr, Duration::from_secs(5)).unwrap();
        let err = client.read_reply().unwrap_err();
        assert!(err.contains("too large"), "{err}");
        drop(client);
        assert_eq!(peer.join().unwrap(), 0);
    }

    #[test]
    fn a_panicking_route_gives_its_connection_slot_back() {
        let listener = Arc::new(Listener::bind("127.0.0.1:0").unwrap());
        let (addr, gate) = (listener.local_addr().to_string(), listener.gate());
        let accept = std::thread::spawn({
            let listener = Arc::clone(&listener);
            move || {
                listener.serve(ConnOptions::default(), |req| match req.path.as_str() {
                    "/boom" => panic!("route panicked (expected by this test)"),
                    _ => Response::text(200, "ok\n"),
                })
            }
        });
        let get = |path: &str| request(&addr, "GET", path, b"", Duration::from_secs(5));
        for _ in 0..=MAX_CONNECTIONS {
            // The handler unwinds without answering: the socket just closes.
            assert!(get("/boom").is_err());
            // The socket closes before the unwinding thread drops its slot;
            // a leaked slot makes this time out and the next request a 503.
            gate.wait_idle(Duration::from_secs(5));
        }
        // More panics than the cap has slots, and the listener still serves.
        assert_eq!(get("/ok").map(|(status, _)| status), Ok(200));
        gate.wait_idle(Duration::from_secs(5));
        assert_eq!(*gate.active.lock().unwrap_or_else(|e| e.into_inner()), 0);
        gate.shut_down();
        accept.join().unwrap();
    }

    #[test]
    fn parses_a_get_with_query() {
        let req = parse(b"GET /v1/jobs/3?mask=base64&name=hello+w%C3%B6rld HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/jobs/3");
        assert_eq!(req.query_param("mask"), Some("base64"));
        assert_eq!(req.query_param("name"), Some("hello wörld"));
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for raw in [
            &b"GET\r\n\r\n"[..],
            b"GET /x\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"GET /x SPDY/3\r\n\r\n",
            b" / HTTP/1.1\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::BadRequest(_))),
                "{:?} must be a bad request",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn rejects_oversized_head_and_body() {
        let mut huge = b"GET /".to_vec();
        huge.extend(std::iter::repeat(b'a').take(10_000));
        huge.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert!(matches!(parse(&huge), Err(HttpError::HeadTooLarge)));

        let declared = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
        assert!(matches!(parse(declared), Err(HttpError::PayloadTooLarge(999999999))));
    }

    #[test]
    fn rejects_truncated_body_and_bad_length() {
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn response_has_length_and_close() {
        let mut out = Vec::new();
        Response::json(202, "{\"id\":1}")
            .with_header("retry-after", "1")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 202 Accepted\r\n"));
        assert!(text.contains("content-length: 9\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"id\":1}\n"));
    }

    #[test]
    fn pipelined_requests_share_one_carry_buffer() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /next HTTP/1.1\r\n\r\n";
        let mut cursor = io::Cursor::new(raw.to_vec());
        let mut carry = Vec::new();
        let (first, keep) =
            Request::read_from_buffered(&mut cursor, &mut carry).unwrap();
        assert_eq!(first.body, b"abc");
        assert!(keep, "1.1 without connection: close stays open");
        assert!(!carry.is_empty(), "the pipelined request waits in the carry");
        let (second, _) =
            Request::read_from_buffered(&mut cursor, &mut carry).unwrap();
        assert_eq!(second.path, "/next");
        assert!(carry.is_empty());
        // Exhausted input at a request boundary: a clean EOF, not a 400.
        match Request::read_from_buffered(&mut cursor, &mut carry) {
            Err(HttpError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected clean EOF, got {other:?}"),
        }
    }

    #[test]
    fn keep_alive_negotiation_follows_version_and_connection() {
        let cases: [(&[u8], bool); 4] = [
            (b"GET / HTTP/1.1\r\n\r\n", true),
            (b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false),
            (b"GET / HTTP/1.0\r\n\r\n", false),
            (b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true),
        ];
        for (raw, expect) in cases {
            let mut cursor = io::Cursor::new(raw.to_vec());
            let mut carry = Vec::new();
            let (_, keep) =
                Request::read_from_buffered(&mut cursor, &mut carry).unwrap();
            assert_eq!(keep, expect, "{:?}", String::from_utf8_lossy(raw));
        }
    }

    #[test]
    fn keep_alive_response_announces_it() {
        let mut out = Vec::new();
        Response::text(200, "ok").write_with_connection(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("connection: keep-alive\r\n"), "{text}");
    }

    /// A sink that keeps each `write` call apart: on a `TCP_NODELAY`
    /// socket every call is a segment.
    #[derive(Default)]
    struct Segments(Vec<Vec<u8>>);

    impl Segments {
        fn bytes(&self) -> Vec<u8> {
            self.0.concat()
        }
    }

    impl Write for Segments {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn unfaulted_response_is_one_write_of_the_same_bytes() {
        let body: Vec<u8> = (0..16 * 1024 + 11).map(|i| (i % 251) as u8).collect();
        for (keep_alive, connection) in [(false, "close"), (true, "keep-alive")] {
            let mut wire = Segments::default();
            Response::pgm(body.clone())
                .with_header("x-mask-hash", "00ff")
                .write_with_connection(&mut wire, keep_alive)
                .unwrap();
            let mut expected = format!(
                "HTTP/1.1 200 OK\r\ncontent-type: image/x-portable-graymap\r\n\
                 content-length: {}\r\nconnection: {connection}\r\nx-mask-hash: 00ff\r\n\r\n",
                body.len()
            )
            .into_bytes();
            expected.extend_from_slice(&body);
            assert!(wire.bytes() == expected, "response bytes changed ({connection})");
            assert_eq!(wire.0.len(), 1, "head and body must leave in one write");
        }
    }

    #[test]
    fn base64_matches_reference_vectors() {
        // RFC 4648 test vectors.
        assert_eq!(base64_encode(b""), "");
        assert_eq!(base64_encode(b"f"), "Zg==");
        assert_eq!(base64_encode(b"fo"), "Zm8=");
        assert_eq!(base64_encode(b"foo"), "Zm9v");
        assert_eq!(base64_encode(b"foob"), "Zm9vYg==");
        assert_eq!(base64_encode(b"fooba"), "Zm9vYmE=");
        assert_eq!(base64_encode(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn base64_decode_round_trips_and_rejects_damage() {
        for v in [&b""[..], b"f", b"fo", b"foo", b"foob", b"fooba", b"foobar"] {
            assert_eq!(base64_decode(&base64_encode(v)).unwrap(), v, "{v:?}");
        }
        // Every byte value survives the round trip.
        let all: Vec<u8> = (0u8..=255).collect();
        assert_eq!(base64_decode(&base64_encode(&all)).unwrap(), all);
        assert!(base64_decode("Zg=").is_err(), "bad length");
        assert!(base64_decode("Z!==").is_err(), "bad alphabet");
        assert!(base64_decode("Zg==Zm8=").is_err(), "padding mid-stream");
        assert!(base64_decode("=g==").is_err(), "padding in data position");
    }
}
