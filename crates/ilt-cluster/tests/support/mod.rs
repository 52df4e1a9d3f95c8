//! What the cluster suites share: an in-process worker replica, its
//! shutdown, and a TCP proxy that damages a worker's shard replies.
//!
//! Network faults are the proxy's doing, not the worker's: the replica
//! behind it is a real, honest [`Worker`] that computes every shard and
//! answers truthfully, and the proxy refuses, tears, garbles or stalls the
//! reply bytes by script on their way to the coordinator, which lists the
//! proxy's address as the member.
#![allow(dead_code)] // each suite compiles this module and uses part of it

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ilt_cluster::transport::request;
use ilt_cluster::wire::parse_job_ids;
use ilt_cluster::{Request, Worker, WorkerConfig};
use ilt_runtime::FaultPlan;

/// Binds one worker replica on an ephemeral loopback port and serves it
/// from a background thread until [`shutdown`] is called on its address.
pub fn spawn_worker(faults: FaultPlan) -> (String, JoinHandle<()>) {
    let worker = Worker::bind(WorkerConfig {
        addr: "127.0.0.1:0".into(),
        faults,
        ..WorkerConfig::default()
    })
    .expect("bind worker");
    let addr = worker.local_addr().expect("worker addr").to_string();
    let handle = std::thread::spawn(move || worker.run());
    (addr, handle)
}

/// Asks the replica at `addr` to stop accepting connections.
pub fn shutdown(addr: &str) {
    let _ = request(addr, "POST", "/v1/shutdown", &[], Duration::from_secs(10));
}

/// What the proxy does to one shard reply.
#[derive(Clone, Copy, Debug)]
pub enum Damage {
    /// Forward the worker's reply untouched.
    Pass,
    /// Close the connection without sending a byte; the worker never sees
    /// the dispatch.
    Refuse,
    /// Send the full `content-length` but only two thirds of the body, then
    /// close: a torn JSONL stream.
    Tear,
    /// Flip 16 bytes in the middle of the body: corruption the mask-hash
    /// checks must catch.
    Garble,
    /// Send the head and half the body, sleep this many milliseconds, then
    /// send the rest: slow but intact.
    Stall(u64),
}

/// Starts a proxy in front of the worker at `worker` and returns the
/// proxy's address. `GET /healthz` and `DELETE` pass straight through, so
/// the replica stays alive to the heartbeat monitor whatever the script
/// does. For each `POST /v1/shards`, `script` sees the shard id, its job
/// ids and the nth time this proxy has seen that shard (1 for its first
/// dispatch), and says what happens to the reply.
pub fn spawn_proxy<F>(worker: &str, script: F) -> String
where
    F: Fn(&str, &[usize], u32) -> Damage + Send + Sync + 'static,
{
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().expect("proxy addr").to_string();
    let worker = worker.to_string();
    let script = Arc::new(script);
    let seen = Arc::new(Mutex::new(HashMap::<String, u32>::new()));
    std::thread::spawn(move || {
        for client in listener.incoming().flatten() {
            let (worker, script, seen) = (worker.clone(), Arc::clone(&script), Arc::clone(&seen));
            std::thread::spawn(move || {
                forward(client, &worker, |sid, jobs| {
                    let mut seen = seen.lock().expect("dispatch counts");
                    let nth = seen.entry(sid.to_string()).or_insert(0);
                    *nth += 1;
                    script(sid, jobs, *nth)
                });
            });
        }
    });
    addr
}

/// One exchange through the proxy. Every exchange the coordinator makes is
/// `connection: close`, so it is one request in and the worker's whole
/// answer out.
fn forward(mut client: TcpStream, worker: &str, damage: impl FnOnce(&str, &[usize]) -> Damage) {
    let mut tee = Tee(&mut client, Vec::new());
    let Ok((req, _)) = Request::read_from_buffered(&mut tee, &mut Vec::new()) else { return };
    let raw = tee.1;
    let damage = match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/shards") => {
            let sid = req.query_param("shard").expect("shard id");
            let jobs = parse_job_ids(req.query_param("jobs").expect("job ids")).expect("job ids");
            damage(sid, &jobs)
        }
        _ => Damage::Pass,
    };
    if let Damage::Refuse = damage {
        return;
    }
    // A worker that is gone closes the client's connection unanswered, so
    // it looks through the proxy as it would without one.
    let Ok(mut upstream) = TcpStream::connect(worker) else { return };
    let mut reply = Vec::new();
    if upstream.write_all(&raw).and_then(|()| upstream.read_to_end(&mut reply)).is_err() {
        return;
    }
    let head_end = reply.windows(4).position(|w| w == b"\r\n\r\n");
    let body_start = head_end.map_or(reply.len(), |at| at + 4);
    let body_len = reply.len() - body_start;
    // A coordinator that hung up on this exchange fails these writes; that
    // is its business, not the proxy's.
    let _ = match damage {
        Damage::Pass | Damage::Refuse => client.write_all(&reply),
        Damage::Tear => client.write_all(&reply[..body_start + body_len * 2 / 3]),
        Damage::Garble => {
            for byte in reply.iter_mut().skip(body_start + body_len / 2).take(16) {
                *byte ^= 0xa5;
            }
            client.write_all(&reply)
        }
        Damage::Stall(ms) => {
            let half = body_start + body_len / 2;
            let _ = client.write_all(&reply[..half]).and_then(|()| client.flush());
            std::thread::sleep(Duration::from_millis(ms));
            client.write_all(&reply[half..])
        }
    };
}

/// A reader that keeps a copy of every byte it hands out: the request as
/// the coordinator wrote it, forwarded byte for byte.
struct Tee<'a>(&'a mut TcpStream, Vec<u8>);

impl Read for Tee<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.0.read(buf)?;
        self.1.extend_from_slice(&buf[..n]);
        Ok(n)
    }
}
