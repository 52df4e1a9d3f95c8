//! A keep-alive exchange costs its work, not a kernel timer. A response
//! that leaves in two writes on a socket without `TCP_NODELAY` holds its
//! second segment until the client's delayed ACK — 40 ms per exchange on
//! Linux loopback. Both accept paths (`ilt_server::Server` and
//! `ilt_cluster::Worker`) go through `transport::serve_connection`, so both
//! are timed here. The bound is on the median of 40 round trips (31 on the
//! worker, whose request cap is the default) and sits
//! two orders of magnitude from either regime (≈ 0.1 ms against ≈ 44 ms),
//! so a loaded machine cannot flake it.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use ilt_cluster::{ConnOptions, Worker, WorkerConfig};
use ilt_server::ServerConfig;
use util::{job_id, post, shutdown, start, wait_for_state, Conn};

mod util;

const EXCHANGES: usize = 40;
const BOUND: Duration = Duration::from_millis(10);

/// Median round trip of `exchanges` sequential `GET path` requests on one
/// keep-alive connection; every reply must be a 200 of at least
/// `min_body` bytes.
fn median_round_trip(addr: SocketAddr, path: &str, min_body: usize, exchanges: usize) -> Duration {
    let mut conn = Conn::open(addr);
    let mut trips: Vec<Duration> = (0..exchanges)
        .map(|i| {
            let sent = Instant::now();
            conn.send("GET", path, &[], b"", false).expect("keep-alive request");
            let reply = conn.read_reply().expect("keep-alive reply");
            let trip = sent.elapsed();
            assert_eq!(reply.status, 200, "{path} #{i}: {}", reply.text());
            assert_eq!(reply.header("connection"), Some("keep-alive"), "{path} #{i}");
            assert!(reply.body.len() >= min_body, "{path} #{i}: {} bytes", reply.body.len());
            trip
        })
        .collect();
    trips.sort();
    trips[exchanges / 2]
}

#[test]
fn server_keep_alive_exchanges_do_not_wait_on_delayed_acks() {
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        keep_alive_requests: EXCHANGES + 1,
        ..ServerConfig::default()
    });
    let reply = post(addr, "/v1/jobs?via=7&grid=128&kernels=3&iters=2", b"");
    assert_eq!(reply.status, 202, "{}", reply.text());
    let id = job_id(&reply).expect("job id");
    wait_for_state(addr, id, "done");

    let exchanges = [(format!("/v1/jobs/{id}"), 1), (format!("/v1/jobs/{id}/mask"), 128 * 128)];
    for (path, min_body) in exchanges {
        let median = median_round_trip(addr, &path, min_body, EXCHANGES);
        assert!(median < BOUND, "GET {path}: median round trip {median:?}, bound {BOUND:?}");
    }
    shutdown(addr, handle);
}

#[test]
fn worker_keep_alive_exchanges_do_not_wait_on_delayed_acks() {
    let worker = Worker::bind(WorkerConfig::default()).expect("bind worker");
    let addr = worker.local_addr().expect("worker addr");
    let handle = std::thread::spawn(move || worker.run());

    // Every exchange the worker's request cap keeps alive.
    let exchanges = ConnOptions::default().keep_alive_requests - 1;
    let median = median_round_trip(addr, "/healthz", 1, exchanges);
    assert!(median < BOUND, "GET /healthz: median round trip {median:?}, bound {BOUND:?}");

    assert_eq!(post(addr, "/v1/shutdown", b"").status, 200);
    handle.join().expect("worker thread");
}
