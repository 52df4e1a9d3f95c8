//! Job-lifecycle concurrency suite: cancellation (queued, running, racing
//! completion), state-log compaction across a restart, keep-alive
//! connection limits, streaming progress, and malformed-HTTP robustness —
//! all over real loopback sockets via the shared `util` harness.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ilt_cluster::transport::{request, MAX_CONNECTIONS};
use ilt_cluster::{ClusterConfig, Worker, WorkerConfig};
use ilt_server::{ExecPolicy, ServerConfig, SNAPSHOT_FILE};
use util::{delete, get, post, shutdown, start, tiny_pgm, wait_for_state, Conn, FAST_JOB};

mod util;

/// A policy that accepts `inject=` so tests can stall tiles on demand.
fn chaos_policy() -> ExecPolicy {
    ExecPolicy { allow_inject: true, ..ExecPolicy::default() }
}

#[test]
fn cancelling_a_queued_job_is_immediate_and_counted() {
    // No workers: the job can never start, so DELETE must kill it cold.
    let (addr, handle) = start(ServerConfig { workers: 0, ..ServerConfig::default() });
    let reply = post(addr, &format!("/v1/jobs?{FAST_JOB}"), &tiny_pgm());
    assert_eq!(reply.status, 202, "{}", reply.text());

    let reply = delete(addr, "/v1/jobs/0");
    assert_eq!(reply.status, 202, "{}", reply.text());
    assert!(reply.text().contains("\"state\":\"cancelled\""), "{}", reply.text());

    let reply = get(addr, "/v1/jobs/0");
    assert_eq!(reply.status, 200);
    assert!(reply.text().contains("\"state\":\"cancelled\""), "{}", reply.text());
    // A cancelled job never produced a mask.
    assert_eq!(get(addr, "/v1/jobs/0/mask").status, 409);

    // Cancel is not idempotent-silent: a second DELETE names the state.
    let reply = delete(addr, "/v1/jobs/0");
    assert_eq!(reply.status, 409, "{}", reply.text());
    assert_eq!(delete(addr, "/v1/jobs/999").status, 404);
    assert_eq!(delete(addr, "/v1/jobs/notanumber").status, 400);

    let text = get(addr, "/metrics").text();
    assert!(text.contains("ilt_jobs_cancelled_total 1\n"), "{text}");
    assert!(text.contains("ilt_queue_depth{class=\"normal\"} 0\n"), "{text}");

    shutdown(addr, handle);
}

/// A running clustered job is terminal within seconds of its `DELETE`,
/// however long the probe interval: the route wakes the job's loop, which
/// fans the cancel out and ends the exchange when the grace runs out. The
/// replica accepts every connection and never answers, so no reply, probe
/// verdict or acknowledgement can end the job instead.
#[test]
fn cancelling_a_running_clustered_job_waits_for_no_heartbeat() {
    let silent = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a silent replica");
    let replica = silent.local_addr().expect("replica addr").to_string();
    std::thread::spawn(move || {
        let mut held = Vec::new();
        for stream in silent.incoming() {
            held.extend(stream);
        }
    });
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        cluster: Some(ClusterConfig {
            workers: vec![replica],
            heartbeat: Duration::from_secs(30),
            cancel_grace: Duration::from_millis(200),
            ..ClusterConfig::default()
        }),
        ..ServerConfig::default()
    });
    let reply = post(addr, &format!("/v1/jobs?{FAST_JOB}"), &tiny_pgm());
    assert_eq!(reply.status, 202, "{}", reply.text());
    wait_for_state(addr, 0, "running");
    // The monitor's first probe round has failed: the next is 30 s away.
    let probed = Instant::now();
    while !get(addr, "/metrics").text().contains("ilt_worker_heartbeat_failures_total 1\n") {
        assert!(probed.elapsed() < Duration::from_secs(30), "the first probe never failed");
        std::thread::sleep(Duration::from_millis(10));
    }

    let reply = delete(addr, "/v1/jobs/0");
    assert_eq!(reply.status, 202, "{}", reply.text());
    assert!(reply.text().contains("\"state\":\"cancelling\""), "{}", reply.text());
    // Fan-out: one unanswered `DELETE /v1/shards/..` (its 2 s read
    // timeout), then the 200 ms grace.
    let deleted = Instant::now();
    wait_for_state(addr, 0, "cancelled");
    assert!(deleted.elapsed() < Duration::from_secs(10), "took {:?}", deleted.elapsed());
    shutdown(addr, handle);
}

#[test]
fn cancelling_a_running_job_stops_at_a_tile_boundary() {
    let journal = util::temp_dir("cancel_journal").with_extension("jsonl");
    let _ = std::fs::remove_file(&journal);
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        policy: chaos_policy(),
        journal: Some(journal.clone()),
        ..ServerConfig::default()
    });

    // 64px target over 16px cores = 16 tile jobs; the first three each
    // stall 300ms, leaving a ~900ms window to cancel mid-run.
    let submit = format!(
        "/v1/jobs?{FAST_JOB}&tile=32&halo=8&threads=1\
         &inject=delay@0=300,delay@1=300,delay@2=300"
    );
    let reply = post(addr, &submit, &tiny_pgm());
    assert_eq!(reply.status, 202, "{}", reply.text());

    // Streaming progress: a running job reports its plan and tile counter.
    let detail = wait_for_state(addr, 0, "running");
    assert!(detail.contains("\"tiles_planned\":16"), "{detail}");
    assert!(detail.contains("\"tiles_done\":"), "{detail}");

    let reply = delete(addr, "/v1/jobs/0");
    assert_eq!(reply.status, 202, "{}", reply.text());
    assert!(reply.text().contains("\"state\":\"cancelling\""), "{}", reply.text());

    // The worker observes the token at the next tile boundary and lands
    // the job in `cancelled` — without running all 16 delayed tiles.
    let landed = Instant::now();
    wait_for_state(addr, 0, "cancelled");
    assert!(
        landed.elapsed() < Duration::from_secs(10),
        "cancellation should not wait for the whole run"
    );
    assert_eq!(get(addr, "/v1/jobs/0/mask").status, 409);

    let text = get(addr, "/metrics").text();
    assert!(text.contains("ilt_jobs_cancelled_total 1\n"), "{text}");
    assert!(text.contains("ilt_jobs_completed_total 0\n"), "{text}");
    assert!(text.contains("ilt_jobs_failed_total 0\n"), "{text}");

    shutdown(addr, handle);

    // The drain flushed the journal: the run is recorded with cancelled
    // tile jobs, the same observability spine as done/failed runs.
    let journal_text = std::fs::read_to_string(&journal).expect("journal written");
    assert!(journal_text.contains("\"status\":\"cancelled\""), "{journal_text}");
    let _ = std::fs::remove_file(&journal);
}

/// Races DELETE against completion over a live worker pool: every response
/// must be a clean 202/409 (never 5xx, never a hang), every job must land
/// in a terminal state, and a restart must replay the exact outcome —
/// masks byte-identical for the jobs that finished.
#[test]
fn cancel_vs_complete_races_stay_clean_across_restart() {
    const JOBS: usize = 8;
    let state_dir = util::temp_dir("race_state");
    let (addr, handle) = start(ServerConfig {
        workers: 2,
        state_dir: Some(state_dir.clone()),
        ..ServerConfig::default()
    });

    let pgm = tiny_pgm();
    for i in 0..JOBS {
        let reply = post(addr, &format!("/v1/jobs?{FAST_JOB}&name=race{i}"), &pgm);
        assert_eq!(reply.status, 202, "{}", reply.text());
    }

    // Cancel every job from another thread while the pool chews through
    // them; some DELETEs will win, some will lose to completion.
    let canceller = std::thread::spawn(move || {
        let mut statuses = Vec::new();
        for id in 0..JOBS {
            statuses.push(delete(addr, &format!("/v1/jobs/{id}")).status);
            std::thread::sleep(Duration::from_millis(20));
        }
        statuses
    });

    let mut states = vec![String::new(); JOBS];
    for (id, state) in states.iter_mut().enumerate() {
        let text = wait_for_state(addr, id, "done|cancelled");
        let landed = if text.contains("\"state\":\"done\"") { "done" } else { "cancelled" };
        *state = format!("\"state\":\"{landed}\"");
    }
    for status in canceller.join().expect("canceller thread") {
        assert!(
            status == 202 || status == 409,
            "cancel during the race must answer 202 or 409, got {status}"
        );
    }

    // Snapshot the outcome, restart, and demand an identical replay.
    let masks: Vec<Option<Vec<u8>>> = (0..JOBS)
        .map(|id| {
            let reply = get(addr, &format!("/v1/jobs/{id}/mask"));
            (reply.status == 200).then_some(reply.body)
        })
        .collect();
    shutdown(addr, handle);

    let (addr, handle) = start(ServerConfig {
        workers: 2,
        state_dir: Some(state_dir.clone()),
        ..ServerConfig::default()
    });
    for id in 0..JOBS {
        let text = get(addr, &format!("/v1/jobs/{id}")).text();
        assert!(text.contains(&states[id]), "job {id} changed state across restart: {text}");
        let reply = get(addr, &format!("/v1/jobs/{id}/mask"));
        match &masks[id] {
            Some(mask) => {
                assert_eq!(reply.status, 200);
                assert_eq!(&reply.body, mask, "job {id} mask differs after restart");
            }
            None => assert_eq!(reply.status, 409, "job {id} grew a mask after restart"),
        }
    }
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn compaction_truncates_the_log_and_restart_replays_the_live_set() {
    let state_dir = util::temp_dir("compact_state");
    let config = || ServerConfig {
        workers: 1,
        policy: chaos_policy(),
        state_dir: Some(state_dir.clone()),
        // Any nonzero log triggers compaction at the next terminal event.
        compact_state_bytes: 1,
        ..ServerConfig::default()
    };
    let (addr, handle) = start(config());
    let pgm = tiny_pgm();

    // Job 0 stalls 600ms on its single tile, pinning the one worker so
    // jobs 1 and 2 stay queued; cancelling 2 is then deterministic.
    let reply = post(addr, &format!("/v1/jobs?{FAST_JOB}&inject=delay@0=600"), &pgm);
    assert_eq!(reply.status, 202, "{}", reply.text());
    assert_eq!(post(addr, &format!("/v1/jobs?{FAST_JOB}"), &pgm).status, 202);
    assert_eq!(post(addr, &format!("/v1/jobs?{FAST_JOB}"), &pgm).status, 202);
    let reply = delete(addr, "/v1/jobs/2");
    assert_eq!(reply.status, 202, "{}", reply.text());
    assert!(reply.text().contains("\"state\":\"cancelled\""), "{}", reply.text());

    wait_for_state(addr, 0, "done");
    wait_for_state(addr, 1, "done");
    let mask0 = get(addr, "/v1/jobs/0/mask").body;
    let mask1 = get(addr, "/v1/jobs/1/mask").body;

    // Every terminal event compacted: the snapshot holds the live set and
    // the log has been truncated. The final compaction races the last
    // detail poll by a hair, so give the files a moment to settle.
    let snapshot_path = state_dir.join(SNAPSHOT_FILE);
    let log_path = state_dir.join("state.jsonl");
    let settle = Instant::now() + Duration::from_secs(5);
    let snapshot = loop {
        let log_len = std::fs::metadata(&log_path).map(|m| m.len()).unwrap_or(u64::MAX);
        if log_len == 0 {
            if let Ok(s) = std::fs::read_to_string(&snapshot_path) {
                break s;
            }
        }
        assert!(Instant::now() < settle, "state log never compacted ({log_len} bytes)");
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(snapshot.starts_with("{\"kind\":\"compact\",\"next_id\":3}\n"), "{snapshot}");
    assert!(snapshot.contains("\"id\":0"), "{snapshot}");
    assert!(snapshot.contains("\"id\":1"), "{snapshot}");
    assert!(!snapshot.contains("\"id\":2"), "cancelled jobs must be dropped: {snapshot}");

    shutdown(addr, handle);

    // Restart replays the snapshot: the two finished jobs come back with
    // byte-identical masks, the cancelled id is gone, and new ids keep
    // counting past the compaction floor (no recycling).
    let (addr, handle) = start(config());
    assert!(get(addr, "/v1/jobs/0").text().contains("\"state\":\"done\""));
    assert!(get(addr, "/v1/jobs/1").text().contains("\"state\":\"done\""));
    assert_eq!(get(addr, "/v1/jobs/0/mask").body, mask0, "mask 0 differs after compaction");
    assert_eq!(get(addr, "/v1/jobs/1/mask").body, mask1, "mask 1 differs after compaction");
    assert_eq!(get(addr, "/v1/jobs/2").status, 404, "compacted-away job must 404");
    let text = get(addr, "/metrics").text();
    assert!(text.contains("ilt_jobs_recovered_total 2\n"), "{text}");

    let reply = post(addr, &format!("/v1/jobs?{FAST_JOB}"), &pgm);
    assert_eq!(reply.status, 202);
    assert!(reply.text().contains("\"id\":3"), "{}", reply.text());

    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// A state log from a server that still took `seam=blend:K`: restart keeps
/// the finished job and requeues the queued one as usual, and the blended
/// job comes back terminal `failed` with the decoder's reason.
#[test]
fn restart_fails_a_logged_blend_seam_and_replays_the_rest() {
    let state_dir = util::temp_dir("blend_restart");
    let config = || ServerConfig {
        workers: 1,
        state_dir: Some(state_dir.clone()),
        ..ServerConfig::default()
    };
    let (addr, handle) = start(config());
    assert_eq!(post(addr, &format!("/v1/jobs?{FAST_JOB}"), &tiny_pgm()).status, 202);
    wait_for_state(addr, 0, "done");
    let mask0 = get(addr, "/v1/jobs/0/mask").body;
    shutdown(addr, handle);

    let saved = |id: usize, seam: &str| {
        format!(
            r#"{{"kind":"submit","id":{id},"query":"via={id}&name=j{id}&grid=64&clip_nm=2048&kernels=3&tile=512&halo=64&seam={seam}&schedule=fast&iters=2&max_eff_nm=8&threads=1&timeout_s=0&retries=1&eval=1","client":"anonymous","class":"normal"}}"#
        )
    };
    let mut log = std::fs::OpenOptions::new()
        .append(true)
        .open(state_dir.join("state.jsonl"))
        .expect("state log");
    writeln!(log, "{}\n{}", saved(1, "crop"), saved(2, "blend:4")).expect("append");
    drop(log);

    let (addr, handle) = start(config());
    let failed = wait_for_state(addr, 2, "failed");
    assert!(
        failed.contains(r#"unreplayable after restart: bad seam=\"blend:4\" (only crop)"#),
        "{failed}"
    );
    wait_for_state(addr, 1, "done");
    assert!(get(addr, "/v1/jobs/0").text().contains("\"state\":\"done\""));
    assert_eq!(get(addr, "/v1/jobs/0/mask").body, mask0, "mask 0 differs after restart");
    let text = get(addr, "/metrics").text();
    assert!(text.contains("ilt_jobs_recovered_total 3\n"), "{text}");
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn a_keep_alive_connection_serves_the_request_cap_then_closes() {
    const CAP: usize = 12;
    let (addr, handle) = start(ServerConfig {
        workers: 0,
        keep_alive_requests: CAP,
        ..ServerConfig::default()
    });

    let mut conn = Conn::open(addr);
    for served in 1..=CAP {
        conn.send("GET", "/healthz", &[], b"", false).expect("keep-alive request");
        let reply = conn.read_reply().expect("keep-alive reply");
        assert_eq!(reply.status, 200);
        assert_eq!(reply.text(), "ok\n");
        let want = if served < CAP { "keep-alive" } else { "close" };
        assert_eq!(reply.header("connection"), Some(want), "request {served}/{CAP}");
    }
    assert!(conn.expect_closed(), "server must close at the request cap");

    shutdown(addr, handle);
}

/// Both services run the one accept loop, so both are capped: connection
/// cap + 1 is answered `503` + `retry-after` unasked and closed, and a
/// slot freed by a departing client serves again.
#[test]
fn connections_past_the_cap_get_503_and_a_freed_slot_serves_again() {
    let (server, handle) = start(ServerConfig { workers: 0, ..ServerConfig::default() });
    let worker = Worker::bind(WorkerConfig::default()).expect("bind worker");
    let worker_addr = worker.local_addr().expect("worker addr");
    let worker_thread = std::thread::spawn(move || worker.run());

    for addr in [server, worker_addr] {
        let mut idle: Vec<Conn> = (0..MAX_CONNECTIONS).map(|_| Conn::open(addr)).collect();
        let mut refused = Conn::open(addr);
        let reply = refused.read_reply().expect("the accept loop answers without being asked");
        assert_eq!(reply.status, 503, "{}", reply.text());
        assert_eq!(reply.header("retry-after"), Some("1"));
        assert!(refused.expect_closed());

        // One client leaves; its handler sees the close and frees the slot.
        idle.pop();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !matches!(
            request(&addr.to_string(), "GET", "/healthz", &[], Duration::from_secs(5)),
            Ok((200, _))
        ) {
            assert!(Instant::now() < deadline, "{addr}: the freed slot never served");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    assert_eq!(post(worker_addr, "/v1/shutdown", b"").status, 200);
    worker_thread.join().expect("worker thread");
    shutdown(server, handle);
}

#[test]
fn an_idle_keep_alive_connection_is_closed_at_the_idle_timeout() {
    let (addr, handle) = start(ServerConfig {
        workers: 0,
        idle_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });

    let mut conn = Conn::open(addr);
    conn.send("GET", "/healthz", &[], b"", false).expect("first request");
    let reply = conn.read_reply().expect("first reply");
    assert_eq!(reply.header("connection"), Some("keep-alive"));

    // Sit idle; the server must hang up on its own, promptly.
    let waited = Instant::now();
    assert!(conn.expect_closed(), "server should close an idle connection");
    let elapsed = waited.elapsed();
    assert!(
        elapsed >= Duration::from_millis(100) && elapsed < Duration::from_secs(5),
        "idle close took {elapsed:?}, expected ~300ms"
    );

    shutdown(addr, handle);
}

#[test]
fn pipelined_requests_are_served_in_order_on_one_connection() {
    let (addr, handle) = start(ServerConfig { workers: 0, ..ServerConfig::default() });

    let mut conn = Conn::open(addr);
    conn.send_raw(
        b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n\
          GET /metrics HTTP/1.1\r\nhost: t\r\n\r\n\
          GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n",
    )
    .expect("pipeline burst");
    let first = conn.read_reply().expect("reply 1");
    assert_eq!((first.status, first.text().as_str()), (200, "ok\n"));
    let second = conn.read_reply().expect("reply 2");
    assert_eq!(second.status, 200);
    assert!(second.text().contains("ilt_jobs_accepted_total"), "{}", second.text());
    let third = conn.read_reply().expect("reply 3");
    assert_eq!((third.status, third.text().as_str()), (200, "ok\n"));

    shutdown(addr, handle);
}

/// Satellite: hostile/broken clients. Every case must end in a clean 4xx
/// or a silent drop — never a panic, and never a wedged handler that
/// would block the drain at the end of the test.
#[test]
fn malformed_http_gets_clean_errors_and_never_wedges_the_server() {
    let (addr, handle) = start(ServerConfig { workers: 0, ..ServerConfig::default() });

    // Premature close mid-head.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /hea").unwrap();
    drop(s);

    // Premature close mid-body (Content-Length promises more than sent).
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 50\r\n\r\nshort").unwrap();
    drop(s);

    // Pipelined garbage after a valid request: the first is answered, the
    // garbage gets a 400 and the connection is dropped.
    let mut conn = Conn::open(addr);
    conn.send_raw(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\nNOT_A_REQUEST\r\n\r\n").unwrap();
    let reply = conn.read_reply().expect("valid half of the pipeline");
    assert_eq!(reply.status, 200);
    let reply = conn.read_reply().expect("garbage half still gets an answer");
    assert_eq!(reply.status, 400);
    assert!(conn.expect_closed(), "connection must drop after a parse error");

    // A bodied POST with no Content-Length: the head parses (empty body →
    // 400, no source), then the stray body bytes fail as a next request.
    let mut conn = Conn::open(addr);
    conn.send_raw(b"POST /v1/jobs HTTP/1.1\r\nhost: t\r\n\r\nP5 stray body\r\n\r\n").unwrap();
    let reply = conn.read_reply().expect("head without content-length");
    assert_eq!(reply.status, 400, "{}", reply.text());
    let reply = conn.read_reply().expect("stray body parsed as garbage");
    assert_eq!(reply.status, 400);
    assert!(conn.expect_closed());

    // Huge Content-Length: refused from the declaration alone.
    let reply = util::exchange(addr, b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 1099511627776\r\n\r\n");
    assert_eq!(reply.status, 413);

    // Oversized header block against the default limits.
    let mut raw = b"GET /healthz HTTP/1.1\r\nx-pad: ".to_vec();
    raw.extend(std::iter::repeat(b'a').take(1 << 20));
    raw.extend_from_slice(b"\r\n\r\n");
    let reply = util::exchange(addr, &raw);
    assert_eq!(reply.status, 431);

    // The server is still healthy and drains cleanly: no leaked handler
    // is holding it open.
    assert_eq!(get(addr, "/healthz").status, 200);
    shutdown(addr, handle);
}
