//! Loopback integration tests: the server is exercised through real TCP
//! sockets with the shared `util` helpers over `ilt_server::harness` (the
//! client the repo benchmark also drives), covering the
//! robustness paths (malformed requests, oversized bodies, queue-full
//! backpressure) and the full submit → poll → fetch-mask round trip, whose
//! result must be byte-identical to running the batch engine in-process.

use std::time::Duration;

use ilt_runtime::{run_batch, SimulatorCache};
use ilt_server::http::{MAX_BODY_BYTES, MAX_HEAD_BYTES};
use ilt_server::ServerConfig;
use util::{
    delete, exchange, fast_params, get, post, shutdown, start, tiny_pgm, tiny_target, FAST_JOB,
};

mod util;

#[test]
fn rejects_malformed_and_unroutable_requests() {
    let state_dir = util::temp_dir("e2e_rejects");
    let (addr, handle) = start(ServerConfig {
        workers: 0,
        state_dir: Some(state_dir.clone()),
        ..ServerConfig::default()
    });

    let reply = exchange(addr, b"BOGUS\r\nhost: t\r\n\r\n");
    assert_eq!(reply.status, 400, "{}", reply.text());
    let reply = exchange(addr, b"GET /healthz SPDY/9\r\n\r\n");
    assert_eq!(reply.status, 400);

    let reply = get(addr, "/no/such/route");
    assert_eq!(reply.status, 404, "{}", reply.text());
    let reply = get(addr, "/v1/jobs/notanumber");
    assert_eq!(reply.status, 400);
    let reply = get(addr, "/v1/jobs/999");
    assert_eq!(reply.status, 404, "{}", reply.text());
    let reply = get(addr, "/v1/jobs/999/mask");
    assert_eq!(reply.status, 404);

    // The collection endpoint takes GET/POST only; DELETE targets one job.
    let reply = delete(addr, "/v1/jobs");
    assert_eq!(reply.status, 405);
    assert_eq!(reply.header("allow"), Some("GET, POST"));

    let reply = post(addr, "/v1/jobs", b"");
    assert_eq!(reply.status, 400, "no source given: {}", reply.text());
    let reply = post(addr, "/v1/jobs?case=case1&grid=100", b"");
    assert_eq!(reply.status, 400);

    // Tile geometry no plan can satisfy, and a seam policy other than crop
    // (the only one), are client errors at the door: no job id, no queue
    // slot, no durable `submit` line, no failed job.
    for (query, why) in [
        ("case=1&grid=128&kernels=3&tile=48&iters=1", "tile size 48 must be a power of two"),
        ("case=1&grid=128&kernels=3&tile=64&halo=40&iters=1", "halo 40 leaves no core"),
        ("case=1&grid=128&kernels=3&iters=1&seam=blend:4", r#"bad seam=\"blend:4\" (only crop)"#),
    ] {
        let reply = post(addr, &format!("/v1/jobs?{query}"), b"");
        assert_eq!(reply.status, 400, "{query}: {}", reply.text());
        assert!(reply.text().contains(why), "{query}: {}", reply.text());
    }
    assert!(get(addr, "/v1/jobs").text().starts_with("{\"jobs\":[],"));
    let text = get(addr, "/metrics").text();
    assert!(text.contains("ilt_jobs_rejected_total 5\n"), "{text}");
    assert!(text.contains("ilt_jobs_accepted_total 0\n"), "{text}");
    assert!(text.contains("ilt_jobs_failed_total 0\n"), "{text}");

    shutdown(addr, handle);
    let log = std::fs::read_to_string(state_dir.join("state.jsonl")).expect("state log");
    assert!(!log.contains("\"kind\":\"submit\""), "{log}");
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// `inf` and `1e300` parse as `f64` but not into a `Duration`: the
/// submission is planned on the connection thread, so these used to kill it
/// and the client read EOF instead of a status.
#[test]
fn unbounded_timeout_is_a_400_with_a_body_not_a_closed_socket() {
    let (addr, handle) = start(ServerConfig { workers: 0, ..ServerConfig::default() });
    for value in ["inf", "1e300", "NaN"] {
        let reply = post(addr, &format!("/v1/jobs?via=3&grid=64&timeout_s={value}"), b"");
        assert_eq!(reply.status, 400, "timeout_s={value}: {}", reply.text());
        assert!(reply.text().contains("timeout_s"), "timeout_s={value}: {}", reply.text());
    }
    assert!(get(addr, "/v1/jobs").text().starts_with("{\"jobs\":[],"));
    shutdown(addr, handle);
}

#[test]
fn oversized_bodies_and_heads_are_refused() {
    let (addr, handle) = start(ServerConfig { workers: 0, ..ServerConfig::default() });

    // Declared too large: refused from the Content-Length alone.
    let raw = format!("POST /v1/jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
    let reply = exchange(addr, raw.as_bytes());
    assert_eq!(reply.status, 413, "{}", reply.text());

    // Oversized head.
    let mut raw = b"GET /v1/jobs?x=".to_vec();
    raw.extend(std::iter::repeat(b'a').take(MAX_HEAD_BYTES));
    raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
    let reply = exchange(addr, &raw);
    assert_eq!(reply.status, 431);

    shutdown(addr, handle);
}

#[test]
fn queue_overflow_gets_503_with_retry_after_and_metrics_count_it() {
    // No workers: admitted jobs stay queued, so overflow is deterministic.
    let (addr, handle) =
        start(ServerConfig { workers: 0, queue_cap: 2, ..ServerConfig::default() });
    let submit = format!("/v1/jobs?{FAST_JOB}");
    let pgm = tiny_pgm();

    let reply = post(addr, &submit, &pgm);
    assert_eq!(reply.status, 202, "{}", reply.text());
    assert!(reply.text().contains("\"id\":0"));
    let reply = post(addr, &submit, &pgm);
    assert_eq!(reply.status, 202);

    for _ in 0..3 {
        let reply = post(addr, &submit, &pgm);
        assert_eq!(reply.status, 503, "{}", reply.text());
        assert_eq!(reply.header("retry-after"), Some("1"));
        assert!(reply.text().contains("queue full"));
    }

    // A queued (not yet run) job has no mask: 409, not 404.
    let reply = get(addr, "/v1/jobs/0/mask");
    assert_eq!(reply.status, 409);

    let reply = get(addr, "/metrics");
    assert_eq!(reply.status, 200);
    let text = reply.text();
    assert!(text.contains("ilt_jobs_accepted_total 2\n"), "{text}");
    assert!(text.contains("ilt_jobs_rejected_total 3\n"), "{text}");
    assert!(text.contains("ilt_queue_depth{class=\"normal\"} 2\n"), "{text}");
    assert!(text.contains("ilt_queue_depth{class=\"high\"} 0\n"), "{text}");

    shutdown(addr, handle);
}

#[test]
fn end_to_end_round_trip_matches_the_batch_engine_bit_for_bit() {
    let journal = std::env::temp_dir().join("ilt_server_e2e_journal.jsonl");
    let _ = std::fs::remove_file(&journal);
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        journal: Some(journal.clone()),
        ..ServerConfig::default()
    });

    let reply = get(addr, "/healthz");
    assert_eq!(reply.status, 200);
    assert_eq!(reply.text(), "ok\n");

    // Submit an inline 64x64 target.
    let target = tiny_target();
    let pgm = tiny_pgm();
    let reply = post(addr, &format!("/v1/jobs?{FAST_JOB}"), &pgm);
    assert_eq!(reply.status, 202, "{}", reply.text());
    assert_eq!(reply.header("location"), Some("/v1/jobs/0"));

    let detail = util::wait_for_state(addr, 0, "done");
    assert!(detail.contains("\"records\":[{"), "{detail}");
    assert!(detail.contains("\"eval\":{"), "{detail}");

    // The served mask must equal the batch engine's output byte-for-byte.
    let (case, config) = fast_params(target.threshold(0.5)).plan().unwrap();
    let reference = run_batch(&[case], &config, &SimulatorCache::new()).unwrap();
    let expected_pgm = ilt_field::pgm_bytes(&reference.cases[0].mask, 0.0, 1.0);

    let reply = get(addr, "/v1/jobs/0/mask");
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("content-type"), Some("image/x-portable-graymap"));
    assert_eq!(reply.body, expected_pgm, "served mask differs from batch output");

    // Listing shows the finished job; metrics agree with one accepted,
    // one completed, zero failed.
    let reply = get(addr, "/v1/jobs");
    assert!(reply.text().contains("\"state\":\"done\""));
    let reply = get(addr, "/metrics");
    let text = reply.text();
    assert!(text.contains("ilt_jobs_accepted_total 1\n"), "{text}");
    assert!(text.contains("ilt_jobs_completed_total 1\n"), "{text}");
    assert!(text.contains("ilt_jobs_failed_total 0\n"), "{text}");
    assert!(text.contains("ilt_cache_misses_total 1\n"), "{text}");
    assert!(text.contains("ilt_stage_latency_ms_count{stage=\"optimize\"} 1\n"), "{text}");

    shutdown(addr, handle);

    // Drain flushed the journal: one JSON line for the finished job.
    let journal_text = std::fs::read_to_string(&journal).expect("journal written");
    let lines: Vec<&str> = journal_text.lines().collect();
    assert_eq!(lines.len(), 1, "{journal_text}");
    assert!(lines[0].contains("\"case\":\"inline\""), "{journal_text}");
    assert!(lines[0].contains("\"status\":\"done\""), "{journal_text}");
    let _ = std::fs::remove_file(&journal);
}

/// Restarting with the same state directory must bring finished jobs back
/// (mask byte-identical), and a TTL of zero must evict resident masks —
/// which the mask endpoint then re-hydrates from the durable copy
/// (byte-identical again) rather than answering 410.
#[test]
fn restart_recovers_state_and_ttl_evicts_masks() {
    let state_dir = util::temp_dir("e2e_state");
    let pgm = tiny_pgm();

    // First life: run one job to completion, then drain.
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        state_dir: Some(state_dir.clone()),
        ..ServerConfig::default()
    });
    let reply = post(addr, &format!("/v1/jobs?{FAST_JOB}"), &pgm);
    assert_eq!(reply.status, 202, "{}", reply.text());
    util::wait_for_state(addr, 0, "done");
    let first_mask = get(addr, "/v1/jobs/0/mask").body;
    shutdown(addr, handle);

    // Second life: same state dir; the job is back without re-running.
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        state_dir: Some(state_dir.clone()),
        ..ServerConfig::default()
    });
    let reply = get(addr, "/v1/jobs/0");
    assert_eq!(reply.status, 200);
    let text = reply.text();
    assert!(text.contains("\"state\":\"done\""), "{text}");
    let reply = get(addr, "/v1/jobs/0/mask");
    assert_eq!(reply.status, 200);
    assert_eq!(reply.body, first_mask, "recovered mask must be byte-identical");
    let reply = get(addr, "/metrics");
    assert!(reply.text().contains("ilt_jobs_recovered_total 1\n"), "{}", reply.text());
    shutdown(addr, handle);

    // Third life: an aggressive TTL evicts the recovered mask on the first
    // scrape; the metadata stays, and the mask endpoint re-hydrates the
    // durable copy instead of answering 410.
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        state_dir: Some(state_dir.clone()),
        result_ttl: Some(Duration::ZERO),
        ..ServerConfig::default()
    });
    let reply = get(addr, "/metrics");
    assert!(reply.text().contains("ilt_masks_evicted_total 1\n"), "{}", reply.text());
    let reply = get(addr, "/v1/jobs/0");
    assert_eq!(reply.status, 200);
    let text = reply.text();
    assert!(text.contains("\"mask_resident\":false"), "{text}");
    assert!(text.contains("\"mask_hash\""), "{text}");
    let reply = get(addr, "/v1/jobs/0/mask");
    assert_eq!(reply.status, 200, "{}", reply.text());
    assert_eq!(reply.body, first_mask, "re-hydrated mask must be byte-identical");
    let reply = get(addr, "/metrics");
    assert!(reply.text().contains("ilt_masks_rehydrated_total 1\n"), "{}", reply.text());
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn draining_server_refuses_new_work_but_finishes_queued_jobs() {
    let (addr, handle) = start(ServerConfig { workers: 1, ..ServerConfig::default() });
    let pgm = tiny_pgm();

    let reply = post(addr, &format!("/v1/jobs?{FAST_JOB}"), &pgm);
    assert_eq!(reply.status, 202);

    // Start the drain, then verify the already-submitted job completed:
    // run() only returns once the queue is empty and workers exited.
    let reply = post(addr, "/v1/shutdown", b"");
    assert_eq!(reply.status, 202);
    assert!(reply.text().contains("draining"));
    handle.join().expect("server thread").expect("clean drain");
}
