//! Loopback coverage for the dynamic-membership API (`/v1/members`) and
//! the cluster metrics families it feeds: join/drain/leave over real
//! sockets, input validation, and the Prometheus exposition including the
//! per-worker breaker gauge.

use ilt_cluster::ClusterConfig;
use ilt_server::ServerConfig;
use util::{get, post, shutdown, start};

mod util;

#[test]
fn membership_lifecycle_over_http_and_metrics_exposition() {
    let (addr, handle) = start(ServerConfig {
        workers: 0,
        cluster: Some(ClusterConfig::default()), // empty initial membership
        ..ServerConfig::default()
    });

    let reply = get(addr, "/v1/members");
    assert_eq!(reply.status, 200, "{}", reply.text());
    assert!(reply.text().contains("\"members\":[]"), "{}", reply.text());

    // Join (the default action), then the full lifecycle.
    let reply = post(addr, "/v1/members?addr=127.0.0.1:9999", &[]);
    assert_eq!(reply.status, 200, "{}", reply.text());
    assert!(reply.text().contains("\"joined\""), "{}", reply.text());
    let reply = post(addr, "/v1/members?addr=127.0.0.1:9999&action=join", &[]);
    assert_eq!(reply.status, 409, "duplicate join: {}", reply.text());

    let reply = get(addr, "/v1/members");
    let body = reply.text();
    assert!(body.contains("\"addr\":\"127.0.0.1:9999\""), "{body}");
    assert!(body.contains("\"breaker\":\"closed\""), "{body}");
    assert!(body.contains("\"draining\":false"), "{body}");

    let reply = post(addr, "/v1/members?addr=127.0.0.1:9999&action=drain", &[]);
    assert_eq!(reply.status, 200, "{}", reply.text());
    assert!(get(addr, "/v1/members").text().contains("\"draining\":true"));

    // Validation: label-unsafe addresses and unknown actions are refused.
    let reply = post(addr, "/v1/members?addr=x%22y&action=join", &[]);
    assert_eq!(reply.status, 400, "{}", reply.text());
    let reply = post(addr, "/v1/members?addr=127.0.0.1:1&action=explode", &[]);
    assert_eq!(reply.status, 400, "{}", reply.text());
    let reply = post(addr, "/v1/members", &[]);
    assert_eq!(reply.status, 400, "missing addr: {}", reply.text());

    // The metrics exposition carries the cluster families, including the
    // per-worker breaker gauge, in clean Prometheus text format.
    let metrics = get(addr, "/metrics").text();
    assert!(metrics.contains("ilt_members_joined_total 1\n"), "{metrics}");
    assert!(metrics.contains("ilt_members_left_total 0\n"), "{metrics}");
    assert!(metrics.contains("ilt_shards_speculated_total 0\n"), "{metrics}");
    assert!(metrics.contains("ilt_speculation_wins_total 0\n"), "{metrics}");
    assert!(metrics.contains("ilt_workers_configured 1\n"), "{metrics}");
    assert!(
        metrics.contains("ilt_worker_breaker_state{worker=\"127.0.0.1:9999\"} 0\n"),
        "{metrics}"
    );
    for line in metrics.lines() {
        assert!(line.starts_with('#') || line.split_whitespace().count() == 2, "{line}");
    }

    let reply = post(addr, "/v1/members?addr=127.0.0.1:9999&action=leave", &[]);
    assert_eq!(reply.status, 200, "{}", reply.text());
    let reply = post(addr, "/v1/members?addr=127.0.0.1:9999&action=leave", &[]);
    assert_eq!(reply.status, 409, "double leave: {}", reply.text());
    assert!(get(addr, "/v1/members").text().contains("\"members\":[]"));
    let metrics = get(addr, "/metrics").text();
    assert!(metrics.contains("ilt_members_left_total 1\n"), "{metrics}");
    assert!(metrics.contains("ilt_workers_configured 0\n"), "{metrics}");
    assert!(!metrics.contains("ilt_worker_breaker_state{"), "gauge gone: {metrics}");

    shutdown(addr, handle);
}

/// The whole exposition of a fresh coordinator-mode server — family order,
/// help text, types, every zeroed sample — is the bytes commit 7322372
/// served, when five writers formatted `# HELP` / `# TYPE` lines, less the
/// `ilt_tile_failures_total{kind="io"}` sample: no failure reason has been
/// `io` since the injected build error left the fault grammar.
#[test]
fn metrics_exposition_of_a_fresh_coordinator_is_byte_pinned() {
    let (addr, handle) = start(ServerConfig {
        workers: 0,
        cluster: Some(ClusterConfig::default()),
        ..ServerConfig::default()
    });
    let body = get(addr, "/metrics").text();
    let golden = include_str!("fixtures/metrics_7322372.txt");
    assert!(body == golden, "GET /metrics changed:\n{body}");
    shutdown(addr, handle);
}

#[test]
fn members_api_requires_cluster_mode() {
    let (addr, handle) = start(ServerConfig { workers: 0, ..ServerConfig::default() });
    let reply = get(addr, "/v1/members");
    assert_eq!(reply.status, 409, "{}", reply.text());
    let reply = post(addr, "/v1/members?addr=127.0.0.1:1", &[]);
    assert_eq!(reply.status, 409, "{}", reply.text());
    shutdown(addr, handle);
}
