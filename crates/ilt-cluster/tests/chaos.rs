//! Network-fault chaos: the loopback cluster with its shard replies
//! damaged on the wire by a test proxy in front of honest workers. The
//! standing invariant — for any fault schedule that leaves at least one
//! worker able to make progress, the clustered mask is byte-identical to a
//! single-process `ilt batch` run; and when a speculation race surfaces two
//! *disagreeing* results, the job fails hard rather than emit a
//! possibly-wrong mask.

mod support;

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use ilt_cluster::transport::{serve_connection, ConnOptions, Request, Response};
use ilt_cluster::wire::{parse_job_ids, shard_header_line, shard_job_line, ShardHeader};
use ilt_cluster::{BreakerConfig, ClusterConfig, Coordinator, ExecPolicy, Histogram, JobParams};
use ilt_field::pgm_bytes;
use ilt_runtime::{
    assemble_batch, planned_job_list, run_batch, FaultPlan, JobOutput, JobRecord, JobStatus,
    SimulatorCache, StageTimes,
};
use support::{shutdown, spawn_proxy, spawn_worker, Damage};

/// Observations in `histogram`, read off its rendered `_count` line.
fn observations(histogram: &Histogram) -> u64 {
    let mut text = String::new();
    histogram.render("h", "s", &mut text);
    let count = text.lines().last().and_then(|line| line.rsplit(' ').next());
    count.and_then(|n| n.parse().ok()).expect("a _count line")
}

fn tiny_params() -> JobParams {
    JobParams::from_saved(
        "via=7&grid=128&kernels=3&tile=64&halo=8&iters=2&threads=1&eval=0",
        Vec::new(),
        &ExecPolicy::default(),
    )
    .expect("valid params")
}

#[test]
fn transport_chaos_with_a_live_worker_is_byte_identical() {
    let params = tiny_params();
    let (case, config) = params.plan().expect("plan");
    let query = params.to_query();
    let cache = SimulatorCache::new();
    let reference = run_batch(std::slice::from_ref(&case), &config, &cache).expect("local batch");
    let reference_pgm = pgm_bytes(&reference.cases[0].mask, 0.0, 1.0);
    let plan = planned_job_list(std::slice::from_ref(&case), &config).expect("plan list");

    // Every replica's link damages the FIRST dispatch of whatever shard
    // carries these jobs: a garbled body (hash-verified away), a torn
    // response (short read), and a stalled one (slow but intact). Second
    // attempts are clean — the flaky-network regime where every /healthz
    // passes.
    let chaos = |_: &str, jobs: &[usize], nth: u32| {
        let first_carrying = |job| nth == 1 && jobs.contains(&job);
        if first_carrying(0) {
            Damage::Garble
        } else if first_carrying(1) {
            Damage::Tear
        } else if first_carrying(2) {
            Damage::Stall(150)
        } else {
            Damage::Pass
        }
    };
    let replicas: Vec<_> = (0..3).map(|_| spawn_worker(FaultPlan::none())).collect();
    let [a, b, c] = [0, 1, 2].map(|i| spawn_proxy(&replicas[i].0, chaos));
    let coordinator = Coordinator::new(ClusterConfig {
        workers: vec![a, b],
        heartbeat: Duration::from_millis(50),
        // Pure transport chaos: keep the breaker out of the picture so the
        // assert pins the retry path, not the quarantine path.
        breaker: BreakerConfig { threshold: 1000, ..BreakerConfig::default() },
        speculate_factor: 0.0,
        ..ClusterConfig::default()
    })
    .expect("coordinator");
    assert!(coordinator.join(&c), "third replica joins before the run");

    let outputs = coordinator
        .run_job(1, &query, &[], &plan, &config.cancel, &config.progress)
        .expect("chaos run completes");
    assert!(
        outputs.iter().all(|o| o.record.status == JobStatus::Done),
        "every tile must survive the chaos"
    );
    let outcome = assemble_batch(std::slice::from_ref(&case), &config, outputs, &cache, 0.0)
        .expect("assemble");
    assert_eq!(outcome.cases[0].failed_tiles, 0);
    assert_eq!(
        pgm_bytes(&outcome.cases[0].mask, 0.0, 1.0),
        reference_pgm,
        "garbled/torn/stalled responses must never reach the mask"
    );
    assert!(
        coordinator.stats().shards_redispatched.get() >= 2,
        "garble and torn_response each force a re-dispatch"
    );
    assert_eq!(coordinator.stats().members_joined.get(), 3);

    for (addr, handle) in replicas {
        shutdown(&addr);
        handle.join().expect("worker thread");
    }
}

#[test]
fn stragglers_are_speculated_and_the_fast_copy_wins() {
    let params = tiny_params();
    let (case, config) = params.plan().expect("plan");
    let query = params.to_query();
    let cache = SimulatorCache::new();
    let reference = run_batch(std::slice::from_ref(&case), &config, &cache).expect("local batch");
    let reference_pgm = pgm_bytes(&reference.cases[0].mask, 0.0, 1.0);
    let plan = planned_job_list(std::slice::from_ref(&case), &config).expect("plan list");

    // Replica A's link stalls every shard response for 2.5 s (A computes
    // fine, the network is molasses); B is healthy. A's shards must be
    // speculated onto B and B's copies must win.
    let (slow_worker, slow_handle) = spawn_worker(FaultPlan::none());
    let slow = spawn_proxy(&slow_worker, |_, _, _| Damage::Stall(2500));
    let (fast, fast_handle) = spawn_worker(FaultPlan::none());
    let coordinator = Coordinator::new(ClusterConfig {
        workers: vec![slow.clone(), fast.clone()],
        heartbeat: Duration::from_millis(50),
        speculate_factor: 1.5,
        speculate_min_samples: 1,
        // Losers stuck in the stall get cut short quickly.
        cancel_grace: Duration::from_secs(1),
        ..ClusterConfig::default()
    })
    .expect("coordinator");

    let outputs = coordinator
        .run_job(1, &query, &[], &plan, &config.cancel, &config.progress)
        .expect("speculated run completes");
    assert!(outputs.iter().all(|o| o.record.status == JobStatus::Done));
    let outcome = assemble_batch(std::slice::from_ref(&case), &config, outputs, &cache, 0.0)
        .expect("assemble");
    assert_eq!(outcome.cases[0].failed_tiles, 0);
    assert_eq!(
        pgm_bytes(&outcome.cases[0].mask, 0.0, 1.0),
        reference_pgm,
        "speculation must not change the mask"
    );
    assert!(
        coordinator.stats().shards_speculated.get() >= 1,
        "the stalled replica's shards must be speculated"
    );
    assert!(
        coordinator.stats().speculation_wins.get() >= 1,
        "the healthy copy must win at least one race"
    );

    shutdown(&slow_worker);
    shutdown(&fast);
    slow_handle.join().expect("worker thread");
    fast_handle.join().expect("worker thread");
}

/// A worker-shaped liar: speaks the shard wire protocol fluently and
/// instantly, but fabricates its results (failed records under a bogus
/// configuration fingerprint). Self-consistent enough to parse cleanly —
/// only the speculation agreement check can catch it.
fn spawn_lying_worker() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind liar");
    let addr = listener.local_addr().expect("addr").to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            std::thread::spawn(move || {
                serve_connection(stream, &ConnOptions::default(), lie, || true);
            });
        }
    });
    addr
}

fn lie(req: &Request) -> Response {
    if req.method == "GET" && req.path.ends_with("healthz") {
        return Response::text(200, "ok\n");
    }
    if req.method == "DELETE" {
        return Response::json(202, "{\"cancelling\":true}");
    }
    let sid = req.query_param("shard").unwrap_or("?").to_string();
    let ids = req.query_param("jobs").and_then(|raw| parse_job_ids(raw).ok()).unwrap_or_default();
    let header = ShardHeader {
        shard: sid,
        jobs: ids.len(),
        // Not the fingerprint any honest replica would compute.
        fingerprint: 0xbad0_bad0_bad0_bad0,
    };
    let mut body = shard_header_line(&header);
    body.push('\n');
    for id in ids {
        let fake = JobOutput {
            record: JobRecord {
                job_id: id,
                case: "via-7".into(),
                tile: None,
                grid: 128,
                attempts: 1,
                status: JobStatus::Failed("fabricated".into()),
                metrics: None,
                times: StageTimes::default(),
                wall_ms: 0.1,
            },
            mask: None,
        };
        body.push_str(&shard_job_line(&fake));
        body.push('\n');
    }
    Response::jsonl(200, body)
}

#[test]
fn disagreeing_speculation_results_fail_the_job_hard() {
    let params = tiny_params();
    let (case, config) = params.plan().expect("plan");
    let query = params.to_query();
    let plan = planned_job_list(std::slice::from_ref(&case), &config).expect("plan list");

    // The honest replica computes everything, but its link stalls the
    // response of whatever shard carries job 0 for 4 s — long enough to
    // look like a straggler once the other shards' latencies set the median.
    let (honest_worker, honest_handle) = spawn_worker(FaultPlan::none());
    let honest = spawn_proxy(&honest_worker, |_, jobs, _| {
        if jobs.contains(&0) { Damage::Stall(4000) } else { Damage::Pass }
    });
    let coordinator = Arc::new(
        Coordinator::new(ClusterConfig {
            workers: vec![honest.clone()],
            heartbeat: Duration::from_millis(50),
            // All shards go to the honest replica concurrently, so the
            // liar (joining mid-job) can only ever receive a speculative
            // copy — the worst case for catching it.
            max_inflight_per_worker: 8,
            speculate_factor: 2.0,
            speculate_min_samples: 1,
            // Generous grace: the straggling loser must get to deliver its
            // honest result so the agreement check can run.
            cancel_grace: Duration::from_secs(20),
            ..ClusterConfig::default()
        })
        .expect("coordinator"),
    );

    let runner = {
        let coordinator = Arc::clone(&coordinator);
        let query = query.clone();
        let plan = plan.clone();
        let cancel = config.cancel.clone();
        let progress = config.progress.clone();
        std::thread::spawn(move || coordinator.run_job(1, &query, &[], &plan, &cancel, &progress))
    };
    // Let the fast shards finish (establishing the latency median), then
    // present the liar as a fresh replica.
    let started = std::time::Instant::now();
    while observations(&coordinator.stats().shard_ms) < 3 {
        assert!(started.elapsed() < Duration::from_secs(60), "fast shards never finished");
        std::thread::sleep(Duration::from_millis(2));
    }
    let liar = spawn_lying_worker();
    assert!(coordinator.join(&liar));

    let err = runner
        .join()
        .expect("runner")
        .expect_err("a fabricated speculative result must fail the job, not merge");
    assert!(err.contains("disagreement"), "{err}");
    assert!(err.contains("fingerprint"), "{err}");
    assert!(
        coordinator.stats().shards_speculated.get() >= 1,
        "the liar must have been engaged via speculation"
    );

    shutdown(&honest_worker);
    honest_handle.join().expect("worker thread");
}
