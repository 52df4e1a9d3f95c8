//! Loopback cluster integration: shard-boundary determinism, dead-worker
//! re-dispatch, and cancellation fan-out — all in-process (real sockets,
//! no child processes; process-crash chaos lives in the root `cluster_e2e`
//! test, which can afford to lose a worker process).

mod support;

use std::net::TcpListener;
use std::time::{Duration, Instant};

use ilt_cluster::transport::request;
use ilt_cluster::{
    BreakerConfig, ClusterConfig, Coordinator, ExecPolicy, Histogram, JobParams, Request,
    Response,
};
use ilt_field::pgm_bytes;
use ilt_runtime::{
    assemble_batch, planned_job_list, run_batch, FaultPlan, JobStatus, SimulatorCache,
};
use support::{shutdown, spawn_proxy, spawn_worker, Damage};

/// Observations in `histogram`, read off its rendered `_count` line.
fn observations(histogram: &Histogram) -> u64 {
    let mut text = String::new();
    histogram.render("h", "s", &mut text);
    let count = text.lines().last().and_then(|line| line.rsplit(' ').next());
    count.and_then(|n| n.parse().ok()).expect("a _count line")
}

/// A replica that accepts every connection and never writes a byte. It
/// holds the streams open, so shard exchanges and `/healthz` probes alike
/// hang until the coordinator gives up on them.
fn spawn_black_hole() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind black hole");
    let addr = listener.local_addr().expect("addr").to_string();
    std::thread::spawn(move || {
        let mut held = Vec::new();
        for stream in listener.incoming() {
            held.extend(stream);
        }
    });
    addr
}

/// A replica that speaks just enough of the protocol to look alive:
/// `/healthz` answers 200 and `DELETE /v1/shards/{sid}` 202. A shard
/// `POST` is refused with `post_status`, or held open and never answered
/// when that is `None`.
fn spawn_fake_replica(post_status: Option<u16>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake replica");
    let addr = listener.local_addr().expect("addr").to_string();
    std::thread::spawn(move || {
        let mut held = Vec::new();
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let read = Request::read_from_buffered(&mut stream, &mut Vec::new());
            let Ok((req, _)) = read else { continue };
            let response = match (req.method.as_str(), post_status) {
                ("POST", Some(status)) => Response::error(status, "shard is already running"),
                ("POST", None) => {
                    held.push(stream);
                    continue;
                }
                ("DELETE", _) => Response::json(202, "{\"cancelling\":true}"),
                _ => Response::text(200, "ok\n"),
            };
            let _ = response.write_to(&mut stream);
        }
    });
    addr
}

/// A small multi-tile job: 128 px via clip split into 64 px tiles with an
/// 8 px halo, 2 iterations — enough tiles to shard three ways, small
/// enough to run in seconds.
fn tiny_params() -> JobParams {
    JobParams::from_saved(
        "via=7&grid=128&kernels=3&tile=64&halo=8&iters=2&threads=1&eval=0",
        Vec::new(),
        &ExecPolicy::default(),
    )
    .expect("valid params")
}

#[test]
fn sharded_masks_are_byte_identical_across_worker_counts() {
    let params = tiny_params();
    let (case, config) = params.plan().expect("plan");
    let query = params.to_query();

    // Reference: the single-process batch engine.
    let cache = SimulatorCache::new();
    let reference = run_batch(std::slice::from_ref(&case), &config, &cache)
        .expect("local batch");
    let reference_pgm = pgm_bytes(&reference.cases[0].mask, 0.0, 1.0);

    let plan = planned_job_list(std::slice::from_ref(&case), &config).expect("plan list");
    assert!(plan.len() >= 3, "need enough tiles to shard: got {}", plan.len());

    for replicas in [1usize, 2, 3] {
        let workers: Vec<_> =
            (0..replicas).map(|_| spawn_worker(FaultPlan::none())).collect();
        let coordinator = Coordinator::new(ClusterConfig {
            workers: workers.iter().map(|(addr, _)| addr.clone()).collect(),
            ..ClusterConfig::default()
        })
        .expect("coordinator");
        let outputs = coordinator
            .run_job(1, &query, &[], &plan, &config.cancel, &config.progress)
            .expect("clustered run");
        let outcome = assemble_batch(
            std::slice::from_ref(&case),
            &config,
            outputs,
            &cache,
            0.0,
        )
        .expect("assemble");
        assert_eq!(outcome.cases[0].failed_tiles, 0, "{replicas} replica(s)");
        assert_eq!(
            pgm_bytes(&outcome.cases[0].mask, 0.0, 1.0),
            reference_pgm,
            "{replicas}-replica mask must be byte-identical to ilt batch"
        );
        for (addr, handle) in workers {
            shutdown(&addr);
            handle.join().expect("worker thread");
        }
    }
}

#[test]
fn dead_worker_shards_are_redispatched_to_survivors() {
    let params = tiny_params();
    let (case, config) = params.plan().expect("plan");
    let query = params.to_query();
    let cache = SimulatorCache::new();
    let reference = run_batch(std::slice::from_ref(&case), &config, &cache)
        .expect("local batch");
    let reference_pgm = pgm_bytes(&reference.cases[0].mask, 0.0, 1.0);
    let plan = planned_job_list(std::slice::from_ref(&case), &config).expect("plan list");

    // A port that was bound and released: connecting gets refused, which is
    // exactly what a crashed worker looks like to the coordinator.
    let dead_addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("probe port");
        listener.local_addr().expect("addr").to_string()
    };
    let (live_addr, handle) = spawn_worker(FaultPlan::none());

    // The dead replica is first in the roster, so it takes the first
    // dispatches before its probes can bury it.
    let coordinator = Coordinator::new(ClusterConfig {
        workers: vec![dead_addr.clone(), live_addr.clone()],
        ..ClusterConfig::default()
    })
    .expect("coordinator");
    let outputs = coordinator
        .run_job(1, &query, &[], &plan, &config.cancel, &config.progress)
        .expect("clustered run despite a dead replica");
    let outcome =
        assemble_batch(std::slice::from_ref(&case), &config, outputs, &cache, 0.0)
            .expect("assemble");
    assert_eq!(outcome.cases[0].failed_tiles, 0);
    assert_eq!(
        pgm_bytes(&outcome.cases[0].mask, 0.0, 1.0),
        reference_pgm,
        "re-dispatched shards must not change the mask"
    );
    assert!(
        coordinator.stats().shards_redispatched.get() >= 1,
        "the dead replica's shard must be re-dispatched"
    );
    let dead = || {
        let views = coordinator.member_views();
        views.into_iter().find(|view| view.addr == dead_addr).expect("dead member")
    };
    assert_eq!(dead().completed, 0, "the refusing replica completes nothing");
    // Its refused shards fed only its breaker; its probes bury it.
    let buried = Instant::now();
    while dead().alive {
        assert!(buried.elapsed() < Duration::from_secs(10), "the probes never buried it");
        std::thread::sleep(Duration::from_millis(10));
    }
    shutdown(&live_addr);
    handle.join().expect("worker thread");
}

#[test]
fn healthy_cluster_under_contention_counts_no_redispatch() {
    let params = tiny_params();
    let (case, config) = params.plan().expect("plan");
    let query = params.to_query();
    let plan = planned_job_list(std::slice::from_ref(&case), &config).expect("plan list");

    // Two jobs × 4 shards over 2 workers × 2 slots: least-loaded
    // scheduling must queue shards and place them wherever a slot frees
    // up. No attempt fails, so nothing is re-dispatched.
    let workers: Vec<_> = (0..2).map(|_| spawn_worker(FaultPlan::none())).collect();
    let coordinator = Coordinator::new(ClusterConfig {
        workers: workers.iter().map(|(addr, _)| addr.clone()).collect(),
        max_inflight_per_worker: 2,
        speculate_factor: 0.0,
        ..ClusterConfig::default()
    })
    .expect("coordinator");
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for job_id in [1, 2] {
            let (coordinator, start, query, plan) = (&coordinator, &start, &query, &plan);
            let (cancel, progress) = (&config.cancel, &config.progress);
            scope.spawn(move || {
                start.wait();
                let outputs = coordinator
                    .run_job(job_id, query, &[], plan, cancel, progress)
                    .expect("clustered run");
                assert!(outputs.iter().all(|o| o.record.status == JobStatus::Done));
            });
        }
    });
    let views = coordinator.member_views();
    assert!(views.iter().all(|v| v.completed >= 1), "both replicas took shards");
    assert_eq!(
        coordinator.stats().shards_redispatched.get(),
        0,
        "first dispatches are not re-dispatches, wherever they land"
    );
    assert_eq!(coordinator.stats().heartbeat_failures.get(), 0);

    for (addr, handle) in workers {
        shutdown(&addr);
        handle.join().expect("worker thread");
    }
}

#[test]
fn cancellation_fans_out_to_workers() {
    let params = tiny_params();
    let (case, config) = params.plan().expect("plan");
    let query = params.to_query();
    let plan = planned_job_list(std::slice::from_ref(&case), &config).expect("plan list");

    // The worker stalls its first tile for 30 s; the coordinator-side
    // cancel must cut the shard short long before that budget elapses.
    let faults = FaultPlan::parse("delay@0:1=30000").expect("fault plan");
    let (addr, handle) = spawn_worker(faults);
    let coordinator = Coordinator::new(ClusterConfig {
        workers: vec![addr.clone()],
        heartbeat: Duration::from_millis(50),
        cancel_grace: Duration::from_secs(3),
        ..ClusterConfig::default()
    })
    .expect("coordinator");

    let started = std::time::Instant::now();
    let outputs = std::thread::scope(|scope| {
        scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(300));
            config.cancel.cancel();
            coordinator.wake();
        });
        coordinator.run_job(1, &query, &[], &plan, &config.cancel, &config.progress)
    })
    .expect("cancelled run still merges");
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "cancellation must cut the 30 s stall short"
    );
    assert_eq!(outputs.len(), plan.len(), "every planned job gets a record");
    assert!(
        outputs.iter().any(|o| o.record.status == JobStatus::Cancelled),
        "cancellation must reach the worker's tiles"
    );
    shutdown(&addr);
    handle.join().expect("worker thread");
}

#[test]
fn quarantine_stops_dispatches_while_heartbeats_still_pass() {
    let params = tiny_params();
    let (case, config) = params.plan().expect("plan");
    let query = params.to_query();
    let cache = SimulatorCache::new();
    let reference = run_batch(std::slice::from_ref(&case), &config, &cache).expect("local batch");
    let reference_pgm = pgm_bytes(&reference.cases[0].mask, 0.0, 1.0);
    let plan = planned_job_list(std::slice::from_ref(&case), &config).expect("plan list");

    // Replica A's link refuses every shard dispatch but passes /healthz:
    // the flaky-but-alive regime heartbeats cannot catch. B is healthy.
    let (flaky_worker, flaky_handle) = spawn_worker(FaultPlan::none());
    let flaky = spawn_proxy(&flaky_worker, |_, _, _| Damage::Refuse);
    let (clean, clean_handle) = spawn_worker(FaultPlan::none());
    let coordinator = Coordinator::new(ClusterConfig {
        workers: vec![flaky.clone(), clean.clone()],
        heartbeat: Duration::from_millis(50),
        breaker: BreakerConfig {
            threshold: 1,
            base: Duration::from_secs(60),
            cap: Duration::from_secs(60),
            ..BreakerConfig::default()
        },
        ..ClusterConfig::default()
    })
    .expect("coordinator");

    let outputs = coordinator
        .run_job(1, &query, &[], &plan, &config.cancel, &config.progress)
        .expect("clustered run despite a quarantined replica");
    let outcome = assemble_batch(std::slice::from_ref(&case), &config, outputs, &cache, 0.0)
        .expect("assemble");
    assert_eq!(outcome.cases[0].failed_tiles, 0);
    assert_eq!(
        pgm_bytes(&outcome.cases[0].mask, 0.0, 1.0),
        reference_pgm,
        "quarantine re-routing must not change the mask"
    );

    let views = coordinator.member_views();
    let flaky_view = views.iter().find(|v| v.addr == flaky).expect("flaky member");
    let clean_view = views.iter().find(|v| v.addr == clean).expect("clean member");
    assert_eq!(flaky_view.breaker, "open", "one refusal must open the breaker");
    assert_eq!(flaky_view.completed, 0, "no shard ever completes on the flaky replica");
    assert!(
        flaky_view.dispatches >= 1 && flaky_view.dispatches <= 2,
        "breaker must stop dispatches after the initial concurrent window, got {}",
        flaky_view.dispatches
    );
    assert!(clean_view.completed >= 4, "every shard lands on the healthy replica");
    assert!(coordinator.stats().shards_redispatched.get() >= 1);
    let mut metrics = String::new();
    coordinator.render_metrics(&mut metrics);
    assert!(
        metrics.contains(&format!("ilt_worker_breaker_state{{worker=\"{flaky}\"}} 2")),
        "{metrics}"
    );
    // The quarantined replica still passes heartbeats: alive, just unused.
    assert!(flaky_view.alive, "quarantine is not death");

    shutdown(&flaky_worker);
    shutdown(&clean);
    flaky_handle.join().expect("worker thread");
    clean_handle.join().expect("worker thread");
}

#[test]
fn open_breaker_re_earns_trust_through_half_open_probes() {
    let params = tiny_params();
    let (case, config) = params.plan().expect("plan");
    let query = params.to_query();
    let cache = SimulatorCache::new();
    let reference = run_batch(std::slice::from_ref(&case), &config, &cache).expect("local batch");
    let reference_pgm = pgm_bytes(&reference.cases[0].mask, 0.0, 1.0);
    let plan = planned_job_list(std::slice::from_ref(&case), &config).expect("plan list");

    // The only replica's link refuses the FIRST dispatch of every shard
    // (the proxy's per-shard counter), then behaves, and passes every
    // probe. The job can only finish if the open breaker admits
    // half-open probes and the succeeding probes close it again. Run once
    // with a 40 ms backoff, and once as a served job is configured: there,
    // three refusals in a row open the breaker, and must not bury a
    // replica whose probes pass, or most of the job's tiles are lost.
    let fast = ClusterConfig {
        heartbeat: Duration::from_millis(50),
        breaker: BreakerConfig {
            threshold: 1,
            base: Duration::from_millis(40),
            cap: Duration::from_millis(40),
            ..BreakerConfig::default()
        },
        ..ClusterConfig::default()
    };
    for (run, base) in [("40 ms backoff", fast), ("defaults", ClusterConfig::default())] {
        let (worker, handle) = spawn_worker(FaultPlan::none());
        let addr =
            spawn_proxy(&worker, |_, _, nth| if nth == 1 { Damage::Refuse } else { Damage::Pass });
        let coordinator = Coordinator::new(ClusterConfig { workers: vec![addr], ..base })
            .expect("coordinator");

        let outputs = coordinator
            .run_job(1, &query, &[], &plan, &config.cancel, &config.progress)
            .expect("half-open probes must let the job finish");
        let outcome =
            assemble_batch(std::slice::from_ref(&case), &config, outputs, &cache, 0.0)
                .expect("assemble");
        assert_eq!(outcome.cases[0].failed_tiles, 0, "{run}");
        assert!(pgm_bytes(&outcome.cases[0].mask, 0.0, 1.0) == reference_pgm, "{run}");
        let view = &coordinator.member_views()[0];
        assert_eq!(view.breaker, "closed", "{run}: successful probes re-earn a closed breaker");
        assert!(view.alive, "{run}: refused shards are not failed probes");
        assert!(view.completed >= 4, "{run}: every shard eventually completes here");
        assert!(
            coordinator.stats().shards_redispatched.get() >= plan.len().min(4) as u64,
            "{run}: each shard's refused first attempt forces a re-dispatch"
        );

        shutdown(&worker);
        handle.join().expect("worker thread");
    }
}

#[test]
fn late_joining_worker_picks_up_queued_shards_mid_job() {
    let params = tiny_params();
    let (case, config) = params.plan().expect("plan");
    let query = params.to_query();
    let cache = SimulatorCache::new();
    let reference = run_batch(std::slice::from_ref(&case), &config, &cache).expect("local batch");
    let reference_pgm = pgm_bytes(&reference.cases[0].mask, 0.0, 1.0);
    let plan = planned_job_list(std::slice::from_ref(&case), &config).expect("plan list");

    // One worker, serialized (max_inflight 1): the 4-way shard split
    // leaves shards queued, which is what the late joiner picks up.
    let (first, first_handle) = spawn_worker(FaultPlan::none());
    let coordinator = std::sync::Arc::new(
        Coordinator::new(ClusterConfig {
            workers: vec![first.clone()],
            heartbeat: Duration::from_millis(50),
            max_inflight_per_worker: 1,
            ..ClusterConfig::default()
        })
        .expect("coordinator"),
    );

    let runner = {
        let coordinator = std::sync::Arc::clone(&coordinator);
        let query = query.clone();
        let plan = plan.clone();
        let cancel = config.cancel.clone();
        let progress = config.progress.clone();
        std::thread::spawn(move || coordinator.run_job(1, &query, &[], &plan, &cancel, &progress))
    };
    // Wait until at least one shard finished (so the job is provably mid
    // flight), then register the second replica.
    let started = std::time::Instant::now();
    while observations(&coordinator.stats().shard_ms) < 1 {
        assert!(started.elapsed() < Duration::from_secs(60), "first shard never finished");
        std::thread::sleep(Duration::from_millis(2));
    }
    let (late, late_handle) = spawn_worker(FaultPlan::none());
    assert!(coordinator.join(&late), "join is accepted mid-job");

    let outputs = runner.join().expect("runner").expect("clustered run");
    let outcome = assemble_batch(std::slice::from_ref(&case), &config, outputs, &cache, 0.0)
        .expect("assemble");
    assert_eq!(outcome.cases[0].failed_tiles, 0);
    assert_eq!(
        pgm_bytes(&outcome.cases[0].mask, 0.0, 1.0),
        reference_pgm,
        "a mid-job join must not change the mask"
    );
    let views = coordinator.member_views();
    let late_view = views.iter().find(|v| v.addr == late).expect("late member");
    assert!(
        late_view.completed >= 1,
        "the late joiner must execute at least one queued shard"
    );
    assert_eq!(coordinator.stats().members_joined.get(), 2);

    shutdown(&first);
    shutdown(&late);
    first_handle.join().expect("worker thread");
    late_handle.join().expect("worker thread");
}

#[test]
fn lost_shard_records_carry_the_full_attempt_history() {
    let params = tiny_params();
    let (case, config) = params.plan().expect("plan");
    let query = params.to_query();
    let plan = planned_job_list(std::slice::from_ref(&case), &config).expect("plan list");

    // Every dispatch is refused and the breaker never opens (threshold
    // 1000), so each shard burns its full attempt budget on the same
    // replica and the synthesized failure must tell that story.
    let (worker, handle) = spawn_worker(FaultPlan::none());
    let addr = spawn_proxy(&worker, |_, _, _| Damage::Refuse);
    let coordinator = Coordinator::new(ClusterConfig {
        workers: vec![addr.clone()],
        heartbeat: Duration::from_millis(50),
        breaker: BreakerConfig { threshold: 1000, ..BreakerConfig::default() },
        ..ClusterConfig::default()
    })
    .expect("coordinator");

    let outputs = coordinator
        .run_job(1, &query, &[], &plan, &config.cancel, &config.progress)
        .expect("lost shards synthesize records, not errors");
    assert_eq!(outputs.len(), plan.len());
    for output in &outputs {
        let JobStatus::Failed(reason) = &output.record.status else {
            panic!("expected every record failed, got {:?}", output.record.status);
        };
        assert!(reason.contains("shard lost"), "{reason}");
        // One member: the budget is `max(4, 2 × 1)`.
        assert!(reason.contains("gave up after 4 dispatch attempts"), "{reason}");
        for attempt in 1..=4 {
            assert!(reason.contains(&format!("attempt {attempt} on {addr}")), "{reason}");
        }
        assert!(reason.contains("ms)"), "per-attempt elapsed time: {reason}");
    }

    shutdown(&worker);
    handle.join().expect("worker thread");
}

#[test]
fn a_replica_that_never_answers_is_declared_dead_and_its_shards_move() {
    let params = tiny_params();
    let (case, config) = params.plan().expect("plan");
    let query = params.to_query();
    let cache = SimulatorCache::new();
    let reference = run_batch(std::slice::from_ref(&case), &config, &cache).expect("local batch");
    let reference_pgm = pgm_bytes(&reference.cases[0].mask, 0.0, 1.0);
    let plan = planned_job_list(std::slice::from_ref(&case), &config).expect("plan list");

    // The black holes are first in the roster, so they take shards; their
    // exchanges never end on their own. Only the death verdicts (three
    // probes that time out) can move them to the healthy replica. The two
    // holes are probed side by side: three rounds of one 2 s timeout each,
    // not of two.
    let (live, handle) = spawn_worker(FaultPlan::none());
    let coordinator = Coordinator::new(ClusterConfig {
        workers: vec![spawn_black_hole(), spawn_black_hole(), live.clone()],
        heartbeat: Duration::from_millis(50),
        // A speculative copy could rescue the shards before the verdict.
        speculate_factor: 0.0,
        ..ClusterConfig::default()
    })
    .expect("coordinator");

    let started = Instant::now();
    let outputs = coordinator
        .run_job(1, &query, &[], &plan, &config.cancel, &config.progress)
        .expect("clustered run despite two silent replicas");
    assert!(started.elapsed() < Duration::from_secs(10), "took {:?}", started.elapsed());
    assert!(outputs.iter().all(|o| o.record.status == JobStatus::Done));
    let outcome = assemble_batch(std::slice::from_ref(&case), &config, outputs, &cache, 0.0)
        .expect("assemble");
    assert!(
        pgm_bytes(&outcome.cases[0].mask, 0.0, 1.0) == reference_pgm,
        "shards moved off a dead replica must not change the mask"
    );
    assert!(coordinator.stats().shards_redispatched.get() >= 1);
    assert_eq!(coordinator.member_views().iter().filter(|view| view.alive).count(), 1);

    shutdown(&live);
    handle.join().expect("worker thread");
}

#[test]
fn a_cancel_the_worker_never_acknowledges_ends_after_the_grace() {
    let params = tiny_params();
    let (case, config) = params.plan().expect("plan");
    let query = params.to_query();
    let plan = planned_job_list(std::slice::from_ref(&case), &config).expect("plan list");

    // The replica acks the DELETE but never answers the dispatch: only the
    // cancel grace can end the in-flight exchanges.
    let deaf = spawn_fake_replica(None);
    let coordinator = Coordinator::new(ClusterConfig {
        workers: vec![deaf],
        heartbeat: Duration::from_millis(50),
        cancel_grace: Duration::from_millis(300),
        ..ClusterConfig::default()
    })
    .expect("coordinator");

    let started = Instant::now();
    let outputs = std::thread::scope(|scope| {
        scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(200));
            config.cancel.cancel();
            coordinator.wake();
        });
        coordinator.run_job(1, &query, &[], &plan, &config.cancel, &config.progress)
    })
    .expect("a cancelled run still merges");
    assert!(started.elapsed() < Duration::from_secs(5), "took {:?}", started.elapsed());
    assert_eq!(outputs.len(), plan.len(), "every planned job gets a record");
    for output in &outputs {
        assert_eq!(output.record.status, JobStatus::Cancelled, "job {}", output.record.job_id);
    }
}

#[test]
fn a_409_refusal_is_retried_on_another_replica() {
    let params = tiny_params();
    let (case, config) = params.plan().expect("plan");
    let query = params.to_query();
    let cache = SimulatorCache::new();
    let reference = run_batch(std::slice::from_ref(&case), &config, &cache).expect("local batch");
    let reference_pgm = pgm_bytes(&reference.cases[0].mask, 0.0, 1.0);
    let plan = planned_job_list(std::slice::from_ref(&case), &config).expect("plan list");

    // `409 shard already running` is what a worker says while it still
    // computes a shard the coordinator stopped listening to: a fact about
    // that replica, not about the shard.
    let busy = spawn_fake_replica(Some(409));
    let (live, handle) = spawn_worker(FaultPlan::none());
    let coordinator = Coordinator::new(ClusterConfig {
        workers: vec![busy, live.clone()],
        heartbeat: Duration::from_millis(50),
        // The first refusal quarantines the replica for the whole test, so
        // no shard is refused twice.
        breaker: BreakerConfig {
            threshold: 1,
            base: Duration::from_secs(60),
            cap: Duration::from_secs(60),
            ..BreakerConfig::default()
        },
        ..ClusterConfig::default()
    })
    .expect("coordinator");

    let outputs = coordinator
        .run_job(1, &query, &[], &plan, &config.cancel, &config.progress)
        .expect("clustered run");
    for output in &outputs {
        assert_eq!(output.record.status, JobStatus::Done, "job {}", output.record.job_id);
    }
    let outcome = assemble_batch(std::slice::from_ref(&case), &config, outputs, &cache, 0.0)
        .expect("assemble");
    assert!(
        pgm_bytes(&outcome.cases[0].mask, 0.0, 1.0) == reference_pgm,
        "a refused shard re-run elsewhere must not change the mask"
    );
    assert!(coordinator.stats().shards_redispatched.get() >= 1);

    shutdown(&live);
    handle.join().expect("worker thread");
}

/// Crop is the one seam policy. `seam=crop` survives a save byte for byte;
/// any other value is the decoder's typed refusal naming crop, and a worker
/// answers a shard query that carries one (from a coordinator that still
/// wrote `seam=blend:K`) with `400` and that message, running nothing.
#[test]
fn crop_is_the_only_seam() {
    let policy = ExecPolicy::default();
    let saved = JobParams::from_saved("via=3&grid=64&seam=crop", Vec::new(), &policy)
        .expect("crop decodes")
        .to_query();
    assert!(saved.contains("&seam=crop&"), "{saved}");
    let back = JobParams::from_saved(&saved, Vec::new(), &policy).expect("saved decodes");
    assert_eq!(back.to_query(), saved);
    for raw in ["blend:4", "blend", "", "CROP"] {
        let query = format!("via=3&grid=64&seam={raw}");
        let err = JobParams::from_saved(&query, Vec::new(), &policy).unwrap_err();
        assert_eq!(err, format!("bad seam={raw:?} (only crop)"));
    }

    let (addr, handle) = spawn_worker(FaultPlan::none());
    let path = "/v1/shards?shard=0-0&jobs=0&via=3&grid=64&kernels=3&iters=1&seam=blend:4";
    let (status, body) =
        request(&addr, "POST", path, &[], Duration::from_secs(10)).expect("worker answers");
    let body = String::from_utf8_lossy(&body);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("(only crop)"), "{body}");
    shutdown(&addr);
    handle.join().expect("worker thread");
}

/// A job description never carries a fault plan, so a dispatch with
/// `inject=` is refused with `400` and runs nothing, and the refusal names
/// the remedy a worker does have: the only plan a replica runs is its own
/// `--inject`.
#[test]
fn a_dispatch_that_carries_inject_is_refused() {
    let (addr, handle) = spawn_worker(FaultPlan::none());
    let path = "/v1/shards?shard=0-0&jobs=0&via=3&grid=64&kernels=3&iters=1&inject=nan@0";
    let (status, body) =
        request(&addr, "POST", path, &[], Duration::from_secs(10)).expect("worker answers");
    let body = String::from_utf8_lossy(&body);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("inject= is not a job setting; give the process --inject"), "{body}");
    shutdown(&addr);
    handle.join().expect("worker thread");
}
