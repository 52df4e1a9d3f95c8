//! Multi-tenant admission suite: seeded property-style fuzzing of the
//! quota accounting, a concurrent cancel-race reconciliation check, the
//! weighted-priority starvation bound, per-client 429 quota breaches over
//! real HTTP, and mask re-hydration (including corruption and restart
//! legs) — all built on the shared loopback helpers of `util`.

use std::sync::Arc;
use std::time::Duration;

use ilt_layouts::Xorshift64Star;
use ilt_runtime::{field_hash, FaultPlan};
use ilt_server::{
    Admission, CancelOutcome, ExecPolicy, JobDone, JobParams, JobStore, PriorityClass,
    ServerConfig, SubmitError,
};
use util::{
    fast_params, get, job_id, post, post_with_headers, shutdown, start, tiny_pgm, tiny_target,
    wait_for_state, FAST_JOB,
};

mod util;

/// The description every fuzz submission shares.
fn fast_work() -> JobParams {
    fast_params(util::tiny_target())
}

/// A successful outcome for a store-level job (1 tile, tiny mask).
fn done() -> JobDone {
    let mask = tiny_target().threshold(0.5);
    JobDone {
        mask_hash: field_hash(&mask),
        mask: Some(mask),
        records: Vec::new(),
        tiles: 1,
        failed_tiles: 0,
        degraded_tiles: 0,
        eval: None,
        wall_ms: 1.0,
    }
}

const CLIENTS: [&str; 3] = ["alice", "bob", "carol"];
const QUEUE_CAP: usize = 8;
const QUOTA_INFLIGHT: usize = 4;
const QUOTA_QUEUED: usize = 2;

/// The model's view of one client, mirrored against [`JobStore`].
#[derive(Default, Clone, Copy)]
struct ModelUsage {
    queued: usize,
    active: usize,
}

/// One seeded episode: ~120 random submit/take/finish/cancel/sweep ops
/// across 3 clients × 3 classes, with a shadow model predicting every
/// admission verdict; reconciles usage and queue depth op-by-op and
/// demands both drain to zero at the end.
/// A state-less store with per-client quotas.
fn quota_store(queue_cap: usize, inflight: usize, queued: usize) -> JobStore {
    JobStore::open(queue_cap, inflight, queued, None, &ExecPolicy::default()).expect("no state").0
}

fn fuzz_episode(seed: u64) {
    let mut rng = Xorshift64Star::new(0x9e37_79b9_0000_0000 ^ seed.wrapping_add(1));
    let store = quota_store(QUEUE_CAP, QUOTA_INFLIGHT, QUOTA_QUEUED);
    let params = fast_work();

    // Shadow model: (id, client_index) per lifecycle bucket.
    let mut queued: Vec<(usize, usize)> = Vec::new();
    let mut running: Vec<(usize, usize)> = Vec::new();
    let mut terminal: Vec<usize> = Vec::new();

    let usage_of = |queued: &[(usize, usize)], running: &[(usize, usize)], c: usize| {
        ModelUsage {
            queued: queued.iter().filter(|&&(_, cl)| cl == c).count(),
            active: running.iter().filter(|&&(_, cl)| cl == c).count(),
        }
    };

    for op in 0..120 {
        match rng.next_u64() % 100 {
            // Submit: the model predicts the exact verdict the store gives.
            0..=39 => {
                let client = (rng.next_u64() % 3) as usize;
                let class = PriorityClass::ALL[(rng.next_u64() % 3) as usize];
                let admission =
                    Admission { client: CLIENTS[client].into(), class };
                let usage = usage_of(&queued, &running, client);
                let verdict = store.submit(&params, admission);
                if usage.queued >= QUOTA_QUEUED {
                    assert!(
                        matches!(verdict, Err(SubmitError::Quota { scope: "queued", .. })),
                        "seed {seed} op {op}: expected queued-quota rejection"
                    );
                } else if usage.queued + usage.active >= QUOTA_INFLIGHT {
                    assert!(
                        matches!(verdict, Err(SubmitError::Quota { scope: "inflight", .. })),
                        "seed {seed} op {op}: expected inflight-quota rejection"
                    );
                } else if queued.len() >= QUEUE_CAP {
                    assert!(
                        matches!(verdict, Err(SubmitError::Full { .. })),
                        "seed {seed} op {op}: expected queue-full rejection"
                    );
                } else {
                    let id = verdict.unwrap_or_else(|e| {
                        panic!("seed {seed} op {op}: unexpected rejection {e:?}")
                    });
                    queued.push((id, client));
                }
            }
            // Take: guarded on depth because take_next blocks when empty.
            40..=59 => {
                if store.queue_depth() > 0 {
                    let (id, ..) = store.take_next().expect("non-empty queue yields a job");
                    let at = queued
                        .iter()
                        .position(|&(q, _)| q == id)
                        .unwrap_or_else(|| panic!("seed {seed}: took unqueued id {id}"));
                    running.push(queued.remove(at));
                }
            }
            // Finish a running job: success, failure, or cancelled landing.
            60..=74 => {
                if !running.is_empty() {
                    let at = (rng.next_u64() as usize) % running.len();
                    let (id, _) = running.remove(at);
                    match rng.next_u64() % 4 {
                        0 => store.finish(id, Err("injected failure".into())),
                        1 => store.finish_cancelled(id),
                        _ => store.finish(id, Ok(done())),
                    }
                    terminal.push(id);
                }
            }
            // Cancel a random known-or-bogus id; check outcome classes.
            75..=89 => {
                let id = (rng.next_u64() as usize) % 40;
                let outcome = store.cancel(id);
                if let Some(at) = queued.iter().position(|&(q, _)| q == id) {
                    assert_eq!(outcome, CancelOutcome::Cancelled, "seed {seed} id {id}");
                    queued.remove(at);
                    terminal.push(id);
                } else if running.iter().any(|&(r, _)| r == id) {
                    assert_eq!(outcome, CancelOutcome::Cancelling, "seed {seed} id {id}");
                } else if terminal.contains(&id) {
                    assert!(
                        matches!(outcome, CancelOutcome::AlreadyFinished(_)),
                        "seed {seed} id {id}"
                    );
                } else {
                    assert_eq!(outcome, CancelOutcome::NoSuchJob, "seed {seed} id {id}");
                }
            }
            // Evict finished masks; must never touch admission accounting.
            _ => {
                store.sweep(Some(Duration::ZERO), usize::MAX);
            }
        }

        // Op-by-op reconciliation: gauges match the model exactly, and no
        // counter ever leaks or goes negative (the store asserts underflow
        // internally; here we pin the exact values).
        let by_class = store.queue_depth_by_class();
        assert_eq!(
            by_class.iter().sum::<usize>(),
            queued.len(),
            "seed {seed} op {op}: queue depth diverged from the model"
        );
        let usage = store.quota_usage();
        for (c, name) in CLIENTS.iter().enumerate() {
            let want = usage_of(&queued, &running, c);
            let got = usage
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, u)| u)
                .unwrap_or_default();
            assert_eq!(
                (got.queued, got.active),
                (want.queued, want.active),
                "seed {seed} op {op}: usage for {name} diverged"
            );
        }
    }

    // Drain: claim and finish everything left; the store must reconcile
    // to zero — empty usage table, all class gauges at zero.
    while store.queue_depth() > 0 {
        let (id, ..) = store.take_next().expect("drain take");
        let at = queued.iter().position(|&(q, _)| q == id).expect("drain model");
        running.push(queued.remove(at));
    }
    for (id, _) in running.drain(..) {
        store.finish(id, Ok(done()));
    }
    assert!(
        store.quota_usage().is_empty(),
        "seed {seed}: quota usage must be empty after drain: {:?}",
        store.quota_usage()
    );
    assert_eq!(store.queue_depth_by_class(), [0, 0, 0], "seed {seed}");
}

#[test]
fn seeded_fuzz_admission_accounting_never_leaks() {
    // 50 consecutive seeded iterations (the acceptance bar): every episode
    // replays deterministically from its seed on failure.
    for seed in 0..50 {
        fuzz_episode(seed);
    }
}

/// Two real worker threads race take/finish against submit/cancel from the
/// main thread; when the dust settles the per-client accounting must
/// reconcile to zero even for cancels that raced completion.
#[test]
fn concurrent_cancel_races_reconcile_at_drain() {
    let store = Arc::new(JobStore::open(64, 0, 0, None, &ExecPolicy::default()).unwrap().0);
    let params = fast_work();

    let workers: Vec<_> = (0..2)
        .map(|_| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                // A cancel may race us: finishing with a result is the
                // "completion wins" outcome and must stay consistent.
                while let Some((id, ..)) = store.take_next() {
                    store.finish(id, Ok(done()));
                }
            })
        })
        .collect();

    let mut rng = Xorshift64Star::new(7);
    for _ in 0..40 {
        let admission = Admission {
            client: CLIENTS[(rng.next_u64() % 3) as usize].into(),
            class: PriorityClass::ALL[(rng.next_u64() % 3) as usize],
        };
        let id = store
            .submit(&params, admission)
            .expect("no quotas, cap 64: submit always admitted");
        if rng.next_u64() % 2 == 0 {
            // Any outcome class is legal here; accounting is what we pin.
            let _ = store.cancel(id);
        }
    }

    store.close();
    for w in workers {
        w.join().expect("worker thread");
    }
    assert!(
        store.quota_usage().is_empty(),
        "usage must reconcile to zero after the race: {:?}",
        store.quota_usage()
    );
    assert_eq!(store.queue_depth_by_class(), [0, 0, 0]);
    assert_eq!(store.running(), 0);
}

/// A saturating low-priority client must not starve a high-priority job:
/// with one worker and six stalled low jobs queued first, the high job
/// still lands within a bounded number of low completions.
#[test]
fn a_low_priority_flood_cannot_starve_a_high_priority_job() {
    const LOWS: usize = 6;
    // Every job stalls 250ms on its single tile, so the flood holds the
    // lone worker for ~1.5s total.
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        faults: FaultPlan::parse("delay@0=250").unwrap(),
        ..ServerConfig::default()
    });
    let pgm = tiny_pgm();

    let mut low_ids = Vec::new();
    for _ in 0..LOWS {
        let reply = post_with_headers(
            addr,
            &format!("/v1/jobs?{FAST_JOB}"),
            &[("x-ilt-client", "flood"), ("x-ilt-priority", "low")],
            &pgm,
        );
        assert_eq!(reply.status, 202, "{}", reply.text());
        low_ids.push(job_id(&reply).unwrap());
    }
    let reply = post_with_headers(
        addr,
        &format!("/v1/jobs?{FAST_JOB}"),
        &[("x-ilt-client", "vip"), ("x-ilt-priority", "high")],
        &pgm,
    );
    assert_eq!(reply.status, 202, "{}", reply.text());
    let vip = job_id(&reply).unwrap();

    wait_for_state(addr, vip, "done");
    // One atomic snapshot of the whole table: the flood may have landed at
    // most the in-flight job plus one more by the time we observe the vip
    // job done — weighted dequeue served `high` ahead of the backlog.
    let list = get(addr, "/v1/jobs").text();
    let lows_done = list.matches("\"client\":\"flood\",\"class\":\"low\",\"state\":\"done\"").count();
    assert!(
        lows_done <= 3,
        "high-priority job waited behind {lows_done} of {LOWS} low jobs: {list}"
    );

    // No starvation the other way either: the flood drains completely.
    for id in low_ids {
        wait_for_state(addr, id, "done");
    }
    shutdown(addr, handle);
}

/// Quota breach over HTTP: the third submit from a client with one running
/// and one queued job answers 429 + `Retry-After`, other clients keep
/// flowing, the rejection metric is labeled per client, and the quota
/// frees up once the backlog drains.
#[test]
fn quota_breach_gets_429_and_other_clients_still_complete() {
    // Every job stalls long enough to pin the worker.
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        faults: FaultPlan::parse("delay@0=800").unwrap(),
        quota_queued: 1,
        ..ServerConfig::default()
    });
    let pgm = tiny_pgm();
    let alice: &[(&str, &str)] = &[("x-ilt-client", "alice")];
    let bob: &[(&str, &str)] = &[("x-ilt-client", "bob")];

    // Once job 0 is `running` it no longer counts against alice's *queued*
    // quota.
    let reply = post_with_headers(addr, &format!("/v1/jobs?{FAST_JOB}"), alice, &pgm);
    assert_eq!(reply.status, 202, "{}", reply.text());
    wait_for_state(addr, 0, "running");

    let reply = post_with_headers(addr, &format!("/v1/jobs?{FAST_JOB}"), alice, &pgm);
    assert_eq!(reply.status, 202, "queued slot: {}", reply.text());
    let reply = post_with_headers(addr, &format!("/v1/jobs?{FAST_JOB}"), alice, &pgm);
    assert_eq!(reply.status, 429, "{}", reply.text());
    assert_eq!(reply.header("retry-after"), Some("1"), "429 must carry Retry-After");
    assert!(
        reply.text().contains("client \\\"alice\\\" is over its queued quota (1)"),
        "{}",
        reply.text()
    );

    // Another client is not collateral damage of alice's flood.
    let reply = post_with_headers(addr, &format!("/v1/jobs?{FAST_JOB}"), bob, &pgm);
    assert_eq!(reply.status, 202, "{}", reply.text());
    let bob_id = job_id(&reply).unwrap();
    wait_for_state(addr, bob_id, "done");

    let text = get(addr, "/metrics").text();
    assert!(text.contains("ilt_jobs_rejected_quota_total{client=\"alice\"} 1\n"), "{text}");

    // Once the backlog drains the quota frees up again.
    wait_for_state(addr, 1, "done");
    let reply = post_with_headers(addr, &format!("/v1/jobs?{FAST_JOB}"), alice, &pgm);
    assert_eq!(reply.status, 202, "quota must free after drain: {}", reply.text());

    // Malformed admission headers are a client error, not a panic.
    let reply = post_with_headers(addr, &format!("/v1/jobs?{FAST_JOB}"), &[("x-ilt-priority", "urgent")], &pgm);
    assert_eq!(reply.status, 400, "{}", reply.text());
    let reply = post_with_headers(addr, &format!("/v1/jobs?{FAST_JOB}"), &[("x-ilt-client", "no spaces")], &pgm);
    assert_eq!(reply.status, 400, "{}", reply.text());

    shutdown(addr, handle);
}

/// The inflight quota counts running + queued jobs, at the store level:
/// claiming a job does not free the slot; finishing does.
#[test]
fn inflight_quota_counts_running_jobs() {
    let store = quota_store(8, 1, 0);
    let params = fast_work();
    let alice = || Admission { client: "alice".into(), class: PriorityClass::Normal };

    let id = store.submit(&params, alice()).unwrap();
    let taken = store.take_next().expect("claim a0");
    assert_eq!(taken.0, id);
    let verdict = store.submit(&params, alice());
    assert!(
        matches!(verdict, Err(SubmitError::Quota { scope: "inflight", limit: 1, .. })),
        "running jobs must count against the inflight quota"
    );
    // Other clients are unaffected; finishing frees alice's slot.
    store
        .submit(&params, Admission {
            client: "bob".into(),
            class: PriorityClass::High,
        })
        .unwrap();
    store.finish(id, Ok(done()));
    store.submit(&params, alice()).expect("slot freed by finish");
}

/// Residency eviction followed by `GET /mask` re-hydrates the durable copy
/// byte-identically; corrupting the on-disk file turns the same request
/// into a hash-verified 410.
#[test]
fn eviction_rehydrates_byte_identical_and_corruption_is_410() {
    let state_dir = util::temp_dir("rehydrate_state");
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        state_dir: Some(state_dir.clone()),
        max_resident_masks: 1,
        ..ServerConfig::default()
    });
    let pgm = tiny_pgm();

    assert_eq!(post(addr, &format!("/v1/jobs?{FAST_JOB}"), &pgm).status, 202);
    wait_for_state(addr, 0, "done");
    let mask0 = get(addr, "/v1/jobs/0/mask").body;
    assert!(!mask0.is_empty());

    // A second finished job pushes job 0 (oldest finish) past the
    // residency cap; the eviction sweep runs on finish and on scrape.
    assert_eq!(post(addr, &format!("/v1/jobs?{FAST_JOB}"), &pgm).status, 202);
    wait_for_state(addr, 1, "done");
    wait_for_evicted(addr, 0);

    let reply = get(addr, "/v1/jobs/0/mask");
    assert_eq!(reply.status, 200, "{}", reply.text());
    assert_eq!(reply.body, mask0, "re-hydrated mask must be byte-identical");
    let text = get(addr, "/metrics").text();
    assert!(text.contains("ilt_masks_rehydrated_total 1\n"), "{text}");

    // Corrupt the durable copy. The re-hydration path must refuse bits
    // that no longer hash to what the log recorded — 410, not garbage.
    std::fs::write(state_dir.join("job-0.pgm"), b"P5\n2 2\n255\nXXXX").expect("corrupt mask file");
    wait_for_evicted(addr, 0); // scrape-driven sweep re-evicts the rehydrated copy
    let reply = get(addr, "/v1/jobs/0/mask");
    assert_eq!(reply.status, 410, "corrupted durable mask must be 410: {}", reply.text());

    // Job 1's healthy mask is untouched by its neighbour's corruption.
    assert_eq!(get(addr, "/v1/jobs/1/mask").status, 200);
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// Restart leg: recovery brings both masks back resident, the first sweep
/// re-evicts down to the cap, and the evicted one re-hydrates — the
/// durable copy survives process death with bytes intact.
#[test]
fn restart_then_rehydrate_after_eviction() {
    let state_dir = util::temp_dir("restart_rehydrate");
    let config = || ServerConfig {
        workers: 1,
        state_dir: Some(state_dir.clone()),
        max_resident_masks: 1,
        ..ServerConfig::default()
    };
    let pgm = tiny_pgm();

    let (addr, handle) = start(config());
    assert_eq!(post(addr, &format!("/v1/jobs?{FAST_JOB}"), &pgm).status, 202);
    wait_for_state(addr, 0, "done");
    let mask0 = get(addr, "/v1/jobs/0/mask").body;
    assert_eq!(post(addr, &format!("/v1/jobs?{FAST_JOB}"), &pgm).status, 202);
    wait_for_state(addr, 1, "done");
    shutdown(addr, handle);

    let (addr, handle) = start(config());
    // Recovery restores both jobs; the cap then evicts the older mask on
    // the first sweep, and the mask endpoint restores it on demand.
    let text = get(addr, "/metrics").text();
    assert!(text.contains("ilt_jobs_recovered_total 2\n"), "{text}");
    wait_for_evicted(addr, 0);
    let reply = get(addr, "/v1/jobs/0/mask");
    assert_eq!(reply.status, 200, "{}", reply.text());
    assert_eq!(reply.body, mask0, "mask must survive restart + eviction byte-identically");
    let text = get(addr, "/metrics").text();
    assert!(text.contains("ilt_masks_rehydrated_total 1\n"), "{text}");
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// Polls job detail (each GET also triggers the scrape-path sweep via
/// `/metrics`) until the mask is reported non-resident.
fn wait_for_evicted(addr: std::net::SocketAddr, id: usize) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let _ = get(addr, "/metrics"); // drive the eviction sweep
        let text = get(addr, &format!("/v1/jobs/{id}")).text();
        if text.contains("\"mask_resident\":false") {
            return;
        }
        assert!(std::time::Instant::now() < deadline, "job {id} mask never evicted: {text}");
        std::thread::sleep(Duration::from_millis(15));
    }
}
