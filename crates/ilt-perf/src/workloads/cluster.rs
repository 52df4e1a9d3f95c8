//! Cluster workloads: coordinator shard dispatch and reassembly across
//! in-process loopback worker replicas — the wire protocol, base64 mask
//! transfer, hash verification, and `assemble_batch` stitching, without
//! the ILT costs dominating (tiny tiles, few iterations) — plus the
//! straggler-speculation race against a stalling replica.

use std::time::Duration;

use ilt_cluster::transport::request;
use ilt_cluster::{ClusterConfig, Coordinator, ExecPolicy, JobParams, Worker, WorkerConfig};
use ilt_runtime::{assemble_batch, planned_job_list, FaultPlan, SimulatorCache};

use crate::measure::{measure, MeasureConfig, Sample};
use crate::result::PerfError;

const NAME: &str = "cluster_shard";
const SPEC_NAME: &str = "cluster_speculation";

/// Binds one worker replica on an ephemeral loopback port and serves it
/// from a background thread until [`shutdown`] is posted to its address.
fn spawn_worker(
    faults: FaultPlan,
) -> Result<(String, std::thread::JoinHandle<()>), PerfError> {
    let worker = Worker::bind(WorkerConfig {
        addr: "127.0.0.1:0".into(),
        faults,
        ..WorkerConfig::default()
    })
    .map_err(|e| PerfError::workload(NAME, format!("bind worker: {e}")))?;
    let addr = worker
        .local_addr()
        .map_err(|e| PerfError::workload(NAME, format!("worker addr: {e}")))?
        .to_string();
    let handle = std::thread::spawn(move || worker.run());
    Ok((addr, handle))
}

fn shutdown(addr: &str) {
    let _ = request(addr, "POST", "/v1/shutdown", &[], Duration::from_secs(10));
}

/// One op = dispatch a multi-tile job's shards across the replicas, stream
/// the journal records and masks back, and reassemble the stitched batch.
/// Workers keep their simulator caches warm across reps, as a long-lived
/// replica would.
pub fn shard_roundtrip(cfg: &MeasureConfig) -> Result<Sample, PerfError> {
    // 128 px via clip in 64 px tiles with an 8 px halo: 9 tiles across 2
    // replicas. Smoke: one tile, one replica.
    let (query, replicas) = if cfg.smoke {
        ("via=7&grid=64&kernels=3&tile=64&halo=8&iters=1&threads=1&eval=0", 1)
    } else {
        ("via=7&grid=128&kernels=3&tile=64&halo=8&iters=2&threads=1&eval=0", 2)
    };
    let params = JobParams::from_saved(query, Vec::new(), &ExecPolicy::default())
        .map_err(|e| PerfError::workload(NAME, e))?;
    let (case, config) = params.plan().map_err(|e| PerfError::workload(NAME, e))?;
    let cases = std::slice::from_ref(&case);
    let plan = planned_job_list(cases, &config).map_err(|e| PerfError::workload(NAME, e))?;

    let workers: Vec<(String, std::thread::JoinHandle<()>)> =
        (0..replicas).map(|_| spawn_worker(FaultPlan::none())).collect::<Result<_, _>>()?;
    let coordinator = Coordinator::new(ClusterConfig {
        workers: workers.iter().map(|(addr, _)| addr.clone()).collect(),
        ..ClusterConfig::default()
    })
    .map_err(|e| PerfError::workload(NAME, e))?;

    let cache = SimulatorCache::new();
    let mut job_id = 0usize;
    let mut failure: Option<String> = None;
    let sample = measure(cfg, || {
        if failure.is_some() {
            return;
        }
        job_id += 1;
        let run = coordinator
            .run_job(job_id, query, &[], &plan, &config.cancel, &config.progress)
            .and_then(|outputs| assemble_batch(cases, &config, outputs, &cache, 0.0));
        match run {
            Ok(outcome) if outcome.cases[0].failed_tiles > 0 => {
                failure = Some(format!("{} shard tile(s) failed", outcome.cases[0].failed_tiles));
            }
            Ok(_) => {}
            Err(e) => failure = Some(e),
        }
    });
    for (addr, handle) in workers {
        shutdown(&addr);
        let _ = handle.join();
    }
    if let Some(detail) = failure {
        return Err(PerfError::workload(NAME, detail));
    }
    Ok(sample
        .with_extra("tiles", plan.len() as f64)
        .with_extra("replicas", replicas as f64))
}

/// One op = a full job where one of the two replicas stalls every shard
/// response on the wire (computes fine, network is molasses): the
/// coordinator must detect the stragglers against the healthy replica's
/// latency median, re-execute them speculatively, and take the first
/// result — so the op cost measures detection latency plus the race, not
/// the stall. Extras record how many shards were speculated and won.
pub fn speculation_race(cfg: &MeasureConfig) -> Result<Sample, PerfError> {
    // 9 tiles in 4 shards across 2 replicas; the stall dwarfs an honest
    // shard (tens of ms) so every stalled dispatch is a clear straggler.
    let (query, stall_ms) = if cfg.smoke {
        ("via=7&grid=128&kernels=3&tile=64&halo=8&iters=1&threads=1&eval=0", 150u64)
    } else {
        ("via=7&grid=128&kernels=3&tile=64&halo=8&iters=2&threads=1&eval=0", 400)
    };
    let params = JobParams::from_saved(query, Vec::new(), &ExecPolicy::default())
        .map_err(|e| PerfError::workload(SPEC_NAME, e))?;
    let (case, config) = params.plan().map_err(|e| PerfError::workload(SPEC_NAME, e))?;
    let cases = std::slice::from_ref(&case);
    let plan = planned_job_list(cases, &config).map_err(|e| PerfError::workload(SPEC_NAME, e))?;

    let stall = (0..plan.len())
        .map(|j| format!("read_stall@{j}={stall_ms}"))
        .collect::<Vec<_>>()
        .join(",");
    let slow = spawn_worker(FaultPlan::parse(&stall).map_err(|e| PerfError::workload(SPEC_NAME, e))?)?;
    let fast = spawn_worker(FaultPlan::none())?;
    let coordinator = Coordinator::new(ClusterConfig {
        workers: vec![slow.0.clone(), fast.0.clone()],
        speculate_factor: 1.5,
        speculate_min_samples: 1,
        // Cut superseded losers quickly; they are mid-stall anyway.
        cancel_grace: Duration::from_millis(100),
        ..ClusterConfig::default()
    })
    .map_err(|e| PerfError::workload(SPEC_NAME, e))?;

    let cache = SimulatorCache::new();
    let mut job_id = 0usize;
    let mut failure: Option<String> = None;
    let sample = measure(cfg, || {
        if failure.is_some() {
            return;
        }
        job_id += 1;
        let run = coordinator
            .run_job(job_id, query, &[], &plan, &config.cancel, &config.progress)
            .and_then(|outputs| assemble_batch(cases, &config, outputs, &cache, 0.0));
        match run {
            Ok(outcome) if outcome.cases[0].failed_tiles > 0 => {
                failure = Some(format!("{} shard tile(s) failed", outcome.cases[0].failed_tiles));
            }
            Ok(_) => {}
            Err(e) => failure = Some(e),
        }
    });
    let speculated = coordinator.stats().shards_speculated.get() as f64;
    let wins = coordinator.stats().speculation_wins.get() as f64;
    for (addr, handle) in [slow, fast] {
        shutdown(&addr);
        let _ = handle.join();
    }
    if let Some(detail) = failure {
        return Err(PerfError::workload(SPEC_NAME, detail));
    }
    Ok(sample
        .with_extra("tiles", plan.len() as f64)
        .with_extra("stall_ms", stall_ms as f64)
        .with_extra("speculated", speculated)
        .with_extra("speculation_wins", wins))
}
