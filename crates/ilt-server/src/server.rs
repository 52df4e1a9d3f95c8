//! The long-lived service: listener, router, job workers, graceful drain.
//!
//! One thread accepts connections and hands each to a short-lived handler
//! thread (bounded in number); `workers` dedicated threads drain the job
//! queue through [`ilt_runtime::run_batch`], so HTTP latency is never
//! coupled to optimization latency — a poll or a scrape answers in
//! microseconds while jobs grind in the background. Submission beyond the
//! bounded queue is refused with `503` + `Retry-After` (backpressure
//! instead of memory growth), and shutdown (`POST /v1/shutdown`, the
//! SIGTERM-equivalent hook) stops admissions, finishes in-flight and queued
//! jobs, flushes the journal, and only then lets [`Server::run`] return.

use std::io::Write;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ilt_cluster::{is_label, ClusterConfig, Coordinator, ExecPolicy, JobParams};
use ilt_runtime::{
    assemble_batch, failure_kind, field_hash, json_escape, json_f64, planned_job_list, run_batch,
    BatchCase, BatchConfig, BatchOutcome, JobStatus, SimulatorCache,
};

use crate::http::{ConnOptions, Gate, Listener, Request, Response};
use crate::metrics::{Gauges, Metrics};
use crate::admission::{Admission, PriorityClass};
use crate::state::StateLog;
use crate::store::{CancelOutcome, JobDone, JobEntry, JobStore, MaskFetch, SubmitError};

/// Everything tunable about a server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8080`; port 0 picks a free port.
    pub addr: String,
    /// Job-executor threads (0 admits but never runs jobs — test only).
    pub workers: usize,
    /// Bounded admission-queue capacity.
    pub queue_cap: usize,
    /// Per-request execution policy (default timeout/retries, thread cap).
    pub policy: ExecPolicy,
    /// Append every finished job's records here as JSON Lines.
    pub journal: Option<PathBuf>,
    /// LRU capacity of the shared simulator cache.
    pub cache_capacity: usize,
    /// Durable job state directory: submissions and outcomes are logged
    /// there and recovered on the next bind (crash-safe restart).
    pub state_dir: Option<PathBuf>,
    /// Evict result masks this long after their job finished; `None`
    /// retains them for the life of the process.
    pub result_ttl: Option<Duration>,
    /// Hard cap on resident result masks; the oldest-finished are evicted
    /// beyond it.
    pub max_resident_masks: usize,
    /// Maximum requests served per keep-alive connection before the server
    /// closes it (bounds how long one client can pin a handler thread).
    pub keep_alive_requests: usize,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it.
    pub idle_timeout: Duration,
    /// Compact the state log (snapshot live jobs, truncate `state.jsonl`)
    /// once it exceeds this many bytes; 0 disables compaction.
    pub compact_state_bytes: u64,
    /// Per-client cap on non-terminal jobs (queued + running); breaches
    /// answer `429 Too Many Requests`. 0 = unlimited.
    pub quota_inflight: usize,
    /// Per-client cap on queued jobs; breaches answer `429`. 0 = unlimited.
    pub quota_queued: usize,
    /// When set, this instance is a cluster coordinator: each job's tile
    /// plan is sharded across the configured `ilt worker` replicas and the
    /// per-tile results are reassembled centrally (byte-identical stitching
    /// to a local run). `None` executes jobs in-process as before.
    pub cluster: Option<ClusterConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 16,
            policy: ExecPolicy::default(),
            journal: None,
            cache_capacity: 16,
            state_dir: None,
            result_ttl: None,
            max_resident_masks: usize::MAX,
            keep_alive_requests: 32,
            idle_timeout: Duration::from_secs(5),
            compact_state_bytes: 0,
            quota_inflight: 0,
            quota_queued: 0,
            cluster: None,
        }
    }
}

struct Shared {
    config: ServerConfig,
    store: JobStore,
    metrics: Metrics,
    cache: SimulatorCache,
    coordinator: Option<Coordinator>,
    /// The listener's shutdown flag and connection count; the drain sets
    /// the one and waits on the other.
    gate: Arc<Gate>,
    journal: Mutex<Option<std::fs::File>>,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: Listener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and opens the journal (truncating an old one).
    /// With a state directory configured, the job table is first recovered
    /// from its log: finished jobs come back with hash-verified masks,
    /// interrupted ones are re-queued and run before any new submission.
    ///
    /// # Errors
    ///
    /// Propagates bind and journal-creation failures, and state-log
    /// corruption beyond a torn trailing line.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = Listener::bind(&config.addr)?;
        let journal = match &config.journal {
            Some(path) => Some(std::fs::File::create(path)?),
            None => None,
        };
        let state = match &config.state_dir {
            Some(dir) => Some(StateLog::open(dir, config.compact_state_bytes)?),
            None => None,
        };
        let (store, recovered) = JobStore::open(
            config.queue_cap,
            config.quota_inflight,
            config.quota_queued,
            state,
            &config.policy,
        )
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let metrics = Metrics::default();
        metrics.recovered.add((recovered.restored + recovered.requeued) as u64);
        let coordinator = match &config.cluster {
            None => None,
            Some(cluster) => Some(
                Coordinator::new(cluster.clone())
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?,
            ),
        };
        let shared = Arc::new(Shared {
            store,
            metrics,
            cache: SimulatorCache::with_capacity(config.cache_capacity),
            coordinator,
            gate: listener.gate(),
            journal: Mutex::new(journal),
            config,
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (use after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Serves until drained: accepts connections, executes jobs, and
    /// returns only after `POST /v1/shutdown` has stopped admissions and
    /// every in-flight and queued job has finished (journal flushed).
    ///
    /// # Errors
    ///
    /// Propagates fatal accept-loop errors; per-connection errors are
    /// answered with an HTTP status and never end the server.
    pub fn run(self) -> std::io::Result<()> {
        let mut workers = Vec::new();
        for w in 0..self.shared.config.workers {
            let shared = Arc::clone(&self.shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("ilt-server-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn job worker"),
            );
        }

        let config = &self.shared.config;
        let options = ConnOptions {
            idle_timeout: config.idle_timeout,
            keep_alive_requests: config.keep_alive_requests,
        };
        let shared = Arc::clone(&self.shared);
        self.listener.serve(options, move |req| route(&shared, req));

        // Drain: no new admissions, workers finish queued + in-flight jobs.
        self.shared.store.close();
        for handle in workers {
            let _ = handle.join();
        }
        self.shared.store.abandon_queued();
        // Let in-flight responses (including the shutdown ack) finish.
        self.shared.gate.wait_idle(Duration::from_secs(5));
        if let Some(journal) = self.shared.journal.lock().expect("journal lock").as_mut() {
            let _ = journal.flush();
        }
        Ok(())
    }
}

fn worker_loop(shared: &Shared) {
    while let Some((id, params, cancel, progress)) = shared.store.take_next() {
        let started = Instant::now();
        // The claim is the description; this is where it becomes work.
        let outcome = params.plan().and_then(|(case, config)| {
            let config = BatchConfig { cancel: cancel.clone(), progress, ..config };
            let cases = [case];
            match &shared.coordinator {
                Some(coordinator) => {
                    run_clustered(shared, coordinator, id, &params, &cases, &config)
                }
                None => run_batch(&cases, &config, &shared.cache),
            }
        });
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        // A cancelled run (token set, at least one tile skipped) is a
        // distinct terminal state: no mask, no failure. A job that managed
        // to complete every tile despite a late cancel stays Done —
        // cancellation is best-effort by design.
        if cancel.is_cancelled() {
            if let Ok(out) = &outcome {
                if out.cases.first().is_some_and(|c| c.cancelled_tiles > 0) {
                    append_journal(shared, &out.report.records);
                    shared.metrics.cancelled.inc();
                    shared.store.finish_cancelled(id);
                    sweep_results(shared);
                    continue;
                }
            }
        }
        let outcome = outcome.map(|mut out| {
            let result = out.cases.pop().expect("one case in, one result out");
            for record in &out.report.records {
                shared.metrics.observe_stages(&record.times, record.wall_ms);
                match &record.status {
                    JobStatus::Failed(reason) => {
                        shared.metrics.tile_failures.inc(failure_kind(reason));
                    }
                    JobStatus::Degraded(_) => shared.metrics.degraded_tiles.inc(),
                    JobStatus::Done | JobStatus::Cancelled => {}
                }
            }
            append_journal(shared, &out.report.records);
            JobDone {
                mask_hash: field_hash(&result.mask),
                mask: Some(result.mask),
                records: out.report.records,
                tiles: result.tiles,
                failed_tiles: result.failed_tiles,
                degraded_tiles: result.degraded_tiles,
                eval: result.eval,
                wall_ms,
            }
        });
        let failed = match &outcome {
            Ok(done) => done.failed_tiles > 0,
            Err(_) => true,
        };
        if failed {
            shared.metrics.failed.inc();
        } else {
            shared.metrics.completed.inc();
        }
        shared.store.finish(id, outcome);
        sweep_results(shared);
    }
}

/// Executes one job by sharding its tile plan across the cluster's worker
/// replicas and reassembling the streamed per-tile results centrally.
/// Stitching, seam policy, and whole-clip evaluation run through the exact
/// same [`assemble_batch`] path a local `run_batch` uses, so the output
/// mask is byte-identical to single-process execution of the same request.
fn run_clustered(
    shared: &Shared,
    coordinator: &Coordinator,
    id: usize,
    params: &JobParams,
    cases: &[BatchCase; 1],
    config: &BatchConfig,
) -> Result<BatchOutcome, String> {
    let started = Instant::now();
    let (query, body) = params.dispatch();
    let plan = planned_job_list(cases, config)?;
    let outputs =
        coordinator.run_job(id, &query, &body, &plan, &config.cancel, &config.progress)?;
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    assemble_batch(cases, config, outputs, &shared.cache, wall_ms)
}

/// `GET /v1/members`: the live membership with per-worker health —
/// liveness, drain flag, breaker state, and dispatch ledgers.
fn render_members(coordinator: &Coordinator) -> String {
    let mut body = String::from("{\"members\":[");
    for (i, view) in coordinator.member_views().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"addr\":\"{}\",\"alive\":{},\"draining\":{},\"breaker\":\"{}\",\
             \"inflight\":{},\"dispatches\":{},\"completed\":{}}}",
            view.addr, view.alive, view.draining, view.breaker, view.inflight,
            view.dispatches, view.completed
        ));
    }
    body.push_str("]}");
    body
}

/// `POST /v1/members?addr=H:P&action=join|leave|drain`: mutates the live
/// membership. Join is what `ilt worker --register` calls after binding;
/// drain then leave is the graceful decommission sequence.
fn member_action(coordinator: &Coordinator, req: &Request) -> Response {
    let Some(addr) = req.query_param("addr") else {
        return Response::error(400, "missing addr= parameter");
    };
    // Addresses travel into metric labels and JSON unescaped: the label
    // alphabet plus what `host:port` and `[v6]:port` need.
    if !is_label(addr, 256, b":[]") {
        return Response::error(400, &format!("bad member address {addr:?}"));
    }
    let action = req.query_param("action").unwrap_or("join");
    let (changed, verb) = match action {
        "join" => (coordinator.join(addr), "joined"),
        "leave" => (coordinator.leave(addr), "left"),
        "drain" => (coordinator.drain(addr), "draining"),
        other => return Response::error(400, &format!("unknown member action {other:?}")),
    };
    if changed {
        Response::json(200, format!("{{\"addr\":\"{addr}\",\"state\":\"{verb}\"}}"))
    } else {
        let why = if action == "join" { "already a member" } else { "not a member" };
        Response::error(409, &format!("{action} {addr}: {why}"))
    }
}

/// Applies the TTL / residency eviction policy; called after every finished
/// job and on every metrics scrape (the only moments residency can change
/// or expiry becomes observable).
fn sweep_results(shared: &Shared) {
    if shared.config.result_ttl.is_none()
        && shared.config.max_resident_masks == usize::MAX
    {
        return;
    }
    let evicted =
        shared.store.sweep(shared.config.result_ttl, shared.config.max_resident_masks);
    shared.metrics.evicted.add(evicted as u64);
}

fn append_journal(shared: &Shared, records: &[ilt_runtime::JobRecord]) {
    let mut guard = shared.journal.lock().expect("journal lock");
    if let Some(file) = guard.as_mut() {
        let mut lines = String::new();
        for record in records {
            lines.push_str(&record.to_json());
            lines.push('\n');
        }
        // Journal loss must never fail a job; the records stay queryable
        // over HTTP either way.
        let _ = file.write_all(lines.as_bytes());
        let _ = file.flush();
    }
}

fn route(shared: &Shared, req: &Request) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            if shared.gate.is_shut_down() {
                Response::text(503, "draining\n")
            } else {
                Response::text(200, "ok\n")
            }
        }
        (_, ["healthz"]) => method_not_allowed("GET"),

        ("GET", ["metrics"]) => {
            sweep_results(shared);
            let gauges = Gauges {
                queue_depth: shared.store.queue_depth_by_class(),
                running: shared.store.running(),
                cache_entries: shared.cache.len(),
                cache_hits: shared.cache.hits(),
                cache_misses: shared.cache.misses(),
                cache_evictions: shared.cache.evictions(),
            };
            let mut body = shared.metrics.render(&gauges);
            if let Some(coordinator) = &shared.coordinator {
                coordinator.render_metrics(&mut body);
            }
            Response::text(200, body)
        }
        (_, ["metrics"]) => method_not_allowed("GET"),

        ("POST", ["v1", "jobs"]) => submit_job(shared, req),
        ("GET", ["v1", "jobs"]) => Response::json(200, shared.store.render_list()),
        (_, ["v1", "jobs"]) => method_not_allowed("GET, POST"),

        ("GET", ["v1", "jobs", id]) => with_job_id(id, |id| match shared.store.render_detail(id) {
            Some(body) => Response::json(200, body),
            None => Response::error(404, &format!("no job {id}")),
        }),
        ("DELETE", ["v1", "jobs", id]) => with_job_id(id, |id| cancel_job(shared, id)),
        (_, ["v1", "jobs", _]) => method_not_allowed("GET, DELETE"),

        ("GET", ["v1", "jobs", id, "mask"]) => with_job_id(id, |id| match shared.store.mask_pgm(id) {
            MaskFetch::Ready(bytes) => Response::pgm(bytes),
            MaskFetch::Rehydrated(bytes) => {
                shared.metrics.rehydrated.inc();
                Response::pgm(bytes)
            }
            MaskFetch::NotReady(state) => {
                Response::error(409, &format!("job {id} has no mask yet (state: {state:?})"))
            }
            MaskFetch::Gone => Response::error(
                410,
                &format!("job {id} finished but its mask was evicted and is not recoverable"),
            ),
            MaskFetch::NoSuchJob => Response::error(404, &format!("no job {id}")),
        }),
        (_, ["v1", "jobs", _, "mask"]) => method_not_allowed("GET"),

        (method @ ("GET" | "POST"), ["v1", "members"]) => match &shared.coordinator {
            None => Response::error(409, "not a cluster coordinator (no workers configured)"),
            Some(coordinator) if method == "GET" => {
                Response::json(200, render_members(coordinator))
            }
            Some(coordinator) => member_action(coordinator, req),
        },
        (_, ["v1", "members"]) => method_not_allowed("GET, POST"),

        // The SIGTERM-equivalent entry point (`std` offers no portable
        // signal handling): stop admissions, then wake the accept loop.
        ("POST", ["v1", "shutdown"]) => {
            shared.store.close();
            shared.gate.shut_down();
            Response::json(202, "{\"state\":\"draining\"}")
        }
        (_, ["v1", "shutdown"]) => method_not_allowed("POST"),

        _ => Response::error(404, &format!("no route for {} {}", req.method, req.path)),
    }
}

/// Routes a `{id}` path segment to `then`, or answers `400`.
fn with_job_id(raw: &str, then: impl FnOnce(usize) -> Response) -> Response {
    match raw.parse() {
        Ok(id) => then(id),
        Err(_) => Response::error(400, &format!("bad job id {raw:?}")),
    }
}

fn method_not_allowed(allow: &str) -> Response {
    Response::error(405, "method not allowed").with_header("allow", allow)
}

/// `DELETE /v1/jobs/{id}`: a queued job dies immediately, a running job is
/// asked to stop at its next tile boundary — both answer `202 Accepted`
/// (cancellation of a running job is asynchronous and best-effort); a
/// clustered job's loop is woken to fan the cancel out. A job already in a
/// terminal state answers `409 Conflict` stating that state.
fn cancel_job(shared: &Shared, id: usize) -> Response {
    match shared.store.cancel(id) {
        CancelOutcome::Cancelled => {
            shared.metrics.cancelled.inc();
            Response::json(202, format!("{{\"id\":{id},\"state\":\"cancelled\"}}"))
        }
        CancelOutcome::Cancelling => {
            if let Some(coordinator) = &shared.coordinator {
                coordinator.wake();
            }
            Response::json(202, format!("{{\"id\":{id},\"state\":\"cancelling\"}}"))
        }
        CancelOutcome::AlreadyFinished(state) => Response::error(
            409,
            &format!("job {id} already finished (state: {state:?})"),
        ),
        CancelOutcome::NoSuchJob => Response::error(404, &format!("no job {id}")),
    }
}

/// Extracts the multi-tenant carriers from a submission: `X-Ilt-Client`
/// (default `anonymous`) and `X-Ilt-Priority` (`high`/`normal`/`low`,
/// default `normal`).
fn admission_from(req: &Request) -> Result<Admission, String> {
    let client = req.header("x-ilt-client").unwrap_or("anonymous");
    // Client ids travel into metric labels and state-log JSON unescaped.
    if !is_label(client, 64, b"") {
        return Err(format!(
            "bad X-Ilt-Client {client:?}: expected 1-64 chars of [A-Za-z0-9._-]"
        ));
    }
    let class = match req.header("x-ilt-priority") {
        None => PriorityClass::Normal,
        Some(p) => PriorityClass::parse(p).ok_or_else(|| {
            format!("bad X-Ilt-Priority {p:?}: expected high, normal, or low")
        })?,
    };
    Ok(Admission { client: client.to_string(), class })
}

fn submit_job(shared: &Shared, req: &Request) -> Response {
    let admission = match admission_from(req) {
        Ok(a) => a,
        Err(why) => {
            shared.metrics.rejected.inc();
            return Response::error(400, &why);
        }
    };
    let params = match JobParams::from_request(req, &shared.config.policy) {
        Ok(p) => p,
        Err(why) => {
            shared.metrics.rejected.inc();
            return Response::error(400, &why);
        }
    };
    match shared.store.submit(&params, admission) {
        Ok(id) => {
            shared.metrics.accepted.inc();
            Response::json(
                202,
                format!(
                    "{{\"id\":{id},\"name\":\"{}\",\"state\":\"queued\",\"queue_depth\":{}}}",
                    json_escape(&params.name),
                    shared.store.queue_depth()
                ),
            )
            .with_header("location", format!("/v1/jobs/{id}"))
        }
        Err(SubmitError::Unplannable(why)) => {
            shared.metrics.rejected.inc();
            Response::error(400, &why)
        }
        Err(SubmitError::Full { capacity }) => {
            shared.metrics.rejected.inc();
            Response::error(503, &format!("admission queue full ({capacity} jobs); retry later"))
                .with_header("retry-after", "1")
        }
        Err(SubmitError::Draining) => {
            shared.metrics.rejected.inc();
            Response::error(503, "server is draining").with_header("retry-after", "5")
        }
        Err(SubmitError::Quota { client, scope, limit }) => {
            shared.metrics.rejected_quota.inc(&client);
            Response::error(
                429,
                &format!("client {client:?} is over its {scope} quota ({limit}); retry later"),
            )
            .with_header("retry-after", "1")
        }
    }
}

/// The JSON views of the job table, beside the routes that serve them.
impl JobStore {
    /// JSON summary array for `GET /v1/jobs`.
    pub fn render_list(&self) -> String {
        let inner = self.lock();
        let items: Vec<String> = inner.jobs.values().map(render_summary).collect();
        format!("{{\"jobs\":[{}],\"queue_depth\":{}}}", items.join(","), inner.queue.len())
    }

    /// JSON detail object for `GET /v1/jobs/{id}`; `None` for unknown ids.
    /// The mask itself is served by `GET /v1/jobs/{id}/mask`.
    pub fn render_detail(&self, id: usize) -> Option<String> {
        let inner = self.lock();
        let entry = inner.jobs.get(&id)?;
        let mut s = render_summary(entry);
        s.pop(); // strip the closing brace to extend the object
        if let Some(done) = &entry.result {
            let records: Vec<String> = done.records.iter().map(|r| r.to_json()).collect();
            s.push_str(&format!(
                ",\"mask_hash\":\"{:016x}\",\"wall_ms\":{},\"records\":[{}]",
                done.mask_hash,
                json_f64(done.wall_ms),
                records.join(",")
            ));
            if let Some(eval) = &done.eval {
                s.push_str(&format!(
                    ",\"eval\":{{\"l2_nm2\":{},\"pvband_nm2\":{},\"epe\":{},\"shots\":{}}}",
                    json_f64(eval.l2_nm2),
                    json_f64(eval.pvband_nm2),
                    eval.epe_violations(),
                    eval.shots
                ));
            }
        }
        s.push('}');
        Some(s)
    }
}

fn render_summary(entry: &JobEntry) -> String {
    let name = match &entry.params {
        Ok(params) => params.name.clone(),
        Err(_) => format!("job{}", entry.id),
    };
    let mut s = format!(
        "{{\"id\":{},\"name\":\"{}\",\"client\":\"{}\",\"class\":\"{}\",\"state\":\"{}\"",
        entry.id,
        json_escape(&name),
        json_escape(&entry.client),
        entry.class.as_str(),
        entry.state.as_str()
    );
    if let Some(done) = &entry.result {
        s.push_str(&format!(
            ",\"tiles\":{},\"failed_tiles\":{},\"degraded_tiles\":{},\"mask_resident\":{}",
            done.tiles,
            done.failed_tiles,
            done.degraded_tiles,
            done.mask.is_some()
        ));
    } else if !entry.state.is_terminal() {
        // Streaming progress for queued/running jobs: tiles completed so
        // far out of the planned decomposition.
        s.push_str(&format!(
            ",\"tiles_done\":{},\"tiles_planned\":{}",
            entry.progress.done(),
            entry.tiles_planned
        ));
    }
    if let Some(error) = &entry.error {
        s.push_str(&format!(",\"error\":\"{}\"", json_escape(error)));
    }
    s.push('}');
    s
}
