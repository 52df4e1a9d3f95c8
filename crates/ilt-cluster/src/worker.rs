//! The `ilt worker` service: a replica that executes tile shards on behalf
//! of a coordinator.
//!
//! A worker is a small HTTP server over the shared [`crate::transport`]:
//!
//! - `GET /healthz` answers the coordinator's heartbeat probes.
//! - `POST /v1/shards?shard=S&jobs=..&<job query>` plans the job exactly as
//!   the coordinator (and `ilt batch`) would, runs only the listed job ids
//!   via [`ilt_runtime::run_shard`], and streams the per-tile results back
//!   as JSON Lines (see [`crate::wire`]). Execution happens on the
//!   connection's own thread, so several shards of one job (or of several
//!   jobs) run concurrently.
//! - `DELETE /v1/shards/S` cooperatively cancels a running shard: the
//!   shard's [`CancelToken`] is set and the in-flight `POST` returns with
//!   cancelled records at the next tile boundary.
//! - `POST /v1/shutdown` stops accepting new connections.
//!
//! With a state directory configured, each shard writes the standard
//! checkpoint WAL under `shard-<S>/`; a worker restarted after a crash
//! restores finished tiles from it instead of recomputing them (and wipes
//! the directory when its fingerprint does not match the new dispatch).
//! Fault injection is local by design: the coordinator strips `inject=`
//! from dispatched queries, and a worker only injects the plan given on
//! its own command line — so a crash fault kills one replica, not every
//! replica the shard is re-dispatched to. Transport faults (`conn_refuse`,
//! `read_stall`, `torn_response`, `garble`) damage the shard *response* on
//! the wire instead of the compute, keyed by this replica's per-shard
//! dispatch counter — the flaky-network regime where `/healthz` still
//! passes.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use ilt_runtime::{
    config_fingerprint, run_shard, CancelToken, FaultKind, FaultPlan, SimulatorCache, WAL_FILE,
};

use crate::params::{is_label, ExecPolicy, JobParams};
use crate::transport::{ConnOptions, Gate, Listener, Request, Response};
use crate::wire::{parse_job_ids, shard_header_line, shard_job_line, ShardHeader};

/// Worker service configuration.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Listen address, e.g. `127.0.0.1:0`.
    pub addr: String,
    /// State directory for per-shard checkpoint WALs; `None` disables
    /// checkpointing (and local crash resume).
    pub state_dir: Option<PathBuf>,
    /// Fault plan injected into every shard this replica executes (chaos
    /// testing; empty in production).
    pub faults: FaultPlan,
    /// Execution policy bounds applied to dispatched job parameters.
    pub policy: ExecPolicy,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            state_dir: None,
            faults: FaultPlan::none(),
            policy: ExecPolicy::default(),
        }
    }
}

struct WorkerShared {
    config: WorkerConfig,
    cache: SimulatorCache,
    /// Cancel tokens of shards currently executing, by shard id.
    active: Mutex<HashMap<String, CancelToken>>,
    /// How often each shard id has been dispatched to this replica — the
    /// attempt counter transport faults (`conn_refuse@J:A` etc.) address.
    dispatch_counts: Mutex<HashMap<String, u32>>,
    gate: Arc<Gate>,
}

/// A bound (but not yet running) worker service.
pub struct Worker {
    listener: Listener,
    shared: Arc<WorkerShared>,
}

impl Worker {
    /// Binds the listen socket.
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub fn bind(config: WorkerConfig) -> io::Result<Worker> {
        let listener = Listener::bind(&config.addr)?;
        let shared = Arc::new(WorkerShared {
            config,
            cache: SimulatorCache::new(),
            active: Mutex::new(HashMap::new()),
            dispatch_counts: Mutex::new(HashMap::new()),
            gate: listener.gate(),
        });
        Ok(Worker { listener, shared })
    }

    /// The bound address (resolves an ephemeral port request).
    ///
    /// # Errors
    ///
    /// None today: the address was resolved at bind time.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        Ok(self.listener.local_addr())
    }

    /// Serves until `POST /v1/shutdown`, on the shared accept loop: one
    /// thread per connection (at most [`crate::transport::MAX_CONNECTIONS`]);
    /// shard execution runs inside the handler, so the socket read timeout
    /// only governs request parsing. The coordinator closes every
    /// connection after one exchange, so the keep-alive options are the
    /// defaults.
    pub fn run(self) {
        let Worker { listener, shared } = self;
        listener.serve(ConnOptions::default(), move |req| route(&shared, req));
    }
}

fn route(shared: &WorkerShared, req: &Request) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Response::text(200, "ok\n"),
        ("POST", ["v1", "shards"]) => run_dispatched_shard(shared, req),
        ("DELETE", ["v1", "shards", sid]) => {
            let active = shared.active.lock().expect("shard registry poisoned");
            match active.get(*sid) {
                Some(token) => {
                    token.cancel();
                    Response::json(202, format!("{{\"shard\":\"{sid}\",\"cancelling\":true}}"))
                }
                None => Response::error(404, &format!("no running shard {sid}")),
            }
        }
        ("POST", ["v1", "shutdown"]) => {
            shared.gate.shut_down();
            Response::json(200, "{\"shutdown\":true}")
        }
        _ => Response::error(404, &format!("no route for {} {}", req.method, req.path)),
    }
}

fn run_dispatched_shard(shared: &WorkerShared, req: &Request) -> Response {
    let Some(sid) = req.query_param("shard").map(str::to_string) else {
        return Response::error(400, "missing shard= id");
    };
    // Shard ids become directory names.
    if !is_label(&sid, 64, b"") {
        return Response::error(400, &format!("bad shard id {sid:?}"));
    }
    let job_ids = match req.query_param("jobs") {
        None => return Response::error(400, "missing jobs= list"),
        Some(raw) => match parse_job_ids(raw) {
            Ok(ids) => ids,
            Err(e) => return Response::error(400, &e),
        },
    };
    // The dispatch query was validated at original submission; trust it
    // here (including a replayed inject= from a chaos submission), then
    // override with this replica's own fault plan so injected crashes stay
    // local to the replica they were aimed at.
    let relaxed = ExecPolicy { allow_inject: true, ..shared.config.policy };
    let mut params = match JobParams::from_request(req, &relaxed) {
        Ok(p) => p,
        Err(e) => return Response::error(400, &e),
    };
    if !shared.config.faults.is_empty() {
        params.faults = shared.config.faults.clone();
    }
    // Transport-fault injection (chaos testing): faults address this
    // replica's per-shard dispatch counter, so `conn_refuse@J:1` damages
    // exactly the first dispatch of J's shard *to this worker* and a
    // re-dispatch (or another replica) succeeds.
    let wire_fault = if params.faults.has_transport_faults() {
        let attempt = {
            let mut counts = shared.dispatch_counts.lock().expect("dispatch counts poisoned");
            if counts.len() > 4096 {
                counts.clear();
            }
            let n = counts.entry(sid.clone()).or_insert(0);
            *n += 1;
            *n
        };
        job_ids.iter().find_map(|&j| params.faults.transport_fault(j, attempt))
    } else {
        None
    };
    if wire_fault == Some(FaultKind::ConnRefuse) {
        // Simulated connection refusal: drop the request without computing
        // (or writing a single byte — see `Response::with_wire_fault`).
        return Response::error(503, "injected conn_refuse").with_wire_fault(wire_fault);
    }
    let (case, mut config) = match params.plan() {
        Ok(planned) => planned,
        Err(e) => return Response::error(400, &e),
    };

    let token = CancelToken::new();
    config.cancel = token.clone();
    {
        let mut active = shared.active.lock().expect("shard registry poisoned");
        if active.contains_key(&sid) {
            return Response::error(409, &format!("shard {sid} is already running"));
        }
        active.insert(sid.clone(), token);
    }
    // Everything below must pass through `finish` so the registry entry is
    // removed on every exit path.
    let finish = |response: Response| -> Response {
        shared.active.lock().expect("shard registry poisoned").remove(&sid);
        response
    };

    let mut resume = false;
    if let Some(state_dir) = &shared.config.state_dir {
        let shard_dir = state_dir.join(format!("shard-{sid}"));
        resume = shard_dir.join(WAL_FILE).exists();
        config.checkpoint = Some(shard_dir);
    }
    let mut outcome = run_shard(&case, &config, &shared.cache, &job_ids, resume);
    if outcome.is_err() && resume {
        // A leftover WAL from a differently-parameterized (or corrupt)
        // earlier dispatch; wipe the shard dir and run fresh.
        if let Some(dir) = &config.checkpoint {
            let _ = std::fs::remove_dir_all(dir);
        }
        outcome = run_shard(&case, &config, &shared.cache, &job_ids, false);
    }
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => return finish(Response::error(400, &e)),
    };

    let header = ShardHeader {
        shard: sid.clone(),
        jobs: outcome.outputs.len(),
        fingerprint: config_fingerprint(std::slice::from_ref(&case), &config),
        restored: outcome.restored_jobs,
    };
    let mut body = shard_header_line(&header);
    body.push('\n');
    for output in &outcome.outputs {
        body.push_str(&shard_job_line(output));
        body.push('\n');
    }
    // Non-refusal transport faults damage the successful response on the
    // wire: the shard computed (and checkpointed) fine, the bytes did not
    // survive the network.
    finish(Response::jsonl(200, body).with_wire_fault(wire_fault))
}
