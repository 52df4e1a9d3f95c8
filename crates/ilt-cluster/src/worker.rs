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
//! A worker keeps no state between shards and writes no file: every tile is
//! deterministic, so a shard lost with its replica is recomputed from
//! scratch on another one. Fault injection is local by design: a job
//! description never carries a plan, so a dispatch with `inject=` is
//! refused with `400` like any other bad setting, and a worker injects only
//! the plan given on its own command line ([`WorkerConfig::faults`]). A
//! worker never damages its own replies: network faults are what a
//! test-side proxy does to the bytes of an honest worker, and a crash is a
//! signal the test sends.

use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};

use ilt_runtime::{run_shard, CancelToken, FaultPlan, SimulatorCache};

use crate::params::{is_label, ExecPolicy, JobParams};
use crate::transport::{ConnOptions, Gate, Listener, Request, Response};
use crate::wire::{parse_job_ids, shard_header_line, shard_job_line, ShardHeader};

/// Worker service configuration.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Listen address, e.g. `127.0.0.1:0`.
    pub addr: String,
    /// Fault plan injected into every shard this replica executes (chaos
    /// testing; empty in production).
    pub faults: FaultPlan,
    /// Execution policy bounds applied to dispatched job parameters. A
    /// dispatch always carries its own `retries=` and `timeout_s=`, so only
    /// the thread cap applies.
    pub policy: ExecPolicy,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
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
    // A shard id keys the running-shard registry and `DELETE`'s path.
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
    let params = match JobParams::from_request(req, &shared.config.policy) {
        Ok(p) => p,
        Err(e) => return Response::error(400, &e),
    };
    let (case, mut config) = match params.plan() {
        Ok(planned) => planned,
        Err(e) => return Response::error(400, &e),
    };

    // The only plan a replica runs is its own.
    config.faults = shared.config.faults.clone();
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

    let outcome = match run_shard(&case, &config, &shared.cache, &job_ids) {
        Ok(o) => o,
        Err(e) => return finish(Response::error(400, &e)),
    };

    let header = ShardHeader {
        shard: sid.clone(),
        jobs: outcome.outputs.len(),
        fingerprint: outcome.fingerprint,
    };
    let mut body = shard_header_line(&header);
    body.push('\n');
    for output in &outcome.outputs {
        body.push_str(&shard_job_line(output));
        body.push('\n');
    }
    finish(Response::jsonl(200, body))
}
