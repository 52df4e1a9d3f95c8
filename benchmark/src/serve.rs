//! `serve_small`: a closed loop of clients submitting small via clips over
//! HTTP to an in-process `ilt_server` that shards each job across two
//! loopback `ilt_cluster::Worker`s — and the probes of `ilt-server` and
//! `ilt-cluster`.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ilt_cluster::{ClusterConfig, Coordinator, ExecPolicy, JobParams, Worker, WorkerConfig};
use ilt_field::{parse_pgm, pgm_bytes, Field2D};
use ilt_layouts::via_pattern;
use ilt_optics::{LithoSimulator, OpticsConfig};
use ilt_runtime::{assemble_batch, planned_job_list, run_batch, SimulatorCache};
use ilt_server::harness::{self, Conn, Reply};
use ilt_server::ServerConfig;

use crate::checks::{check_mask, Quality};
use crate::harness::{
    cpu_seconds, median, median_of, Budget, Metrics, RunConfig, Tracer, Window, ONE_OP,
};
use crate::Workload;

const CLIENTS_WANTED: usize = 2;
const WORKERS_WANTED: usize = 2;
/// Distinct clips a run cycles through; the first is the reference clip.
const CLIPS: usize = 8;
const REFERENCE_VIA_SEED: u64 = 7;
const POLL_SLEEP: Duration = Duration::from_millis(2);
/// SOCS kernels of a served job.
const KERNELS: usize = 3;

struct Clip {
    name: String,
    target: Field2D,
    /// Pixel pitch the service plans the inline clip at.
    nm_per_px: f64,
    pgm: Vec<u8>,
    /// The mask an in-process `run_batch` of the same `JobParams::plan()`
    /// produces, as the PGM bytes the server must answer with.
    expected_pgm: Vec<u8>,
}

/// What one job cost the client.
#[derive(Default)]
struct Exchange {
    submit_s: f64,
    poll_s: Vec<f64>,
    mask_get_s: f64,
    bytes_out: usize,
    bytes_in: usize,
}

/// One finished job of a client thread.
struct Done {
    op_s: f64,
    /// When it finished, from the window's start.
    finished_s: f64,
    /// Process CPU seconds read at that moment.
    cpu_mark: f64,
    outcome: Result<Exchange, String>,
}

pub struct Serve {
    query: String,
    clips: Vec<Clip>,
    workers: Vec<(String, JoinHandle<()>)>,
    server: Option<(SocketAddr, JoinHandle<std::io::Result<()>>)>,
    clients: usize,
    /// A served mask of the reference clip passed the byte comparison, so
    /// `clips[0].expected_pgm` is what the service answered.
    reference_served: bool,
}

fn spawn_worker() -> Result<(String, JoinHandle<()>), String> {
    let worker = Worker::bind(WorkerConfig::default()).map_err(|e| format!("bind worker: {e}"))?;
    let addr = worker
        .local_addr()
        .map_err(|e| format!("worker address: {e}"))?
        .to_string();
    Ok((addr, std::thread::spawn(move || worker.run())))
}

fn stop_workers(workers: Vec<(String, JoinHandle<()>)>) {
    for (addr, handle) in workers {
        if let Ok(addr) = addr.parse() {
            harness::post(addr, "/v1/shutdown", b"");
        }
        let _ = handle.join();
    }
}

/// Speculation off: a speculative copy of a shard on two cores makes op
/// time bimodal.
fn cluster_config(workers: &[(String, JoinHandle<()>)]) -> ClusterConfig {
    ClusterConfig {
        workers: workers.iter().map(|(addr, _)| addr.clone()).collect(),
        speculate_factor: 0.0,
        ..ClusterConfig::default()
    }
}

fn start_server(
    cluster: Option<ClusterConfig>,
    executors: usize,
) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    harness::start(ServerConfig {
        workers: executors,
        queue_cap: 64,
        // Polling sends many requests down one connection; the cap is a
        // production guard this workload does not measure.
        keep_alive_requests: usize::MAX,
        // Results are fetched at once; keeping every mask of a window
        // resident would make peak memory follow the op count.
        max_resident_masks: 64,
        cluster,
        ..ServerConfig::default()
    })
}

fn reply_bytes(reply: &Reply) -> usize {
    reply.body.len()
        + reply
            .headers
            .iter()
            .map(|(n, v)| n.len() + v.len() + 4)
            .sum::<usize>()
}

fn request(
    conn: &mut Conn,
    method: &str,
    path: &str,
    body: &[u8],
    x: &mut Exchange,
) -> Result<Reply, String> {
    let mut raw = format!(
        "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    x.bytes_out += raw.len();
    conn.send_raw(&raw)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let reply = conn
        .read_reply()
        .map_err(|e| format!("{method} {path}: {e}"))?;
    x.bytes_in += reply_bytes(&reply);
    Ok(reply)
}

/// One job, as a caller of a mask service sees it: submit, poll until done,
/// fetch the mask.
fn job(
    conn: &mut Conn,
    query: &str,
    clip: &Clip,
    tracer: &Tracer,
    span: Option<usize>,
    op: usize,
) -> Result<Exchange, String> {
    let mut x = Exchange::default();
    let t = Instant::now();
    let reply = tracer.scope("http POST /v1/jobs", span, op, || {
        request(
            conn,
            "POST",
            &format!("/v1/jobs?{query}"),
            &clip.pgm,
            &mut x,
        )
    })?;
    x.submit_s = t.elapsed().as_secs_f64();
    if reply.status != 202 {
        return Err(format!(
            "submit answered {}: {}",
            reply.status,
            reply.text()
        ));
    }
    let id = harness::job_id(&reply)?;
    loop {
        let t = Instant::now();
        let reply = tracer.scope("http GET /v1/jobs/{id}", span, op, || {
            request(conn, "GET", &format!("/v1/jobs/{id}"), b"", &mut x)
        })?;
        x.poll_s.push(t.elapsed().as_secs_f64());
        let text = reply.text();
        if reply.status != 200 {
            return Err(format!("poll answered {}: {text}", reply.status));
        }
        if text.contains("\"state\":\"done\"") {
            break;
        }
        if text.contains("\"state\":\"failed\"") || text.contains("\"state\":\"cancelled\"") {
            return Err(format!("job {id} ended without a mask: {text}"));
        }
        std::thread::sleep(POLL_SLEEP);
    }
    let t = Instant::now();
    let reply = tracer.scope("http GET /v1/jobs/{id}/mask", span, op, || {
        request(conn, "GET", &format!("/v1/jobs/{id}/mask"), b"", &mut x)
    })?;
    x.mask_get_s = t.elapsed().as_secs_f64();
    if reply.status != 200 {
        return Err(format!("mask fetch answered {}", reply.status));
    }
    if reply.body != clip.expected_pgm {
        return Err(format!(
            "{}: served mask differs from the in-process run_batch mask",
            clip.name
        ));
    }
    Ok(x)
}

impl Serve {
    fn addr(&self) -> SocketAddr {
        self.server
            .as_ref()
            .expect("the server runs until teardown")
            .0
    }

    /// `clients` closed-loop clients, one keep-alive connection each, until
    /// the budget is spent. Returns the window and every exchange record.
    fn drive(
        &self,
        addr: SocketAddr,
        clients: usize,
        budget: Budget,
        tracer: &Tracer,
    ) -> (Window, Vec<Exchange>) {
        let clients = clients.min(budget.max_ops.unwrap_or(usize::MAX)).max(1);
        let per_client = Budget {
            seconds: budget.seconds,
            min_ops: budget.min_ops.div_ceil(clients),
            max_ops: budget.max_ops.map(|m| m.div_ceil(clients)),
        };
        let cpu_start = cpu_seconds();
        let start = Instant::now();
        let (query, clips) = (&self.query, &self.clips);
        let per_thread: Vec<Vec<Done>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    scope.spawn(move || {
                        let mut conn = Conn::open(addr);
                        let mut done = Vec::new();
                        while !per_client.done(done.len(), start.elapsed().as_secs_f64()) {
                            // Client c's i-th op; client 0 starts on the
                            // reference clip, the others further along.
                            let op = done.len() * clients + c;
                            let clip = &clips[(done.len() + 3 * c) % clips.len()];
                            let t = Instant::now();
                            let span = tracer.begin(&format!("op {}", clip.name), None, op);
                            let outcome = job(&mut conn, query, clip, tracer, span, op);
                            tracer.end(span);
                            done.push(Done {
                                op_s: t.elapsed().as_secs_f64(),
                                finished_s: start.elapsed().as_secs_f64(),
                                cpu_mark: cpu_seconds(),
                                outcome,
                            });
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread never panics"))
                .collect()
        });
        let mut window = Window {
            wall_s: start.elapsed().as_secs_f64(),
            cpu_start,
            ..Window::default()
        };
        let mut done: Vec<Done> = per_thread.into_iter().flatten().collect();
        done.sort_by(|a, b| {
            a.finished_s
                .partial_cmp(&b.finished_s)
                .expect("finite times")
        });
        let mut exchanges = Vec::new();
        for d in done {
            window.record(d.op_s, d.cpu_mark, d.outcome.map(|x| exchanges.push(x)));
        }
        (window, exchanges)
    }
}

impl Workload for Serve {
    fn setup(cfg: &RunConfig) -> Result<Self, String> {
        let (grid, tile, halo) = cfg.shapes.serve;
        let query = format!("kernels={KERNELS}&tile={tile}&halo={halo}&iters=2&threads=1&eval=0");
        let workers: Vec<_> = (0..cfg.capped(WORKERS_WANTED))
            .map(|_| spawn_worker())
            .collect::<Result<_, _>>()?;
        let server = start_server(Some(cluster_config(&workers)), cfg.capped(WORKERS_WANTED));

        let mut rng = cfg.rng(3);
        let cache = SimulatorCache::new();
        let clips = (0..CLIPS)
            .map(|i| {
                let seed = if i == 0 {
                    REFERENCE_VIA_SEED
                } else {
                    1000 + rng.next_u64() % 1_000_000
                };
                let target = via_pattern(seed).rasterize(grid);
                let pgm = pgm_bytes(&target, 0.0, 1.0);
                let params = JobParams::from_saved(&query, pgm.clone(), &ExecPolicy::default())?;
                let (case, config) = params.plan()?;
                let outcome = run_batch(std::slice::from_ref(&case), &config, &cache)?;
                Ok(Clip {
                    name: format!("via{seed}"),
                    target,
                    nm_per_px: case.nm_per_px,
                    pgm,
                    expected_pgm: pgm_bytes(&outcome.cases[0].mask, 0.0, 1.0),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let serve = Serve {
            query,
            clips,
            workers,
            server: Some(server),
            clients: cfg.capped(CLIENTS_WANTED),
            reference_served: false,
        };
        // The priming op: one job, so each worker has built its simulator.
        let (primed, _) = serve.drive(serve.addr(), 1, ONE_OP, &Tracer::new(false));
        match primed.errors.first() {
            Some(e) => Err(format!("priming job failed: {e}")),
            None => Ok(serve),
        }
    }

    fn threads(&self) -> Vec<(&'static str, usize, usize)> {
        vec![
            ("clients", self.clients, CLIENTS_WANTED),
            ("workers", self.workers.len(), WORKERS_WANTED),
        ]
    }

    fn window(&mut self, budget: Budget, tracer: &Tracer) -> Window {
        let (window, exchanges) = self.drive(self.addr(), self.clients, budget, tracer);
        // The first op is the reference clip, and a job only yields an
        // exchange record when its mask matched.
        self.reference_served |= !exchanges.is_empty() && window.failed == 0;
        window
    }

    fn quality(&mut self) -> Result<Quality, String> {
        if !self.reference_served {
            return Err("no reference mask was served".into());
        }
        let mask = parse_pgm(&self.clips[0].expected_pgm)
            .map_err(|e| format!("served mask: {e}"))?
            .threshold(0.5);
        let target = &self.clips[0].target;
        let n = target.shape().0;
        check_mask(&mask, n)?;
        let sim = LithoSimulator::new(OpticsConfig {
            grid: n,
            nm_per_px: self.clips[0].nm_per_px,
            num_kernels: KERNELS,
            ..OpticsConfig::default()
        })?;
        Ok(Quality::evaluate(&sim, target, &mask))
    }

    fn teardown(mut self) {
        if let Some((addr, handle)) = self.server.take() {
            harness::shutdown(addr, handle);
        }
        stop_workers(std::mem::take(&mut self.workers));
    }
}

/// The value of the Prometheus sample whose name, labels included, is `name`.
fn scrape(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Probes of `ilt-server` and `ilt-cluster`, on a fresh `serve_small`
/// set-up with a single client so nothing queues.
pub fn probes(cfg: &RunConfig, tracer: &Tracer, out: &mut Metrics) -> Result<(), String> {
    let serve = Serve::setup(cfg)?;
    let jobs = if cfg.smoke { 2 } else { 12 };
    let budget = Budget {
        seconds: 0.0,
        min_ops: jobs,
        max_ops: Some(jobs),
    };
    let silent = Tracer::new(false);

    let (window, exchanges) = serve.drive(serve.addr(), 1, budget, tracer);
    if let Some(e) = window.errors.first() {
        return Err(format!("probe job failed: {e}"));
    }
    let n = exchanges.len() as f64;
    let polls: Vec<f64> = exchanges
        .iter()
        .flat_map(|x| x.poll_s.iter().copied())
        .collect();
    let op_s = median(&window.op_s);
    out.put(
        "ilt-server.submit_s",
        median(&exchanges.iter().map(|x| x.submit_s).collect::<Vec<_>>()),
        "s",
    );
    out.put("ilt-server.poll_s", median(&polls), "s");
    out.put(
        "ilt-server.mask_get_s",
        median(&exchanges.iter().map(|x| x.mask_get_s).collect::<Vec<_>>()),
        "s",
    );
    out.put("ilt-server.polls_per_job", polls.len() as f64 / n, "count");
    out.put(
        "ilt-server.bytes_in_per_job",
        exchanges.iter().map(|x| x.bytes_in as f64).sum::<f64>() / n,
        "B",
    );
    out.put(
        "ilt-server.bytes_out_per_job",
        exchanges.iter().map(|x| x.bytes_out as f64).sum::<f64>() / n,
        "B",
    );

    let text = harness::get(serve.addr(), "/metrics").text();
    out.put(
        "ilt-server.jobs_rejected",
        scrape(&text, "ilt_jobs_rejected_total"),
        "count",
    );
    let shard_count = scrape(&text, "ilt_shard_latency_ms_count{stage=\"shard\"}");
    let jobs_done = scrape(&text, "ilt_jobs_completed_total");
    out.put(
        "ilt-cluster.shards",
        shard_count / jobs_done.max(1.0),
        "count",
    );
    out.put(
        "ilt-cluster.shard_latency_s",
        scrape(&text, "ilt_shard_latency_ms_sum{stage=\"shard\"}") / shard_count.max(1.0) / 1e3,
        "s",
    );
    out.put(
        "ilt-cluster.shards_redispatched",
        scrape(&text, "ilt_shards_redispatched_total"),
        "count",
    );
    out.put(
        "ilt-cluster.shards_speculated",
        scrape(&text, "ilt_shards_speculated_total"),
        "count",
    );
    out.put(
        "ilt-cluster.heartbeat_failures",
        scrape(&text, "ilt_worker_heartbeat_failures_total"),
        "count",
    );

    // The same jobs on a server that runs them in-process.
    let local = start_server(None, cfg.capped(WORKERS_WANTED));
    serve.drive(local.0, 1, ONE_OP, &silent);
    let (local_window, _) = serve.drive(local.0, 1, budget, &silent);
    harness::shutdown(local.0, local.1);
    out.put("ilt-server.local_op_s", median(&local_window.op_s), "s");

    // The coordinator called directly, without the HTTP front: dispatch,
    // wire, reassembly. Then the same job with no cluster at all.
    let clip = &serve.clips[0];
    let params = JobParams::from_saved(&serve.query, clip.pgm.clone(), &ExecPolicy::default())?;
    let (case, config) = params.plan()?;
    let cases = std::slice::from_ref(&case);
    let plan = planned_job_list(cases, &config)?;
    let coordinator = Coordinator::new(cluster_config(&serve.workers))?;
    let cache = SimulatorCache::new();
    let wire_query = params.to_query();
    let mut run_job = Vec::new();
    for id in 0..jobs + 1 {
        let t = Instant::now();
        let outcome = tracer.scope("ilt-cluster.run_job + assemble_batch", None, id, || {
            coordinator
                .run_job(
                    id,
                    &wire_query,
                    &clip.pgm,
                    &plan,
                    &config.cancel,
                    &config.progress,
                )
                .and_then(|outputs| assemble_batch(cases, &config, outputs, &cache, 0.0))
        })?;
        if id > 0 {
            run_job.push(t.elapsed().as_secs_f64());
        }
        if pgm_bytes(&outcome.cases[0].mask, 0.0, 1.0) != clip.expected_pgm {
            return Err("coordinator mask differs from the in-process run_batch mask".into());
        }
    }
    drop(coordinator);
    let run_job_s = median(&run_job);
    let in_process = median_of(jobs, || run_batch(cases, &config, &cache));
    out.put("ilt-cluster.run_job_s", run_job_s, "s");
    out.put("ilt-cluster.overhead_s", run_job_s - in_process, "s");
    out.put("ilt-server.overhead_s", op_s - run_job_s, "s");
    serve.teardown();
    Ok(())
}
