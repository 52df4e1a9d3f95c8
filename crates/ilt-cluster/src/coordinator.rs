//! The coordinator half of sharded execution: splits one job's planned
//! tile set across worker replicas, supervises the shards, and merges the
//! per-tile outputs for central stitching.
//!
//! It is self-healing under partial, asymmetric, and transient failure:
//!
//! - **One loop per job**: [`Coordinator::run_job`] supervises its shards
//!   itself, on the calling thread, from one table — *pending*, *running*
//!   (one or two live copies, each an exchange on its own thread) and
//!   *resolved*. Each turn settles the copies that reported, hangs up on
//!   the ones that must stop, dispatches and speculates, then waits on the
//!   membership condvar until the next event (a copy reports, a member
//!   joins, leaves, dies or revives, the job is cancelled) or the next
//!   deadline it computed (a straggler, a breaker backoff, a grace); with
//!   no deadline pending it waits on events alone.
//! - **Dynamic membership**: workers join, drain, and leave a running
//!   coordinator ([`Coordinator::join`] etc., wired to `POST /v1/members`).
//!   Shards are split finer than the worker count and the loop draws
//!   workers from the *live* set ([`Membership::try_acquire`]), so a
//!   replica that joins mid-job picks up queued shards immediately.
//! - **Death detection**: a monitor thread probes every member's
//!   `GET /healthz` every `heartbeat`; after a configured number of
//!   consecutive failures the worker is marked dead (and revived on the
//!   next successful probe). Only such a flip wakes the jobs' loops.
//! - **Quarantine**: each member carries a circuit [`Breaker`]
//!   (closed → open → half-open, decorrelated-jitter backoff). Consecutive
//!   *shard* failures open it and only a successful shard closes it — a
//!   flaky-but-alive worker whose heartbeats pass stops receiving
//!   dispatches without being declared dead.
//! - **Straggler speculation**: the coordinator tracks a running median of
//!   shard latency per job; a shard exceeding `speculate_factor × median`
//!   is speculatively re-executed on a second worker. First result wins;
//!   when the loser still delivers, the two results must agree (config
//!   fingerprint and per-job mask hashes) — disagreement poisons the whole
//!   job rather than emitting a possibly-wrong mask.
//! - **Re-dispatch**: a shard whose worker dies or flakes mid-exchange is
//!   re-sent — same shard id, same job ids — to the next admitted worker.
//!   The shard id keys the worker-side checkpoint WAL directory, so a
//!   replica that already holds partial results restores them instead of
//!   recomputing.
//! - **Hang-up**: an exchange blocks on its socket until the reply, EOF or
//!   a reset. When the loop must stop it — the worker was declared dead, a
//!   loser's or a cancel's grace ran out — it shuts down a clone of that
//!   copy's stream, which ends the blocked read at once, and settles the
//!   copy with the error it recorded for the hang-up. A copy still
//!   connecting finds the hang-up when it comes to store its stream.
//! - **Cancel fan-out**: when the job's [`CancelToken`] fires (the
//!   canceller then calls [`Coordinator::wake`]), each in-flight copy gets
//!   a `DELETE /v1/shards/<sid>`;
//!   the coordinator then *keeps waiting* (bounded by the cancel grace
//!   period) for the worker's cancelled-at-tile-boundary records.
//! - **Lost shards**: a shard that exhausts its attempt budget (or finds
//!   no live worker) synthesizes terminal `failed` records carrying the
//!   full per-attempt history — worker, error, elapsed — so the journal
//!   explains *how* the shard died, not just that it did.
//!
//! Determinism: per-tile masks are bit-exact regardless of which replica
//! computed them (hash-verified in [`crate::wire`]), outputs are merged in
//! job-id order, and stitching/evaluation happen centrally — so any worker
//! count, split, join/leave schedule, or crash/re-dispatch history yields
//! byte-identical masks to a single-process `ilt batch` run.

use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::Scope;
use std::time::{Duration, Instant};

use ilt_runtime::{
    CancelToken, JobOutput, JobRecord, JobStatus, PlannedJob, Progress, StageTimes,
};

use crate::breaker::BreakerConfig;
use crate::membership::{MemberView, Membership, Settle, WorkerSlot};
use crate::stats::{family, ClusterStats};
use crate::transport::{request, Client, Reply};
use crate::wire::{encode_job_ids, parse_shard_header, parse_shard_job};

/// Connect timeout of every coordinator -> worker connection.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Why the job's inbox can be poisoned: a thread panicked holding it.
const INBOX: &str = "an exchange thread panicked holding the inbox";

/// Cluster topology and supervision tuning.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Initial worker replica addresses (`host:port`); may be empty when
    /// workers will register themselves via `POST /v1/members`.
    pub workers: Vec<String>,
    /// Interval of the monitor's `GET /healthz` probes.
    pub heartbeat: Duration,
    /// Consecutive failed probes before a worker is declared dead.
    pub heartbeat_failures: u32,
    /// After cancel fan-out (or a speculation loss), how long to keep
    /// waiting for a worker's records before giving up on the exchange.
    pub cancel_grace: Duration,
    /// Maximum shards dispatched to one worker concurrently.
    pub max_inflight_per_worker: u32,
    /// Circuit-breaker tuning shared by every member.
    pub breaker: BreakerConfig,
    /// Speculate a shard once it runs longer than this multiple of the
    /// job's median shard latency (0.0 disables speculation).
    pub speculate_factor: f64,
    /// Completed-shard samples required before the median is trusted.
    pub speculate_min_samples: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            workers: Vec::new(),
            heartbeat: Duration::from_millis(500),
            heartbeat_failures: 3,
            cancel_grace: Duration::from_secs(10),
            max_inflight_per_worker: 2,
            breaker: BreakerConfig::default(),
            speculate_factor: 3.0,
            speculate_min_samples: 3,
        }
    }
}

/// Supervises a dynamic set of worker replicas and executes jobs across
/// them. Owned by the serving process; dropped (stopping the heartbeat
/// monitor) on shutdown.
pub struct Coordinator {
    config: ClusterConfig,
    members: Arc<Membership>,
    stats: Arc<ClusterStats>,
    /// Set (and notified) on drop; the monitor thread sleeps on it between
    /// heartbeats.
    stop: Arc<(Mutex<bool>, Condvar)>,
}

impl Coordinator {
    /// Builds the coordinator and starts its heartbeat monitor thread.
    /// The initial worker list may be empty — members can join later —
    /// but jobs fail until at least one worker is registered.
    ///
    /// # Errors
    ///
    /// Currently infallible; kept fallible for config validation growth.
    pub fn new(config: ClusterConfig) -> Result<Coordinator, String> {
        let members = Arc::new(Membership::new(&config.workers, config.breaker));
        let stats = Arc::new(ClusterStats::default());
        stats.members_joined.add(members.len() as u64);
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let members = Arc::clone(&members);
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            let config = config.clone();
            std::thread::spawn(move || monitor_loop(&config, &members, &stats, &stop));
        }
        Ok(Coordinator { config, members, stats, stop })
    }

    /// The live cluster metrics, for `/metrics` rendering.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// Registers a worker address. Returns `false` when it is already a
    /// member.
    pub fn join(&self, addr: &str) -> bool {
        let joined = self.members.join(addr);
        if joined {
            self.stats.members_joined.inc();
        }
        joined
    }

    /// Marks a worker as draining: in-flight shards finish, no new
    /// dispatches. Returns `false` for unknown addresses.
    pub fn drain(&self, addr: &str) -> bool {
        self.members.drain(addr)
    }

    /// Removes a worker from the membership. Returns `false` for unknown
    /// addresses.
    pub fn leave(&self, addr: &str) -> bool {
        let left = self.members.leave(addr);
        if left {
            self.stats.members_left.inc();
        }
        left
    }

    /// Wakes every running job's loop: a canceller calls it after setting a
    /// job's [`CancelToken`], so the cancel fans out at once.
    pub fn wake(&self) {
        self.members.notify();
    }

    /// Point-in-time views of every member (the `GET /v1/members` rows and
    /// the breaker-state metric source).
    pub fn member_views(&self) -> Vec<MemberView> {
        self.members.snapshot().iter().map(|s| MemberView::of(s)).collect()
    }

    /// Appends the full cluster exposition — counters, histograms, and the
    /// per-worker `ilt_worker_breaker_state` gauge — to `out`.
    pub fn render_metrics(&self, out: &mut String) {
        self.stats.render(self.members.len(), self.members.alive_count(), out);
        family(
            out,
            "ilt_worker_breaker_state",
            "Circuit-breaker state per worker (0 closed, 1 half-open, 2 open).",
            "gauge",
        );
        for view in self.member_views() {
            out.push_str(&format!(
                "ilt_worker_breaker_state{{worker=\"{}\"}} {}\n",
                view.addr, view.breaker_gauge
            ));
        }
    }

    /// Executes one job's full tile plan across the cluster and returns
    /// the merged per-tile outputs in job-id order, ready for
    /// [`ilt_runtime::assemble_batch`].
    ///
    /// `query` is the job's persisted parameter query (fault injection
    /// stripped — faults stay local to workers); `body` carries the target
    /// PGM for inline sources. `progress` ticks once per executed
    /// (non-synthesized, non-cancelled) tile as shards complete.
    ///
    /// # Errors
    ///
    /// Returns a message when the plan is empty, no worker is registered,
    /// replicas disagree on the configuration fingerprint, or a
    /// speculation race surfaces disagreeing results (version/parameter
    /// skew — never emit a possibly-wrong mask); lost shards are NOT
    /// errors — they synthesize failed or cancelled records.
    pub fn run_job(
        &self,
        job_id: usize,
        query: &str,
        body: &[u8],
        plan: &[PlannedJob],
        cancel: &CancelToken,
        progress: &Progress,
    ) -> Result<Vec<JobOutput>, String> {
        if plan.is_empty() {
            return Err("job plans no tiles".into());
        }
        let members = self.members.len();
        if members == 0 {
            return Err(
                "cluster has no registered workers; start one with `ilt worker --register` \
                 or add it via POST /v1/members"
                    .into(),
            );
        }
        // Split finer than the member count so late joiners find queued
        // shards and stragglers stall less of the plan.
        let shard_count = plan.len().min((members * 2).max(4));
        let mut assignments: Vec<Vec<&PlannedJob>> = vec![Vec::new(); shard_count];
        for job in plan {
            assignments[job.id % shard_count].push(job);
        }
        let mut shards: Vec<Shard> = assignments
            .iter()
            .enumerate()
            .filter(|(_, jobs)| !jobs.is_empty())
            .map(|(shard_idx, jobs)| Shard::new(format!("{job_id}-{shard_idx}"), jobs, query))
            .collect();
        let inbox = Mutex::new(Vec::new());
        let poison = std::thread::scope(|scope| {
            Supervisor {
                coordinator: self,
                scope,
                body,
                cancel,
                inbox: &inbox,
                budget: (members as u32 * 2).max(4),
                latencies: Vec::new(),
                poison: None,
            }
            .run(&mut shards)
        });
        if let Some(reason) = poison {
            return Err(reason);
        }

        let mut outputs: Vec<JobOutput> = Vec::with_capacity(plan.len());
        let mut fingerprint: Option<u64> = None;
        for shard in shards {
            match shard.outcome.expect("the loop resolves every shard") {
                Ok((fp, shard_outputs)) => {
                    let seen = *fingerprint.get_or_insert(fp);
                    if seen != fp {
                        return Err(format!(
                            "workers disagree on configuration fingerprint \
                             ({seen:016x} vs {fp:016x}) — replica version or parameter skew"
                        ));
                    }
                    for output in shard_outputs {
                        if output.record.status != JobStatus::Cancelled {
                            progress.tick();
                        }
                        outputs.push(output);
                    }
                }
                Err(reason) => {
                    // The shard can no longer be computed anywhere; finish
                    // the job with terminal records instead of hanging.
                    let status = if cancel.is_cancelled() {
                        JobStatus::Cancelled
                    } else {
                        JobStatus::Failed(format!("shard lost: {reason}"))
                    };
                    for job in shard.jobs {
                        outputs.push(synthesize(job, status.clone()));
                    }
                }
            }
        }
        outputs.sort_by_key(|o| o.record.job_id);
        Ok(outputs)
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        let (stopped, wake) = &*self.stop;
        // A poisoned flag means the monitor already died; nothing to stop.
        if let Ok(mut stopped) = stopped.lock() {
            *stopped = true;
        }
        wake.notify_all();
    }
}

/// Posts a membership action (`join`, `leave`, `drain`) for `worker_addr`
/// to the coordinator at `coordinator_addr` — the client half of
/// `POST /v1/members`, used by `ilt worker --register`.
///
/// # Errors
///
/// Returns a message when the coordinator is unreachable or refuses the
/// action.
pub fn post_membership(
    coordinator_addr: &str,
    worker_addr: &str,
    action: &str,
    timeout: Duration,
) -> Result<(), String> {
    let path = format!(
        "/v1/members?addr={}&action={action}",
        crate::params::query_encode(worker_addr)
    );
    match request(coordinator_addr, "POST", &path, &[], timeout) {
        Ok((200, _)) => Ok(()),
        Ok((status, body)) => Err(format!(
            "coordinator {coordinator_addr} refused {action}: HTTP {status} {}",
            String::from_utf8_lossy(&body).trim()
        )),
        Err(e) => Err(format!("bad membership response from {coordinator_addr}: {e}")),
    }
}

enum ShardError {
    /// Worth re-dispatching to another replica.
    Retry(String),
    /// Deterministic or final; re-dispatch cannot help.
    Permanent(String),
    /// This copy lost a speculation race and was cut short.
    Superseded,
}

/// A transport failure (connect, send, a response cut short or malformed)
/// says nothing about the shard: try another replica.
impl From<String> for ShardError {
    fn from(reason: String) -> Self {
        ShardError::Retry(reason)
    }
}

/// What an exchange thread reports: the shard's configuration fingerprint
/// and outputs, or why not.
type Exchanged = Result<(u64, Vec<JobOutput>), ShardError>;

/// The loop's view of one shard: *pending* (no `race`, no `outcome`),
/// *running* (`race` holds its live copies) or *resolved* (`outcome`).
struct Shard<'p> {
    sid: String,
    jobs: &'p [&'p PlannedJob],
    /// The dispatch target: shard id, job ids, the job's query.
    path: String,
    /// Failed attempts — worker, error, elapsed — carried into a lost
    /// shard's records so the journal explains how it died.
    attempts: Vec<String>,
    race: Option<Race>,
    /// Its configuration fingerprint and outputs, or why it is lost.
    outcome: Option<Result<(u64, Vec<JobOutput>), String>>,
}

impl<'p> Shard<'p> {
    fn new(sid: String, jobs: &'p [&'p PlannedJob], query: &str) -> Self {
        let ids: Vec<usize> = jobs.iter().map(|j| j.id).collect();
        let path = format!(
            "/v1/shards?shard={sid}&jobs={}{}{query}",
            encode_job_ids(&ids),
            if query.is_empty() { "" } else { "&" }
        );
        Shard { sid, jobs, path, attempts: Vec::new(), race: None, outcome: None }
    }
}

/// One dispatch attempt: the primary copy and, once it straggles past
/// `speculate_factor × median`, a speculative copy on another worker. The
/// first result wins; the loser gets a cancel and a bounded grace to
/// surface its records, and when it does, the two results must agree.
struct Race {
    /// The primary's worker, for the attempt history.
    addr: String,
    started: Instant,
    /// Copies whose exchange has not reported yet.
    copies: Vec<LiveCopy>,
    /// The first result: speculative?, worker, fingerprint, outputs.
    winner: Option<(bool, String, u64, Vec<JobOutput>)>,
    /// An error no other replica can fix; it loses the shard.
    permanent: Option<String>,
    /// `worker: error` of each copy worth retrying elsewhere.
    retry_errors: Vec<String>,
}

/// One live copy of a shard. A race has at most one live primary and one
/// live speculative copy, so the flag names it within its shard.
struct LiveCopy {
    slot: Arc<WorkerSlot>,
    speculative: bool,
    /// Where the loop hangs up on the exchange.
    line: Arc<Mutex<Line>>,
    /// When the loop hangs up on this copy unless it reports first, and the
    /// error it then settles with.
    hang_up: Option<(Instant, ShardError)>,
}

/// The loop's end of one copy's connection.
enum Line {
    /// Not connected yet: the exchange stores its stream here, unless it
    /// finds the line already hung up.
    Connecting,
    /// A clone of the exchange's stream: `shutdown` on it ends the
    /// exchange's blocked read at once.
    Connected(TcpStream),
    /// The loop hung up: an exchange that finds this sends nothing.
    HungUp,
}

/// The event loop that supervises one clustered job on the thread that
/// called [`Coordinator::run_job`]. Copies exchange on scoped threads that
/// report to `inbox` and notify the membership condvar the loop waits on.
struct Supervisor<'s, 'e: 's> {
    coordinator: &'e Coordinator,
    scope: &'s Scope<'s, 'e>,
    body: &'e [u8],
    cancel: &'e CancelToken,
    /// Settled copies: shard index, speculative flag, result.
    inbox: &'e Mutex<Vec<(usize, bool, Exchanged)>>,
    /// Dispatch attempts per shard before it is lost.
    budget: u32,
    /// Completed-shard latencies in ms, sorted: the speculation median.
    latencies: Vec<f64>,
    poison: Option<String>,
}

impl<'s, 'e: 's> Supervisor<'s, 'e> {
    /// Turns until every shard is resolved. Returns the poisoning message
    /// when a speculation race surfaced disagreeing results.
    fn run(mut self, shards: &mut [Shard<'_>]) -> Option<String> {
        let coordinator = self.coordinator;
        loop {
            // Read before the turn looks at anything: an event or a cancel
            // that lands mid-turn, while no one waits, still ends the wait
            // below.
            let (seen, cancelled) = (coordinator.members.events(), self.cancel.is_cancelled());
            let settled = std::mem::take(&mut *self.inbox.lock().expect(INBOX));
            for (shard_idx, speculative, result) in settled {
                self.settle(&mut shards[shard_idx], speculative, result);
            }
            let now = Instant::now();
            let mut wake = None;
            let mut blocked = false;
            let straggler = self.straggler_age();
            for (shard_idx, shard) in shards.iter_mut().enumerate() {
                if shard.outcome.is_some() {
                    continue;
                }
                if shard.race.is_none() {
                    blocked |= self.dispatch(shard_idx, shard);
                    continue;
                }
                self.watch(shard, now, &mut wake);
                if let Some(age) = straggler {
                    blocked |= self.speculate(shard_idx, shard, age, now, &mut wake);
                }
            }
            if shards.iter().all(|s| s.outcome.is_some()) {
                return self.poison;
            }
            if blocked {
                // Quarantine may be what holds a dispatch back.
                if let Some(at) = coordinator.members.next_reopen().filter(|at| *at > now) {
                    wake = Some(wake.map_or(at, |w| w.min(at)));
                }
            }
            // An exchange files its report before it notifies, so a report
            // is an event too.
            coordinator.members.wait_until(wake, || {
                coordinator.members.events() != seen || self.cancel.is_cancelled() != cancelled
            });
        }
    }

    /// Dispatches a pending shard to the least-loaded admissible worker, or
    /// resolves it as lost. `true` when it has to wait for a worker.
    fn dispatch(&self, shard_idx: usize, shard: &mut Shard<'_>) -> bool {
        let coordinator = self.coordinator;
        let tried = &shard.attempts;
        let history = || format!("{} dispatch attempts: {}", tried.len(), tried.join("; "));
        let lost = if self.poison.is_some() {
            Some("job poisoned by speculation disagreement".to_string())
        } else if self.cancel.is_cancelled() {
            // Never *start* work for a cancelled job.
            Some("cancelled before dispatch".into())
        } else if tried.len() as u32 >= self.budget {
            Some(format!("gave up after {}", history()))
        } else if coordinator.members.alive_count() == 0 {
            Some(if tried.is_empty() {
                "no live worker".into()
            } else {
                format!("no live worker after {}", history())
            })
        } else {
            None
        };
        if let Some(reason) = lost {
            shard.outcome = Some(Err(reason));
            return false;
        }
        let max_inflight = coordinator.config.max_inflight_per_worker;
        let Some(slot) = coordinator.members.try_acquire(max_inflight, &[]) else {
            return true;
        };
        // Only a dispatch that follows a failed attempt is a re-dispatch;
        // where least-loaded scheduling places the first one is not.
        if !shard.attempts.is_empty() {
            coordinator.stats.shards_redispatched.inc();
        }
        let copy = self.launch(shard_idx, shard, slot, false);
        shard.race = Some(Race {
            addr: copy.slot.addr.clone(),
            started: Instant::now(),
            copies: vec![copy],
            winner: None,
            permanent: None,
            retry_errors: Vec::new(),
        });
        false
    }

    /// Fans a cancel out to copies that have none armed yet, and hangs up on
    /// copies whose grace ran out or whose worker was declared dead.
    fn watch(&self, shard: &mut Shard<'_>, now: Instant, wake: &mut Option<Instant>) {
        let race = shard.race.as_mut().expect("a running shard");
        for copy in &mut race.copies {
            if copy.hang_up.is_none() && self.cancel.is_cancelled() {
                // The job must not turn terminal while a replica still
                // computes on its behalf: cancel, then wait (bounded) for
                // the worker's cancelled records.
                send_cancel(&copy.slot.addr, &shard.sid);
                copy.hang_up = Some((
                    Instant::now() + self.coordinator.config.cancel_grace,
                    ShardError::Permanent("worker did not acknowledge cancellation in time".into()),
                ));
            }
            match &copy.hang_up {
                // Its grace ran out.
                Some((at, _)) if *at <= now => {}
                _ if !copy.slot.is_alive() => {
                    let died = format!("worker {} died mid-shard (heartbeat)", copy.slot.addr);
                    copy.hang_up = Some((now, ShardError::Retry(died)));
                }
                Some((at, _)) => {
                    *wake = Some(wake.map_or(*at, |w| w.min(*at)));
                    continue;
                }
                None => continue,
            }
            let mut line = copy.line.lock().expect("hang-up line poisoned");
            if let Line::Connected(stream) = &*line {
                let _ = stream.shutdown(Shutdown::Both);
            }
            *line = Line::HungUp;
        }
    }

    /// How long a shard may run before it is a straggler:
    /// `speculate_factor ×` the median completed-shard latency. `None` while
    /// speculation is off, the job is cancelled or too few samples are in.
    fn straggler_age(&self) -> Option<Duration> {
        let config = &self.coordinator.config;
        if config.speculate_factor <= 0.0
            || self.cancel.is_cancelled()
            || self.latencies.len() < config.speculate_min_samples.max(1)
        {
            return None;
        }
        let median_ms = self.latencies[self.latencies.len() / 2].max(1.0);
        Duration::try_from_secs_f64(config.speculate_factor * median_ms / 1e3).ok()
    }

    /// Races a speculative copy of a shard whose only copy is its primary
    /// and has run for `age`, on another worker. `true` when it is due but
    /// no other worker can take it yet.
    fn speculate(
        &self,
        shard_idx: usize,
        shard: &mut Shard<'_>,
        age: Duration,
        now: Instant,
        wake: &mut Option<Instant>,
    ) -> bool {
        let race = shard.race.as_ref().expect("a running shard");
        let [primary] = race.copies.as_slice() else { return false };
        if primary.speculative || race.winner.is_some() {
            return false;
        }
        let due = race.started + age;
        if due > now {
            *wake = Some(wake.map_or(due, |w| w.min(due)));
            return false;
        }
        let coordinator = self.coordinator;
        let max_inflight = coordinator.config.max_inflight_per_worker;
        let avoid = [primary.slot.addr.as_str()];
        let Some(slot) = coordinator.members.try_acquire(max_inflight, &avoid) else {
            return true;
        };
        coordinator.stats.shards_speculated.inc();
        let copy = self.launch(shard_idx, shard, slot, true);
        shard.race.as_mut().expect("a running shard").copies.push(copy);
        false
    }

    /// Starts one copy of `shard` on `slot`: an exchange thread that reports
    /// to the inbox and wakes the loop.
    fn launch(
        &self,
        shard_idx: usize,
        shard: &Shard<'_>,
        slot: Arc<WorkerSlot>,
        speculative: bool,
    ) -> LiveCopy {
        let line = Arc::new(Mutex::new(Line::Connecting));
        let (coordinator, body, inbox) = (self.coordinator, self.body, self.inbox);
        let (addr, sid, path) = (slot.addr.clone(), shard.sid.clone(), shard.path.clone());
        let ids: Vec<usize> = shard.jobs.iter().map(|j| j.id).collect();
        let shared = Arc::clone(&line);
        self.scope.spawn(move || {
            let result = exchange_shard(&addr, &sid, &path, body, &ids, &shared);
            inbox.lock().expect(INBOX).push((shard_idx, speculative, result));
            coordinator.members.notify();
        });
        LiveCopy { slot, speculative, line, hang_up: None }
    }

    /// Applies one copy's result: the worker's ledgers, then the race — a
    /// first result wins and stands the other copy down, a second must
    /// agree with it. When the last copy has reported, the shard resolves,
    /// or goes back to pending with one more failed attempt.
    fn settle(&mut self, shard: &mut Shard<'_>, speculative: bool, result: Exchanged) {
        let race = shard.race.as_mut().expect("a settled copy's shard is running");
        let at = race.copies.iter().position(|c| c.speculative == speculative).expect("live");
        let copy = race.copies.remove(at);
        // A reply that made it stands; any other end of a copy past its
        // hang-up is the hang-up, for the reason the loop recorded.
        let result = match (result, copy.hang_up) {
            (Err(_), Some((at, why))) if at <= Instant::now() => Err(why),
            (result, _) => result,
        };
        let coordinator = self.coordinator;
        let verdict = match &result {
            Ok(_) => Settle::Success,
            // Connection-level flakiness: breaker failure, and declare the
            // worker suspect immediately (the monitor confirms or revives).
            Err(ShardError::Retry(_)) => Settle::Failure,
            // Deterministic rejections and superseded losers say nothing
            // about the worker's health.
            Err(ShardError::Permanent(_)) | Err(ShardError::Superseded) => Settle::Neutral,
        };
        if verdict == Settle::Failure {
            mark_probe(&copy.slot, false, &coordinator.config, &coordinator.stats);
        }
        coordinator.members.release(&copy.slot, verdict);
        let addr = copy.slot.addr.clone();
        match result {
            Ok((fp, outs)) => match &race.winner {
                Some((_, winner_addr, winner_fp, winner_outs)) => {
                    // The loser still delivered: the race is only sound if
                    // both copies agree.
                    let (w_addr, w_fp) = (winner_addr.as_str(), *winner_fp);
                    if let Some(msg) =
                        disagreement(&shard.sid, w_addr, w_fp, winner_outs, &addr, fp, &outs)
                    {
                        self.poison = Some(msg.clone());
                        race.permanent = Some(msg);
                    }
                }
                None => {
                    // Stand the other copy down: cancel its pending compute,
                    // but let it surface already-finished records (bounded
                    // by cancel_grace) so the agreement check can run.
                    for loser in race.copies.iter_mut().filter(|c| c.hang_up.is_none()) {
                        send_cancel(&loser.slot.addr, &shard.sid);
                        let grace = Instant::now() + coordinator.config.cancel_grace;
                        loser.hang_up = Some((grace, ShardError::Superseded));
                    }
                    race.winner = Some((copy.speculative, addr, fp, outs));
                }
            },
            // The losing copy was cut short: neither a win nor evidence
            // against the worker.
            Err(ShardError::Superseded) => {}
            Err(ShardError::Permanent(reason)) => {
                race.permanent.get_or_insert(reason);
            }
            Err(ShardError::Retry(reason)) => race.retry_errors.push(format!("{addr}: {reason}")),
        }
        if !race.copies.is_empty() {
            return;
        }
        let race = shard.race.take().expect("a running shard");
        let stats = &coordinator.stats;
        match (race.winner, race.permanent) {
            // Deterministic rejection, unacknowledged cancel or a poisoned
            // race: re-dispatch cannot help.
            (_, Some(reason)) => shard.outcome = Some(Err(reason)),
            (Some((speculative, _, fingerprint, outputs)), None) => {
                if speculative {
                    stats.speculation_wins.inc();
                }
                let ms = race.started.elapsed().as_secs_f64() * 1e3;
                stats.shard_ms.observe(ms);
                let at = self.latencies.partition_point(|sample| *sample < ms);
                self.latencies.insert(at, ms);
                shard.outcome = Some(Ok((fingerprint, outputs)));
            }
            (None, None) => shard.attempts.push(format!(
                "attempt {} on {}: {} ({} ms)",
                shard.attempts.len() + 1,
                race.addr,
                race.retry_errors.join("; "),
                race.started.elapsed().as_millis()
            )),
        }
    }
}

/// One copy's exchange: POST the shard, then block on the socket until the
/// reply arrives, the connection ends (EOF or reset: the worker died) or
/// the loop hangs up.
fn exchange_shard(
    addr: &str,
    sid: &str,
    path: &str,
    body: &[u8],
    expected_ids: &[usize],
    line: &Mutex<Line>,
) -> Exchanged {
    let mut client = Client::connect(addr, CONNECT_TIMEOUT)?;
    match &mut *line.lock().expect("hang-up line poisoned") {
        Line::HungUp => return Err(ShardError::Retry("hung up while connecting".into())),
        line => *line = Line::Connected(client.hang_up_handle()?),
    }
    client.send("POST", path, &[], body, true)?;
    let Reply { status, body: response_body, .. } = client.read_reply()?;
    if status != 200 {
        let reason = format!(
            "worker {addr} refused shard {sid}: HTTP {status} {}",
            String::from_utf8_lossy(&response_body).trim()
        );
        // 4xx is deterministic (bad dispatch) — except `409 shard already
        // running`: that replica still computes a copy the coordinator
        // stopped listening to. It and anything else might be replica-local
        // (mid-shutdown, resource pressure) and are worth a try elsewhere.
        return Err(if (400..500).contains(&status) && status != 409 {
            ShardError::Permanent(reason)
        } else {
            ShardError::Retry(reason)
        });
    }
    let text =
        std::str::from_utf8(&response_body).map_err(|_| "non-utf8 shard response".to_string())?;
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header =
        parse_shard_header(lines.next().ok_or_else(|| "empty shard response".to_string())?)?;
    let mut outputs = Vec::with_capacity(header.jobs);
    for line in lines {
        outputs.push(parse_shard_job(line)?);
    }
    outputs.sort_by_key(|o| o.record.job_id);
    let got: Vec<usize> = outputs.iter().map(|o| o.record.job_id).collect();
    let mut want = expected_ids.to_vec();
    want.sort_unstable();
    if got != want || outputs.len() != header.jobs {
        return Err(ShardError::Retry(format!(
            "shard {sid} answered jobs {got:?}, expected {want:?}"
        )));
    }
    Ok((header.fingerprint, outputs))
}

/// Best-effort cancel fan-out to one worker. Any answer is an ack: a 404
/// means the shard already finished.
fn send_cancel(addr: &str, sid: &str) {
    let _ = request(addr, "DELETE", &format!("/v1/shards/{sid}"), &[], CONNECT_TIMEOUT);
}

/// When a speculation race yields two results, they must be the same
/// computation: same config fingerprint, and for every job both copies
/// completed, the same mask hash. Records one side cancelled or failed are
/// not evidence either way (worker-local interruption), so they are
/// skipped. Returns the poisoning message on disagreement.
fn disagreement(
    sid: &str,
    winner_addr: &str,
    winner_fp: u64,
    winner: &[JobOutput],
    loser_addr: &str,
    loser_fp: u64,
    loser: &[JobOutput],
) -> Option<String> {
    if winner_fp != loser_fp {
        return Some(format!(
            "speculation disagreement on shard {sid}: configuration fingerprint {winner_fp:016x} \
             (worker {winner_addr}) vs {loser_fp:016x} (worker {loser_addr})"
        ));
    }
    for (a, b) in winner.iter().zip(loser) {
        if a.record.job_id != b.record.job_id {
            return Some(format!(
                "speculation disagreement on shard {sid}: job sets diverge ({} vs {})",
                a.record.job_id, b.record.job_id
            ));
        }
        let both_done =
            a.record.status == JobStatus::Done && b.record.status == JobStatus::Done;
        if let (true, Some(ma), Some(mb)) = (both_done, &a.record.metrics, &b.record.metrics) {
            if ma.mask_hash != mb.mask_hash {
                return Some(format!(
                    "speculation disagreement on shard {sid}: job {} mask hash {:016x} \
                     (worker {winner_addr}) vs {:016x} (worker {loser_addr}) — refusing to \
                     emit a possibly-wrong mask",
                    a.record.job_id, ma.mask_hash, mb.mask_hash
                ));
            }
        }
    }
    None
}

/// Terminal record for a job whose shard could not be computed.
fn synthesize(job: &PlannedJob, status: JobStatus) -> JobOutput {
    JobOutput {
        record: JobRecord {
            job_id: job.id,
            case: job.case.clone(),
            tile: job.tile,
            grid: job.grid,
            attempts: 0,
            status,
            metrics: None,
            times: StageTimes::default(),
            wall_ms: 0.0,
        },
        mask: None,
    }
}

fn monitor_loop(
    config: &ClusterConfig,
    members: &Membership,
    stats: &ClusterStats,
    stop: &(Mutex<bool>, Condvar),
) {
    let (stopped, wake) = stop;
    loop {
        for slot in members.snapshot() {
            // A member died or revived: wake every job's loop.
            if mark_probe(&slot, probe(&slot.addr), config, stats) {
                members.notify();
            }
        }
        // One heartbeat of sleep, cut short the moment drop() sets the flag.
        let (stopped, _) = wake
            .wait_timeout_while(
                stopped.lock().expect("stop flag lock"),
                config.heartbeat,
                |stopped| !*stopped,
            )
            .expect("stop flag lock");
        if *stopped {
            return;
        }
    }
}

/// Applies one probe (or dispatch-failure) observation to a slot; `true`
/// when it flipped the slot's liveness. Note this touches only *liveness* —
/// a successful heartbeat never closes the worker's breaker; quarantine is
/// earned back through shard successes.
fn mark_probe(slot: &WorkerSlot, ok: bool, config: &ClusterConfig, stats: &ClusterStats) -> bool {
    if ok {
        slot.heartbeat_fails().store(0, Ordering::Relaxed);
        return slot.set_alive(true);
    }
    stats.heartbeat_failures.inc();
    let fails = slot.heartbeat_fails().fetch_add(1, Ordering::Relaxed) + 1;
    fails >= config.heartbeat_failures && slot.set_alive(false)
}

/// One `GET /healthz` probe.
fn probe(addr: &str) -> bool {
    matches!(request(addr, "GET", "/healthz", &[], CONNECT_TIMEOUT), Ok((200, _)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_runtime::JobMetrics;

    #[test]
    fn probe_failures_accumulate_to_death_and_recovery_resets() {
        let config = ClusterConfig { heartbeat_failures: 2, ..ClusterConfig::default() };
        let stats = ClusterStats::default();
        let members = Membership::new(&["x:1".into()], BreakerConfig::default());
        let slot = &members.snapshot()[0];
        mark_probe(slot, false, &config, &stats);
        assert!(slot.is_alive(), "one failure is not death");
        mark_probe(slot, false, &config, &stats);
        assert!(!slot.is_alive(), "threshold reached");
        assert_eq!(stats.heartbeat_failures.get(), 2);
        mark_probe(slot, true, &config, &stats);
        assert!(slot.is_alive(), "a good probe revives");
        assert_eq!(slot.heartbeat_fails().load(Ordering::Relaxed), 0);
    }

    #[test]
    fn empty_membership_is_allowed_and_grows_at_runtime() {
        let c = Coordinator::new(ClusterConfig::default()).unwrap();
        assert_eq!(c.members.len(), 0);
        let plan =
            vec![PlannedJob { id: 0, case: "c".into(), tile: None, grid: 64 }];
        let err = c
            .run_job(0, "", &[], &plan, &CancelToken::new(), &Progress::default())
            .unwrap_err();
        assert!(err.contains("no registered workers"), "{err}");
        assert!(c.join("10.0.0.1:7"));
        assert!(!c.join("10.0.0.1:7"), "duplicate join refused");
        assert_eq!(c.members.len(), 1);
        assert_eq!(c.stats().members_joined.get(), 1);
        assert!(c.drain("10.0.0.1:7"));
        assert!(c.member_views()[0].draining);
        assert!(c.leave("10.0.0.1:7"));
        assert_eq!(c.stats().members_left.get(), 1);
        assert_eq!(c.members.len(), 0);
    }

    #[test]
    fn render_metrics_includes_breaker_gauge_per_worker() {
        let config = ClusterConfig {
            workers: vec!["10.0.0.1:7".into(), "10.0.0.2:7".into()],
            ..ClusterConfig::default()
        };
        let c = Coordinator::new(config).unwrap();
        let mut out = String::new();
        c.render_metrics(&mut out);
        assert!(out.contains("ilt_workers_configured 2\n"), "{out}");
        assert!(out.contains("ilt_members_joined_total 2\n"), "{out}");
        assert!(out.contains("ilt_worker_breaker_state{worker=\"10.0.0.1:7\"} 0\n"), "{out}");
        assert!(out.contains("ilt_worker_breaker_state{worker=\"10.0.0.2:7\"} 0\n"), "{out}");
        for line in out.lines() {
            assert!(line.starts_with('#') || line.split_whitespace().count() == 2, "{line}");
        }
    }

    fn output(job_id: usize, status: JobStatus, hash: u64) -> JobOutput {
        JobOutput {
            record: JobRecord {
                job_id,
                case: "c".into(),
                tile: None,
                grid: 64,
                attempts: 1,
                status: status.clone(),
                metrics: status.has_mask().then_some(JobMetrics {
                    l2_nm2: 0.0,
                    pvband_nm2: 0.0,
                    epe_violations: 0,
                    shots: 0,
                    iterations: 0,
                    mask_hash: hash,
                }),
                times: StageTimes::default(),
                wall_ms: 0.0,
            },
            mask: None,
        }
    }

    #[test]
    fn disagreement_detects_skew_and_skips_interrupted_records() {
        let a = [output(0, JobStatus::Done, 1), output(1, JobStatus::Done, 2)];
        let b = [output(0, JobStatus::Done, 1), output(1, JobStatus::Done, 2)];
        assert!(disagreement("s", "wa", 7, &a, "wb", 7, &b).is_none(), "identical agrees");
        let msg = disagreement("s", "wa", 7, &a, "wb", 8, &b).unwrap();
        assert!(msg.contains("fingerprint"), "{msg}");
        let c = [output(0, JobStatus::Done, 1), output(1, JobStatus::Done, 99)];
        let msg = disagreement("s", "wa", 7, &a, "wb", 7, &c).unwrap();
        assert!(msg.contains("mask hash") && msg.contains("job 1"), "{msg}");
        // A cancelled loser record is an interruption, not evidence.
        let d = [output(0, JobStatus::Done, 1), output(1, JobStatus::Cancelled, 0)];
        assert!(disagreement("s", "wa", 7, &a, "wb", 7, &d).is_none());
    }

    #[test]
    fn synthesized_records_carry_plan_identity() {
        let job = PlannedJob { id: 7, case: "c".into(), tile: Some((1, 2)), grid: 64 };
        let out = synthesize(&job, JobStatus::Cancelled);
        assert_eq!(out.record.job_id, 7);
        assert_eq!(out.record.tile, Some((1, 2)));
        assert_eq!(out.record.status, JobStatus::Cancelled);
        assert!(out.mask.is_none());
    }
}
