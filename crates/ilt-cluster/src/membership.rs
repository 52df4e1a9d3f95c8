//! Dynamic worker membership: the live, mutable set of replicas.
//!
//! A registry workers can join, drain, and leave at runtime (the
//! `POST /v1/members` wire call). A job's supervising loop draws workers
//! from the *current* set through [`Membership::try_acquire`], which is
//! where the scheduling policy lives: least-loaded first, draining workers
//! excluded, and every candidate gated by its circuit [`Breaker`] — so a
//! quarantined worker receives no dispatches even while its heartbeats
//! pass. A member's health has two inputs that never mix: `/healthz`
//! probes alone decide whether it is *alive* (`WorkerSlot::observe_probe`),
//! settled shards alone decide whether it is *trusted*
//! ([`Membership::release`] feeds its breaker). Nothing here blocks on a
//! worker: the loop parks on the membership condvar
//! ([`Membership::wait_until`]), which a join, a leave, a release, a probe
//! that flips a member's liveness and a job's cancel notify, so a
//! late-joining worker picks up queued shards mid-job at once.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use ilt_runtime::fnv1a64;

use crate::breaker::{Breaker, BreakerConfig, BreakerState};

/// Consecutive failed `/healthz` probes that declare a worker dead.
const PROBE_FAILURES: u32 = 3;

/// One registered worker replica and its health ledger.
pub struct WorkerSlot {
    /// Dispatch address, `host:port`.
    pub addr: String,
    alive: AtomicBool,
    consecutive_fails: AtomicU32,
    draining: AtomicBool,
    inflight: AtomicU32,
    dispatches: AtomicU64,
    completed: AtomicU64,
    /// This worker's circuit breaker (quarantine state machine).
    pub breaker: Breaker,
}

impl WorkerSlot {
    fn new(addr: String, breaker_cfg: BreakerConfig) -> Self {
        // Salt the jitter stream with the address so replicas do not back
        // off in lockstep.
        let salt = fnv1a64(addr.bytes());
        WorkerSlot {
            addr,
            alive: AtomicBool::new(true),
            consecutive_fails: AtomicU32::new(0),
            draining: AtomicBool::new(false),
            inflight: AtomicU32::new(0),
            dispatches: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            breaker: Breaker::new(breaker_cfg, salt),
        }
    }

    /// Is the worker considered up (its probes have not failed three times
    /// in a row since the last good one)?
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Applies one `/healthz` probe's verdict, the only input to liveness:
    /// a good probe revives the worker, the [`PROBE_FAILURES`]th failed one
    /// in a row buries it. `true` when that flipped it. A probe never
    /// touches the breaker: trust is earned back through shards alone.
    pub(crate) fn observe_probe(&self, ok: bool) -> bool {
        if ok {
            self.consecutive_fails.store(0, Ordering::SeqCst);
            return !self.alive.swap(true, Ordering::SeqCst);
        }
        let fails = self.consecutive_fails.fetch_add(1, Ordering::SeqCst) + 1;
        fails >= PROBE_FAILURES && self.alive.swap(false, Ordering::SeqCst)
    }

    /// Is the worker draining (finishing in-flight shards, no new work)?
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Shards currently dispatched to this worker.
    pub fn inflight(&self) -> u32 {
        self.inflight.load(Ordering::SeqCst)
    }

    /// Total dispatches ever sent to this worker.
    pub fn dispatches(&self) -> u64 {
        self.dispatches.load(Ordering::SeqCst)
    }

    /// Total shards this worker completed successfully.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::SeqCst)
    }
}

/// How a dispatch settled, for the breaker's ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Settle {
    /// The shard finished: closes the breaker, counts as completed.
    Success,
    /// The worker flaked (transport error, death mid-shard): breaker
    /// failure, and nothing else — only probes decide liveness.
    Failure,
    /// Neither credit nor blame — the dispatch was superseded by a
    /// speculative winner, or refused for reasons that are not the
    /// worker's health (4xx rejection, cancellation).
    Neutral,
}

/// The live membership set plus the condvar a job's loop waits on.
pub struct Membership {
    slots: Mutex<Vec<Arc<WorkerSlot>>>,
    changed: Condvar,
    /// Notifications so far, counted under the `slots` lock.
    events: AtomicU64,
    breaker_cfg: BreakerConfig,
}

impl Membership {
    /// A membership seeded with `addrs` (the `--workers` list; may be
    /// empty — workers can join later).
    pub fn new(addrs: &[String], breaker_cfg: BreakerConfig) -> Self {
        let (slots, changed, events) = (Mutex::default(), Condvar::new(), AtomicU64::new(0));
        let m = Membership { slots, changed, events, breaker_cfg };
        for a in addrs {
            m.join(a);
        }
        m
    }

    /// Registers a worker. Returns `false` (and changes nothing) when the
    /// address is already a member.
    pub fn join(&self, addr: &str) -> bool {
        let mut slots = self.slots.lock().unwrap();
        if slots.iter().any(|s| s.addr == addr) {
            return false;
        }
        slots.push(Arc::new(WorkerSlot::new(addr.to_string(), self.breaker_cfg)));
        drop(slots);
        self.notify();
        true
    }

    /// Marks a worker as draining: in-flight shards finish, no new
    /// dispatches. Returns `false` for unknown addresses.
    pub fn drain(&self, addr: &str) -> bool {
        let slots = self.slots.lock().unwrap();
        match slots.iter().find(|s| s.addr == addr) {
            Some(s) => {
                s.draining.store(true, Ordering::SeqCst);
                true
            }
            None => false,
        }
    }

    /// Removes a worker from the set. In-flight dispatches keep their
    /// `Arc` and settle normally; the worker just stops being a
    /// candidate. Returns `false` for unknown addresses.
    pub fn leave(&self, addr: &str) -> bool {
        let mut slots = self.slots.lock().unwrap();
        let before = slots.len();
        slots.retain(|s| s.addr != addr);
        let removed = slots.len() != before;
        drop(slots);
        if removed {
            self.notify();
        }
        removed
    }

    /// The current member slots (order = join order).
    pub fn snapshot(&self) -> Vec<Arc<WorkerSlot>> {
        self.slots.lock().unwrap().clone()
    }

    /// Current member count.
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap().len()
    }

    /// Members the probes have not declared dead.
    pub fn alive_count(&self) -> usize {
        self.slots.lock().unwrap().iter().filter(|s| s.is_alive()).count()
    }

    /// Wakes every waiting loop (membership, health or a job's cancel
    /// changed).
    pub fn notify(&self) {
        let _guard = self.slots.lock().unwrap();
        self.events.fetch_add(1, Ordering::SeqCst);
        self.changed.notify_all();
    }

    /// How many notifications there have been. A loop reads it before it
    /// looks at anything a notifier publishes, and its `ready` check passed
    /// to [`Membership::wait_until`] compares: an event that lands while the
    /// loop is not waiting is not slept through.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::SeqCst)
    }

    /// Parks the caller until the membership changes or is notified (a
    /// join, a leave, a release, a liveness flip, a cancel), or `deadline`
    /// passes (with none, only an event ends the wait) — unless `ready()`
    /// already holds. `ready` runs under the lock that
    /// [`Membership::notify`] takes, so whatever a notifier published before
    /// notifying cannot slip in between the check and the wait (and `ready`
    /// must not take that lock: [`Membership::events`] is all it may read
    /// here).
    pub fn wait_until(&self, deadline: Option<Instant>, ready: impl FnOnce() -> bool) {
        const POISONED: &str = "membership lock poisoned";
        let slots = self.slots.lock().expect(POISONED);
        match deadline.map(|at| at.saturating_duration_since(Instant::now())) {
            _ if ready() => {}
            Some(timeout) => drop(self.changed.wait_timeout(slots, timeout).expect(POISONED)),
            None => drop(self.changed.wait(slots).expect(POISONED)),
        }
    }

    /// Admits a worker if one is admissible right now: live, not draining,
    /// under `max_inflight`, not in `avoid` (a speculative copy skips its
    /// primary's worker), least-loaded first, each gated by its breaker.
    /// Release it with [`Membership::release`].
    pub fn try_acquire(&self, max_inflight: u32, avoid: &[&str]) -> Option<Arc<WorkerSlot>> {
        let slots = self.slots.lock().unwrap();
        Self::admit_one(&slots, max_inflight, avoid)
    }

    /// When the first open breaker's backoff ends: the latest a dispatch
    /// held back by quarantine needs to look again.
    pub fn next_reopen(&self) -> Option<Instant> {
        let slots = self.slots.lock().expect("membership lock poisoned");
        slots.iter().filter_map(|s| s.breaker.reopens_at()).min()
    }

    fn admit_one(
        slots: &[Arc<WorkerSlot>],
        max_inflight: u32,
        avoid: &[&str],
    ) -> Option<Arc<WorkerSlot>> {
        let mut cands: Vec<&Arc<WorkerSlot>> = slots
            .iter()
            .filter(|s| {
                s.is_alive()
                    && !s.is_draining()
                    && s.inflight() < max_inflight.max(1)
                    && !avoid.contains(&s.addr.as_str())
            })
            .collect();
        // Least-loaded first; join order breaks ties (sort is stable).
        cands.sort_by_key(|s| s.inflight());
        for s in cands {
            if s.breaker.admit() {
                s.inflight.fetch_add(1, Ordering::SeqCst);
                s.dispatches.fetch_add(1, Ordering::SeqCst);
                return Some((*s).clone());
            }
        }
        None
    }

    /// Returns a worker acquired via [`Membership::try_acquire`] and
    /// settles its breaker ledger.
    pub fn release(&self, slot: &WorkerSlot, settle: Settle) {
        slot.inflight.fetch_sub(1, Ordering::SeqCst);
        match settle {
            Settle::Success => {
                slot.completed.fetch_add(1, Ordering::SeqCst);
                slot.breaker.on_success();
            }
            Settle::Failure => slot.breaker.on_failure(),
            Settle::Neutral => {}
        }
        self.notify();
    }
}

/// A point-in-time, externally-consumable view of one member (the
/// `GET /v1/members` row and the breaker-state metric source).
#[derive(Clone, Debug)]
pub struct MemberView {
    /// Dispatch address.
    pub addr: String,
    /// Not declared dead by its probes?
    pub alive: bool,
    /// Draining (no new dispatches)?
    pub draining: bool,
    /// Breaker state label: `closed`, `half-open`, `open`.
    pub breaker: &'static str,
    /// Breaker state as the metric gauge (0/1/2).
    pub breaker_gauge: u64,
    /// Shards currently dispatched to this worker.
    pub inflight: u32,
    /// Total dispatches ever sent.
    pub dispatches: u64,
    /// Total shards completed.
    pub completed: u64,
}

impl MemberView {
    pub(crate) fn of(slot: &WorkerSlot) -> MemberView {
        let state: BreakerState = slot.breaker.state();
        MemberView {
            addr: slot.addr.clone(),
            alive: slot.is_alive(),
            draining: slot.is_draining(),
            breaker: state.label(),
            breaker_gauge: state.gauge(),
            inflight: slot.inflight(),
            dispatches: slot.dispatches(),
            completed: slot.completed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(addrs: &[&str]) -> Membership {
        let list: Vec<String> = addrs.iter().map(|s| s.to_string()).collect();
        Membership::new(&list, BreakerConfig::default())
    }

    #[test]
    fn join_drain_leave_lifecycle() {
        let m = members(&["a:1"]);
        assert_eq!(m.len(), 1);
        assert!(m.join("b:2"));
        assert!(!m.join("b:2"), "duplicate join refused");
        assert_eq!(m.len(), 2);
        assert!(m.drain("b:2"));
        assert!(m.snapshot().iter().find(|s| s.addr == "b:2").unwrap().is_draining());
        assert!(m.leave("b:2"));
        assert!(!m.leave("b:2"), "double leave refused");
        assert!(!m.drain("b:2"), "unknown address refused");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn probe_failures_accumulate_to_death_and_recovery_resets() {
        let m = members(&["x:1"]);
        let slot = &m.snapshot()[0];
        for _ in 1..PROBE_FAILURES {
            assert!(!slot.observe_probe(false), "a failure short of the threshold flips nothing");
        }
        assert!(slot.is_alive(), "{} failures are not death", PROBE_FAILURES - 1);
        assert!(slot.observe_probe(false), "the threshold flips the slot");
        assert!(!slot.is_alive(), "threshold reached");
        assert!(!slot.observe_probe(false), "a dead slot stays dead without a flip");
        assert!(slot.observe_probe(true), "a good probe revives");
        assert!(!slot.observe_probe(true), "and flips nothing twice");
        for _ in 1..PROBE_FAILURES {
            slot.observe_probe(false);
        }
        assert!(slot.is_alive(), "the good probe reset the count");
    }

    #[test]
    fn try_acquire_prefers_least_loaded_and_skips_draining() {
        let m = members(&["a:1", "b:2"]);
        let first = m.try_acquire(2, &[]).expect("a worker");
        assert_eq!(first.addr, "a:1", "tie broken by join order");
        let second = m.try_acquire(2, &[]).expect("a worker");
        assert_eq!(second.addr, "b:2", "least-loaded wins");
        m.drain("a:1");
        m.release(&first, Settle::Success);
        let third = m.try_acquire(2, &[]).expect("a worker");
        assert_eq!(third.addr, "b:2", "draining worker gets nothing");
    }

    #[test]
    fn try_acquire_admits_no_dead_or_saturated_worker() {
        assert!(members(&[]).try_acquire(2, &[]).is_none(), "no members");
        let m = members(&["a:1"]);
        for _ in 0..PROBE_FAILURES {
            m.snapshot()[0].observe_probe(false);
        }
        assert!(m.try_acquire(2, &[]).is_none(), "all dead");
        assert_eq!(m.alive_count(), 0, "what the loop reads as 'no live worker'");
        m.snapshot()[0].observe_probe(true);
        let held = m.try_acquire(1, &[]).expect("a worker");
        assert!(m.try_acquire(1, &[]).is_none(), "saturated: the caller waits for a release");
        m.release(&held, Settle::Neutral);
        assert_eq!(held.inflight(), 0);
    }

    #[test]
    fn wait_until_wakes_on_a_join_and_skips_the_wait_when_ready() {
        let m = members(&[]);
        let far = Instant::now() + std::time::Duration::from_secs(60);
        let started = Instant::now();
        m.wait_until(Some(far), || true);
        m.wait_until(None, || true);
        assert!(started.elapsed().as_secs() < 30, "ready: no wait at all");
        // No deadline: only the join can end this wait.
        let seen = m.events();
        std::thread::scope(|scope| {
            scope.spawn(|| m.wait_until(None, || m.events() != seen));
            m.join("a:1");
        });
        assert!(started.elapsed().as_secs() < 30, "the join woke the waiter");
        let near = Instant::now();
        m.wait_until(Some(near), || false);
        assert!(near.elapsed().as_secs() < 30, "a passed deadline returns");
        // An event while no one waits is not slept through: the count moved.
        let seen = m.events();
        assert!(m.leave("a:1"));
        m.wait_until(None, || m.events() != seen);
    }

    #[test]
    fn try_acquire_avoids_and_never_blocks() {
        let m = members(&["a:1", "b:2"]);
        let got = m.try_acquire(1, &["a:1"]).expect("b admissible");
        assert_eq!(got.addr, "b:2");
        assert!(m.try_acquire(1, &["a:1"]).is_none(), "b saturated, a avoided");
        m.release(&got, Settle::Success);
        assert_eq!(got.completed(), 1);
    }
}
