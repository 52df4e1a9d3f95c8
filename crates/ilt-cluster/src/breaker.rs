//! Per-worker circuit breaker with decorrelated-jitter backoff.
//!
//! A [`Breaker`] quarantines a flaky-but-alive worker: consecutive shard
//! failures open it (no dispatches), a deterministic, seeded backoff decides
//! when it may admit a single half-open probe, and only a *successful shard*
//! — never a heartbeat — closes it again. That separation is the point:
//! `/healthz` proves the process is up, not that it can finish work, so
//! heartbeat success must not clear a quarantine earned by failing shards.
//!
//! Backoff follows the decorrelated-jitter rule
//! `next = min(cap, uniform(base, prev * 3))`, drawn from the in-tree
//! [`Xorshift64Star`] so chaos tests replay exactly from their seed.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use ilt_layouts::Xorshift64Star;

/// Tuning for one worker's breaker.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive shard failures that open the breaker.
    pub threshold: u32,
    /// First (and minimum) open interval.
    pub base: Duration,
    /// Ceiling on the open interval.
    pub cap: Duration,
}

/// Seed of every breaker's jitter stream; [`Breaker::new`] mixes in a
/// per-worker salt so replicas do not march in lockstep.
const JITTER_SEED: u64 = 0xb7ea_4e5d_17c0_ffee;

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            threshold: 3,
            base: Duration::from_millis(500),
            cap: Duration::from_secs(30),
        }
    }
}

/// Breaker state, in escalation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every dispatch admitted.
    Closed,
    /// Backoff elapsed: exactly one probe dispatch is in flight.
    HalfOpen,
    /// Quarantined: no dispatches until the backoff elapses.
    Open,
}

impl BreakerState {
    /// Prometheus gauge encoding: closed 0, half-open 1, open 2.
    pub fn gauge(self) -> u64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }

    /// Lower-case label for logs and the members listing.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::HalfOpen => "half-open",
            BreakerState::Open => "open",
        }
    }
}

struct Core {
    state: BreakerState,
    consecutive_fails: u32,
    backoff: Duration,
    open_until: Option<Instant>,
    probing: bool,
    rng: Xorshift64Star,
}

/// The closed → open → half-open state machine guarding one worker.
pub struct Breaker {
    // The `BreakerConfig`, normalised by `Breaker::new`.
    threshold: u32,
    base: Duration,
    cap: Duration,
    core: Mutex<Core>,
}

impl Breaker {
    /// A closed breaker. `salt` individualizes the jitter stream per
    /// worker (the coordinator hashes the address into it).
    pub fn new(cfg: BreakerConfig, salt: u64) -> Self {
        let base = cfg.base.max(Duration::from_millis(1));
        Breaker {
            threshold: cfg.threshold.max(1),
            base,
            cap: cfg.cap.max(base),
            core: Mutex::new(Core {
                state: BreakerState::Closed,
                consecutive_fails: 0,
                backoff: base,
                open_until: None,
                probing: false,
                rng: Xorshift64Star::new(JITTER_SEED ^ salt),
            }),
        }
    }

    /// May a dispatch go to this worker right now? Admitting from `Open`
    /// past the backoff deadline transitions to `HalfOpen` and claims the
    /// single probe slot; a second caller is refused until the probe
    /// settles via [`Breaker::on_success`] / [`Breaker::on_failure`].
    pub fn admit(&self) -> bool {
        let mut c = self.core.lock().unwrap();
        match c.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if c.open_until.is_some_and(|t| Instant::now() >= t) {
                    c.state = BreakerState::HalfOpen;
                    c.probing = true;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                if c.probing {
                    false
                } else {
                    c.probing = true;
                    true
                }
            }
        }
    }

    /// A shard finished on this worker: close and reset the backoff.
    pub fn on_success(&self) {
        let mut c = self.core.lock().unwrap();
        c.state = BreakerState::Closed;
        c.consecutive_fails = 0;
        c.backoff = self.base;
        c.open_until = None;
        c.probing = false;
    }

    /// A shard failed on this worker. A half-open probe failure re-opens
    /// immediately with a grown backoff; closed failures count toward the
    /// threshold.
    pub fn on_failure(&self) {
        let mut c = self.core.lock().unwrap();
        c.probing = false;
        match c.state {
            BreakerState::HalfOpen => self.reopen(&mut c),
            BreakerState::Closed => {
                c.consecutive_fails += 1;
                if c.consecutive_fails >= self.threshold {
                    self.reopen(&mut c);
                }
            }
            // A straggling failure from a dispatch admitted before the
            // breaker opened; the quarantine already stands.
            BreakerState::Open => {}
        }
    }

    fn reopen(&self, c: &mut Core) {
        // Decorrelated jitter: uniform in [base, prev * 3], capped.
        let prev = c.backoff.max(self.base);
        let hi = prev.saturating_mul(3).min(self.cap).max(self.base);
        let span = hi.saturating_sub(self.base).as_nanos() as u64;
        let jitter = if span == 0 { 0 } else { c.rng.next_u64() % (span + 1) };
        c.backoff = (self.base + Duration::from_nanos(jitter)).min(self.cap);
        c.state = BreakerState::Open;
        c.consecutive_fails = 0;
        c.open_until = Some(Instant::now() + c.backoff);
    }

    /// When an open breaker's backoff ends and `admit` lets a probe
    /// through; `None` unless open.
    pub fn reopens_at(&self) -> Option<Instant> {
        let c = self.core.lock().expect("breaker lock poisoned");
        c.open_until.filter(|_| c.state == BreakerState::Open)
    }

    /// Current state (transitions only happen inside `admit`, so an `Open`
    /// breaker past its deadline still reads `Open` until someone asks to
    /// dispatch).
    pub fn state(&self) -> BreakerState {
        self.core.lock().unwrap().state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn cfg(threshold: u32, base_ms: u64, cap_ms: u64) -> BreakerConfig {
        BreakerConfig {
            threshold,
            base: Duration::from_millis(base_ms),
            cap: Duration::from_millis(cap_ms),
        }
    }

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let b = Breaker::new(cfg(3, 20, 20), 1);
        assert!(b.admit());
        b.on_failure();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Closed, "two of three failures");
        b.on_success();
        b.on_failure();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Closed, "success resets the streak");
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.admit(), "open breaker refuses dispatches");
    }

    #[test]
    fn half_open_admits_exactly_one_probe_and_success_closes() {
        let b = Breaker::new(cfg(1, 10, 10), 1);
        assert_eq!(b.reopens_at(), None, "closed: nothing to wait for");
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.admit());
        let reopens = b.reopens_at().expect("open: the backoff's end");
        thread::sleep(Duration::from_millis(15));
        assert!(Instant::now() >= reopens);
        assert!(b.admit(), "backoff elapsed: one probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.reopens_at(), None, "half-open: the probe decides");
        assert!(!b.admit(), "probe slot is single-occupancy");
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit() && b.admit(), "closed again: unrestricted");
    }

    #[test]
    fn failed_probe_reopens_with_grown_backoff() {
        let b = Breaker::new(cfg(1, 10, 1000), 1);
        b.on_failure();
        let first = b.core.lock().unwrap().backoff;
        thread::sleep(first + Duration::from_millis(5));
        assert!(b.admit());
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        let second = b.core.lock().unwrap().backoff;
        assert!(second >= Duration::from_millis(10), "never below base");
        assert!(second <= first * 3, "decorrelated jitter is bounded by 3x prev");
        assert!(!b.admit(), "re-opened immediately");
    }

    #[test]
    fn jitter_stream_is_seed_deterministic_and_capped() {
        let run = |salt| {
            let b = Breaker::new(cfg(1, 10, 60), salt);
            let mut seq = Vec::new();
            for _ in 0..8 {
                b.on_failure();
                let d = b.core.lock().unwrap().backoff;
                assert!(d >= Duration::from_millis(10) && d <= Duration::from_millis(60));
                seq.push(d);
                // Force straight back to closed without waiting out the
                // backoff: on_success is the only reset path.
                b.on_success();
            }
            seq
        };
        assert_eq!(run(0xabc), run(0xabc), "same seed+salt, same backoffs");
        assert_ne!(run(0xabc), run(0xdef), "different salt decorrelates replicas");
    }

    #[test]
    fn heartbeats_cannot_clear_a_quarantine() {
        // The breaker has no API a heartbeat path could call: only
        // on_success (a finished shard) closes it. Pin that the state
        // survives arbitrary admit() polling while open.
        let b = Breaker::new(cfg(1, 200, 200), 1);
        b.on_failure();
        for _ in 0..50 {
            assert!(!b.admit());
        }
        assert_eq!(b.state(), BreakerState::Open);
    }
}
