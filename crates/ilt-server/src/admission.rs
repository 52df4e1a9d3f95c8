//! Who may queue what: the multi-tenant carriers of a submission, the
//! per-client usage the quotas are checked against, and the weighted class
//! queues the job executors drain.
//!
//! Every submission carries an [`Admission`] (client id +
//! [`PriorityClass`]). [`Usage`] counts each client's queued and claimed
//! jobs and gives the per-client verdict ([`SubmitError::Quota`], a 429
//! upstream) before the shared queue's own capacity is consulted;
//! [`ClassQueues`] is the queue itself, per-class FIFOs drained by smooth
//! weighted round-robin (weights 4/2/1 — high never starves, low always
//! eventually runs).

use std::collections::{BTreeMap, VecDeque};

use crate::store::SubmitError;

/// Who submitted a job and at what priority — the multi-tenant carriers of
/// every admission (`X-Ilt-Client` / `X-Ilt-Priority` over HTTP).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Admission {
    /// Client identity; quotas and the rejection metric are keyed by it.
    /// Validated upstream to `[A-Za-z0-9._-]{1,64}` because it travels into
    /// metric labels and state-log JSON unescaped.
    pub client: String,
    /// Scheduling class of the job inside the admission queue.
    pub class: PriorityClass,
}

impl Default for Admission {
    fn default() -> Self {
        Admission { client: "anonymous".into(), class: PriorityClass::Normal }
    }
}

/// Live per-client admission counters backing the quota checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientUsage {
    /// Jobs waiting in the class queues.
    pub queued: usize,
    /// Jobs claimed by a worker and not yet terminal.
    pub active: usize,
}

/// Per-client queued/active counts; entries are dropped the moment both
/// hit zero, so a drained store reconciles to an empty map.
#[derive(Default)]
pub(crate) struct Usage(BTreeMap<String, ClientUsage>);

impl Usage {
    /// The per-client verdict on one more queued job for `client`, under
    /// the caps on queued and on non-terminal jobs (0 = unlimited).
    pub(crate) fn admit(
        &self,
        client: &str,
        quota_queued: usize,
        quota_inflight: usize,
    ) -> Result<(), SubmitError> {
        let usage = self.0.get(client).copied().unwrap_or_default();
        let over = |scope, limit| Err(SubmitError::Quota { client: client.into(), scope, limit });
        if quota_queued > 0 && usage.queued >= quota_queued {
            return over("queued", quota_queued);
        }
        if quota_inflight > 0 && usage.queued + usage.active >= quota_inflight {
            return over("inflight", quota_inflight);
        }
        Ok(())
    }

    /// Moves `client`'s counts by `(d_queued, d_active)`: `(1, 0)` is an
    /// admission, `(-1, 1)` a worker's claim, `(-1, 0)` a dequeue without
    /// one (cancel, drain) and `(0, -1)` a finished job.
    pub(crate) fn shift(&mut self, client: &str, d_queued: isize, d_active: isize) {
        let u = self.0.entry(client.to_string()).or_default();
        u.queued = u
            .queued
            .checked_add_signed(d_queued)
            .unwrap_or_else(|| panic!("queued underflow for {client:?}"));
        u.active = u
            .active
            .checked_add_signed(d_active)
            .unwrap_or_else(|| panic!("active underflow for {client:?}"));
        if *u == ClientUsage::default() {
            self.0.remove(client);
        }
    }

    /// Point-in-time `(client, usage)` pairs.
    pub(crate) fn snapshot(&self) -> Vec<(String, ClientUsage)> {
        self.0.iter().map(|(c, u)| (c.clone(), *u)).collect()
    }
}

/// Scheduling priority of a queued work item.
///
/// Three classes are enough to express the production shapes: interactive
/// (`High`), default batch (`Normal`), and best-effort backfill (`Low`).
/// The weights (4/2/1) drive the smooth weighted round-robin inside
/// [`ClassQueues`]: with every class backlogged, high gets 4 of every 7
/// dequeues and low still gets 1 — proportional service, never starvation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PriorityClass {
    /// Interactive / latency-sensitive; 4/7 of contended dequeues.
    High,
    /// The default class; 2/7 of contended dequeues.
    Normal,
    /// Best-effort backfill; 1/7 of contended dequeues, never zero.
    Low,
}

impl PriorityClass {
    /// Every class, in scheduling-preference order (the tiebreak order).
    pub const ALL: [PriorityClass; 3] =
        [PriorityClass::High, PriorityClass::Normal, PriorityClass::Low];

    /// Parses the wire spelling (`high` / `normal` / `low`).
    pub fn parse(s: &str) -> Option<PriorityClass> {
        match s {
            "high" => Some(PriorityClass::High),
            "normal" => Some(PriorityClass::Normal),
            "low" => Some(PriorityClass::Low),
            _ => None,
        }
    }

    /// The wire spelling (also the metric label value).
    pub fn as_str(self) -> &'static str {
        match self {
            PriorityClass::High => "high",
            PriorityClass::Normal => "normal",
            PriorityClass::Low => "low",
        }
    }

    /// SWRR weight: relative share of dequeues under full contention.
    pub fn weight(self) -> i64 {
        match self {
            PriorityClass::High => 4,
            PriorityClass::Normal => 2,
            PriorityClass::Low => 1,
        }
    }

    /// Dense index into per-class arrays (`ALL[idx] == self`).
    pub fn index(self) -> usize {
        match self {
            PriorityClass::High => 0,
            PriorityClass::Normal => 1,
            PriorityClass::Low => 2,
        }
    }
}

/// Per-class FIFOs with a smooth-weighted-round-robin dequeue — the
/// priority-aware feed for a worker pool.
///
/// [`ClassQueues::pop`] implements nginx-style smooth WRR restricted to the
/// classes that currently have work (that restriction *is* the work
/// stealing: an idle class donates its whole share instead of leaving the
/// slot empty). The schedule is deterministic, which is what lets the
/// fairness tests pin exact service orders:
///
/// - all classes backlogged → high/normal/low are served 4/2/1 per 7 pops;
/// - only one class backlogged → it gets every pop (no reserved idle slots);
/// - a high item arriving during a low-priority flood is dequeued on the
///   very next pop (credit 4 vs. 1).
///
/// A class's credit resets when it empties, so an idle class cannot bank
/// credit and burst past the weights when work returns.
#[derive(Debug)]
pub struct ClassQueues<T> {
    queues: [VecDeque<T>; 3],
    credit: [i64; 3],
}

impl<T> Default for ClassQueues<T> {
    fn default() -> Self {
        ClassQueues { queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()], credit: [0; 3] }
    }
}

impl<T> ClassQueues<T> {
    /// An empty set of class queues.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `item` to the back of its class FIFO.
    pub fn push(&mut self, class: PriorityClass, item: T) {
        self.queues[class.index()].push_back(item);
    }

    /// Dequeues the next item by smooth weighted round-robin over the
    /// non-empty classes; `None` when every queue is empty.
    pub fn pop(&mut self) -> Option<(PriorityClass, T)> {
        let mut total = 0i64;
        let mut winner: Option<usize> = None;
        for class in PriorityClass::ALL {
            let i = class.index();
            if self.queues[i].is_empty() {
                // Emptying a class forfeits its banked credit; weights only
                // meter classes that are actually competing.
                self.credit[i] = 0;
                continue;
            }
            total += class.weight();
            self.credit[i] += class.weight();
            // Strict `>` keeps ties on the earlier (higher-priority) class.
            if winner.is_none_or(|w| self.credit[i] > self.credit[w]) {
                winner = Some(i);
            }
        }
        let winner = winner?;
        self.credit[winner] -= total;
        let item = self.queues[winner].pop_front().expect("winner class is non-empty");
        Some((PriorityClass::ALL[winner], item))
    }

    /// Items across all classes.
    pub fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// True when every class FIFO is empty.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    /// Queue depth per class, indexed like [`PriorityClass::ALL`].
    pub fn len_by_class(&self) -> [usize; 3] {
        [self.queues[0].len(), self.queues[1].len(), self.queues[2].len()]
    }

    /// Keeps only the items for which `keep` returns true (FIFO order
    /// preserved within each class).
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        for q in &mut self.queues {
            q.retain(&mut keep);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_queues_serve_weights_under_full_contention() {
        let mut q = ClassQueues::new();
        for i in 0..28 {
            q.push(PriorityClass::High, ("h", i));
            q.push(PriorityClass::Normal, ("n", i));
            q.push(PriorityClass::Low, ("l", i));
        }
        // Over any aligned window of 7 pops with all classes backlogged,
        // the 4/2/1 weights are served exactly.
        for window in 0..4 {
            let mut counts = [0usize; 3];
            for _ in 0..7 {
                let (class, _) = q.pop().expect("backlogged");
                counts[class.index()] += 1;
            }
            assert_eq!(counts, [4, 2, 1], "window {window}");
        }
        // FIFO within a class.
        let mut seen_high = Vec::new();
        while let Some((class, (tag, i))) = q.pop() {
            if class == PriorityClass::High {
                assert_eq!(tag, "h");
                seen_high.push(i);
            }
        }
        assert_eq!(seen_high, (16..28).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    fn lone_class_gets_every_pop_and_high_preempts_a_flood() {
        let mut q = ClassQueues::new();
        for i in 0..50 {
            q.push(PriorityClass::Low, i);
        }
        // Work stealing: no slots are reserved for idle classes.
        for i in 0..20 {
            assert_eq!(q.pop(), Some((PriorityClass::Low, i)));
        }
        // A high arrival during the flood wins the very next pop (credit 4
        // vs. 1), bounding its queueing delay to the in-flight item.
        q.push(PriorityClass::High, 999);
        assert_eq!(q.pop(), Some((PriorityClass::High, 999)));
        assert_eq!(q.pop(), Some((PriorityClass::Low, 20)));
        assert_eq!(q.len(), 29);
        assert_eq!(q.len_by_class(), [0, 0, 29]);
    }

    #[test]
    fn class_queues_retain_and_credit_reset() {
        let mut q = ClassQueues::new();
        for i in 0..4 {
            q.push(PriorityClass::Normal, i);
            q.push(PriorityClass::Low, 10 + i);
        }
        q.retain(|&v| v % 2 == 0);
        assert_eq!(q.len_by_class(), [0, 2, 2]);
        // Drain low only, then refill normal: low's banked credit was reset
        // when it emptied, so normal is not starved by a returning low.
        q.retain(|&v| v < 10);
        assert_eq!(q.len_by_class(), [0, 2, 0]);
        assert_eq!(q.pop(), Some((PriorityClass::Normal, 0)));
        q.push(PriorityClass::Low, 12);
        let (class, _) = q.pop().expect("two classes live");
        assert_eq!(class, PriorityClass::Normal, "normal outweighs a returning low");
    }

}
