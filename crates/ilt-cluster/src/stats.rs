//! Lock-free counters and latency histograms shared by the job service's
//! `/metrics` endpoint and the cluster coordinator.
//!
//! Everything is atomics so the hot paths (admission, job completion, shard
//! completion) never contend with scrapes. Histogram buckets are cumulative
//! (`le` semantics) exactly as Prometheus text exposition format (version
//! 0.0.4) expects.

use std::sync::atomic::{AtomicU64, Ordering};

use ilt_runtime::FAILURE_KINDS;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` (bulk events: recovery, eviction sweeps).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Per-kind tile-failure counters, one per [`FAILURE_KINDS`] entry,
/// rendered as one labeled Prometheus family
/// (`ilt_tile_failures_total{kind="..."}`).
#[derive(Debug)]
pub struct FailureKinds {
    counts: [Counter; FAILURE_KINDS.len()],
}

impl Default for FailureKinds {
    fn default() -> Self {
        Self { counts: std::array::from_fn(|_| Counter::default()) }
    }
}

impl FailureKinds {
    fn slot(kind: &str) -> usize {
        FAILURE_KINDS.iter().position(|&k| k == kind).unwrap_or(FAILURE_KINDS.len() - 1)
    }

    /// Counts one failed tile attempt of the given kind (an unknown kind
    /// lands in `other`).
    pub fn inc(&self, kind: &str) {
        self.counts[Self::slot(kind)].inc();
    }

    /// Current count for one kind.
    pub fn get(&self, kind: &str) -> u64 {
        self.counts[Self::slot(kind)].get()
    }

    /// Appends the family (`# HELP`/`# TYPE` plus one line per kind) to a
    /// Prometheus text exposition.
    pub fn render(&self, out: &mut String) {
        let name = "ilt_tile_failures_total";
        family(out, name, "Failed tile jobs by failure classification.", "counter");
        for (kind, counter) in FAILURE_KINDS.iter().zip(&self.counts) {
            out.push_str(&format!("{name}{{kind=\"{kind}\"}} {}\n", counter.get()));
        }
    }
}

/// The one `# HELP` / `# TYPE` writer of the exposition: opens family
/// `name` of type `kind`; its sample lines follow.
pub fn family(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// A [`family`] of one unlabeled sample.
pub fn scalar(out: &mut String, name: &str, help: &str, kind: &str, value: u64) {
    family(out, name, help, kind);
    out.push_str(&format!("{name} {value}\n"));
}

/// Upper bounds (inclusive, milliseconds) of the latency buckets; an
/// implicit `+Inf` bucket follows.
pub const LATENCY_BUCKETS_MS: [f64; 10] =
    [1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0, 10000.0, 60000.0];

/// A fixed-bucket latency histogram (milliseconds).
#[derive(Debug)]
pub struct Histogram {
    /// Non-cumulative per-bucket counts; the last slot is the overflow
    /// (`+Inf`) bucket.
    counts: Vec<AtomicU64>,
    sum_ms_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: (0..=LATENCY_BUCKETS_MS.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_ms_bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, ms: f64) {
        let idx = LATENCY_BUCKETS_MS
            .iter()
            .position(|&b| ms <= b)
            .unwrap_or(LATENCY_BUCKETS_MS.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        // Atomic f64 accumulation via compare-exchange on the bit pattern.
        let mut current = self.sum_ms_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + ms).to_bits();
            match self.sum_ms_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observations, ms.
    pub fn sum_ms(&self) -> f64 {
        f64::from_bits(self.sum_ms_bits.load(Ordering::Relaxed))
    }

    /// Appends the `_bucket`/`_sum`/`_count` series for one labeled stage
    /// to a Prometheus text exposition (`# HELP`/`# TYPE` are the caller's
    /// responsibility, so several stages can share one family).
    pub fn render(&self, name: &str, stage: &str, out: &mut String) {
        let mut cumulative = 0u64;
        for (i, bound) in LATENCY_BUCKETS_MS.iter().enumerate() {
            cumulative += self.counts[i].load(Ordering::Relaxed);
            out.push_str(&format!("{name}_bucket{{stage=\"{stage}\",le=\"{bound}\"}} {cumulative}\n"));
        }
        cumulative += self.counts[LATENCY_BUCKETS_MS.len()].load(Ordering::Relaxed);
        out.push_str(&format!("{name}_bucket{{stage=\"{stage}\",le=\"+Inf\"}} {cumulative}\n"));
        out.push_str(&format!("{name}_sum{{stage=\"{stage}\"}} {}\n", self.sum_ms()));
        out.push_str(&format!("{name}_count{{stage=\"{stage}\"}} {cumulative}\n"));
    }
}

/// Live cluster-health metrics owned by the coordinator; the job service
/// appends them to its `/metrics` exposition when a cluster is configured.
#[derive(Debug, Default)]
pub struct ClusterStats {
    /// Worker replicas currently passing heartbeats (a gauge, written by
    /// the heartbeat monitor).
    pub workers_alive: AtomicU64,
    /// Shard dispatches that followed a failed attempt of the same shard
    /// (worker death, refusal, torn or garbled response). A shard's first
    /// dispatch never counts, wherever scheduling places it.
    pub shards_redispatched: Counter,
    /// Heartbeat probes that failed (each probe, not each declared death).
    pub heartbeat_failures: Counter,
    /// End-to-end shard round-trip latency (dispatch to fully parsed
    /// response), labeled `stage="shard"`.
    pub shard_ms: Histogram,
    /// Straggler shards speculatively re-executed on a second worker.
    pub shards_speculated: Counter,
    /// Speculative copies that finished before their straggling original.
    pub speculation_wins: Counter,
    /// Workers ever registered (the initial `--workers` list plus every
    /// `POST /v1/members` join).
    pub members_joined: Counter,
    /// Workers that left the membership.
    pub members_left: Counter,
}

impl ClusterStats {
    /// Appends the cluster families to a Prometheus text exposition.
    pub fn render(&self, workers_configured: usize, out: &mut String) {
        let alive = self.workers_alive.load(Ordering::Relaxed);
        let counters = [
            ("ilt_shards_redispatched_total", "Shard dispatches that followed a failed attempt (worker death, refusal, torn or garbled response).", &self.shards_redispatched),
            ("ilt_worker_heartbeat_failures_total", "Failed worker heartbeat probes.", &self.heartbeat_failures),
            ("ilt_shards_speculated_total", "Straggler shards speculatively re-executed.", &self.shards_speculated),
            ("ilt_speculation_wins_total", "Speculative copies that beat the straggler.", &self.speculation_wins),
            ("ilt_members_joined_total", "Workers ever registered with the coordinator.", &self.members_joined),
            ("ilt_members_left_total", "Workers that left the membership.", &self.members_left),
        ];
        scalar(out, "ilt_workers_configured", "Worker replicas currently registered.", "gauge", workers_configured as u64);
        scalar(out, "ilt_workers_alive", "Worker replicas currently passing heartbeats.", "gauge", alive);
        for (name, help, counter) in counters {
            scalar(out, name, help, "counter", counter.get());
        }
        family(out, "ilt_shard_latency_ms", "Shard dispatch round-trip latency, milliseconds.", "histogram");
        self.shard_ms.render("ilt_shard_latency_ms", "shard", out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_stats_render_is_prometheus_clean() {
        let stats = ClusterStats::default();
        stats.workers_alive.store(2, Ordering::Relaxed);
        stats.shards_redispatched.inc();
        stats.heartbeat_failures.add(3);
        stats.shard_ms.observe(42.0);
        stats.shards_speculated.inc();
        stats.speculation_wins.inc();
        stats.members_joined.add(2);
        stats.members_left.inc();
        let mut out = String::new();
        stats.render(2, &mut out);
        assert!(out.contains("ilt_workers_configured 2\n"), "{out}");
        assert!(out.contains("ilt_workers_alive 2\n"), "{out}");
        assert!(out.contains("ilt_shards_redispatched_total 1\n"));
        assert!(out.contains("ilt_worker_heartbeat_failures_total 3\n"));
        assert!(out.contains("ilt_shards_speculated_total 1\n"));
        assert!(out.contains("ilt_speculation_wins_total 1\n"));
        assert!(out.contains("ilt_members_joined_total 2\n"));
        assert!(out.contains("ilt_members_left_total 1\n"));
        assert!(out.contains("ilt_shard_latency_ms_bucket{stage=\"shard\",le=\"50\"} 1\n"));
        assert!(out.contains("ilt_shard_latency_ms_count{stage=\"shard\"} 1\n"));
        // Prometheus text format: every line is either a comment or
        // `name{labels} value`.
        for line in out.lines() {
            assert!(line.starts_with('#') || line.split_whitespace().count() == 2, "{line}");
        }
    }
}
