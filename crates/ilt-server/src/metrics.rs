//! Lock-free live counters and latency histograms, rendered as Prometheus
//! text exposition format (version 0.0.4) for `GET /metrics`.
//!
//! Everything is atomics so the hot paths (admission, job completion) never
//! contend with scrapes. Histogram buckets are cumulative (`le` semantics)
//! exactly as Prometheus expects; the per-stage latencies come from the
//! run journal's `StageTimes`, so batch CLI runs and served jobs measure
//! the same quantities with the same code.

use std::collections::BTreeMap;
use std::sync::Mutex;

use ilt_runtime::StageTimes;

use crate::admission::PriorityClass;

// The primitive instruments live in `ilt-cluster`: the coordinator observes
// shard health with them too.
use ilt_cluster::stats::{family, scalar};
pub use ilt_cluster::stats::{Counter, FailureKinds, Histogram, LATENCY_BUCKETS_MS};

/// A counter family labeled by client id — one Prometheus series per
/// client that has tripped it. Mutex-backed rather than atomic: it only
/// ticks on the quota-rejection path, which is cold by definition.
#[derive(Debug, Default)]
pub struct ClientCounters {
    counts: Mutex<BTreeMap<String, u64>>,
}

impl ClientCounters {
    /// Increments `client`'s series.
    pub fn inc(&self, client: &str) {
        let mut counts = self.counts.lock().expect("client counter lock poisoned");
        *counts.entry(client.to_string()).or_insert(0) += 1;
    }

    fn render(&self, out: &mut String, name: &str, help: &str) {
        family(out, name, help, "counter");
        // Client ids were validated at admission to a label-safe alphabet.
        for (client, count) in self.counts.lock().expect("client counter lock poisoned").iter() {
            out.push_str(&format!("{name}{{client=\"{client}\"}} {count}\n"));
        }
    }
}

/// Every live metric the server exports.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Jobs admitted to the queue.
    pub accepted: Counter,
    /// Submissions turned away (queue full or draining) with 503.
    pub rejected: Counter,
    /// Jobs that finished with every tile done.
    pub completed: Counter,
    /// Jobs that finished with at least one failed tile or an engine error.
    pub failed: Counter,
    /// Jobs cancelled by `DELETE /v1/jobs/{id}` (queued or running).
    pub cancelled: Counter,
    /// Jobs reconstructed from the state log at startup (finished restores
    /// plus re-queued interruptions).
    pub recovered: Counter,
    /// Tiles rescued by the degraded low-res fallback.
    pub degraded_tiles: Counter,
    /// Result masks evicted by the TTL / residency sweep.
    pub evicted: Counter,
    /// Evicted masks served again after a hash-verified reload from the
    /// state directory.
    pub rehydrated: Counter,
    /// Submissions refused 429 for breaching a per-client quota, by client.
    pub rejected_quota: ClientCounters,
    /// Failed tile jobs, by failure classification.
    pub tile_failures: FailureKinds,
    /// Simulator-acquisition latency per job (cache hit ≈ 0).
    pub sim_ms: Histogram,
    /// Optimization latency per job.
    pub optimize_ms: Histogram,
    /// Evaluation latency per job.
    pub evaluate_ms: Histogram,
    /// End-to-end job wall-time (queue wait excluded).
    pub wall_ms: Histogram,
}

/// Point-in-time gauges sampled at scrape time (owned by the job store and
/// simulator cache, not by [`Metrics`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct Gauges {
    /// Jobs waiting in the admission queue, per priority class, indexed
    /// like [`PriorityClass::ALL`].
    pub queue_depth: [usize; 3],
    /// Jobs currently executing on workers.
    pub running: usize,
    /// Simulators resident in the cache.
    pub cache_entries: usize,
    /// Cache hits since start.
    pub cache_hits: usize,
    /// Cache misses (builds) since start.
    pub cache_misses: usize,
    /// Cache LRU evictions since start.
    pub cache_evictions: usize,
}

impl Metrics {
    /// Records the per-stage latencies of one finished job.
    pub fn observe_stages(&self, times: &StageTimes, wall_ms: f64) {
        self.sim_ms.observe(times.sim_ms);
        self.optimize_ms.observe(times.optimize_ms);
        self.evaluate_ms.observe(times.evaluate_ms);
        self.wall_ms.observe(wall_ms);
    }

    /// Renders the Prometheus text exposition for `GET /metrics`.
    pub fn render(&self, gauges: &Gauges) -> String {
        let mut out = String::with_capacity(4096);
        let counter = |out: &mut String, name, help, value| scalar(out, name, help, "counter", value);
        let gauge = |out: &mut String, name, help, value| scalar(out, name, help, "gauge", value as u64);
        counter(&mut out, "ilt_jobs_accepted_total", "Jobs admitted to the queue.", self.accepted.get());
        counter(&mut out, "ilt_jobs_rejected_total", "Submissions rejected with 503.", self.rejected.get());
        counter(&mut out, "ilt_jobs_completed_total", "Jobs finished fully done.", self.completed.get());
        counter(&mut out, "ilt_jobs_failed_total", "Jobs finished failed (engine error or failed tiles).", self.failed.get());
        counter(&mut out, "ilt_jobs_cancelled_total", "Jobs cancelled via DELETE /v1/jobs/{id}.", self.cancelled.get());
        counter(&mut out, "ilt_jobs_recovered_total", "Jobs reconstructed from the state log at startup.", self.recovered.get());
        counter(&mut out, "ilt_tiles_degraded_total", "Tiles rescued by the degraded low-res fallback.", self.degraded_tiles.get());
        counter(&mut out, "ilt_masks_evicted_total", "Result masks evicted by the TTL/residency sweep.", self.evicted.get());
        counter(&mut out, "ilt_masks_rehydrated_total", "Evicted masks reloaded (hash-verified) from the state directory.", self.rehydrated.get());
        self.rejected_quota.render(
            &mut out,
            "ilt_jobs_rejected_quota_total",
            "Submissions refused 429 for breaching a per-client quota.",
        );
        self.tile_failures.render(&mut out);
        family(&mut out, "ilt_queue_depth", "Jobs waiting in the admission queue, by priority class.", "gauge");
        for class in PriorityClass::ALL {
            out.push_str(&format!(
                "ilt_queue_depth{{class=\"{}\"}} {}\n",
                class.as_str(),
                gauges.queue_depth[class.index()]
            ));
        }
        gauge(&mut out, "ilt_jobs_running", "Jobs currently executing.", gauges.running);
        gauge(&mut out, "ilt_cache_simulators", "Simulators resident in the cache.", gauges.cache_entries);
        counter(&mut out, "ilt_cache_hits_total", "Simulator cache hits.", gauges.cache_hits as u64);
        counter(&mut out, "ilt_cache_misses_total", "Simulator cache misses (builds).", gauges.cache_misses as u64);
        counter(&mut out, "ilt_cache_evictions_total", "Simulator cache LRU evictions.", gauges.cache_evictions as u64);
        family(&mut out, "ilt_stage_latency_ms", "Per-stage job latency, milliseconds.", "histogram");
        self.sim_ms.render("ilt_stage_latency_ms", "sim", &mut out);
        self.optimize_ms.render("ilt_stage_latency_ms", "optimize", &mut out);
        self.evaluate_ms.render("ilt_stage_latency_ms", "evaluate", &mut out);
        self.wall_ms.render("ilt_stage_latency_ms", "wall", &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::default();
        h.observe(0.5); // le 1
        h.observe(3.0); // le 5
        h.observe(7.0); // le 10
        h.observe(1e9); // +Inf
        assert!((h.sum_ms() - 1e9 - 10.5).abs() < 1e-6);
        let mut out = String::new();
        h.render("x_ms", "sim", &mut out);
        assert!(out.contains("x_ms_bucket{stage=\"sim\",le=\"1\"} 1\n"));
        assert!(out.contains("x_ms_bucket{stage=\"sim\",le=\"5\"} 2\n"));
        assert!(out.contains("x_ms_bucket{stage=\"sim\",le=\"10\"} 3\n"));
        assert!(out.contains("x_ms_bucket{stage=\"sim\",le=\"60000\"} 3\n"));
        assert!(out.contains("x_ms_bucket{stage=\"sim\",le=\"+Inf\"} 4\n"));
        assert!(out.contains("x_ms_count{stage=\"sim\"} 4\n"));
    }

    #[test]
    fn render_includes_every_family() {
        let m = Metrics::default();
        m.accepted.inc();
        m.accepted.inc();
        m.rejected.inc();
        m.observe_stages(&StageTimes { sim_ms: 2.0, optimize_ms: 700.0, evaluate_ms: 30.0 }, 750.0);
        let text = m.render(&Gauges { queue_depth: [1, 3, 0], running: 1, ..Gauges::default() });
        assert!(text.contains("ilt_jobs_accepted_total 2\n"));
        assert!(text.contains("ilt_jobs_rejected_total 1\n"));
        assert!(text.contains("ilt_queue_depth{class=\"high\"} 1\n"), "{text}");
        assert!(text.contains("ilt_queue_depth{class=\"normal\"} 3\n"));
        assert!(text.contains("ilt_queue_depth{class=\"low\"} 0\n"));
        assert!(text.contains("ilt_masks_rehydrated_total 0\n"));
        assert!(text.contains("# TYPE ilt_jobs_rejected_quota_total counter\n"));
        assert!(text.contains("ilt_jobs_running 1\n"));
        assert!(text.contains("ilt_stage_latency_ms_bucket{stage=\"optimize\",le=\"1000\"} 1\n"));
        assert!(text.contains("ilt_stage_latency_ms_count{stage=\"wall\"} 1\n"));
        // Prometheus text format: every line is either a comment or
        // `name{labels} value`.
        for line in text.lines() {
            assert!(line.starts_with('#') || line.split_whitespace().count() == 2, "{line}");
        }
    }

    #[test]
    fn failure_kinds_render_as_one_labeled_family() {
        let m = Metrics::default();
        m.tile_failures.inc("panic");
        m.tile_failures.inc("panic");
        m.tile_failures.inc("numeric");
        m.tile_failures.inc("something-new"); // unknown kinds land in `other`
        m.cancelled.inc();
        m.degraded_tiles.inc();
        m.evicted.add(3);
        m.recovered.add(2);
        m.rehydrated.inc();
        m.rejected_quota.inc("alice");
        m.rejected_quota.inc("alice");
        m.rejected_quota.inc("bob");
        let text = m.render(&Gauges::default());
        assert!(text.contains("ilt_masks_rehydrated_total 1\n"), "{text}");
        assert!(text.contains("ilt_jobs_rejected_quota_total{client=\"alice\"} 2\n"), "{text}");
        assert!(text.contains("ilt_jobs_rejected_quota_total{client=\"bob\"} 1\n"));
        assert_eq!(text.matches("ilt_jobs_rejected_quota_total{").count(), 2, "{text}");
        assert!(text.contains("ilt_tile_failures_total{kind=\"panic\"} 2\n"), "{text}");
        assert!(text.contains("ilt_tile_failures_total{kind=\"numeric\"} 1\n"));
        assert!(text.contains("ilt_tile_failures_total{kind=\"timeout\"} 0\n"));
        assert!(text.contains("ilt_tile_failures_total{kind=\"other\"} 1\n"));
        assert!(text.contains("ilt_jobs_cancelled_total 1\n"));
        assert!(text.contains("ilt_tiles_degraded_total 1\n"));
        assert!(text.contains("ilt_masks_evicted_total 3\n"));
        assert!(text.contains("ilt_jobs_recovered_total 2\n"));
        for line in text.lines() {
            assert!(line.starts_with('#') || line.split_whitespace().count() == 2, "{line}");
        }
    }

    #[test]
    fn concurrent_observations_do_not_lose_sum() {
        let h = Histogram::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        h.observe(1.0);
                    }
                });
            }
        });
        assert!((h.sum_ms() - 4000.0).abs() < 1e-9);
        let mut out = String::new();
        h.render("x_ms", "sim", &mut out);
        assert!(out.contains("x_ms_count{stage=\"sim\"} 4000\n"), "{out}");
    }
}
