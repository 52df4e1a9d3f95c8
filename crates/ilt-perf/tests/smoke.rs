//! Tier-1 smoke leg for the performance barometer: every registry
//! workload's setup path must compile and run on a plain `cargo test -q`.
//!
//! Runs the full registry in smoke mode (1 rep, tiny fixtures) in-process.
//! A workload whose fixtures break or whose self-check diverges fails here
//! — long before a full `ilt bench run` would see it.

use ilt_perf::{registry, MeasureConfig};

#[test]
fn every_workload_runs_in_smoke_mode() {
    let cfg = MeasureConfig { smoke: true, reps: 1 };
    let workloads = registry();
    assert!(workloads.len() >= 6, "registry shrank below six workloads");

    for w in &workloads {
        let sample = (w.run)(&cfg).unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
        assert!(sample.median_us >= 0.0, "{}: negative median", w.name);
        assert_eq!(sample.reps, 1, "{}: smoke mode must run one rep", w.name);
    }
}

#[test]
fn selection_filters_reach_every_family() {
    for family in ["fft_", "sim_", "core_"] {
        let picked = ilt_perf::select(&[format!("{family}*")]);
        assert!(!picked.is_empty(), "{family}* selects nothing");
        assert!(
            picked.iter().all(|w| w.name.starts_with(family)),
            "{family}* selected a foreign workload"
        );
    }
    let missing = ilt_perf::select(&["no_such_workload_*".into()]);
    assert!(missing.is_empty(), "bogus glob matched something");
}
