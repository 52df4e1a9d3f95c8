//! Tier-1 smoke leg for the performance barometer: every registry
//! workload's setup path must compile and run on a plain `cargo test -q`.
//!
//! Runs the full registry in smoke mode (1 rep, tiny fixtures) in-process,
//! then round-trips each result through the on-disk v2 schema. A workload
//! whose fixtures break, whose self-check diverges, or whose JSON stops
//! parsing fails here — long before a nightly `ilt bench run` would see it.

use std::path::Path;

use ilt_perf::{registry, BenchResult, EnvStamp, MeasureConfig, SCHEMA_V2};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ilt_perf_smoke_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn every_workload_runs_in_smoke_mode_and_round_trips() {
    let cfg = MeasureConfig { smoke: true, reps: 1 };
    let env = EnvStamp { git_rev: "smoketest".into(), threads: 1, simd: "scalar".into() };
    let dir = temp_dir("all");
    let workloads = registry();
    assert!(workloads.len() >= 6, "registry shrank below six workloads");

    for w in &workloads {
        let sample = (w.run)(&cfg).unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
        assert!(sample.median_us >= 0.0, "{}: negative median", w.name);
        assert_eq!(sample.reps, 1, "{}: smoke mode must run one rep", w.name);

        let result = BenchResult::new(w, &sample, &cfg, &env);
        assert!(result.to_json().contains(SCHEMA_V2), "{}: wrong schema stamp", w.name);
        assert!(result.smoke, "{}: smoke run must be stamped smoke", w.name);
        let path = result.write(&dir).unwrap_or_else(|e| panic!("{}: write: {e}", w.name));
        let back = BenchResult::load(&path).unwrap_or_else(|e| panic!("{}: load: {e}", w.name));
        assert_eq!(back.workload, w.name);
        assert!((back.median_us - sample.median_us).abs() < 1e-3, "{}: median drifted", w.name);
        assert!(back.smoke, "{}: smoke flag lost in round trip", w.name);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn smoke_results_never_gate() {
    // The FFT workload is the cheapest; one smoke result on both sides of a
    // diff must be refused, whatever the numbers say.
    let cfg = MeasureConfig { smoke: true, reps: 1 };
    let env = EnvStamp { git_rev: "smoketest".into(), threads: 1, simd: "scalar".into() };
    let w = registry().into_iter().find(|w| w.name == "fft_pruned_inverse").expect("workload");
    let sample = (w.run)(&cfg).expect("smoke run");
    let result = BenchResult::new(&w, &sample, &cfg, &env);

    let dir = temp_dir("gate");
    result.write(&dir).expect("write");
    let err = ilt_perf::diff_dirs(&dir, &dir, &[])
        .expect_err("smoke results must be refused");
    assert!(err.contains("recorded in smoke mode"), "got {err}");
    let _ = std::fs::remove_dir_all(&dir);
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

#[test]
fn baseline_dir_without_file_is_a_hard_error() {
    let cfg = MeasureConfig { smoke: false, reps: 1 };
    let env = EnvStamp { git_rev: "smoketest".into(), threads: 1, simd: "scalar".into() };
    // A real (non-smoke) result diffed against an empty baseline dir: the
    // gate must demand a checked-in number, not skip the workload.
    let w = registry().into_iter().find(|w| w.name == "fft_pruned_inverse").expect("workload");
    let mut cfg_smoke_fixtures = cfg;
    cfg_smoke_fixtures.smoke = false;
    // Full fixtures are too slow for tier-1; fabricate the result instead.
    let sample = ilt_perf::Sample {
        median_us: 123.0,
        mad_us: 1.0,
        reps: 1,
        extra: Vec::new(),
    };
    let result = BenchResult::new(&w, &sample, &cfg_smoke_fixtures, &env);
    let fresh = temp_dir("fresh");
    let baselines = temp_dir("baselines");
    result.write(&fresh).expect("write");
    let err = ilt_perf::diff_dirs(&baselines, &fresh, &[])
        .expect_err("missing baseline must error");
    assert!(err.starts_with("fft_pruned_inverse: no baseline at "), "got {err}");
    assert!(!Path::new(&baselines).join("BENCH_fft_pruned_inverse.json").exists());

    // With a baseline on file the gate compares: the same number passes,
    // one past the workload's threshold fails the report (what
    // `ilt bench diff` turns into a non-zero exit).
    result.write(&baselines).expect("write baseline");
    let same = ilt_perf::diff_dirs(&baselines, &fresh, &[]).expect("comparable");
    assert_eq!((same.rows.len(), same.regressions()), (1, 0));
    let slow = ilt_perf::Sample { median_us: 123.0 * (1.0 + w.threshold) + 1.0, ..sample };
    BenchResult::new(&w, &slow, &cfg_smoke_fixtures, &env).write(&fresh).expect("write slow");
    let tripped = ilt_perf::diff_dirs(&baselines, &fresh, &[]).expect("comparable");
    assert_eq!(tripped.regressions(), 1, "{}", tripped.render());
    assert!(tripped.render().contains("REGRESSED"));
    let _ = std::fs::remove_dir_all(&fresh);
    let _ = std::fs::remove_dir_all(&baselines);
}

/// Every baseline checked in at the repo root — written by several earlier
/// commits, all of them carrying the `simd` stamp by now — loads through
/// the shared `ilt_runtime::json` reader, and each names a registered
/// workload.
#[test]
fn every_checked_in_baseline_loads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut loaded = 0;
    let mut unstamped = 0;
    for workload in registry() {
        let path = root.join(BenchResult::file_name(workload.name));
        let result = BenchResult::load(&path).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(result.workload, workload.name);
        assert!(!result.smoke && result.median_us > 0.0, "{}", path.display());
        loaded += 1;
        unstamped += usize::from(!["avx2", "scalar"].contains(&result.simd.as_str()));
    }
    let on_disk = std::fs::read_dir(&root)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .count();
    assert_eq!((loaded, on_disk, unstamped), (6, 6, 0));
}
