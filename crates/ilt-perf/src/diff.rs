//! The regression gate: compare a fresh run against checked-in baselines.
//!
//! Entirely in-tree — no python, no external diff tool. A workload
//! regresses when its fresh median exceeds the baseline median by more
//! than the baseline's recorded threshold, and its baseline is stale when
//! the fresh median undercuts it by as much (a baseline far above the
//! tree would let a regression of the same size pass); everything else
//! (torn files, schema bumps, smoke results, missing baselines) is an
//! error message naming the file and the cause, never a silent pass.

use std::path::Path;

use crate::registry::selected;
use crate::result::BenchResult;

/// One workload's baseline-vs-fresh comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffRow {
    /// Workload name.
    pub workload: String,
    /// Baseline median, microseconds.
    pub baseline_us: f64,
    /// Fresh median, microseconds.
    pub fresh_us: f64,
    /// `fresh / baseline` (1.0 = unchanged, above 1 = slower).
    pub ratio: f64,
    /// Allowed fractional slowdown applied to this row.
    pub threshold: f64,
    /// True when `fresh > baseline * (1 + threshold)`.
    pub regressed: bool,
    /// True when `fresh < baseline / (1 + threshold)`: re-record the
    /// baseline.
    pub stale: bool,
}

/// The full comparison across selected workloads.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DiffReport {
    /// Per-workload rows, in fresh-file order (sorted by name).
    pub rows: Vec<DiffRow>,
}

impl DiffReport {
    /// Number of regressed rows.
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.regressed).count()
    }

    /// Number of rows whose baseline is stale.
    pub fn stale(&self) -> usize {
        self.rows.iter().filter(|r| r.stale).count()
    }

    /// Human-readable table, one row per workload.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<24} {:>14} {:>14} {:>8} {:>10}  verdict\n",
            "workload", "baseline (us)", "fresh (us)", "ratio", "threshold"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<24} {:>14.1} {:>14.1} {:>7.2}x {:>9.2}x  {}\n",
                r.workload,
                r.baseline_us,
                r.fresh_us,
                r.ratio,
                1.0 + r.threshold,
                match (r.regressed, r.stale) {
                    (true, _) => "REGRESSED",
                    (_, true) => "STALE",
                    _ => "ok",
                }
            ));
        }
        out
    }
}

/// Compares one fresh result against its baseline.
///
/// The regression threshold comes from the *baseline* file (the checked-in
/// number is the contract). Both boundaries are exclusive: a fresh median
/// exactly at `baseline * (1 + threshold)` or `baseline / (1 + threshold)`
/// still passes.
///
/// # Errors
///
/// "recorded in smoke mode" if either side was (labelled with the
/// offending side's path via `baseline_path` / `fresh_path`).
pub fn diff_result(
    baseline: &BenchResult,
    fresh: &BenchResult,
    baseline_path: &Path,
    fresh_path: &Path,
) -> Result<DiffRow, String> {
    for (side, path) in [(baseline, baseline_path), (fresh, fresh_path)] {
        if side.smoke {
            return Err(format!(
                "{}: recorded in smoke mode; smoke numbers never gate — rerun without --smoke",
                path.display()
            ));
        }
    }
    let threshold = baseline.threshold;
    let limit = baseline.median_us * (1.0 + threshold);
    let ratio = if baseline.median_us > 0.0 {
        fresh.median_us / baseline.median_us
    } else {
        f64::INFINITY
    };
    Ok(DiffRow {
        workload: fresh.workload.clone(),
        baseline_us: baseline.median_us,
        fresh_us: fresh.median_us,
        ratio,
        threshold,
        regressed: fresh.median_us > limit,
        stale: fresh.median_us < baseline.median_us / (1.0 + threshold),
    })
}

/// Diffs every `BENCH_*.json` under `fresh_dir` whose workload name matches
/// any of `globs` (all of them for no globs) against its namesake in
/// `baseline_dir`.
///
/// A fresh result whose workload has left the registry still diffs by
/// name. A selected fresh result without a baseline is an error ("no
/// baseline at ..") — new workloads must check in a number before they can
/// ride the gate.
///
/// # Errors
///
/// Any load error from either side, plus everything [`diff_result`]
/// raises. An empty selection (no fresh results matched) errors too: a
/// gate that checked nothing must not look green.
pub fn diff_dirs(
    baseline_dir: &Path,
    fresh_dir: &Path,
    globs: &[String],
) -> Result<DiffReport, String> {
    let mut names: Vec<String> = std::fs::read_dir(fresh_dir)
        .map_err(|e| format!("{}: {e}", fresh_dir.display()))?
        .filter_map(|entry| {
            let file = entry.ok()?.file_name().into_string().ok()?;
            let workload = file.strip_prefix("BENCH_")?.strip_suffix(".json")?.to_string();
            Some(workload)
        })
        .filter(|name| selected(globs, name))
        .collect();
    names.sort_unstable();
    if names.is_empty() {
        return Err(format!(
            "{}: malformed bench result: no fresh BENCH_*.json results match the selection",
            fresh_dir.display()
        ));
    }
    let mut rows = Vec::with_capacity(names.len());
    for name in names {
        let fresh_path = fresh_dir.join(BenchResult::file_name(&name));
        let fresh = BenchResult::load(&fresh_path)?;
        let baseline_path = baseline_dir.join(BenchResult::file_name(&name));
        if !baseline_path.exists() {
            return Err(format!(
                "{name}: no baseline at {} — check one in with `ilt bench run {name} --out <baseline dir>`",
                baseline_path.display()
            ));
        }
        let baseline = BenchResult::load(&baseline_path)?;
        rows.push(diff_result(&baseline, &fresh, &baseline_path, &fresh_path)?);
    }
    Ok(DiffReport { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(median: f64, threshold: f64) -> BenchResult {
        BenchResult {
            workload: "w".into(),
            threshold,
            reps: 5,
            median_us: median,
            mad_us: 1.0,
            smoke: false,
            git_rev: "deadbeef".into(),
            threads: 4,
            simd: "scalar".into(),
            extra: vec![],
        }
    }

    fn row(baseline: &BenchResult, fresh: &BenchResult) -> DiffRow {
        diff_result(baseline, fresh, Path::new("b.json"), Path::new("f.json"))
            .expect("comparable results")
    }

    #[test]
    fn threshold_boundary_is_exclusive() {
        let baseline = result(100.0, 0.5);
        // Exactly at the limit: passes.
        assert!(!row(&baseline, &result(150.0, 0.5)).regressed);
        // A hair past: regresses.
        assert!(row(&baseline, &result(150.0 + 1e-9, 0.5)).regressed);
        // Well under: passes, ratio below 1.
        let fast = row(&baseline, &result(50.0, 0.5));
        assert!(!fast.regressed);
        assert!(fast.ratio < 1.0);
    }

    #[test]
    fn threshold_comes_from_the_baseline() {
        let baseline = result(100.0, 0.1);
        let fresh = result(120.0, 9.9); // fresh file's threshold is ignored
        assert!(row(&baseline, &fresh).regressed);
    }

    #[test]
    fn a_baseline_the_tree_undercuts_past_its_threshold_is_stale() {
        let baseline = result(150.0, 0.5);
        // Exactly at baseline / (1 + threshold): passes.
        let at = row(&baseline, &result(100.0, 0.5));
        assert!(!at.stale && !at.regressed);
        // A hair under: stale, not regressed, and rendered as such.
        let under = row(&baseline, &result(100.0 - 1e-9, 0.5));
        assert!(under.stale && !under.regressed);
        let report = DiffReport { rows: vec![under] };
        assert_eq!((report.stale(), report.regressions()), (1, 0));
        assert!(report.render().contains("STALE"), "{}", report.render());
    }

    #[test]
    fn smoke_results_are_refused_on_either_side() {
        let mut smoke = result(100.0, 0.5);
        smoke.smoke = true;
        let full = result(100.0, 0.5);
        let err = diff_result(&smoke, &full, Path::new("b"), Path::new("f")).unwrap_err();
        assert!(err.starts_with("b: recorded in smoke mode"), "{err}");
        let err = diff_result(&full, &smoke, Path::new("b"), Path::new("f")).unwrap_err();
        assert!(err.starts_with("f: recorded in smoke mode"), "{err}");
    }

    #[test]
    fn dir_diff_surfaces_missing_baselines_and_torn_files() {
        let dir = std::env::temp_dir().join(format!("ilt_perf_diff_{}", std::process::id()));
        let baselines = dir.join("baselines");
        let fresh = dir.join("fresh");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&baselines).unwrap();
        std::fs::create_dir_all(&fresh).unwrap();

        // Fresh result with no baseline: the gate names the missing file.
        result(100.0, 0.5).write(&fresh).unwrap();
        let err = diff_dirs(&baselines, &fresh, &[]).unwrap_err();
        assert!(err.starts_with("w: no baseline at "), "{err}");

        // Torn baseline: malformed, not a pass.
        let json = result(100.0, 0.5).to_json();
        std::fs::write(baselines.join("BENCH_w.json"), &json[..json.len() / 3]).unwrap();
        let err = diff_dirs(&baselines, &fresh, &[]).unwrap_err();
        assert!(err.contains("BENCH_w.json: malformed bench result: "), "{err}");

        // Intact baseline: one clean row.
        result(100.0, 0.5).write(&baselines).unwrap();
        let report = diff_dirs(&baselines, &fresh, &[]).unwrap();
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.regressions(), 0);
        assert!(report.render().contains("ok"));

        // Empty selection must not look green.
        assert!(diff_dirs(&baselines, &fresh, &["nomatch_*".into()]).is_err());

        let _ = std::fs::remove_dir_all(&dir);
    }
}
