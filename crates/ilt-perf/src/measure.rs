//! The measurement engine: warmup, median-of-N, MAD dispersion, and the
//! provenance line that ties a number to the machine that produced it.

use std::time::Instant;

/// How a workload should be measured.
#[derive(Clone, Debug, PartialEq)]
pub struct MeasureConfig {
    /// Smoke mode: one rep on tiny fixtures. Exercises every setup and hot
    /// path in milliseconds so tier-1 tests can run the whole registry
    /// in-process; the resulting numbers time nothing of interest.
    pub smoke: bool,
    /// Timed repetitions per workload in full mode (smoke forces 1).
    pub reps: usize,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        MeasureConfig { smoke: false, reps: 5 }
    }
}

impl MeasureConfig {
    /// Repetitions actually timed: 1 in smoke mode, else `reps` (min 1).
    pub fn effective_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            self.reps.max(1)
        }
    }
}

/// One measured workload: median wall time over the reps, with the median
/// absolute deviation as the dispersion estimate (robust to the one-off
/// stalls shared machines produce).
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Median wall time per operation, microseconds.
    pub median_us: f64,
    /// Median absolute deviation of the rep times, microseconds.
    pub mad_us: f64,
    /// Number of timed reps behind the median.
    pub reps: usize,
}

/// Times `op`: one untimed warmup (faults in buffers, fills plan and
/// simulator caches), then [`MeasureConfig::effective_reps`] timed runs.
pub fn measure(cfg: &MeasureConfig, mut op: impl FnMut()) -> Sample {
    op(); // warmup
    let reps = cfg.effective_reps();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            op();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let (median_us, mad_us) = median_and_mad(times);
    Sample { median_us, mad_us, reps }
}

/// The median of `times` and their median absolute deviation from it. An
/// even count takes the upper of the two middle values, for both.
fn median_and_mad(mut times: Vec<f64>) -> (f64, f64) {
    times.sort_by(f64::total_cmp);
    let median = times[times.len() / 2];
    let mut dev: Vec<f64> = times.iter().map(|t| (t - median).abs()).collect();
    dev.sort_by(f64::total_cmp);
    (median, dev[dev.len() / 2])
}

/// The provenance line that heads `ilt bench run` and `ilt tables`:
/// `# rev <git rev>, simd <avx2|scalar>, <N> hardware thread(s)`. Never
/// fails: a missing `git` binary or a non-repository directory gives rev
/// `unknown`.
pub fn env_stamp() -> String {
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let threads = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let simd = ilt_fft::active_kernel();
    format!("# rev {git_rev}, simd {simd}, {threads} hardware thread(s)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad_are_robust_to_one_outlier() {
        // Five reps where one is wildly slow: neither statistic follows it.
        assert_eq!(median_and_mad(vec![10.0, 11.0, 10.5, 500.0, 10.2]), (10.5, 0.5));
        assert_eq!(median_and_mad(vec![7.0]), (7.0, 0.0));
        // An even count takes the upper middle: median 3 of [1, 2, 3, 4],
        // deviations [0, 1, 1, 2] -> 1.
        assert_eq!(median_and_mad(vec![4.0, 1.0, 3.0, 2.0]), (3.0, 1.0));
    }

    #[test]
    fn smoke_forces_one_rep() {
        let cfg = MeasureConfig { smoke: true, reps: 9 };
        assert_eq!(cfg.effective_reps(), 1);
        let mut calls = 0;
        let s = measure(&cfg, || calls += 1);
        assert_eq!(calls, 2, "warmup + 1 timed rep");
        assert_eq!(s.reps, 1);
        assert_eq!(s.mad_us, 0.0);
    }

    #[test]
    fn env_stamp_never_fails() {
        let line = env_stamp();
        let rest = line.strip_prefix("# rev ").expect(&line);
        let (rev, rest) = rest.split_once(", simd ").expect(&line);
        let (simd, threads) = rest.split_once(", ").expect(&line);
        assert!(!rev.is_empty(), "{line}");
        assert!(["avx2", "scalar"].contains(&simd), "unexpected kernel stamp in {line:?}");
        let threads = threads.strip_suffix(" hardware thread(s)").expect(&line);
        assert!(threads.parse::<usize>().expect(&line) >= 1);
    }
}
