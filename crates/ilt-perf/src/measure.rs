//! The measurement engine: warmup, median-of-N, MAD dispersion, and the
//! environment stamp that ties a number to the machine that produced it.

use std::time::Instant;

/// How a workload should be measured.
#[derive(Clone, Debug, PartialEq)]
pub struct MeasureConfig {
    /// Smoke mode: one rep on tiny fixtures. Exercises every setup and hot
    /// path in milliseconds so tier-1 tests can run the whole registry
    /// in-process; the resulting numbers are stamped `smoke` and refused
    /// by the diff gate.
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
/// stalls shared machines produce), plus workload-specific scalars.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Median wall time per operation, microseconds.
    pub median_us: f64,
    /// Median absolute deviation of the rep times, microseconds.
    pub mad_us: f64,
    /// Number of timed reps behind the median.
    pub reps: usize,
    /// Workload-specific scalars (grid sizes, tile counts, speedups…)
    /// carried verbatim into the result JSON's `extra` object.
    pub extra: Vec<(String, f64)>,
}

impl Sample {
    /// Attaches one extra scalar (builder-style).
    pub fn with_extra(mut self, key: &str, value: f64) -> Sample {
        self.extra.push((key.to_string(), value));
        self
    }
}

/// Times `op`: one untimed warmup (faults in buffers, fills plan and
/// simulator caches), then [`MeasureConfig::effective_reps`] timed runs.
pub fn measure(cfg: &MeasureConfig, mut op: impl FnMut()) -> Sample {
    op(); // warmup
    let reps = cfg.effective_reps();
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            op();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(f64::total_cmp);
    let median = times[times.len() / 2];
    let mut dev: Vec<f64> = times.iter().map(|t| (t - median).abs()).collect();
    dev.sort_by(f64::total_cmp);
    let mad = dev[dev.len() / 2];
    Sample { median_us: median, mad_us: mad, reps, extra: Vec::new() }
}

/// Where a measurement was taken: enough provenance to judge whether a
/// checked-in baseline is comparable to a fresh run.
#[derive(Clone, Debug, PartialEq)]
pub struct EnvStamp {
    /// Short git revision of the working tree, or `unknown` outside a
    /// repository.
    pub git_rev: String,
    /// Hardware threads available to the process.
    pub threads: usize,
    /// Active FFT kernel (`avx2` or `scalar`), as detected at
    /// runtime — records whether a number was produced with SIMD
    /// butterflies or the forced-scalar fallback.
    pub simd: String,
}

/// Stamps the current environment. Never fails: a missing `git` binary or
/// a non-repository directory degrades to `unknown`.
pub fn env_stamp() -> EnvStamp {
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
    let simd = ilt_fft::active_kernel().to_string();
    EnvStamp { git_rev, threads, simd }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad_are_robust_to_one_outlier() {
        // Five reps where one is wildly slow: the median must not move.
        let mut times = vec![10.0, 11.0, 10.5, 500.0, 10.2];
        times.sort_by(f64::total_cmp);
        assert_eq!(times[times.len() / 2], 10.5);
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
        let env = env_stamp();
        assert!(env.threads >= 1);
        assert!(!env.git_rev.is_empty());
        assert!(
            ["avx2", "scalar"].contains(&env.simd.as_str()),
            "unexpected kernel stamp {:?}",
            env.simd
        );
    }
}
