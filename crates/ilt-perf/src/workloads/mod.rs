//! The workload families, one module per performance-critical layer.
//!
//! Every function here has the same shape: build fixtures (sized down in
//! smoke mode), call [`crate::measure::measure`] around the hot operation,
//! self-check against a reference path where one exists, and return the
//! [`crate::measure::Sample`] with descriptive extras attached.

pub mod fft;
pub mod optimizer;
pub mod simulator;

use ilt_layouts::Xorshift64Star;

/// Deterministic pseudo-random reals in `[-1, 1)` — fixtures must be
/// identical on every machine and every run.
pub(crate) fn noise(rng: &mut Xorshift64Star) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}
