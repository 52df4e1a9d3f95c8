//! Multi-level inverse lithography technology — the DAC 2023 contribution.
//!
//! This crate assembles the substrates (`ilt-optics`, `ilt-autodiff`,
//! `ilt-field`, `ilt-geom`) into the paper's ILT framework:
//!
//! * [`BinaryFunction`] — the improved mask binary function (Section III-C):
//!   sigmoid with `T_R = 0.5` during optimization, `T_R = 0.4` at output,
//! * [`OptimizeRegion`] — the two writable-region conventions of Fig. 7,
//! * [`MultiLevelIlt`] + [`Stage`] — Algorithm 1 with low-resolution
//!   (Eq. 8) and high-resolution (Eq. 3 + pooling) branches, early exit,
//!   contour [`Smoothing`] and final mask synthesis (Eq. 12),
//! * [`schedules`] — the named recipes behind "Our-fast", "Our-exact" and
//!   the via-layer flow.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use ilt_core::{schedules, IltConfig, MultiLevelIlt};
//! use ilt_field::Field2D;
//! use ilt_optics::{LithoSimulator, OpticsConfig};
//!
//! # fn main() -> Result<(), String> {
//! let optics = OpticsConfig { grid: 64, nm_per_px: 8.0, num_kernels: 3, ..OpticsConfig::default() };
//! let sim = Arc::new(LithoSimulator::new(optics)?);
//! let target = Field2D::from_fn(64, 64, |r, c| {
//!     if (24..40).contains(&r) && (16..48).contains(&c) { 1.0 } else { 0.0 }
//! });
//! let ilt = MultiLevelIlt::new(sim, IltConfig::default());
//! let schedule = schedules::clamp_scales(&schedules::our_fast(), 64, 32);
//! let result = ilt.run(&target, &schedule);
//! assert!(result.total_iterations > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod binary;
mod loss;
mod optimizer;
mod region;
pub mod schedules;
mod update;

pub use binary::BinaryFunction;
pub use loss::LossWeights;
pub use update::{UpdateRule, UpdateState};
pub use optimizer::{
    IltConfig, IltResult, LossRecord, MultiLevelIlt, Smoothing, SmoothingPlacement, Stage,
    StageKind,
};
pub use region::OptimizeRegion;
