//! Non-neural baselines for the multi-level ILT evaluation.
//!
//! The paper compares against four published systems; the two neural ones
//! (Neural-ILT [4], DevelSet [5]) are represented in the bench harness by
//! their published numbers, while the optimization-based behaviours are
//! reproduced here from scratch so that like-for-like comparisons run under
//! one lithography engine:
//!
//! * [`ConventionalIlt`] — single-level pixel ILT with the legacy
//!   `T_R = 0` sigmoid (Table I's "w/o downsampling" row, Fig. 4(a)),
//! * [`LevelSetIlt`] — a GLS-ILT-style level-set optimizer [6].
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use ilt_baselines::ConventionalIlt;
//! use ilt_field::Field2D;
//! use ilt_optics::{LithoSimulator, OpticsConfig};
//!
//! # fn main() -> Result<(), String> {
//! let cfg = OpticsConfig { grid: 64, nm_per_px: 8.0, num_kernels: 3, ..OpticsConfig::default() };
//! let sim = Arc::new(LithoSimulator::new(cfg)?);
//! let target = Field2D::from_fn(64, 64, |r, c| {
//!     if (28..36).contains(&r) && (16..48).contains(&c) { 1.0 } else { 0.0 }
//! });
//! let result = ConventionalIlt::new(sim).run(&target, 3);
//! assert!(!result.loss_history.is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod conventional;
mod levelset;

pub use conventional::ConventionalIlt;
pub use levelset::{signed_distance, LevelSetConfig, LevelSetIlt, LevelSetResult};
