//! 2-D scalar fields and the pooling/resampling operators of multi-level ILT.
//!
//! Masks `M`, aerial images `I` and wafer images `Z` in the DAC 2023
//! multi-level ILT paper are all `N x N` real grids. This crate provides the
//! shared container ([`Field2D`]) plus exactly the operators Algorithm 1
//! needs:
//!
//! * [`avg_pool_down`] — `AvgPool(kernel = s, stride = s)`, lines 2/9,
//! * [`avg_pool_same`] — `AvgPool(kernel = 3, stride = 1)`, line 11
//!   (the Section III-D contour smoother),
//! * [`upsample_nearest`] — `Upsample(M_s)`, line 7,
//! * thresholding and XOR counting for the resist model and PVBand metric.
//!
//! # Example
//!
//! ```
//! use ilt_field::{avg_pool_down, upsample_nearest, Field2D};
//!
//! let target = Field2D::from_fn(8, 8, |r, c| if r >= 2 && r < 6 && c >= 2 && c < 6 { 1.0 } else { 0.0 });
//! let reduced = avg_pool_down(&target, 2);      // Z_{t,s}, Algorithm 1 line 2
//! let restored = upsample_nearest(&reduced, 2); // M, Algorithm 1 line 7
//! assert_eq!(restored.shape(), target.shape());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod blend;
mod field;
mod io;
mod resample;

pub use blend::{accumulate_weighted, normalize_weighted, seam_ramp, seam_weights};
pub use field::Field2D;
pub use io::{parse_pgm, pgm_bytes, read_pgm, write_csv, write_pgm};
pub use resample::{avg_pool_down, avg_pool_same, upsample_nearest};
