//! Binary-mask geometry for inverse lithography.
//!
//! Three geometric services back the multi-level ILT flow:
//!
//! * **Components** ([`label_components`]) — SRAF census and shape statistics,
//! * **Fracturing** ([`fracture`], [`shot_count`]) — Definition 4's mask
//!   fracturing shot count, via exact horizontal-slab decomposition,
//! * **Post-processing** ([`simplify_mask`]) — Section III-D's "eliminate too
//!   small shapes and replace medium-sized irregular SRAFs with rectangles".
//!
//! # Example
//!
//! ```
//! use ilt_geom::{rasterize_rects, shot_count, Rect};
//!
//! let mask = rasterize_rects(&[Rect::new(0, 0, 8, 8), Rect::new(10, 10, 12, 20)], 32, 32);
//! assert_eq!(shot_count(&mask), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod components;
mod fracture;
mod postprocess;
mod rect;

pub use components::{component_count, label_components, Component};
pub use fracture::{fracture, shot_count};
pub use postprocess::{simplify_mask, SimplifyConfig, SimplifyReport};
pub use rect::{rasterize_rects, Rect};
