//! Benchmark layouts for multi-level ILT.
//!
//! Three families, mirroring the paper's evaluation (Section IV):
//!
//! * [`iccad2013_case`] — stand-ins for the ten ICCAD 2013 M1 contest
//!   clips, calibrated to the published areas of Table II,
//! * [`extended_case`] — stand-ins for the ten denser Neural-ILT cases of
//!   Table IV,
//! * [`via_pattern`] — random via clips for the Section IV-C study.
//!
//! [`m1_case`] maps a case id 1..=20 onto the first two families.
//!
//! Layouts are rectangle lists in nm ([`Layout`]) rasterizable onto any
//! grid size, so the same case can be run at the paper's full 2048-pixel
//! resolution or at reduced scale on small machines.
//!
//! # Example
//!
//! ```
//! use ilt_layouts::iccad2013_case;
//!
//! let case1 = iccad2013_case(1);
//! let target = case1.rasterize(512);           // 4 nm pixels
//! assert_eq!(target.shape(), (512, 512));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod layout;
mod m1;
mod rng;
mod via;

pub use layout::{Layout, NmRect};
pub use rng::Xorshift64Star;
pub use m1::{
    extended_case, iccad2013_case, m1_case, CLIP_NM, EXTENDED_AREAS, ICCAD2013_AREAS,
};
pub use via::via_pattern;
