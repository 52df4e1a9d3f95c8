//! From-scratch partially coherent lithography simulation.
//!
//! This crate rebuilds the optical substrate that the DAC 2023 multi-level
//! ILT paper takes from the ICCAD 2013 contest: a Hopkins imaging model with
//! `N_k` SOCS kernels of frequency support `P x P`, evaluated on `N x N`
//! grids via FFT (Eq. 3), with the multi-resolution variants of Eqs. 7/8.
//!
//! Pipeline: [`SourceSpec`] (illumination) + [`Pupil`] (lens, defocus)
//! -> [`Tcc`] (Hopkins transmission cross coefficients)
//! -> [`KernelSet`] (leading eigenpairs via [`top_eigenpairs`])
//! -> [`LithoSimulator`] (aerial images, resist models, process corners,
//! and the adjoint/VJP used by ILT gradients).
//!
//! # Example
//!
//! ```
//! use ilt_field::Field2D;
//! use ilt_optics::{LithoSimulator, OpticsConfig, ProcessCondition};
//!
//! # fn main() -> Result<(), String> {
//! // A 512 nm clip on a 128-pixel grid (4 nm pixels).
//! let cfg = OpticsConfig { grid: 128, nm_per_px: 4.0, num_kernels: 4, ..OpticsConfig::default() };
//! let sim = LithoSimulator::new(cfg)?;
//! let mask = Field2D::from_fn(128, 128, |r, c| {
//!     if (44..84).contains(&r) && (44..84).contains(&c) { 1.0 } else { 0.0 }
//! });
//! let corners = sim.print_corners(&mask);
//! let pvband = corners.inner.xor_count(&corners.outer);
//! assert!(pvband > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod eig;
mod kernels;
mod pupil;
mod simulator;
mod source;
mod tcc;

pub use config::OpticsConfig;
pub use eig::{sym_eig_jacobi, top_eigenpairs, EigPair, HermitianOp};
/// The logistic the sigmoid resist runs on, re-exported so the stack's
/// other sigmoids (mask binarization, the level-set Heaviside) share it.
pub use ilt_fft::{logistic, logistic_in_place};
/// How many focus-state halves the process ran on an idle core (the
/// simulator's forks; see `ilt_fft::fork_join`).
pub use ilt_fft::cores_borrowed;
pub use kernels::KernelSet;
pub use pupil::Pupil;
pub use simulator::{AerialCache, CornerPrints, LithoSimulator, ProcessCondition};
pub use source::{SourcePoint, SourceSpec};
pub use tcc::Tcc;
