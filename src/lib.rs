//! # multilevel-ilt
//!
//! A from-scratch Rust reproduction of **"Efficient ILT via Multi-level
//! Lithography Simulation"** (DAC 2023): multi-resolution inverse
//! lithography with an improved mask binary function and pooling-based
//! shape simplification, together with every substrate the paper depends
//! on — a partially coherent lithography simulator, FFTs, reverse-mode
//! autodiff, benchmark layouts, contest metrics and non-neural baselines.
//!
//! This crate is a facade: it re-exports the workspace members under short
//! module names and offers a [`prelude`] for examples and quick scripts.
//!
//! ## Quickstart
//!
//! ```
//! use multilevel_ilt::prelude::*;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), String> {
//! // A small clip: 64 pixels at 8 nm = 512 nm.
//! let optics = OpticsConfig { grid: 64, nm_per_px: 8.0, num_kernels: 3, ..OpticsConfig::default() };
//! let sim = Arc::new(LithoSimulator::new(optics)?);
//!
//! let target = Field2D::from_fn(64, 64, |r, c| {
//!     if (24..40).contains(&r) && (16..48).contains(&c) { 1.0 } else { 0.0 }
//! });
//!
//! let ilt = MultiLevelIlt::new(sim.clone(), IltConfig::default());
//! let result = ilt.run(&target, &[Stage::low_res(2, 10)]);
//!
//! let corners = sim.print_corners(&result.mask);
//! let l2 = squared_l2(&corners.nominal, &target, 8.0);
//! assert!(l2.is_finite());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use ilt_autodiff as autodiff;
pub use ilt_baselines as baselines;
pub use ilt_cluster as cluster;
pub use ilt_core as core;
pub use ilt_fft as fft;
pub use ilt_field as field;
pub use ilt_geom as geom;
pub use ilt_layouts as layouts;
pub use ilt_metrics as metrics;
pub use ilt_optics as optics;
pub use ilt_perf as perf;
pub use ilt_runtime as runtime;
pub use ilt_server as server;

/// Everything needed to run an ILT flow end to end.
pub mod prelude {
    pub use ilt_baselines::{ConventionalIlt, LevelSetConfig, LevelSetIlt};
    pub use ilt_core::{
        schedules, BinaryFunction, IltConfig, IltResult, MultiLevelIlt, OptimizeRegion,
        Smoothing, SmoothingPlacement, Stage, StageKind,
    };
    pub use ilt_field::{
        avg_pool_down, avg_pool_same, upsample_nearest, write_csv, write_pgm, Field2D,
    };
    pub use ilt_geom::{shot_count, simplify_mask, SimplifyConfig};
    pub use ilt_layouts::{extended_case, iccad2013_case, m1_case, via_pattern, Layout};
    pub use ilt_metrics::{pvband, squared_l2, EpeChecker, EvalReport, TurnaroundTimer};
    pub use ilt_optics::{
        KernelSet, LithoSimulator, OpticsConfig, ProcessCondition, SourceSpec,
    };
    pub use ilt_runtime::{
        evaluate_mask, run_batch, run_batch_resume, BatchCase, BatchConfig, FaultPlan, RunReport,
        SimulatorCache,
    };
    pub use ilt_cluster::{ClusterConfig, Worker, WorkerConfig};
    pub use ilt_server::{Server, ServerConfig};
}
