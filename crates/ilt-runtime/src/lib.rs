//! Parallel tiled full-chip ILT execution engine.
//!
//! The numerical crates optimize one clip at a time; this crate turns them
//! into a batch system able to process layouts wider than one FFT and many
//! cases at once, using only `std` concurrency:
//!
//! - [`TileGrid`] partitions a large target into overlapping windows whose
//!   cores tile the field exactly, and stitches per-tile masks back with a
//!   hard crop: each pixel comes from the one core that holds it.
//! - [`run_jobs`] drains a queue of [`IltJob`]s from one supervisor loop on
//!   the caller's thread, running up to N attempts at once, each on its own
//!   thread: it isolates panics per attempt, enforces per-attempt timeouts,
//!   retries a bounded number of times, and returns results in submission
//!   order so output is deterministic for any thread count.
//! - [`SimulatorCache`] shares one built [`ilt_optics::LithoSimulator`] per
//!   optics configuration across every attempt.
//! - [`RunReport`] journals one [`JobRecord`] per job (metrics, attempts,
//!   per-stage wall-times, mask hash) and serializes to JSON Lines with all
//!   nondeterministic timing fields at the tail.
//! - [`run_batch`] glues the above into the `ilt batch` command.
//! - [`json`] and [`AppendLog`] are the workspace's one record codec and
//!   one durable JSON Lines log: the checkpoint WAL here, the server's
//!   state log, the cluster's wire lines and the bench results all read
//!   through the former, and both logs append and replay through the latter.
//!
//! ```
//! use ilt_field::Field2D;
//! use ilt_runtime::{run_batch, BatchCase, BatchConfig, SimulatorCache};
//!
//! let case = BatchCase {
//!     name: "demo".into(),
//!     target: Field2D::from_fn(64, 64, |r, c| {
//!         if (24..40).contains(&r) && (8..56).contains(&c) { 1.0 } else { 0.0 }
//!     }),
//!     nm_per_px: 8.0,
//! };
//! let config = BatchConfig {
//!     threads: 2,
//!     tile: 64,
//!     halo: 8,
//!     optics: ilt_optics::OpticsConfig { num_kernels: 3, ..Default::default() },
//!     schedule: vec![ilt_core::Stage::low_res(2, 2)],
//!     evaluate_stitched: false,
//!     ..BatchConfig::default()
//! };
//! let out = run_batch(&[case], &config, &SimulatorCache::new()).unwrap();
//! assert_eq!(out.report.records.len(), 1);
//! assert_eq!(out.report.failed_jobs(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod append_log;
mod batch;
mod cache;
mod cancel;
mod checkpoint;
mod fault;
mod job;
mod journal;
pub mod json;
mod pool;
mod tiler;

pub use batch::{
    assemble_batch, planned_job_list, planned_jobs, run_batch, run_batch_resume, run_shard,
    BatchCase, BatchConfig, BatchOutcome, CaseResult, PlannedJob, ShardOutcome,
};
pub use cache::SimulatorCache;
pub use cancel::{CancelToken, Progress};
pub use append_log::{AppendLog, Replay};
pub use checkpoint::{
    config_fingerprint, load_verified_mask, load_wal, mask_file_name, parse_wal_record,
    restore_output, write_atomic, CheckpointSink, LoadedRecord, LoadedRun, WAL_FILE,
};
pub use fault::{FaultKind, FaultPlan};
pub use job::{evaluate_mask, run_attempt, IltJob, JobSuccess};
pub use journal::{
    failure_kind, field_hash, fnv1a64, JobMetrics, JobRecord, JobStatus, RunReport, StageTimes,
    FAILURE_KINDS,
};
pub use json::{json_escape, json_f64};
pub use pool::{run_jobs, JobOutput};
pub use tiler::{SeamPolicy, TileGrid, TileSpec};
