//! # ilt-perf — the measurement system of the ILT stack
//!
//! Rebar-style perf coverage (`BurntSushi/rebar`, METHODOLOGY.md): many
//! small, easy-to-add workloads spanning **every** performance-critical
//! compute layer, because speeding up one path routinely slows another
//! (the serving path has its one measurement in `benchmark/`'s
//! `serve_small`; this crate depends on neither service crate). The crate
//! is hermetic and std-only — it runs on the same disconnected machines as
//! tier-1 and needs no python and no registry crates.
//!
//! Beside the barometer live the paper's own measurements: [`tables`]
//! regenerates every table, figure, the Section III-B timing study and the
//! design ablations as markdown (`ilt tables`), with [`published`] holding
//! the paper-reported numbers printed next to them.
//!
//! The barometer is three pieces:
//!
//! - **Registry** ([`registry`]): a flat list of [`Workload`]s — name,
//!   regression threshold, and a run function. Four families, each a name
//!   prefix (`fft_`, `sim_`, `core_`, `runtime_`), ship in-tree: the
//!   pruned FFT transforms of a fused step, the simulator's aerial image,
//!   one optimizer step of each Algorithm 1 branch, and the tiled runtime
//!   pipeline.
//! - **Measurement engine** ([`measure`]): one untimed warmup, then
//!   median-of-N wall times with MAD dispersion, stamped with the
//!   environment (git revision, hardware thread count) so a checked-in
//!   number can be traced to the machine that produced it.
//! - **Schema + diff** ([`result`], [`diff`]): every run writes one
//!   `BENCH_<workload>.json` in the `ilt-bench/v2` schema; [`diff`]
//!   compares a fresh run against checked-in baselines entirely in-tree
//!   and reports a regression when a fresh median exceeds the baseline by
//!   more than the workload's threshold.
//!
//! The CLI front ends are `ilt bench list|run|diff` and
//! `ilt tables <selector>...`; `verify_perf.sh` wires the FFT family into
//! the standing regression gate.
//!
//! ## Adding a workload (~20 lines)
//!
//! Write a `fn my_workload(cfg: &MeasureConfig) -> Result<Sample, String>`
//! in the right `workloads` family module that builds its fixture (sized
//! down when `cfg.smoke` is set), calls [`measure::measure`] around the
//! hot operation, and returns the sample with any extra scalars attached.
//! Then append one [`Workload`] literal to [`registry::registry`] and
//! check in a baseline with `ilt bench run my_workload --out .`.
//! The smoke test in `tests/smoke.rs` picks it up automatically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod measure;
pub mod published;
pub mod registry;
pub mod result;
pub mod tables;
pub mod workloads;

pub use diff::{diff_dirs, diff_result, DiffReport, DiffRow};
pub use measure::{env_stamp, measure, EnvStamp, MeasureConfig, Sample};
pub use registry::{glob_match, registry, select, Workload};
pub use result::{BenchResult, SCHEMA_V2};
