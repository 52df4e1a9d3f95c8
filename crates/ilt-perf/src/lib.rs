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
//! The barometer is two pieces:
//!
//! - **Registry** ([`registry`]): a flat list of [`Workload`]s — name,
//!   notes, and a run function. Three families, each a name prefix
//!   (`fft_`, `sim_`, `core_`), ship in-tree: the pruned FFT transforms of
//!   a fused step, the simulator's aerial image, and one optimizer step of
//!   each Algorithm 1 branch. The tiled runtime is timed end to end by
//!   `benchmark/`'s `batch_tiles`.
//! - **Measurement engine** ([`measure`]): one untimed warmup, then
//!   median-of-N wall times with MAD dispersion, headed by one provenance
//!   line ([`env_stamp`]: git revision, FFT kernel, hardware threads).
//!
//! The barometer measures; it does not gate. Its numbers move with the
//! load on a shared machine (`sim_aerial` has read 3.0-4.4 ms run to run
//! on one box), so a speed claim is an A/B: `ilt bench run` on the
//! parent's binary and the change's in turn, on the same box. The one
//! gate is `benchmark/`, which pairs parent and change the same way. What
//! the barometer still fails on is numerics: every FFT workload checks its
//! fast path against a dense reference and `ilt bench run` exits non-zero
//! on a divergence.
//!
//! The CLI front ends are `ilt bench list|run` and
//! `ilt tables <selector>...`; `verify_perf.sh` runs the FFT family as a
//! self-check.
//!
//! ## Adding a workload (~20 lines)
//!
//! Write a `fn my_workload(cfg: &MeasureConfig) -> Result<Sample, String>`
//! in the right `workloads` family module that builds its fixture (sized
//! down when `cfg.smoke` is set), calls [`measure::measure`] around the
//! hot operation, and returns the sample. Then append one [`Workload`]
//! literal to [`registry::registry`]. The smoke test in `tests/smoke.rs`
//! picks it up automatically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod measure;
pub mod published;
pub mod registry;
pub mod tables;
pub mod workloads;

pub use measure::{env_stamp, measure, MeasureConfig, Sample};
pub use registry::{glob_match, registry, select, Workload};
