//! A std-only HTTP/1.1 job service over the `ilt-runtime` batch engine.
//!
//! The batch CLI runs one shot and exits; this crate turns the same
//! pool/cache/journal stack into a long-lived service (`ilt serve`) that
//! accepts ILT jobs over HTTP and applies production disciplines with zero
//! dependencies beyond `std`:
//!
//! - **Bounded admission**: a fixed-capacity queue; submissions beyond it
//!   get `503` + `Retry-After` (backpressure, never unbounded memory).
//! - **Robust HTTP**: hand-rolled request parsing with head/body size caps
//!   and per-socket read/write timeouts ([`http`]).
//! - **Job lifecycle**: `POST /v1/jobs` (benchmark case, via pattern, or
//!   inline PGM target, with per-request tile/halo/iteration overrides) →
//!   `GET /v1/jobs/{id}` (status, metrics, records, optional base64 mask)
//!   → `GET /v1/jobs/{id}/mask` (the mask as binary PGM, byte-identical to
//!   `ilt batch` output for the same configuration).
//! - **Live metrics**: `GET /metrics` in Prometheus text format — job
//!   counters, queue depth, simulator-cache hit/miss/eviction counts, and
//!   per-stage latency histograms fed by the same `StageTimes` the journal
//!   records ([`metrics`]).
//! - **Cancellation**: `DELETE /v1/jobs/{id}` kills a queued job on the
//!   spot and cooperatively stops a running one at its next tile boundary;
//!   `GET /v1/jobs/{id}` streams `tiles_done`/`tiles_planned` progress
//!   while a job runs.
//! - **Keep-alive**: HTTP/1.1 persistent connections with a per-connection
//!   request cap and idle timeout; pipelined requests are served in order.
//! - **Bounded state**: with a state directory, every admission, outcome,
//!   and cancellation is logged for crash-safe restart, and the log is
//!   compacted (live jobs snapshot to `state.snapshot.jsonl`, log
//!   truncated) once it outgrows a configured threshold.
//! - **Graceful drain**: `POST /v1/shutdown` (the SIGTERM-equivalent hook)
//!   stops admissions, finishes queued and in-flight jobs, flushes the
//!   JSON Lines journal, then lets [`Server::run`] return.
//!
//! Every completed job is appended to the same JSON Lines run journal the
//! batch engine writes, so one observability spine serves both modes.
//!
//! ```no_run
//! use ilt_server::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig {
//!     addr: "127.0.0.1:8080".into(),
//!     workers: 4,
//!     ..ServerConfig::default()
//! })?;
//! println!("listening on http://{}", server.local_addr());
//! server.run()?; // returns after a graceful drain
//! # std::io::Result::Ok(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ilt_cluster::transport as http;
pub mod harness;
mod admission;
pub mod metrics;
mod server;
mod state;
mod store;

pub use http::{base64_encode, HttpError, Request, Response};
pub use ilt_cluster::params::{ExecPolicy, JobParams, JobSource};
pub use admission::{Admission, ClassQueues, ClientUsage, PriorityClass};
pub use metrics::{ClientCounters, Counter, FailureKinds, Gauges, Histogram, Metrics};
pub use server::{Server, ServerConfig};
pub use state::{RecoveryStats, StateLog, SNAPSHOT_FILE};
pub use store::{CancelOutcome, JobDone, JobState, JobStore, MaskFetch, SubmitError};
