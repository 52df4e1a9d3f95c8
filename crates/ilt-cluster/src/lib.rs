//! Sharded multi-process execution for the ILT batch engine.
//!
//! One `ilt serve` process can only scale to its own cores. This crate
//! adds a coordinator/worker topology on top of the existing runtime:
//!
//! - [`transport`] — the whole std-only HTTP/1.1 edge, one of each: request
//!   parser and response writer, keep-alive connection loop, accept loop
//!   ([`transport::Listener`]) and client ([`transport::Client`]) — the job
//!   service, the worker, the coordinator and the test harness share them.
//! - [`params`] — the one job description ([`JobParams`]): every route —
//!   command line, `POST /v1/jobs`, state log, shard dispatch — decodes
//!   through [`JobParams::from_pairs`] and plans through
//!   [`JobParams::plan`], which is what makes sharded, served and batch
//!   output byte-identical.
//! - [`wire`] — the shard dispatch/result codec (JSON Lines over HTTP,
//!   masks as hash-verified base64 PGM).
//! - [`worker`] — the `ilt worker` service: executes designated tile
//!   subsets via [`ilt_runtime::run_shard`], keeps no state between them,
//!   and honors cooperative cancellation per shard.
//! - [`membership`] — the dynamic worker registry (join/drain/leave at
//!   runtime), the scheduler that admits dispatches without blocking
//!   (least-loaded first, breaker-gated), and the condvar a job's loop
//!   waits on, which every join, leave, release and heartbeat round
//!   notifies.
//! - [`breaker`] — the per-worker circuit breaker (closed → open →
//!   half-open with decorrelated-jitter backoff) that quarantines
//!   flaky-but-alive replicas.
//! - [`coordinator`] — shards a job's tile plan across the live
//!   membership, supervises them from one event loop per job (heartbeat
//!   death verdicts, attempt budgets, hang-ups instead of read timeouts),
//!   re-dispatches on failure, speculatively re-executes stragglers
//!   (first result wins, results must agree), fans out cancellation, and
//!   merges outputs for central stitching via
//!   [`ilt_runtime::assemble_batch`].
//! - [`stats`] — lock-free counters/histograms (shared with the server's
//!   `/metrics`) plus the cluster-health families.
//!
//! Everything is `std`-only; no registry dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod coordinator;
pub mod membership;
pub mod params;
pub mod stats;
pub mod transport;
pub mod wire;
pub mod worker;

pub use breaker::{Breaker, BreakerConfig, BreakerState};
pub use coordinator::{post_membership, ClusterConfig, Coordinator};
pub use membership::{MemberView, Membership};
pub use params::{is_label, query_encode, ExecPolicy, JobParams, JobSource};
pub use stats::{ClusterStats, Counter, FailureKinds, Histogram, LATENCY_BUCKETS_MS};
pub use transport::{
    base64_decode, base64_encode, serve_connection, ConnOptions, HttpError, Request, Response,
};
pub use wire::ShardHeader;
pub use worker::{Worker, WorkerConfig};
