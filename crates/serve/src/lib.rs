//! # imrdmd-serve
//!
//! Sharded multi-tenant serving daemon for the I-mrDMD suite — the
//! fleet-scale front end the ROADMAP's north star calls for. One
//! [`IMrDmd`](imrdmd::IMrDmd) shard per tenant (a rack, a cabinet row, a
//! machine partition) behind a small vendored HTTP/1.1 layer:
//!
//! * **Ingest**: `POST /v1/{tenant}/ingest` routes CSV telemetry
//!   batches to the tenant's [`Shard`], born with the daemon's model
//!   configuration and gap policy. The shard's ingest guard repairs each
//!   batch once and one `partial_fit` round folds it in; the reply carries
//!   that round's `RoundReport`. Rounds share the process-wide
//!   `hpc_linalg::pool` worker budget across tenants.
//! * **Reads**: `health`, `spectrum`, `forecast`, `reconstruct`, and
//!   `status` per tenant, served straight from the shard's state as the
//!   same serde JSON the in-process APIs produce — responses are
//!   bitwise-comparable to an oracle model fed the same batches.
//! * **Durability**: each shard checkpoints into a shared directory
//!   under its own namespace (`ckpt-<tenant>-<steps>.ckpt`); on boot the
//!   daemon restores every shard it finds, and a torn checkpoint yields a
//!   `Corrupt` shard answering 503 — never a crashed daemon. A write-ahead
//!   log frame covers each acked batch, so the due checkpoint is written
//!   after the reply; without a healthy log, before it.
//! * **Observability**: `GET /metrics` renders the whole process
//!   catalogue (linalg kernels, core pipeline, `serve.*` request series)
//!   in the Prometheus text format.
//!
//! The crate is panic-free by construction (the workspace clippy gate
//! denies `unwrap`/`expect`/`panic` here): hostile input — oversized
//! bodies, truncated requests, slow-loris headers, bad tenants — maps to
//! typed 4xx/5xx responses.

#![warn(missing_docs)]

pub mod error;
pub mod http;
pub mod manager;
pub mod obs;
pub mod server;
pub mod shard;

pub use error::ServeError;
pub use http::{HttpError, HttpLimits, Request, Response};
pub use manager::{lock_shard, IngestPermit, ShardCell, ShardManager};
pub use server::{ServeConfig, Server, ServerHandle};
pub use shard::{IngestReply, RecoveredShard, Shard, ShardSnapshot, ShardState, ShardStatus};
