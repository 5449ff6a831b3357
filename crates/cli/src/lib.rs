//! # imrdmd-cli
//!
//! Command-line front end for the I-mrDMD suite. The library half holds the
//! testable command implementations; `main.rs` is a thin argv shim. The
//! subcommands and their flags are listed once, in [`args::USAGE`].
//! Snapshot CSVs use the `hpc-telemetry` format (header `series,0,1,…`).
//!
//! [`parse_args`] reads every flag once, straight into the library's typed
//! values: the model flags into an [`imrdmd::IMrDmdConfig`], enum flags
//! into [`imrdmd::GapPolicy`], [`imrdmd::QuantTier`] and friends, and
//! `serve`'s flags into an [`imrdmd_serve::ServeConfig`] built on its
//! defaults. A bad value, or a flag the subcommand does not take, fails
//! there; [`run`] never sees a string to parse.
//!
//! Every round runs through an [`imrdmd_serve::Shard`], the daemon's tenant
//! lifecycle without a WAL: `fit` is a cold start, `update` one guarded
//! round, and `stream` and `metrics` share one chunked loop, so a gap the
//! guard rejects fails them all alike. A `--model` file is a shard
//! checkpoint (model, ingest guard, round count; header, length, CRC-32,
//! atomic write): the same artefact as `stream`'s
//! `<store-dir>/checkpoints/ckpt-stream-<steps>.ckpt`, so either loads as
//! `--model`, and `update` keeps repairing under the file's gap policy.
//! A file without the checkpoint header (such as the bare `IMrDmd` JSON of
//! earlier releases) fails `cannot read model …`. `--resume` is bitwise
//! under every gap policy; a checkpoint directory with no shard snapshot in
//! it cold-starts, and the report says so.

#![warn(missing_docs)]
pub mod args;
pub mod commands;

pub use args::{parse_args, Command};
pub use commands::run;

/// CLI error: message plus a nonzero exit intent.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("io error: {e}"))
    }
}

impl From<hpc_telemetry::IoError> for CliError {
    fn from(e: hpc_telemetry::IoError) -> Self {
        CliError(e.to_string())
    }
}

impl From<imrdmd::CoreError> for CliError {
    fn from(e: imrdmd::CoreError) -> Self {
        CliError(e.to_string())
    }
}

impl From<imrdmd_serve::ServeError> for CliError {
    fn from(e: imrdmd_serve::ServeError) -> Self {
        match e {
            imrdmd_serve::ServeError::Core(e) => e.into(),
            other => CliError(other.to_string()),
        }
    }
}

impl From<imrdmd::CheckpointError> for CliError {
    fn from(e: imrdmd::CheckpointError) -> Self {
        CliError(format!("checkpoint: {e}"))
    }
}
