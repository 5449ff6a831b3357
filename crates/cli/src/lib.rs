//! # imrdmd-cli
//!
//! Command-line front end for the I-mrDMD suite. The library half holds the
//! testable command implementations; `main.rs` is a thin argv shim.
//!
//! ```text
//! imrdmd-cli synth   --nodes 64 --steps 1200 --seed 7 --out logs.csv
//! imrdmd-cli fit     --input logs.csv --dt 20 --levels 6 --model model.json
//! imrdmd-cli update  --model model.json --input new.csv
//! imrdmd-cli analyze --model model.json --input logs.csv
//! imrdmd-cli render  --model model.json --input logs.csv --layout "xc40 …" --out rack.svg
//! imrdmd-cli info    --model model.json
//! imrdmd-cli stream  --input logs.csv --dt 20 --model model.json \
//!                    --gap-policy hold --store-dir store --resume --metrics-every 5
//! imrdmd-cli metrics --input logs.csv --dt 20 --format prom
//! imrdmd-cli serve   --addr 127.0.0.1:9100 --dt 20 --store-dir store
//! ```
//!
//! Snapshot CSVs use the `hpc-telemetry` format (header `series,t0,t1,…`);
//! models are the serde-JSON form of [`imrdmd::IMrDmd`], written
//! atomically.
//!
//! [`parse_args`] reads every flag once, straight into the library's typed
//! values: the model flags into an [`imrdmd::IMrDmdConfig`], enum flags
//! into [`imrdmd::GapPolicy`], [`imrdmd::QuantTier`] and friends, and
//! `serve`'s flags into an [`imrdmd_serve::ServeConfig`] built on its
//! defaults. A bad value, or a flag the subcommand does not take, fails
//! there; [`run`] never sees a string to parse.
//!
//! `stream` and `metrics` drive one [`imrdmd_serve::Shard`] — the daemon's
//! tenant lifecycle, without a WAL — through the same chunked loop, so a
//! gap the guard rejects fails both alike. `stream`'s checkpoints live in
//! `<store-dir>/checkpoints` as shard snapshots
//! (`ckpt-stream-<steps>.ckpt`: model, ingest guard, round count) and
//! `--resume` is bitwise under every gap policy. A checkpoint directory
//! with no shard snapshot in it (e.g. only pre-shard bare-model files)
//! cold-starts, and the report says so.

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

impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError(format!("model (de)serialisation: {e}"))
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
