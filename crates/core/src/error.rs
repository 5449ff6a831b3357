//! Error types of the streaming ingest and recovery paths.
//!
//! Production telemetry is never clean: collectors restart, sensors die,
//! and archived logs carry NaN gaps. The streaming API therefore exposes a
//! fallible surface ([`crate::imrdmd::IMrDmd::try_partial_fit`],
//! [`crate::imrdmd::IMrDmd::try_refresh_subtrees`], [`crate::checkpoint`])
//! that reports these conditions as values instead of panicking mid-stream.

use crate::checkpoint::CheckpointError;
use hpc_linalg::LinAlgError;

/// Error surfaced by the fallible streaming API.
#[derive(Debug)]
pub enum CoreError {
    /// A configuration value is out of its documented domain (e.g. an
    /// [`Energy`](crate::dmd::RankSelection::Energy) fraction outside `(0, 1]`).
    InvalidConfig {
        /// What was wrong, in human terms.
        what: String,
    },
    /// A numerical kernel reported failure (non-convergence, singularity,
    /// orthogonality drift) that the solver ladder could not repair.
    Numerical {
        /// Where in the pipeline the kernel was invoked.
        context: String,
        /// The typed kernel error.
        source: LinAlgError,
    },
    /// A batch value was NaN or ±Inf and the active [`crate::ingest::GapPolicy`]
    /// is [`Reject`](crate::ingest::GapPolicy::Reject).
    NonFinite {
        /// Sensor (row) of the offending value.
        row: usize,
        /// Batch-local column of the offending value.
        col: usize,
    },
    /// The batch's row count does not match the stream the model tracks.
    ShapeMismatch {
        /// Rows the model (or guard) expects.
        expected_rows: usize,
        /// Rows the batch carried.
        got_rows: usize,
    },
    /// Checkpoint persistence or restore failed.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            CoreError::Numerical { context, source } => {
                write!(f, "numerical failure in {context}: {source}")
            }
            CoreError::NonFinite { row, col } => {
                write!(f, "non-finite value at sensor {row}, batch column {col}")
            }
            CoreError::ShapeMismatch {
                expected_rows,
                got_rows,
            } => write!(
                f,
                "batch has {got_rows} rows but the stream tracks {expected_rows}"
            ),
            CoreError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Checkpoint(e) => Some(e),
            CoreError::Numerical { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<CheckpointError> for CoreError {
    fn from(e: CheckpointError) -> Self {
        CoreError::Checkpoint(e)
    }
}
