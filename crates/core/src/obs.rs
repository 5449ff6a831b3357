//! Observability surface of the streaming decomposition.
//!
//! Builds on the substrate in [`hpc_linalg::obs`] (sharded counters, gauges,
//! nanosecond histograms, injectable clock, runtime [`Observer`] switch) and
//! adds the pipeline-level metric catalogue [`PIPELINE`] — ingest repair,
//! round timing, checkpoint traffic, tree fit faults — plus the export
//! surfaces:
//!
//! * [`MetricsSnapshot::capture`] — a serde-JSON-able snapshot of every
//!   metric in the process (linalg kernels + this crate), in fixed order;
//! * [`MetricsSnapshot::to_prometheus`] — the Prometheus text exposition
//!   format (`name{le="…"}` bucket lines, `_sum`/`_count`, `# HELP`/`# TYPE`);
//! * [`MetricsLine`] — one JSON-line of counters/gauges emitted periodically
//!   by `imrdmd-cli stream --metrics-every N`.
//!
//! Metric semantics worth knowing: `pool.*` metrics are scheduler-dependent
//! (they vary with the thread budget), so determinism comparisons across
//! thread counts must use [`MetricsSnapshot::deterministic_subset`], which
//! excludes them and all wall-time histograms. Under the fake clock with a
//! zero step ([`Observer::with_fake_clock`]) the histograms are deterministic
//! too: every duration records as 0.

pub use hpc_linalg::obs::{
    is_enabled, now_ns, use_fake_clock, use_monotonic_clock, HistogramEntry, MetricEntry, Observer,
    Span,
};
use hpc_linalg::obs::{Catalogue, Counter, Gauge, Histogram, KERNELS};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Core metric catalogue
// ---------------------------------------------------------------------------

/// Streaming rounds absorbed (`partial_fit`/`try_partial_fit` calls).
pub static ROUND_COUNT: Counter = Counter::new(
    "round.count",
    "Streaming rounds absorbed (partial_fit calls)",
);
/// Wall time per streaming round.
pub static ROUND_NS: Histogram = Histogram::new("round.ns", "Wall time per streaming round");
/// Wall time of a round's stage 1: the decimated root stream and its
/// streaming SVD (or sketch) absorb the batch.
pub static ROUND_STAGE_ISVD_NS: Histogram = Histogram::new(
    "round.stage.isvd.ns",
    "Wall time per round of the root SVD update",
);
/// Wall time of a round's stage 2: the root DMD solve.
pub static ROUND_STAGE_ROOT_SOLVE_NS: Histogram = Histogram::new(
    "round.stage.root_solve.ns",
    "Wall time per round of the root DMD solve",
);
/// Wall time of a round's stage 5: the root drift scan, in rounds whose
/// root moved (it runs beside the level-2 node fit when the round flushes a
/// window).
pub static ROUND_STAGE_DRIFT_NS: Histogram = Histogram::new(
    "round.stage.drift.ns",
    "Wall time per round of the root drift scan",
);
/// Wall time of a round's stages 3–4 and 5: the subtree flush (its node
/// panels already gathered beside the root chain), the drift scan that runs
/// beside it, and an inline auto-refresh.
pub static ROUND_STAGE_FLUSH_NS: Histogram = Histogram::new(
    "round.stage.flush.ns",
    "Wall time per round of the pending carry and subtree flush",
);
/// Snapshot columns currently buffered below the minimum window.
pub static ROUND_PENDING: Gauge = Gauge::new(
    "round.pending",
    "Snapshot columns buffered below the minimum window",
);
/// Root-window reconstruction drift of the most recent round.
pub static ROUND_DRIFT: Gauge = Gauge::new(
    "round.drift",
    "Root-window reconstruction drift of the most recent round",
);

/// NaN/Inf gaps seen by the ingest guard.
pub static INGEST_GAPS: Counter =
    Counter::new("ingest.gaps", "Non-finite cells seen by the ingest guard");
/// Cells the ingest guard repaired (held, interpolated or masked).
pub static INGEST_REPAIRED_CELLS: Counter = Counter::new(
    "ingest.repaired_cells",
    "Cells repaired by the ingest guard",
);
/// Rows masked out of a batch by the mask-row policy.
pub static INGEST_MASKED_ROWS: Counter = Counter::new(
    "ingest.masked_rows",
    "Rows masked out of a batch by the mask-row policy",
);
/// Wall time per ingest repair pass.
pub static INGEST_NS: Histogram = Histogram::new("ingest.ns", "Wall time per ingest repair pass");

/// Node fits that failed and were degraded or skipped.
pub static FIT_FAULTS: Counter = Counter::new(
    "fit.faults",
    "Node fits that failed and were degraded or skipped",
);
/// Fraction of tree nodes serving live (non-degraded) modes.
pub static HEALTH_COVERAGE: Gauge = Gauge::new(
    "health.coverage",
    "Fraction of tree nodes serving live modes",
);

/// Checkpoints written.
pub static CHECKPOINT_SAVES: Counter = Counter::new("checkpoint.saves", "Checkpoints written");
/// Checkpoints restored.
pub static CHECKPOINT_LOADS: Counter = Counter::new("checkpoint.loads", "Checkpoints restored");
/// Bytes of checkpoint payload written or read.
pub static CHECKPOINT_BYTES: Counter = Counter::new(
    "checkpoint.bytes",
    "Bytes of checkpoint payload written or read",
);
/// Wall time per checkpoint save or load.
pub static CHECKPOINT_NS: Histogram =
    Histogram::new("checkpoint.ns", "Wall time per checkpoint save or load");
/// Checkpoints deleted by keep-last-K retention.
pub static CHECKPOINT_PRUNED: Counter = Counter::new(
    "checkpoint.pruned",
    "Checkpoints deleted by keep-last-K retention",
);

/// Write-ahead-log frames appended.
pub static WAL_APPENDS: Counter = Counter::new("wal.appends", "Write-ahead-log frames appended");
/// Bytes of WAL frames appended.
pub static WAL_BYTES: Counter = Counter::new("wal.bytes", "Bytes of WAL frames appended");
/// WAL fsync calls (durability=batch acks).
pub static WAL_FSYNCS: Counter =
    Counter::new("wal.fsyncs", "WAL fsync calls (durability=batch acks)");
/// WAL retention rewrites after checkpoints.
pub static WAL_TRUNCATIONS: Counter = Counter::new(
    "wal.truncations",
    "WAL retention rewrites after checkpoints",
);
/// Torn WAL tails truncated during recovery.
pub static WAL_TORN_TAILS: Counter =
    Counter::new("wal.torn_tails", "Torn WAL tails truncated during recovery");
/// Wall time per WAL append, retention pass, or recovery scan.
pub static WAL_NS: Histogram = Histogram::new(
    "wal.ns",
    "Wall time per WAL append, retention pass, or recovery scan",
);

/// Mode archives written.
pub static ARCHIVE_SAVES: Counter = Counter::new("archive.saves", "Mode archives written");
/// Bytes of mode archives written.
pub static ARCHIVE_BYTES: Counter = Counter::new("archive.bytes", "Bytes of mode archives written");
/// Time ranges replayed from mode archives.
pub static ARCHIVE_REPLAYS: Counter =
    Counter::new("archive.replays", "Time ranges replayed from mode archives");
/// Node blocks streamed from archives during replay.
pub static ARCHIVE_BLOCKS_READ: Counter = Counter::new(
    "archive.blocks_read",
    "Node blocks streamed from archives during replay",
);
/// Wall time per archive write or range replay.
pub static ARCHIVE_NS: Histogram =
    Histogram::new("archive.ns", "Wall time per archive write or range replay");

/// The pipeline catalogue, after the linalg [`KERNELS`] in every snapshot.
pub static PIPELINE: Catalogue = Catalogue {
    counters: &[
        &ROUND_COUNT,
        &INGEST_GAPS,
        &INGEST_REPAIRED_CELLS,
        &INGEST_MASKED_ROWS,
        &FIT_FAULTS,
        &CHECKPOINT_SAVES,
        &CHECKPOINT_LOADS,
        &CHECKPOINT_BYTES,
        &CHECKPOINT_PRUNED,
        &WAL_APPENDS,
        &WAL_BYTES,
        &WAL_FSYNCS,
        &WAL_TRUNCATIONS,
        &WAL_TORN_TAILS,
        &ARCHIVE_SAVES,
        &ARCHIVE_BYTES,
        &ARCHIVE_REPLAYS,
        &ARCHIVE_BLOCKS_READ,
    ],
    gauges: &[&ROUND_PENDING, &ROUND_DRIFT, &HEALTH_COVERAGE],
    histograms: &[
        &ROUND_NS,
        &ROUND_STAGE_ISVD_NS,
        &ROUND_STAGE_ROOT_SOLVE_NS,
        &ROUND_STAGE_DRIFT_NS,
        &ROUND_STAGE_FLUSH_NS,
        &INGEST_NS,
        &CHECKPOINT_NS,
        &WAL_NS,
        &ARCHIVE_NS,
    ],
};

/// Zeroes every metric in the process's linalg and core catalogues.
pub fn reset() {
    KERNELS.reset();
    PIPELINE.reset();
}

/// A point-in-time capture of every metric in the process, in fixed
/// catalogue order. Serializes with serde; renders to Prometheus text.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// The captured metrics.
    pub metrics: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// Captures the current value of every metric: the linalg kernel
    /// catalogue, then this crate's pipeline catalogue.
    pub fn capture() -> MetricsSnapshot {
        let mut metrics = Vec::new();
        KERNELS.capture_into(&mut metrics);
        PIPELINE.capture_into(&mut metrics);
        MetricsSnapshot { metrics }
    }

    /// The value of a counter by dotted name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.counter)
    }

    /// The value of a gauge by dotted name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.gauge)
    }

    /// The state of a histogram by dotted name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramEntry> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.histogram.as_ref())
    }

    /// The `(name, value)` pairs of every counter and gauge that is
    /// deterministic across thread counts: excludes `pool.*` (scheduler-
    /// dependent) and all histograms (wall-time-dependent unless the fake
    /// clock is installed).
    pub fn deterministic_subset(&self) -> Vec<(String, f64)> {
        self.metrics
            .iter()
            .filter(|m| !m.name.starts_with("pool."))
            .filter_map(|m| {
                m.counter
                    .map(|c| (m.name.clone(), c as f64))
                    .or_else(|| m.gauge.map(|g| (m.name.clone(), g)))
            })
            .collect()
    }

    /// Serializes the snapshot as one line of JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|_| "{}".to_string())
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    ///
    /// Dotted names become underscore names (`gemm.calls` → `gemm_calls`);
    /// histograms emit cumulative `_bucket{le="…"}` lines (bounds in
    /// nanoseconds) plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let name = m.name.replace('.', "_");
            let _ = writeln!(out, "# HELP {name} {}", m.help);
            match (&m.counter, &m.gauge, &m.histogram) {
                (Some(v), _, _) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {v}");
                }
                (_, Some(v), _) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {v}");
                }
                (_, _, Some(h)) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cum = 0u64;
                    for (bound, count) in h.bounds_ns.iter().zip(&h.counts) {
                        cum += count;
                        let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cum}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
                    let _ = writeln!(out, "{name}_sum {}", h.sum_ns);
                    let _ = writeln!(out, "{name}_count {}", h.count);
                }
                _ => {}
            }
        }
        out
    }
}

/// One periodic metrics emission of `imrdmd-cli stream --metrics-every N`:
/// the absolute stream position plus a full metrics snapshot, serialized as
/// a single JSON line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsLine {
    /// Absolute snapshot count absorbed when the line was emitted.
    pub step: usize,
    /// Rounds absorbed when the line was emitted.
    pub round: usize,
    /// The metrics at that point.
    pub snapshot: MetricsSnapshot,
}

impl MetricsLine {
    /// Captures the current metrics at stream position `step`, round `round`.
    pub fn capture(step: usize, round: usize) -> MetricsLine {
        MetricsLine {
            step,
            round,
            snapshot: MetricsSnapshot::capture(),
        }
    }

    /// Serializes as one line of JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|_| "{}".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_contains_both_catalogues_in_order() {
        let snap = MetricsSnapshot::capture();
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        let gemm = names.iter().position(|n| *n == "gemm.calls");
        let round = names.iter().position(|n| *n == "round.count");
        let repaired = names.iter().position(|n| *n == "ingest.repaired_cells");
        assert!(
            gemm.is_some() && round.is_some() && repaired.is_some(),
            "{names:?}"
        );
        assert!(gemm < round, "linalg catalogue precedes the core catalogue");
    }

    #[test]
    fn deterministic_subset_excludes_pool_and_histograms() {
        let snap = MetricsSnapshot::capture();
        for (name, _) in snap.deterministic_subset() {
            assert!(!name.starts_with("pool."), "{name}");
            assert!(snap.histogram(&name).is_none(), "{name}");
        }
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let snap = MetricsSnapshot::capture();
        let back: MetricsSnapshot = serde_json::from_str(&snap.to_json()).expect("parse");
        assert_eq!(back, snap);
    }
}
