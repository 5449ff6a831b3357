//! Telemetry fault injector: stream-hygiene failures with ground truth.
//!
//! Real collectors drop samples, sensors die mid-run, NaN runs appear when
//! a BMC wedges, and a restarted collector re-delivers its last batch. The
//! [`FaultInjector`] wraps any batch stream (e.g. [`crate::ChunkStream`])
//! and injects exactly these failure modes, deterministically per seed,
//! recording every injection as a [`FaultEvent`] — so the ingest guard in
//! front of the decomposition can be tested end-to-end against a known
//! corruption ground truth.

use hpc_linalg::Mat;
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Injection rates. All probabilities are per-batch except
/// [`drop_prob`](FaultConfig::drop_prob), which is per-sample.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed of the injector's own RNG (independent of the scenario seed).
    pub seed: u64,
    /// Per-sample probability of a dropped reading (a NaN gap at one cell).
    pub drop_prob: f64,
    /// Per-batch probability of a NaN run (one sensor loses a contiguous
    /// span of readings).
    pub nan_run_prob: f64,
    /// Longest NaN run, in snapshots.
    pub nan_run_max_len: usize,
    /// Per-batch probability that one sensor goes dark from a random point
    /// to the end of the batch (dead-sensor dropout).
    pub sensor_dropout_prob: f64,
    /// Per-batch probability the batch is delivered twice (collector
    /// restart re-sending its buffer).
    pub duplicate_prob: f64,
    /// Per-batch probability the batch is replaced by a rank-collapsing
    /// pathological batch (constant columns, duplicated rows, or a
    /// near-machine-epsilon noise floor) — the numerical worst case the
    /// decomposition's degraded path must absorb without dying.
    pub pathological_prob: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 7,
            drop_prob: 0.002,
            nan_run_prob: 0.25,
            nan_run_max_len: 12,
            sensor_dropout_prob: 0.1,
            duplicate_prob: 0.0,
            pathological_prob: 0.0,
        }
    }
}

impl FaultConfig {
    /// A configuration that injects nothing (useful as a baseline).
    pub fn none(seed: u64) -> Self {
        FaultConfig {
            seed,
            drop_prob: 0.0,
            nan_run_prob: 0.0,
            nan_run_max_len: 0,
            sensor_dropout_prob: 0.0,
            duplicate_prob: 0.0,
            pathological_prob: 0.0,
        }
    }
}

/// The shape of a rank-collapsing pathological batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PathologicalKind {
    /// Every column is constant across sensors — the batch is rank ≤ 1.
    ConstantColumns,
    /// Every odd row is a copy of the row above it — the rank halves.
    DuplicatedRows,
    /// The batch collapses to its mean plus noise a few orders of magnitude
    /// above machine epsilon — nearly rank 0, with a noise floor that
    /// stresses rank selection and Jacobi convergence.
    EpsilonNoise,
}

/// One injected fault, in absolute stream coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// A single reading was lost (NaN at `(row, step)`).
    DroppedSample {
        /// Affected sensor.
        row: usize,
        /// Absolute snapshot index.
        step: usize,
    },
    /// A contiguous NaN run on one sensor.
    NanRun {
        /// Affected sensor.
        row: usize,
        /// First absolute snapshot of the run.
        start: usize,
        /// Run length in snapshots.
        len: usize,
    },
    /// One sensor went dark from `start` for `len` snapshots.
    SensorDropout {
        /// Affected sensor.
        row: usize,
        /// First absolute snapshot of the dropout.
        start: usize,
        /// Dropout length in snapshots.
        len: usize,
    },
    /// A whole batch was delivered a second time.
    DuplicatedBatch {
        /// Absolute snapshot the duplicated batch starts at.
        start: usize,
        /// Batch length in snapshots.
        len: usize,
    },
    /// The batch was rewritten into a rank-collapsing pathological batch.
    PathologicalBatch {
        /// Absolute snapshot the batch starts at.
        start: usize,
        /// Batch length in snapshots.
        len: usize,
        /// The collapse applied.
        kind: PathologicalKind,
    },
}

/// Batch-stream adapter that injects faults and records the ground truth.
///
/// ```
/// use hpc_telemetry::{ChunkStream, FaultConfig, FaultInjector, Scenario, theta};
///
/// let sc = Scenario::sc_log(theta().scaled(8), 200, 3);
/// let mut faulty = FaultInjector::new(
///     ChunkStream::new(&sc, 0, 200, 50),
///     FaultConfig::default(),
/// );
/// let batches: Vec<_> = (&mut faulty).collect();
/// assert!(batches.len() >= 4);
/// // Every injection is on record, in absolute stream coordinates.
/// let _ground_truth = faulty.events();
/// ```
pub struct FaultInjector<I> {
    inner: I,
    cfg: FaultConfig,
    rng: StdRng,
    /// Absolute snapshot index of the next clean batch.
    pos: usize,
    queued_dup: Option<Mat>,
    events: Vec<FaultEvent>,
}

impl<I> FaultInjector<I> {
    /// Wraps `inner`, whose first batch starts at absolute snapshot 0.
    pub fn new(inner: I, cfg: FaultConfig) -> FaultInjector<I> {
        FaultInjector::with_start(inner, cfg, 0)
    }

    /// Wraps `inner`, whose first batch starts at absolute snapshot `start`
    /// (for streams resumed mid-run).
    pub fn with_start(inner: I, cfg: FaultConfig, start: usize) -> FaultInjector<I> {
        FaultInjector {
            inner,
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            pos: start,
            queued_dup: None,
            events: Vec::new(),
        }
    }

    /// Every fault injected so far, in delivery order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Cells `(row, batch-local col)` the recorded events corrupt within
    /// `[start, start+len)` — the per-batch ground-truth mask.
    pub fn corrupted_cells(&self, start: usize, len: usize) -> Vec<(usize, usize)> {
        let mut cells = Vec::new();
        for ev in &self.events {
            match *ev {
                FaultEvent::DroppedSample { row, step } => {
                    if step >= start && step < start + len {
                        cells.push((row, step - start));
                    }
                }
                FaultEvent::NanRun {
                    row,
                    start: s,
                    len: l,
                }
                | FaultEvent::SensorDropout {
                    row,
                    start: s,
                    len: l,
                } => {
                    let lo = s.max(start);
                    let hi = (s + l).min(start + len);
                    for step in lo..hi {
                        cells.push((row, step - start));
                    }
                }
                FaultEvent::DuplicatedBatch { .. } | FaultEvent::PathologicalBatch { .. } => {}
            }
        }
        cells.sort_unstable();
        cells.dedup();
        cells
    }
}

impl<I: Iterator<Item = Mat>> Iterator for FaultInjector<I> {
    type Item = Mat;

    fn next(&mut self) -> Option<Mat> {
        if let Some(dup) = self.queued_dup.take() {
            return Some(dup);
        }
        let mut batch = self.inner.next()?;
        let start = self.pos;
        let (p, t) = batch.shape();
        self.pos += t;
        if p == 0 || t == 0 {
            return Some(batch);
        }
        // Per-sample drops.
        if self.cfg.drop_prob > 0.0 {
            for i in 0..p {
                for j in 0..t {
                    if self.rng.random_bool(self.cfg.drop_prob) {
                        batch[(i, j)] = f64::NAN;
                        self.events.push(FaultEvent::DroppedSample {
                            row: i,
                            step: start + j,
                        });
                    }
                }
            }
        }
        // A NaN run on one sensor.
        if self.cfg.nan_run_max_len > 0 && self.rng.random_bool(self.cfg.nan_run_prob) {
            let row = self.rng.random_range(0..p);
            let lo = self.rng.random_range(0..t);
            let len = self
                .rng
                .random_range(1..=self.cfg.nan_run_max_len)
                .min(t - lo);
            for j in lo..lo + len {
                batch[(row, j)] = f64::NAN;
            }
            self.events.push(FaultEvent::NanRun {
                row,
                start: start + lo,
                len,
            });
        }
        // Whole-sensor dropout to the end of the batch.
        if self.rng.random_bool(self.cfg.sensor_dropout_prob) {
            let row = self.rng.random_range(0..p);
            let lo = self.rng.random_range(0..t);
            for j in lo..t {
                batch[(row, j)] = f64::NAN;
            }
            self.events.push(FaultEvent::SensorDropout {
                row,
                start: start + lo,
                len: t - lo,
            });
        }
        // Rank collapse. NaN cells (already injected and logged above) are
        // left untouched so the NaN ↔ event ground truth stays exact.
        if self.cfg.pathological_prob > 0.0 && self.rng.random_bool(self.cfg.pathological_prob) {
            let kind = match self.rng.random_range(0..3u8) {
                0 => PathologicalKind::ConstantColumns,
                1 => PathologicalKind::DuplicatedRows,
                _ => PathologicalKind::EpsilonNoise,
            };
            match kind {
                PathologicalKind::ConstantColumns => {
                    for j in 0..t {
                        let v = batch[(0, j)];
                        if !v.is_finite() {
                            continue;
                        }
                        for i in 1..p {
                            if batch[(i, j)].is_finite() {
                                batch[(i, j)] = v;
                            }
                        }
                    }
                }
                PathologicalKind::DuplicatedRows => {
                    for i in (1..p).step_by(2) {
                        for j in 0..t {
                            let v = batch[(i - 1, j)];
                            if v.is_finite() && batch[(i, j)].is_finite() {
                                batch[(i, j)] = v;
                            }
                        }
                    }
                }
                PathologicalKind::EpsilonNoise => {
                    let mut mean = 0.0;
                    let mut count = 0usize;
                    for i in 0..p {
                        for j in 0..t {
                            let v = batch[(i, j)];
                            if v.is_finite() {
                                mean += v;
                                count += 1;
                            }
                        }
                    }
                    mean /= count.max(1) as f64;
                    let floor = mean.abs().max(1.0) * f64::EPSILON * 1e3;
                    for i in 0..p {
                        for j in 0..t {
                            if batch[(i, j)].is_finite() {
                                batch[(i, j)] = mean + floor * (self.rng.random::<f64>() - 0.5);
                            }
                        }
                    }
                }
            }
            self.events.push(FaultEvent::PathologicalBatch {
                start,
                len: t,
                kind,
            });
        }
        // Re-delivery of the (already corrupted) batch.
        if self.rng.random_bool(self.cfg.duplicate_prob) {
            self.queued_dup = Some(batch.clone());
            self.events
                .push(FaultEvent::DuplicatedBatch { start, len: t });
        }
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envlog::Scenario;
    use crate::machine::theta;
    use crate::stream::ChunkStream;

    fn scenario(n: usize, total: usize) -> Scenario {
        let mut m = theta().scaled(n);
        m.series_per_node = 1;
        Scenario::sc_log(m, total, 5)
    }

    #[test]
    fn no_faults_is_a_transparent_adapter() {
        let sc = scenario(8, 200);
        let clean: Vec<Mat> = ChunkStream::new(&sc, 0, 200, 60).collect();
        let mut inj = FaultInjector::new(ChunkStream::new(&sc, 0, 200, 60), FaultConfig::none(1));
        let passed: Vec<Mat> = (&mut inj).collect();
        assert_eq!(passed, clean);
        assert!(inj.events().is_empty());
    }

    #[test]
    fn recorded_events_match_injected_nans_exactly() {
        let sc = scenario(10, 400);
        let cfg = FaultConfig {
            seed: 11,
            drop_prob: 0.01,
            nan_run_prob: 0.8,
            nan_run_max_len: 9,
            sensor_dropout_prob: 0.5,
            duplicate_prob: 0.0,
            pathological_prob: 0.0,
        };
        let mut inj = FaultInjector::new(ChunkStream::new(&sc, 0, 400, 100), cfg);
        let mut start = 0usize;
        let mut total_nans = 0usize;
        while let Some(batch) = inj.next() {
            let expected = inj.corrupted_cells(start, batch.cols());
            for i in 0..batch.rows() {
                for j in 0..batch.cols() {
                    let is_nan = batch[(i, j)].is_nan();
                    let recorded = expected.binary_search(&(i, j)).is_ok();
                    assert_eq!(
                        is_nan, recorded,
                        "cell ({i},{j}) of batch at {start}: nan={is_nan} recorded={recorded}"
                    );
                    total_nans += is_nan as usize;
                }
            }
            start += batch.cols();
        }
        assert!(total_nans > 0, "faults must actually fire at these rates");
    }

    #[test]
    fn determinism_per_seed() {
        let sc = scenario(6, 300);
        let run = |seed| {
            let cfg = FaultConfig {
                seed,
                ..FaultConfig::default()
            };
            let mut inj = FaultInjector::new(ChunkStream::new(&sc, 0, 300, 75), cfg);
            let batches: Vec<Mat> = (&mut inj).collect();
            (batches, inj.events().to_vec())
        };
        // Bit-level comparison: NaN cells defeat float equality.
        let bits = |bs: &[Mat]| -> Vec<Vec<u64>> {
            bs.iter()
                .map(|m| m.as_slice().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let (b1, e1) = run(42);
        let (b2, e2) = run(42);
        assert_eq!(bits(&b1), bits(&b2));
        assert_eq!(e1, e2);
        let (b3, _) = run(43);
        assert_ne!(bits(&b1), bits(&b3), "different seeds must differ");
    }

    #[test]
    fn duplicated_batches_are_redelivered_and_logged() {
        let sc = scenario(4, 120);
        let cfg = FaultConfig {
            seed: 2,
            duplicate_prob: 1.0,
            ..FaultConfig::none(2)
        };
        let mut inj = FaultInjector::new(ChunkStream::new(&sc, 0, 120, 40), cfg);
        let batches: Vec<Mat> = (&mut inj).collect();
        // Every batch arrives twice, back to back.
        assert_eq!(batches.len(), 6);
        for k in 0..3 {
            assert_eq!(batches[2 * k], batches[2 * k + 1]);
        }
        let dups = inj
            .events()
            .iter()
            .filter(|e| matches!(e, FaultEvent::DuplicatedBatch { .. }))
            .count();
        assert_eq!(dups, 3);
    }

    #[test]
    fn pathological_batches_collapse_rank_and_are_logged() {
        let sc = scenario(8, 400);
        let cfg = FaultConfig {
            seed: 21,
            pathological_prob: 1.0,
            ..FaultConfig::none(21)
        };
        let mut inj = FaultInjector::new(ChunkStream::new(&sc, 0, 400, 50), cfg);
        let batches: Vec<Mat> = (&mut inj).collect();
        assert_eq!(batches.len(), 8);
        let events = inj.events();
        assert_eq!(events.len(), 8, "every batch must be collapsed");
        let mut kinds_seen = std::collections::BTreeSet::new();
        for (batch, ev) in batches.iter().zip(events) {
            let FaultEvent::PathologicalBatch { len, kind, .. } = *ev else {
                panic!("unexpected event {ev:?}");
            };
            assert_eq!(len, batch.cols());
            kinds_seen.insert(format!("{kind:?}"));
            let (p, t) = batch.shape();
            match kind {
                PathologicalKind::ConstantColumns => {
                    for j in 0..t {
                        for i in 1..p {
                            assert_eq!(batch[(i, j)], batch[(0, j)]);
                        }
                    }
                }
                PathologicalKind::DuplicatedRows => {
                    for i in (1..p).step_by(2) {
                        for j in 0..t {
                            assert_eq!(batch[(i, j)], batch[(i - 1, j)]);
                        }
                    }
                }
                PathologicalKind::EpsilonNoise => {
                    // Everything sits within a hair of the batch mean.
                    let mean: f64 =
                        batch.as_slice().iter().sum::<f64>() / batch.as_slice().len() as f64;
                    let spread = batch
                        .as_slice()
                        .iter()
                        .map(|v| (v - mean).abs())
                        .fold(0.0f64, f64::max);
                    assert!(
                        spread <= mean.abs().max(1.0) * f64::EPSILON * 1e3,
                        "noise floor too loud: {spread:.3e}"
                    );
                }
            }
        }
        assert!(
            kinds_seen.len() >= 2,
            "eight draws should hit more than one collapse kind: {kinds_seen:?}"
        );
    }

    #[test]
    fn pathological_mode_preserves_nan_ground_truth() {
        let sc = scenario(10, 300);
        let cfg = FaultConfig {
            seed: 13,
            drop_prob: 0.02,
            nan_run_prob: 0.5,
            nan_run_max_len: 7,
            sensor_dropout_prob: 0.3,
            duplicate_prob: 0.0,
            pathological_prob: 1.0,
        };
        let mut inj = FaultInjector::new(ChunkStream::new(&sc, 0, 300, 75), cfg);
        let mut start = 0usize;
        while let Some(batch) = inj.next() {
            let expected = inj.corrupted_cells(start, batch.cols());
            for i in 0..batch.rows() {
                for j in 0..batch.cols() {
                    assert_eq!(
                        batch[(i, j)].is_nan(),
                        expected.binary_search(&(i, j)).is_ok(),
                        "rank collapse must not create or erase NaN cells"
                    );
                }
            }
            start += batch.cols();
        }
    }

    #[test]
    fn resumed_stream_records_absolute_positions() {
        let sc = scenario(6, 200);
        let cfg = FaultConfig {
            seed: 9,
            drop_prob: 0.05,
            ..FaultConfig::none(9)
        };
        let mut inj = FaultInjector::with_start(ChunkStream::new(&sc, 100, 200, 50), cfg, 100);
        let _batches: Vec<Mat> = (&mut inj).collect();
        assert!(inj
            .events()
            .iter()
            .all(|e| matches!(e, FaultEvent::DroppedSample { step, .. } if *step >= 100)));
        assert!(!inj.events().is_empty());
    }
}
