//! Ingest guard: gap/NaN repair in front of the streaming decomposition.
//!
//! Real environment logs have dropped samples, NaN gaps, and dead sensors —
//! a single non-finite value silently poisons the incremental SVD (every
//! Brand update after it is garbage, with no error). The [`IngestGuard`]
//! sits between the telemetry source and
//! [`IMrDmd::try_partial_fit`](crate::imrdmd::IMrDmd::try_partial_fit),
//! scanning each batch and repairing gaps under a configurable
//! [`GapPolicy`] before any value reaches the decomposition. The guard is
//! stateful: it carries each sensor's last finite reading across batches,
//! so a gap at a batch boundary repairs exactly like one in the middle.

use crate::error::CoreError;
use hpc_linalg::Mat;
use serde::{Deserialize, Serialize};

/// How the guard repairs non-finite (NaN/±Inf) values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum GapPolicy {
    /// Refuse the batch: any non-finite value is an error. Use when an
    /// upstream repair stage is supposed to have run already.
    Reject,
    /// Last-value hold: replace each gap with the sensor's most recent
    /// finite reading (leading gaps backfill from the first finite reading).
    HoldLast,
    /// Per-sensor linear interpolation between the finite readings that
    /// bracket the gap; edge gaps fall back to a hold.
    Interpolate,
    /// Mask the whole sensor for this batch: any row containing a gap is
    /// replaced by a constant hold of its last finite reading, so a flaky
    /// sensor contributes no spurious dynamics at all.
    MaskRow,
}

impl GapPolicy {
    /// Parses the CLI spelling (`reject`, `hold`, `interpolate`, `mask`).
    pub fn parse(s: &str) -> Option<GapPolicy> {
        match s {
            "reject" => Some(GapPolicy::Reject),
            "hold" | "hold-last" => Some(GapPolicy::HoldLast),
            "interpolate" | "interp" => Some(GapPolicy::Interpolate),
            "mask" | "mask-row" => Some(GapPolicy::MaskRow),
            _ => None,
        }
    }
}

impl std::fmt::Display for GapPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            GapPolicy::Reject => "reject",
            GapPolicy::HoldLast => "hold",
            GapPolicy::Interpolate => "interpolate",
            GapPolicy::MaskRow => "mask",
        };
        f.write_str(s)
    }
}

/// What one [`IngestGuard::repair`] pass did to a batch.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RepairReport {
    /// Non-finite values found in the batch.
    pub gaps: usize,
    /// Values rewritten (equals `gaps` under hold/interpolate; the full row
    /// width per masked row under [`GapPolicy::MaskRow`]).
    pub repaired: usize,
    /// Rows fully masked this batch ([`GapPolicy::MaskRow`] only).
    pub masked_rows: Vec<usize>,
    /// Rows repaired with `0.0` because no finite reading has ever been
    /// observed for them (sensor dead since the start of the stream).
    pub unseeded_rows: Vec<usize>,
}

impl RepairReport {
    /// True if the batch needed no repair.
    pub fn is_clean(&self) -> bool {
        self.gaps == 0
    }

    /// Folds another batch's report into this one (stream-level totals).
    /// Row lists are deduplicated and kept sorted.
    pub fn merge(&mut self, other: &RepairReport) {
        self.gaps += other.gaps;
        self.repaired += other.repaired;
        for list in [
            (&mut self.masked_rows, &other.masked_rows),
            (&mut self.unseeded_rows, &other.unseeded_rows),
        ] {
            let (mine, theirs) = list;
            mine.extend_from_slice(theirs);
            mine.sort_unstable();
            mine.dedup();
        }
    }
}

/// Stateful gap repairer for one telemetry stream.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IngestGuard {
    policy: GapPolicy,
    /// Last finite reading seen per sensor, carried across batches.
    last_good: Vec<Option<f64>>,
}

impl IngestGuard {
    /// A guard for a `n_rows`-sensor stream under `policy`.
    pub fn new(policy: GapPolicy, n_rows: usize) -> IngestGuard {
        IngestGuard {
            policy,
            last_good: vec![None; n_rows],
        }
    }

    /// The active policy.
    pub fn policy(&self) -> GapPolicy {
        self.policy
    }

    /// Sensors the guard tracks.
    pub fn n_rows(&self) -> usize {
        self.last_good.len()
    }

    /// Scans `batch` and repairs gaps under the configured policy.
    ///
    /// Returns `Ok((None, report))` when the batch was already clean (no
    /// copy is made) or `Ok((Some(clean), report))` with the repaired copy.
    /// Under [`GapPolicy::Reject`] the first gap aborts with
    /// [`CoreError::NonFinite`].
    pub fn repair(&mut self, batch: &Mat) -> Result<(Option<Mat>, RepairReport), CoreError> {
        if batch.rows() != self.last_good.len() {
            return Err(CoreError::ShapeMismatch {
                expected_rows: self.last_good.len(),
                got_rows: batch.rows(),
            });
        }
        let mut report = RepairReport::default();
        let mut dirty_rows: Vec<usize> = Vec::new();
        for i in 0..batch.rows() {
            let mut n = 0usize;
            let mut first_col = usize::MAX;
            for (j, &v) in batch.row(i).iter().enumerate() {
                if !v.is_finite() {
                    n += 1;
                    first_col = first_col.min(j);
                }
            }
            if n > 0 {
                if self.policy == GapPolicy::Reject {
                    return Err(CoreError::NonFinite {
                        row: i,
                        col: first_col,
                    });
                }
                report.gaps += n;
                dirty_rows.push(i);
            }
        }
        if dirty_rows.is_empty() {
            self.note_clean(batch);
            return Ok((None, report));
        }
        let _span = crate::obs::INGEST_NS.span();
        let mut clean = batch.clone();
        for &i in &dirty_rows {
            match self.policy {
                GapPolicy::Reject => unreachable!("rejected above"),
                GapPolicy::HoldLast => self.hold_row(&mut clean, i, &mut report),
                GapPolicy::Interpolate => self.interpolate_row(&mut clean, i, &mut report),
                GapPolicy::MaskRow => self.mask_row(&mut clean, i, &mut report),
            }
        }
        self.note_clean(&clean);
        crate::obs::INGEST_GAPS.add(report.gaps as u64);
        crate::obs::INGEST_REPAIRED_CELLS.add(report.repaired as u64);
        crate::obs::INGEST_MASKED_ROWS.add(report.masked_rows.len() as u64);
        Ok((Some(clean), report))
    }

    /// Records the (finite) trailing values of a sanitised batch.
    fn note_clean(&mut self, batch: &Mat) {
        if batch.cols() == 0 {
            return;
        }
        let last = batch.cols() - 1;
        for (i, slot) in self.last_good.iter_mut().enumerate() {
            let v = batch[(i, last)];
            if v.is_finite() {
                *slot = Some(v);
            }
        }
    }

    /// Seeds a row that has no finite reading anywhere: previous batches'
    /// hold if available, else 0.0 (recorded as unseeded).
    fn seed(&self, i: usize, report: &mut RepairReport) -> f64 {
        match self.last_good[i] {
            Some(v) => v,
            None => {
                if !report.unseeded_rows.contains(&i) {
                    report.unseeded_rows.push(i);
                }
                0.0
            }
        }
    }

    fn hold_row(&self, m: &mut Mat, i: usize, report: &mut RepairReport) {
        let cols = m.cols();
        // Backfill value for a leading gap: first finite in the batch, else
        // the carried hold.
        let mut hold = match m.row(i).iter().copied().find(|v| v.is_finite()) {
            Some(v) => match self.last_good[i] {
                Some(prev) => prev,
                None => v,
            },
            None => self.seed(i, report),
        };
        for j in 0..cols {
            let v = m[(i, j)];
            if v.is_finite() {
                hold = v;
            } else {
                m[(i, j)] = hold;
                report.repaired += 1;
            }
        }
    }

    fn interpolate_row(&self, m: &mut Mat, i: usize, report: &mut RepairReport) {
        let cols = m.cols();
        let anchors: Vec<usize> = (0..cols).filter(|&j| m[(i, j)].is_finite()).collect();
        if anchors.is_empty() {
            let v = self.seed(i, report);
            for j in 0..cols {
                m[(i, j)] = v;
                report.repaired += 1;
            }
            return;
        }
        // Leading edge: interpolate from the carried hold (one step before
        // the batch) when available, else hold the first anchor backwards.
        let first = anchors[0];
        if first > 0 {
            let right = m[(i, first)];
            match self.last_good[i] {
                Some(left) => {
                    let span = (first + 1) as f64;
                    for j in 0..first {
                        let w = (j + 1) as f64 / span;
                        m[(i, j)] = left + (right - left) * w;
                        report.repaired += 1;
                    }
                }
                None => {
                    for j in 0..first {
                        m[(i, j)] = right;
                        report.repaired += 1;
                    }
                }
            }
        }
        // Interior gaps between consecutive anchors.
        for w in anchors.windows(2) {
            let (a, b) = (w[0], w[1]);
            if b > a + 1 {
                let (va, vb) = (m[(i, a)], m[(i, b)]);
                let span = (b - a) as f64;
                for j in a + 1..b {
                    let t = (j - a) as f64 / span;
                    m[(i, j)] = va + (vb - va) * t;
                    report.repaired += 1;
                }
            }
        }
        // Trailing edge: hold the last anchor.
        // Invariant: the empty-anchors case returned early above.
        #[allow(clippy::expect_used)]
        let last = *anchors.last().expect("nonempty");
        for j in last + 1..cols {
            m[(i, j)] = m[(i, last)];
            report.repaired += 1;
        }
    }

    fn mask_row(&self, m: &mut Mat, i: usize, report: &mut RepairReport) {
        let v = self.seed(i, report);
        for j in 0..m.cols() {
            m[(i, j)] = v;
        }
        report.repaired += m.cols();
        report.masked_rows.push(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(rows: &[&[f64]]) -> Mat {
        Mat::from_rows(&rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>())
    }

    #[test]
    fn clean_batch_is_untouched_and_uncopied() {
        let mut g = IngestGuard::new(GapPolicy::HoldLast, 2);
        let b = batch(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let (repaired, rep) = g.repair(&b).unwrap();
        assert!(repaired.is_none());
        assert!(rep.is_clean());
    }

    #[test]
    fn reject_reports_first_offender() {
        let mut g = IngestGuard::new(GapPolicy::Reject, 2);
        let b = batch(&[&[1.0, 2.0, 3.0], &[3.0, f64::NAN, f64::INFINITY]]);
        match g.repair(&b) {
            Err(CoreError::NonFinite { row, col }) => {
                assert_eq!((row, col), (1, 1));
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let mut g = IngestGuard::new(GapPolicy::HoldLast, 3);
        let b = batch(&[&[1.0], &[2.0]]);
        assert!(matches!(
            g.repair(&b),
            Err(CoreError::ShapeMismatch {
                expected_rows: 3,
                got_rows: 2
            })
        ));
    }

    #[test]
    fn hold_last_carries_across_batches() {
        let mut g = IngestGuard::new(GapPolicy::HoldLast, 1);
        g.repair(&batch(&[&[5.0, 6.0]])).unwrap();
        let (r, rep) = g.repair(&batch(&[&[f64::NAN, f64::NAN, 7.0]])).unwrap();
        let r = r.unwrap();
        // Leading gap at a batch boundary holds the previous batch's value.
        assert_eq!(r.row(0), &[6.0, 6.0, 7.0]);
        assert_eq!(rep.repaired, 2);
    }

    #[test]
    fn hold_last_backfills_leading_gap_without_history() {
        let mut g = IngestGuard::new(GapPolicy::HoldLast, 1);
        let (r, _) = g.repair(&batch(&[&[f64::NAN, 3.0, f64::NAN]])).unwrap();
        assert_eq!(r.unwrap().row(0), &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn interpolation_is_linear_between_anchors() {
        let mut g = IngestGuard::new(GapPolicy::Interpolate, 1);
        let (r, rep) = g
            .repair(&batch(&[&[0.0, f64::NAN, f64::NAN, 3.0, f64::NAN]]))
            .unwrap();
        let r = r.unwrap();
        assert_eq!(r.row(0), &[0.0, 1.0, 2.0, 3.0, 3.0]);
        assert_eq!(rep.gaps, 3);
        assert_eq!(rep.repaired, 3);
    }

    #[test]
    fn interpolation_uses_carried_value_as_left_anchor() {
        let mut g = IngestGuard::new(GapPolicy::Interpolate, 1);
        g.repair(&batch(&[&[2.0]])).unwrap();
        let (r, _) = g.repair(&batch(&[&[f64::NAN, 8.0]])).unwrap();
        // The carried 2.0 sits one step before the batch: the gap is midway.
        assert_eq!(r.unwrap().row(0), &[5.0, 8.0]);
    }

    #[test]
    fn mask_row_flattens_flaky_sensor_only() {
        let mut g = IngestGuard::new(GapPolicy::MaskRow, 2);
        g.repair(&batch(&[&[1.0], &[10.0]])).unwrap();
        let (r, rep) = g.repair(&batch(&[&[2.0, 3.0], &[f64::NAN, 11.0]])).unwrap();
        let r = r.unwrap();
        assert_eq!(r.row(0), &[2.0, 3.0]);
        assert_eq!(r.row(1), &[10.0, 10.0]);
        assert_eq!(rep.masked_rows, vec![1]);
    }

    #[test]
    fn dead_from_start_row_seeds_zero_and_reports() {
        let mut g = IngestGuard::new(GapPolicy::HoldLast, 1);
        let (r, rep) = g.repair(&batch(&[&[f64::NAN, f64::NAN]])).unwrap();
        assert_eq!(r.unwrap().row(0), &[0.0, 0.0]);
        assert_eq!(rep.unseeded_rows, vec![0]);
    }

    #[test]
    fn policy_parse_roundtrip() {
        for p in [
            GapPolicy::Reject,
            GapPolicy::HoldLast,
            GapPolicy::Interpolate,
            GapPolicy::MaskRow,
        ] {
            assert_eq!(GapPolicy::parse(&p.to_string()), Some(p));
        }
        assert_eq!(GapPolicy::parse("bogus"), None);
    }
}
