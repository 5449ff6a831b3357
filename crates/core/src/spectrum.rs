//! The mrDMD power spectrum (Sec. III-A.2, Eqs. 9–10).
//!
//! Each retained mode φᵢ is summarised by its oscillation frequency
//! `fᵢ = |Im ψᵢ| / 2π` and its power `Pᵢ = ‖φᵢ‖₂²`; plotting power against
//! frequency across the whole tree (Figs. 5 and 7) shows where the system's
//! energy lives at every timescale. A band/power filter then isolates the
//! modes fed to the z-score analysis.

use crate::mrdmd::ModeSet;
use hpc_linalg::pool::WorkerPool;
use serde::{Deserialize, Serialize};

/// One point of the mrDMD spectrum.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SpectrumPoint {
    /// Oscillation frequency in Hz (Eq. 9).
    pub frequency_hz: f64,
    /// Mode power `‖φ‖₂²` (Eq. 10).
    pub power: f64,
    /// Growth rate `Re ψ` (positive = growing dynamics).
    pub growth: f64,
    /// Tree level the mode came from.
    pub level: usize,
    /// Absolute snapshot where the mode's window starts.
    pub window_start: usize,
    /// Window length in snapshots.
    pub window_len: usize,
}

/// Collects the spectrum of every mode in the given nodes.
///
/// Per-node aggregation (mode norms) fans out across the worker pool; each
/// node's points land in its own slot and are concatenated in node order, so
/// the result is identical to a serial pass at any thread count.
pub fn mode_spectrum<'a>(nodes: impl IntoIterator<Item = &'a ModeSet>) -> Vec<SpectrumPoint> {
    let mut slots: Vec<(&ModeSet, Vec<SpectrumPoint>)> =
        nodes.into_iter().map(|n| (n, Vec::new())).collect();
    let pool = WorkerPool::new(0);
    pool.for_each(&mut slots, &|(node, out)| {
        let freqs = node.frequencies();
        let powers = node.powers();
        for ((&w, f), p) in node.omegas.iter().zip(freqs).zip(powers) {
            out.push(SpectrumPoint {
                frequency_hz: f,
                power: p,
                growth: w.re,
                level: node.level,
                window_start: node.start,
                window_len: node.window,
            });
        }
    });
    slots.into_iter().flat_map(|(_, pts)| pts).collect()
}

/// Frequency-band and power filter over spectrum points / node modes.
///
/// The case studies restrict the I-mrDMD spectrum to 0–60 Hz (case 1) and
/// 0–100 Hz (case 2) before computing z-scores.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct BandFilter {
    /// Inclusive lower frequency bound (Hz).
    pub f_lo: f64,
    /// Inclusive upper frequency bound (Hz).
    pub f_hi: f64,
    /// Keep only modes with at least this power.
    pub min_power: f64,
}

impl BandFilter {
    /// A filter admitting every mode.
    pub fn all() -> Self {
        BandFilter {
            f_lo: 0.0,
            f_hi: f64::INFINITY,
            min_power: 0.0,
        }
    }

    /// A band filter with no power floor.
    pub fn band(f_lo: f64, f_hi: f64) -> Self {
        BandFilter {
            f_lo,
            f_hi,
            min_power: 0.0,
        }
    }

    /// True if a (frequency, power) pair passes. Non-finite frequencies or
    /// powers (a degenerate mode from a gap-poisoned window) never pass —
    /// without this, a NaN frequency slips through every comparison chain
    /// downstream.
    pub fn admits(&self, frequency_hz: f64, power: f64) -> bool {
        frequency_hz.is_finite()
            && power.is_finite()
            && frequency_hz >= self.f_lo
            && frequency_hz <= self.f_hi
            && power >= self.min_power
    }

    /// Filters a spectrum to the passing points.
    pub fn apply(&self, points: &[SpectrumPoint]) -> Vec<SpectrumPoint> {
        points
            .iter()
            .filter(|p| self.admits(p.frequency_hz, p.power))
            .copied()
            .collect()
    }

    /// Indices of a node's modes that pass the filter.
    pub fn select_modes(&self, node: &ModeSet) -> Vec<usize> {
        node.frequencies()
            .iter()
            .zip(node.powers())
            .enumerate()
            .filter(|(_, (&f, p))| self.admits(f, *p))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Aggregates total power per level — a compact summary used by the
/// experiment harness to compare spectra across runs (Fig. 7's hot vs cool
/// contrast shows up as power mass at different frequencies).
pub fn power_by_level(points: &[SpectrumPoint]) -> Vec<(usize, f64)> {
    let mut acc: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
    for p in points {
        // A single NaN power would wipe out its whole level's total.
        if !p.frequency_hz.is_finite() || !p.power.is_finite() {
            continue;
        }
        *acc.entry(p.level).or_insert(0.0) += p.power;
    }
    acc.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dmd::RankSelection;
    use crate::mrdmd::{MrDmd, MrDmdConfig};
    use hpc_linalg::Mat;

    fn fitted() -> MrDmd {
        let dt = 0.5;
        let data = Mat::from_fn(8, 256, |i, j| {
            let tt = j as f64 * dt;
            (std::f64::consts::TAU * 0.01 * tt).sin() * (i as f64 + 1.0)
                + 0.3 * (std::f64::consts::TAU * 0.2 * tt).cos() * ((i * i) as f64).sin()
        });
        MrDmd::fit(
            &data,
            &MrDmdConfig {
                dt,
                max_levels: 4,
                max_cycles: 2,
                rank: RankSelection::Fixed(4),
                nyquist_factor: 4,
                min_window: 16,
                max_window_growth: 1e3,
                n_threads: 0,
                ..MrDmdConfig::default()
            },
        )
    }

    #[test]
    fn spectrum_has_one_point_per_mode() {
        let m = fitted();
        let pts = mode_spectrum(&m.nodes);
        assert_eq!(pts.len(), m.n_modes());
        for p in &pts {
            assert!(p.frequency_hz >= 0.0);
            assert!(p.power >= 0.0);
        }
    }

    #[test]
    fn band_filter_bounds_are_inclusive() {
        let f = BandFilter::band(1.0, 2.0);
        assert!(f.admits(1.0, 0.5));
        assert!(f.admits(2.0, 0.5));
        assert!(!f.admits(0.99, 0.5));
        assert!(!f.admits(2.01, 0.5));
    }

    #[test]
    fn power_floor_drops_weak_modes() {
        let m = fitted();
        let pts = mode_spectrum(&m.nodes);
        let max_p = pts.iter().map(|p| p.power).fold(0.0f64, f64::max);
        let strong = BandFilter {
            f_lo: 0.0,
            f_hi: f64::INFINITY,
            min_power: max_p,
        }
        .apply(&pts);
        assert!(strong.len() <= pts.len());
        assert!(strong.iter().all(|p| p.power >= max_p));
    }

    #[test]
    fn per_level_power_sums_to_total() {
        let m = fitted();
        let pts = mode_spectrum(&m.nodes);
        let by_level = power_by_level(&pts);
        let total: f64 = pts.iter().map(|p| p.power).sum();
        let sum: f64 = by_level.iter().map(|(_, p)| p).sum();
        assert!((total - sum).abs() < 1e-9 * total.max(1.0));
    }

    #[test]
    fn non_finite_points_are_skipped_not_binned() {
        let good = SpectrumPoint {
            frequency_hz: 0.5,
            power: 2.0,
            growth: 0.0,
            level: 1,
            window_start: 0,
            window_len: 10,
        };
        let nan_freq = SpectrumPoint {
            frequency_hz: f64::NAN,
            power: 7.0,
            ..good
        };
        let nan_power = SpectrumPoint {
            power: f64::NAN,
            ..good
        };
        let inf_freq = SpectrumPoint {
            frequency_hz: f64::INFINITY,
            ..good
        };
        let pts = [good, nan_freq, nan_power, inf_freq];
        // Per-level totals stay finite.
        let by_level = power_by_level(&pts);
        assert_eq!(by_level, vec![(1, 2.0)]);
        // And the filter never admits a non-finite point.
        let f = BandFilter::all();
        assert!(f.admits(0.5, 2.0));
        assert!(!f.admits(f64::NAN, 2.0));
        assert!(!f.admits(0.5, f64::NAN));
        assert!(!f.admits(f64::INFINITY, 2.0));
        assert_eq!(f.apply(&pts).len(), 1);
    }

    #[test]
    fn select_modes_matches_apply() {
        let m = fitted();
        let f = BandFilter::band(0.0, 0.05);
        let selected: usize = m.nodes.iter().map(|n| f.select_modes(n).len()).sum();
        let pts = mode_spectrum(&m.nodes);
        assert_eq!(selected, f.apply(&pts).len());
    }
}
