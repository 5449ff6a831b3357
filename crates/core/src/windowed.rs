//! Windowed mrDMD — the *other* streaming strategy (Sec. II-B).
//!
//! Gonzales, Sakaue & Jemcov (2022) stream mrDMD by refitting over
//! overlapping sliding windows and stitching the staggered reconstructions,
//! trusting the newest window where they overlap. The paper contrasts its
//! incremental-SVD approach against this ("eliminating overlaps"); having
//! the comparator implemented lets the suite measure that trade-off: the
//! windowed approach pays a full refit every hop and forgets everything
//! older than one window, while I-mrDMD keeps the whole timeline at a cost
//! proportional to the batch.

use crate::mrdmd::{MrDmd, MrDmdConfig};
use hpc_linalg::pool::WorkerPool;
use hpc_linalg::Mat;
use serde::{Deserialize, Serialize};

/// Configuration of the sliding-window scheme.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct WindowedConfig {
    /// Per-window multiresolution settings.
    pub mr: MrDmdConfig,
    /// Window length in snapshots.
    pub window: usize,
    /// Overlap between consecutive windows (`< window`). The hop is
    /// `window − overlap`.
    pub overlap: usize,
}

impl WindowedConfig {
    /// Steps between consecutive window starts.
    pub fn hop(&self) -> usize {
        self.window - self.overlap
    }
}

/// Streaming mrDMD over overlapping windows.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WindowedMrDmd {
    cfg: WindowedConfig,
    p: usize,
    t_total: usize,
    /// Fitted windows: (absolute start, fit over `window` local snapshots).
    fits: Vec<(usize, MrDmd)>,
    /// Absolute start of the next window to fit.
    next_start: usize,
    /// Ring of the most recent snapshots (up to one window), absolute start
    /// of its first column.
    tail: Mat,
    tail_start: usize,
}

impl WindowedMrDmd {
    /// Fits the initial windows over `data` (`P × T`, `T ≥ window`).
    pub fn fit(data: &Mat, cfg: &WindowedConfig) -> WindowedMrDmd {
        assert!(cfg.window >= 2, "window too short");
        assert!(
            cfg.overlap < cfg.window,
            "overlap must be smaller than the window"
        );
        assert!(data.cols() >= cfg.window, "need at least one full window");
        let mut state = WindowedMrDmd {
            cfg: *cfg,
            p: data.rows(),
            t_total: 0,
            fits: Vec::new(),
            next_start: 0,
            tail: Mat::zeros(data.rows(), 0),
            tail_start: 0,
        };
        state.partial_fit(data);
        state
    }

    /// Absorbs new snapshots, fitting every window that completes.
    pub fn partial_fit(&mut self, batch: &Mat) -> usize {
        assert_eq!(
            batch.rows(),
            self.p,
            "batch row count must match the stream"
        );
        if batch.cols() == 0 {
            return 0;
        }
        self.tail = if self.tail.cols() == 0 {
            batch.clone()
        } else {
            self.tail.hstack(batch)
        };
        self.t_total += batch.cols();
        // Trim the tail: future windows start at `next_start` or later.
        let keep_from = self.next_start;
        if keep_from > self.tail_start {
            let cut = keep_from - self.tail_start;
            self.tail = self
                .tail
                .cols_range(cut.min(self.tail.cols()), self.tail.cols());
            self.tail_start = keep_from;
        }
        // Every completed window is an independent fit; collect the due
        // starts, fan the fits across the pool, and push the results in
        // window order so the stitched state matches a serial pass exactly.
        let mut due: Vec<usize> = Vec::new();
        while self.next_start + self.cfg.window <= self.t_total {
            due.push(self.next_start);
            self.next_start += self.cfg.hop();
        }
        let fitted = due.len();
        if fitted > 0 {
            let tail = &self.tail;
            let tail_start = self.tail_start;
            let cfg = self.cfg;
            let pool = WorkerPool::new(cfg.mr.n_threads);
            let mut slots: Vec<(usize, Option<MrDmd>)> =
                due.into_iter().map(|s| (s, None)).collect();
            pool.for_each(&mut slots, &|(start, slot)| {
                let lo = *start - tail_start;
                let window_data = tail.cols_range(lo, lo + cfg.window);
                *slot = Some(MrDmd::fit(&window_data, &cfg.mr));
            });
            self.fits.extend(slots.into_iter().map(|(s, f)| {
                // Invariant: for_each visits every slot exactly once, and the
                // closure unconditionally fills it.
                #[allow(clippy::expect_used)]
                (s, f.expect("window fitted"))
            }));
        }
        fitted
    }

    /// Snapshots absorbed.
    pub fn n_steps(&self) -> usize {
        self.t_total
    }

    /// Total modes across all retained window fits.
    pub fn n_modes(&self) -> usize {
        self.fits.iter().map(|(_, f)| f.n_modes()).sum()
    }

    fn owner_index(&self, t: usize) -> Option<usize> {
        // Windows have increasing starts; the owner is the newest window
        // containing t.
        self.fits
            .iter()
            .enumerate()
            .rev()
            .find(|(_, (start, _))| t >= *start && t < start + self.cfg.window)
            .map(|(k, _)| k)
    }

    /// Stitched reconstruction over `[t0, t1)`: each snapshot is
    /// reconstructed by its owning (newest covering) window. Snapshots newer
    /// than the last completed window are zero — the windowed scheme cannot
    /// see them until the next window completes.
    pub fn reconstruct_range(&self, t0: usize, t1: usize) -> Mat {
        assert!(t0 <= t1 && t1 <= self.t_total);
        let mut out = Mat::zeros(self.p, t1 - t0);
        let mut t = t0;
        while t < t1 {
            let Some(k) = self.owner_index(t) else {
                t += 1;
                continue;
            };
            let (start, fit) = &self.fits[k];
            // This owner covers up to either the next window's start or its
            // own end.
            let owner_end = if k + 1 < self.fits.len() {
                self.fits[k + 1].0.min(start + self.cfg.window)
            } else {
                start + self.cfg.window
            };
            let hi = owner_end.min(t1);
            let local = fit.reconstruct_range(t - start, hi - start);
            for i in 0..self.p {
                let dst = &mut out.row_mut(i)[t - t0..hi - t0];
                dst.copy_from_slice(local.row(i));
            }
            t = hi;
        }
        out
    }

    /// Reconstruction over everything the fitted windows cover.
    pub fn reconstruct(&self) -> Mat {
        self.reconstruct_range(0, self.t_total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dmd::RankSelection;

    const TAU: f64 = std::f64::consts::TAU;

    fn signal(p: usize, t: usize) -> Mat {
        Mat::from_fn(p, t, |i, j| {
            let x = i as f64 / p as f64;
            let tt = j as f64;
            (TAU * 0.004 * tt + 2.0 * x).sin() + 0.4 * (TAU * 0.02 * tt + 5.0 * x).cos()
        })
    }

    fn cfg(window: usize, overlap: usize) -> WindowedConfig {
        WindowedConfig {
            mr: MrDmdConfig {
                dt: 1.0,
                max_levels: 3,
                max_cycles: 2,
                rank: RankSelection::Fixed(6),
                ..MrDmdConfig::default()
            },
            window,
            overlap,
        }
    }

    #[test]
    fn windows_tile_the_stream() {
        let data = signal(8, 640);
        let w = WindowedMrDmd::fit(&data, &cfg(256, 64));
        // Hops of 192: windows at 0, 192, 384 fit within 640.
        assert_eq!(w.fits.len(), 3);
        assert_eq!(w.n_steps(), 640);
    }

    #[test]
    fn partial_fit_completes_windows_lazily() {
        let data = signal(8, 700);
        let mut w = WindowedMrDmd::fit(&data.cols_range(0, 300), &cfg(256, 64));
        assert_eq!(w.fits.len(), 1);
        // Window at 192 completes at t = 448; window at 384 needs t = 640.
        let fitted = w.partial_fit(&data.cols_range(300, 500));
        assert_eq!(fitted, 1, "only the window at 192 was due");
        let fitted = w.partial_fit(&data.cols_range(500, 700));
        assert_eq!(fitted, 1, "the window at 384 completed at t = 640");
        assert_eq!(w.fits.len(), 3);
        assert_eq!(w.n_steps(), 700);
    }

    #[test]
    fn stitched_reconstruction_tracks_signal() {
        let data = signal(8, 640);
        let w = WindowedMrDmd::fit(&data, &cfg(256, 64));
        // Evaluate only the covered region (the last window ends at 640).
        let rec = w.reconstruct_range(0, 640);
        let rel = rec.fro_dist(&data) / data.fro_norm();
        assert!(rel < 0.6, "stitched relative error {rel}");
    }

    #[test]
    fn newest_window_owns_overlap() {
        let data = signal(6, 512);
        let w = WindowedMrDmd::fit(&data, &cfg(256, 128));
        // t = 300 is covered by windows starting at 128 and 256; owner must
        // be the one starting at 256.
        let owner = w.owner_index(300).unwrap();
        assert_eq!(w.fits[owner].0, 256);
        // t = 100 only by the first.
        assert_eq!(w.fits[w.owner_index(100).unwrap()].0, 0);
    }

    #[test]
    fn incremental_matches_oneshot_windows() {
        let data = signal(6, 640);
        let once = WindowedMrDmd::fit(&data, &cfg(256, 64));
        let mut inc = WindowedMrDmd::fit(&data.cols_range(0, 256), &cfg(256, 64));
        for start in (256..640).step_by(96) {
            inc.partial_fit(&data.cols_range(start, (start + 96).min(640)));
        }
        assert_eq!(once.fits.len(), inc.fits.len());
        let d = once.reconstruct().fro_dist(&inc.reconstruct());
        assert!(d < 1e-6, "chunked windowed fit diverged: {d}");
    }

    #[test]
    fn windowed_state_serde_roundtrip() {
        let data = signal(6, 512);
        let mut w = WindowedMrDmd::fit(&data.cols_range(0, 300), &cfg(256, 64));
        let json = serde_json::to_string(&w).unwrap();
        let mut back: WindowedMrDmd = serde_json::from_str(&json).unwrap();
        assert_eq!(back.fits.len(), w.fits.len());
        // Both absorb the identical continuation identically.
        w.partial_fit(&data.cols_range(300, 512));
        back.partial_fit(&data.cols_range(300, 512));
        assert_eq!(back.fits.len(), w.fits.len());
        assert!(back.reconstruct().fro_dist(&w.reconstruct()) < 1e-12);
    }

    #[test]
    fn uncovered_head_is_zero() {
        let data = signal(6, 300);
        let mut w = WindowedMrDmd::fit(&data.cols_range(0, 256), &cfg(256, 0));
        w.partial_fit(&data.cols_range(256, 300));
        // Steps 256..300 belong to an incomplete second window.
        let rec = w.reconstruct_range(256, 300);
        assert_eq!(rec.fro_norm(), 0.0);
    }
}
