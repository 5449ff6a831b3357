//! The level-1 (root) state of an I-mrDMD stream: the streaming-DMD
//! interface of Algorithm 1 (Hemati, Williams & Rowley, Phys. Fluids 2014).
//! A [`Root`] keeps the decimated root stream, one [`Factor`] of its `X`
//! matrix (the stream minus its last column) and the slow modes solved from
//! it; each round folds the batch's decimated columns into the factor and
//! re-solves the small root operator. The sketched factor is compressed
//! DMD's variant of the same interface (Erichson et al., arXiv 1702.02912).

use crate::dmd::{Dmd, DmdConfig, FitStrategy};
use crate::error::CoreError;
use crate::health::{SolverStats, SubtreeHealth};
use crate::imrdmd::{IMrDmdConfig, ROOT_STALE_AFTER};
use crate::mrdmd::{Grid, ModeSet};
use hpc_linalg::{IncrementalSvd, LinAlgError, Mat, SketchSvd};
use serde::{de, to_content, Content};

/// Decimated columns per pass of the drift scan: bounds its two
/// `P × DRIFT_CHUNK` evaluation buffers independently of stream age.
const DRIFT_CHUNK: usize = 64;

/// The factorisation of the root's `X` matrix, as the fit strategy says.
#[derive(Clone, Debug)]
enum Factor {
    /// The streaming (Brand) SVD.
    Exact(IncrementalSvd),
    /// The streaming randomized sketch: one probe at the fit, its range
    /// basis then reused and residual-refreshed across rounds.
    Sketched(SketchSvd),
}

impl Factor {
    /// Factors `x` the way `cfg`'s fit strategy asks.
    fn new(x: &Mat, cfg: &IMrDmdConfig) -> Factor {
        let rank = cfg.isvd_max_rank.max(1);
        match cfg.mr.strategy {
            FitStrategy::Exact => Factor::Exact(IncrementalSvd::new(x, rank)),
            FitStrategy::Sketched {
                rank_oversample,
                power_iters,
                seed,
            } => Factor::Sketched(SketchSvd::new(x, rank, rank_oversample, power_iters, seed)),
        }
    }

    /// Extends the factorisation to the last `new` rows of `sub`, the
    /// widened decimated stream whose columns but its last are `X`.
    fn add_rows(&mut self, sub: &Mat, new: usize, cfg: &IMrDmdConfig) {
        let (p, x_cols) = (sub.rows(), sub.cols() - 1);
        match self {
            Factor::Exact(isvd) => {
                isvd.update_rows(&sub.rows_range(p - new, p).cols_range(0, x_cols))
            }
            // Row additions change the probe dimension itself, so the
            // sketched basis cannot be patched incrementally: re-probe from
            // the retained decimated stream (cheap next to the per-round
            // absorbs it replaces).
            Factor::Sketched(_) => *self = Factor::new(&sub.cols_range(0, x_cols), cfg),
        }
    }
}

/// The level-1 state of a stream.
#[derive(Clone, Debug)]
pub(crate) struct Root {
    /// Decimation step, fixed at the initial fit so the streaming grid
    /// stays arithmetic (`0, s, 2s, …`).
    step: usize,
    /// Decimated root stream (`P × n_sub`).
    sub_data: Mat,
    /// Absolute index of the next decimated column to capture.
    next_sub_abs: usize,
    factor: Factor,
    /// Level-1 slow modes over the absorbed timeline.
    pub(crate) modes: ModeSet,
    /// A degraded root keeps serving its previous modes (window-extended)
    /// until a solve succeeds again.
    pub(crate) health: SubtreeHealth,
    /// Consecutive failed solves; `>= ROOT_STALE_AFTER` reads `Stale`.
    fail_streak: usize,
    /// Streaming-SVD drift breaches that re-orthogonalisation couldn't repair.
    isvd_drift_breaches: usize,
    /// QR iterations and balanced restarts of the last successful root
    /// eigendecomposition.
    last_eig_iterations: usize,
    last_eig_restarts: usize,
}

/// What [`Root::advance`] leaves for the rest of the round.
pub(crate) struct RootStep {
    /// Decimated columns appended to the root stream.
    pub n_new: usize,
    /// The drift scan against the new root, unless it is provably zero.
    pub scan: Option<DriftScan>,
    /// Whether the root solve failed.
    pub failed: bool,
    /// The streaming SVD's post-repair orthogonality drift, when this round
    /// updated it; the round's health snapshot reports it instead of taking
    /// the Gram product again.
    pub isvd_drift: Option<f64>,
    /// Display form of the last error the step met.
    pub error: Option<String>,
}

/// The root a round replaced, and the decimated columns of the previous
/// timeline that [`Root::drift`] compares it over.
pub(crate) struct DriftScan {
    old: ModeSet,
    old_sub_cols: usize,
}

impl Root {
    /// The root of an initial fit on `data`, solved over its timeline, and
    /// the solver error's display form when the solve failed: with no
    /// previous modes to fall back on, the root then stays empty and reads
    /// degraded from step 0.
    pub(crate) fn fit(data: &Mat, cfg: &IMrDmdConfig) -> (Root, Option<String>) {
        let t = data.cols();
        let step = cfg.mr.subsample_step(t);
        let sub = data.subsample_cols(step);
        let n_sub = sub.cols();
        assert!(
            n_sub >= 2,
            "decimated root stream needs at least two columns"
        );
        let mut root = Root {
            step,
            factor: Factor::new(&sub.cols_range(0, n_sub - 1), cfg),
            sub_data: sub,
            next_sub_abs: n_sub * step,
            modes: empty_modes(data.rows(), t, step),
            health: SubtreeHealth::Healthy,
            fail_streak: 0,
            isvd_drift_breaches: 0,
            last_eig_iterations: 0,
            last_eig_restarts: 0,
        };
        let error = root.resolve(t, 0, cfg);
        (root, error)
    }

    /// Rank of the root factorisation.
    pub(crate) fn rank(&self) -> usize {
        match &self.factor {
            Factor::Exact(isvd) => isvd.rank(),
            Factor::Sketched(sk) => sk.rank(),
        }
    }

    /// Decimated columns of the root stream (the root DMD's snapshots).
    pub(crate) fn stream_len(&self) -> usize {
        self.sub_data.cols()
    }

    /// The solver statistics of a health snapshot, with the streaming SVD's
    /// drift as a round just measured it (`Some`) or measured here. The
    /// sketched factor runs no streaming SVD: zero drift and sweeps.
    pub(crate) fn solver_stats(&self, isvd_drift: Option<f64>) -> SolverStats {
        let (sweeps, drift) = match &self.factor {
            Factor::Exact(isvd) => (
                isvd.last_inner_sweeps(),
                isvd_drift.unwrap_or_else(|| isvd.orthogonality_drift()),
            ),
            Factor::Sketched(_) => (0, 0.0),
        };
        SolverStats {
            last_eig_iterations: self.last_eig_iterations,
            last_eig_restarts: self.last_eig_restarts,
            last_inner_svd_sweeps: sweeps,
            isvd_drift: drift,
            isvd_drift_breaches: self.isvd_drift_breaches,
        }
    }

    /// The root's part of [`IMrDmd::validate`](crate::imrdmd::IMrDmd::validate)
    /// for a stream of `p` rows and `t_total` snapshots.
    pub(crate) fn validate(
        &self,
        p: usize,
        t_total: usize,
        cfg: &IMrDmdConfig,
    ) -> Result<(), CoreError> {
        let fail = |what: String| Err(CoreError::InvalidConfig { what });
        let (n_sub, step) = (self.sub_data.cols(), self.step);
        if step < 1 {
            return fail("root decimation step must be at least 1".into());
        }
        if self.sub_data.rows() != p || n_sub < 2 {
            return fail(format!(
                "decimated root stream is {}x{n_sub}, expected {p} rows and at least 2 columns",
                self.sub_data.rows(),
            ));
        }
        let on_grid = n_sub.checked_mul(step) == Some(self.next_sub_abs);
        let in_reach = t_total <= self.next_sub_abs
            && t_total
                .checked_add(step)
                .is_some_and(|end| self.next_sub_abs < end);
        if !(on_grid && in_reach) {
            return fail(format!(
                "next decimated column {} is off the {n_sub}-column, step-{step} grid \
                 after {t_total} snapshots",
                self.next_sub_abs
            ));
        }
        // Both the configuration and the factor come from disk: a factor
        // of the other strategy is refused here.
        let (x_cols, strategy) = (n_sub - 1, cfg.mr.strategy);
        let fits = match (&self.factor, strategy) {
            (Factor::Sketched(sk), FitStrategy::Sketched { .. }) => {
                let (q, b) = (sk.basis(), sk.projected());
                q.rows() == p && b.rows() == q.cols() && b.cols() == x_cols
            }
            (Factor::Exact(isvd), FitStrategy::Exact) => {
                let (u, v, r) = (isvd.u(), isvd.v(), isvd.rank());
                u.rows() == p
                    && u.cols() == r
                    && v.cols() == r
                    && v.rows() == x_cols
                    && isvd.cols_seen() == x_cols
            }
            _ => false,
        };
        if fits {
            return Ok(());
        }
        fail(format!(
            "root factorisation does not fit a {p}x{x_cols} stream under {strategy:?}"
        ))
    }

    /// Steps (1) and (2) of a round over absolute snapshots
    /// `[t_old, t_new)`: folds the batch's decimated columns into the root
    /// stream and its factorisation, then re-solves the root over
    /// `[0, t_new)`. A failed solve keeps the previous modes
    /// (window-extended) and marks the root degraded — the stream keeps
    /// absorbing batches on the old modes. Without a new decimated column
    /// the root only extends its window.
    pub(crate) fn advance(
        &mut self,
        batch: &Mat,
        t_old: usize,
        t_new: usize,
        cfg: &IMrDmdConfig,
    ) -> RootStep {
        let stage = crate::obs::ROUND_STAGE_ISVD_NS.span();
        let p = self.sub_data.rows();
        let mut new_cols: Vec<usize> = Vec::new(); // batch-local column indices
        while self.next_sub_abs < t_new {
            new_cols.push(self.next_sub_abs - t_old);
            self.next_sub_abs += self.step;
        }
        let n_new = new_cols.len();
        let old_sub_cols = self.sub_data.cols();
        let (mut isvd_drift, mut error) = (None, None);
        if n_new > 0 {
            let mut block = Mat::zeros(p, n_new);
            for (k, &c) in new_cols.iter().enumerate() {
                block.set_col(k, &batch.col(c));
            }
            // The factorisation covers X = decimated[..n−1]; the previous
            // last column now enters X together with all but the last of
            // the new block.
            let x_block = (self.sub_data.cols_range(old_sub_cols - 1, old_sub_cols))
                .hstack(&block.cols_range(0, n_new - 1));
            match &mut self.factor {
                // The sketch refreshes its reused basis (infallible: residual
                // directions are folded in, never drifted past).
                Factor::Sketched(sk) => sk.absorb(&x_block),
                // A drift breach is recorded, not fatal: the update is
                // already applied and the repair pass has done what it could.
                Factor::Exact(isvd) => {
                    isvd_drift = match isvd.try_update(&x_block) {
                        Ok(drift) => Some(drift),
                        Err(e) => {
                            self.isvd_drift_breaches += 1;
                            error = Some(e.to_string());
                            match e {
                                LinAlgError::OrthogonalityDrift { drift, .. } => Some(drift),
                                _ => None,
                            }
                        }
                    };
                }
            }
            self.sub_data = self.sub_data.hstack(&block);
        }
        drop(stage);

        let _stage = crate::obs::ROUND_STAGE_ROOT_SOLVE_NS.span();
        let mut failed = false;
        let old = if n_new > 0 {
            let old = std::mem::replace(&mut self.modes, empty_modes(p, t_new, self.step));
            if let Some(e) = self.resolve(t_new, t_new, cfg) {
                failed = true;
                error = Some(e);
                self.modes = ModeSet {
                    window: t_new,
                    ..old.clone()
                };
            }
            Some(old)
        } else if drift_scan_is_provably_zero(&self.modes, old_sub_cols, self.step, cfg.mr.dt) {
            self.modes.window = t_new;
            None
        } else {
            let old = self.modes.clone();
            self.modes.window = t_new;
            Some(old)
        };
        RootStep {
            n_new,
            scan: old.map(|old| DriftScan { old, old_sub_cols }),
            failed,
            isvd_drift,
            error,
        }
    }

    /// Adds the sensors of `new_rows` (their history over the `t_total`
    /// absorbed snapshots) to the stream and its factorisation, then
    /// re-solves the root over all rows. A failed solve keeps the previous
    /// modes in service, padded with zero rows: the new sensors get no root
    /// contribution until a solve succeeds. Returns the solver error's
    /// display form when the solve failed.
    pub(crate) fn add_rows(
        &mut self,
        new_rows: &Mat,
        t_total: usize,
        cfg: &IMrDmdConfig,
    ) -> Option<String> {
        let new_sub = new_rows.subsample_cols(self.step);
        debug_assert_eq!(new_sub.cols(), self.sub_data.cols());
        self.sub_data = self.sub_data.vstack(&new_sub);
        self.factor.add_rows(&self.sub_data, new_rows.rows(), cfg);
        let error = self.resolve(t_total, t_total, cfg);
        if error.is_some() {
            let zeros = hpc_linalg::CMat::zeros(new_rows.rows(), self.modes.n_modes());
            self.modes.modes = self.modes.modes.vstack(&zeros);
        }
        error
    }

    /// Solves the root DMD from the factorisation over a timeline of
    /// `window` snapshots and installs its slow modes. A solver failure
    /// (after the kernel's own escalation ladder) leaves the modes as they
    /// are and returns the error's display form: the root reads degraded,
    /// and stale after [`ROOT_STALE_AFTER`] consecutive failures, since the
    /// stream step `at_step` of the streak's *first* failure.
    fn resolve(&mut self, window: usize, at_step: usize, cfg: &IMrDmdConfig) -> Option<String> {
        let n_sub = self.sub_data.cols();
        let y = self.sub_data.cols_range(1, n_sub);
        let dmd_cfg = DmdConfig {
            dt: cfg.mr.dt * self.step as f64,
            rank: cfg.mr.rank,
            strategy: cfg.mr.strategy,
        };
        let svd = match &self.factor {
            Factor::Exact(isvd) => isvd.to_svd(),
            Factor::Sketched(sk) => sk.to_svd(),
        };
        let max_hz = cfg.mr.slow_cutoff_hz(window);
        match Dmd::try_from_svd_kept(&svd, &y, &self.sub_data, &dmd_cfg, Some(max_hz)) {
            Ok(dmd) => {
                self.last_eig_iterations = dmd.eig_stats.iterations;
                self.last_eig_restarts = dmd.eig_stats.restarts;
                self.modes = ModeSet::slow_modes(dmd, &cfg.mr, 1, 0, window, self.step);
                self.fail_streak = 0;
                self.health = SubtreeHealth::Healthy;
                None
            }
            Err(e) => {
                self.fail_streak += 1;
                let since = match self.health {
                    SubtreeHealth::Degraded { since, .. } | SubtreeHealth::Stale { since, .. } => {
                        since
                    }
                    SubtreeHealth::Healthy => at_step,
                };
                let cause = e.to_string();
                self.health = if self.fail_streak >= ROOT_STALE_AFTER {
                    SubtreeHealth::Stale { since, cause }
                } else {
                    SubtreeHealth::Degraded { since, cause }
                };
                self.health.cause().map(str::to_owned)
            }
        }
    }

    /// Frobenius norm of the difference between the current and the
    /// scanned old root reconstructions over the previous timeline,
    /// evaluated at the decimated snapshots (`O(P·r·n_sub)`). Both roots go
    /// through the grid reconstruction kernel, extrapolated past their
    /// windows as a forecast is, [`DRIFT_CHUNK`] grid columns at a time;
    /// each column's squared differences are summed in row order and the
    /// column sums added in column order.
    pub(crate) fn drift(&self, scan: &DriftScan, dt: f64) -> f64 {
        let _stage = crate::obs::ROUND_STAGE_DRIFT_NS.span();
        let (p, old_sub_cols) = (self.sub_data.rows(), scan.old_sub_cols);
        let chunk = DRIFT_CHUNK.min(old_sub_cols);
        let (mut new, mut old) = (vec![0.0; p * chunk], vec![0.0; p * chunk]);
        let mut acc = 0.0f64;
        for c0 in (0..old_sub_cols).step_by(chunk.max(1)) {
            let grid = Grid {
                start: c0 * self.step,
                step: self.step,
                cols: chunk.min(old_sub_cols - c0),
            };
            let (new, old) = (&mut new[..p * grid.cols], &mut old[..p * grid.cols]);
            new.fill(0.0);
            old.fill(0.0);
            self.modes
                .apply_reconstruction_rows(new, 0, p, grid, dt, 1.0, true);
            scan.old
                .apply_reconstruction_rows(old, 0, p, grid, dt, 1.0, true);
            for c in 0..grid.cols {
                let mut col = 0.0f64;
                for i in 0..p {
                    let d = new[i * grid.cols + c] - old[i * grid.cols + c];
                    col += d * d;
                }
                acc += col;
            }
        }
        acc.sqrt()
    }

    /// The root's entries of the stored [`IMrDmd`](crate::imrdmd::IMrDmd)
    /// map, in their stored order. The layout keeps an `isvd` value under
    /// the sketched strategy too: the rank-1 SVD of the first decimated
    /// column, which sketched fits once carried beside the sketch. It is
    /// built here for the save alone, and [`Root::from_entries`] ignores it.
    pub(crate) fn entries(&self) -> Vec<(String, Content)> {
        let (isvd, sketch) = match &self.factor {
            Factor::Exact(isvd) => (to_content(isvd), Content::Null),
            Factor::Sketched(sk) => (
                to_content(&IncrementalSvd::new(&self.sub_data.cols_range(0, 1), 1)),
                to_content(sk),
            ),
        };
        [
            ("root_step", to_content(&self.step)),
            ("sub_data", to_content(&self.sub_data)),
            ("next_sub_abs", to_content(&self.next_sub_abs)),
            ("isvd", isvd),
            ("sketch", sketch),
            ("root", to_content(&self.modes)),
            ("root_health", to_content(&self.health)),
            ("root_fail_streak", to_content(&self.fail_streak)),
            ("isvd_drift_breaches", to_content(&self.isvd_drift_breaches)),
            ("last_eig_iterations", to_content(&self.last_eig_iterations)),
            ("last_eig_restarts", to_content(&self.last_eig_restarts)),
        ]
        .map(|(key, value)| (key.to_string(), value))
        .into()
    }

    /// Takes the root's entries out of a stored tree's map. A `sketch`
    /// entry makes the factor sketched; otherwise (as in checkpoints
    /// written before fit strategies existed) the `isvd` entry is it.
    pub(crate) fn from_entries<E: de::Error>(map: &mut Vec<(String, Content)>) -> Result<Root, E> {
        use serde::__private::take_field;
        let factor = match take_field::<Option<SketchSvd>, E>(map, "sketch")? {
            Some(sk) => Factor::Sketched(sk),
            None => Factor::Exact(take_field(map, "isvd")?),
        };
        Ok(Root {
            step: take_field(map, "root_step")?,
            sub_data: take_field(map, "sub_data")?,
            next_sub_abs: take_field(map, "next_sub_abs")?,
            factor,
            modes: take_field(map, "root")?,
            health: take_field(map, "root_health")?,
            fail_streak: take_field(map, "root_fail_streak")?,
            isvd_drift_breaches: take_field(map, "isvd_drift_breaches")?,
            last_eig_iterations: take_field(map, "last_eig_iterations")?,
            last_eig_restarts: take_field(map, "last_eig_restarts")?,
        })
    }
}

fn empty_modes(p: usize, window: usize, step: usize) -> ModeSet {
    ModeSet {
        level: 1,
        start: 0,
        window,
        step,
        row_offset: 0,
        modes: hpc_linalg::CMat::zeros(p, 0),
        lambdas: vec![],
        omegas: vec![],
        amplitudes: vec![],
    }
}

/// True when the `n_new == 0` drift scan may be skipped outright: extending
/// the root window rewrites only `ModeSet::window`, which the extrapolating
/// scan ([`Root::drift`]) ignores, so the scan subtracts each
/// reconstruction column from a bitwise-identical copy of itself — every term
/// is `x − x`, which is exactly `+0.0` whenever `x` is finite, and the
/// accumulated drift is exactly `+0.0`. The guard proves every intermediate
/// of the evaluation stays finite by bounding the mode-weight magnitudes over
/// the scanned time range; any non-finite input (where `x − x` would be NaN)
/// makes it return `false` and the caller runs the scan.
fn drift_scan_is_provably_zero(
    node: &ModeSet,
    old_sub_cols: usize,
    root_step: usize,
    dt: f64,
) -> bool {
    if node.n_modes() == 0 || old_sub_cols == 0 {
        return true;
    }
    let last_abs = (old_sub_cols - 1) * root_step;
    if last_abs < node.start {
        // Every scanned column predates the window: both evaluations are the
        // zero vector.
        return true;
    }
    if !dt.is_finite() {
        return false;
    }
    let t_max = (last_abs - node.start) as f64 * dt;
    if !t_max.is_finite() {
        return false;
    }
    // |exp(ω·t)| = exp(Re(ω)·t) is monotone in t, so its maximum over the
    // scanned range [0, t_max] sits at an endpoint.
    let mut weight_bound = 0.0f64;
    for (w, a) in node.omegas.iter().zip(&node.amplitudes) {
        if !(w.re.is_finite() && w.im.is_finite() && a.re.is_finite() && a.im.is_finite()) {
            return false;
        }
        let growth = (w.re * t_max).max(0.0).exp();
        let wb = growth * (a.re.abs() + a.im.abs());
        if !wb.is_finite() {
            return false;
        }
        weight_bound = weight_bound.max(wb);
    }
    let mut mode_bound = 0.0f64;
    for i in 0..node.modes.rows() {
        for m in node.modes.row(i) {
            if !(m.re.is_finite() && m.im.is_finite()) {
                return false;
            }
            mode_bound = mode_bound.max(m.re.abs() + m.im.abs());
        }
    }
    // Headroom factor 16 covers the re/im cross terms of the complex
    // accumulation; staying far below f64::MAX rules out overflow anywhere
    // in the mul_add chain.
    let acc_bound = 16.0 * node.n_modes() as f64 * mode_bound * weight_bound;
    acc_bound.is_finite() && acc_bound < 1e300
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imrdmd::tests::{cfg, sketched, stream_data};
    use crate::imrdmd::IMrDmd;
    use hpc_linalg::c64;

    fn sketch_of(tree: &IMrDmd) -> &SketchSvd {
        match &tree.root.factor {
            Factor::Sketched(sk) => sk,
            Factor::Exact(_) => panic!("a sketched tree has a sketched factor"),
        }
    }

    fn mode_set(omega: c64, amp: c64, mode: c64) -> ModeSet {
        ModeSet {
            level: 1,
            start: 0,
            window: 32,
            step: 2,
            row_offset: 0,
            modes: hpc_linalg::CMat::from_fn(3, 1, |_, _| mode),
            lambdas: vec![c64::ONE],
            omegas: vec![omega],
            amplitudes: vec![amp],
        }
    }

    #[test]
    fn drift_skip_guard_accepts_finite_and_rejects_pathological_roots() {
        let c = |re: f64, im: f64| c64 { re, im };
        // Ordinary finite modes: the window-extension scan is provably zero.
        assert!(drift_scan_is_provably_zero(
            &mode_set(c(-0.1, 2.0), c(1.0, 0.5), c(0.3, -0.2)),
            20,
            2,
            0.5
        ));
        // Zero modes / zero columns are trivially zero.
        assert!(drift_scan_is_provably_zero(
            &empty_modes(3, 32, 2),
            20,
            2,
            0.5
        ));
        assert!(drift_scan_is_provably_zero(
            &mode_set(c(0.0, 1.0), c(1.0, 0.0), c(1.0, 0.0)),
            0,
            2,
            0.5
        ));
        // NaN anywhere means the scan yields NaN, not zero: refuse.
        assert!(!drift_scan_is_provably_zero(
            &mode_set(c(f64::NAN, 0.0), c(1.0, 0.0), c(1.0, 0.0)),
            20,
            2,
            0.5
        ));
        assert!(!drift_scan_is_provably_zero(
            &mode_set(c(0.0, 1.0), c(1.0, 0.0), c(f64::NAN, 0.0)),
            20,
            2,
            0.5
        ));
        // Growth that overflows exp() over the scanned range: refuse.
        assert!(!drift_scan_is_provably_zero(
            &mode_set(c(100.0, 0.0), c(1.0, 0.0), c(1.0, 0.0)),
            20,
            2,
            0.5
        ));
        // Magnitudes that could overflow the accumulation: refuse.
        assert!(!drift_scan_is_provably_zero(
            &mode_set(c(0.0, 1.0), c(1e200, 0.0), c(1e200, 0.0)),
            20,
            2,
            0.5
        ));
    }

    #[test]
    fn sketched_stream_is_bitwise_deterministic_across_thread_counts() {
        // The sketched path must be exactly reproducible at any worker
        // count: the probe is seeded and every product routes through the
        // deterministic GEMM. Stream two batches and compare the full
        // serialized state bit for bit (after normalising the one config
        // field that legitimately differs).
        let dt = 0.5;
        let data = stream_data(24, 200, dt);
        let mut states: Vec<String> = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let mut c = sketched(cfg(dt), 1234);
            c.mr.n_threads = threads;
            let mut tree = IMrDmd::fit(&data.cols_range(0, 120), &c);
            tree.partial_fit(&data.cols_range(120, 160));
            tree.partial_fit(&data.cols_range(160, 200));
            tree.set_n_threads(0);
            states.push(serde_json::to_string(&tree).unwrap_or_default());
        }
        assert!(!states[0].is_empty());
        for (i, s) in states.iter().enumerate().skip(1) {
            assert_eq!(*s, states[0], "thread count #{i} diverged");
        }
    }

    #[test]
    fn sketched_stream_reuses_and_refreshes_one_probe() {
        // The tentpole invariant: one cold-start probe at fit, zero
        // re-probes across partial_fit rounds (refreshes are residual-driven
        // basis growth, not fresh Gaussian draws).
        let dt = 0.5;
        // Wide enough that the cold start takes the genuine probe branch
        // (l = isvd_max_rank + oversample must undercut the block shape).
        let data = stream_data(80, 240, dt);
        let mut c = sketched(cfg(dt), 9);
        // Keep the probe width under the cold-start block's column count so
        // the genuine randomized branch runs (not the small-shape fallback).
        c.isvd_max_rank = 8;
        let mut tree = IMrDmd::fit(&data.cols_range(0, 120), &c);
        let sk = sketch_of(&tree);
        assert_eq!(sk.probes_drawn(), 1, "cold start draws exactly one probe");
        let cap = sk.basis_cap();
        for k in 0..4 {
            tree.partial_fit(&data.cols_range(120 + 30 * k, 150 + 30 * k));
        }
        let sk = sketch_of(&tree);
        assert_eq!(sk.probes_drawn(), 1, "partial_fit must not re-probe");
        assert!(
            sk.basis_cols() >= 1 && sk.basis_cols() <= cap,
            "refreshed basis stays within the compression cap"
        );
        assert!(tree.root_rank() > 0);
    }

    #[test]
    fn sketched_health_reads_no_streaming_svd() {
        // No streaming SVD runs under the sketched strategy, so its health
        // reports no SVD drift, sweeps or breaches: in the round's report
        // and in a later snapshot alike.
        let dt = 0.5;
        let data = stream_data(12, 200, dt);
        let mut tree = IMrDmd::fit(&data.cols_range(0, 160), &sketched(cfg(dt), 17));
        let report = tree.partial_fit(&data.cols_range(160, 200));
        assert!(
            report.new_root_cols > 0,
            "the round must absorb root columns"
        );
        for h in [report.health, tree.health()] {
            assert_eq!(h.solver.isvd_drift, 0.0);
            assert_eq!(h.solver.last_inner_svd_sweeps, 0);
            assert_eq!(h.solver.isvd_drift_breaches, 0);
            assert!(h.solver.last_eig_iterations > 0, "the root solve ran");
        }
    }
}
