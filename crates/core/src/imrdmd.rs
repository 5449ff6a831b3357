//! Incremental multiresolution DMD (I-mrDMD) — Algorithm 1 of the paper.
//!
//! The batch mrDMD recomputes the entire tree whenever new snapshots arrive,
//! which on terabyte environment-log streams exceeds the collection interval.
//! I-mrDMD instead keeps one streaming factorisation of the level-1 (root)
//! stream — the crate-private `Root` of `root.rs`, whose factor is the
//! streaming SVD or, under `FitStrategy::Sketched`, its randomized sketch —
//! and, per arriving batch of `T₁` snapshots:
//!
//! 1. folds the batch's decimated columns into the root factorisation
//!    (a Brand update, or a sketch refresh),
//! 2. re-solves the cheap `r × r` root eigenproblem → updated level-1 modes
//!    spanning `[0, T+T₁)`,
//! 3. increments the level of every previously computed node, so the new
//!    level 2 corresponds to the timeline split at `T` (Fig. 1(c)),
//! 4. runs the multiresolution recursion *only* on the new window
//!    `[T, T+T₁)` residual, at levels `2..L`,
//! 5. measures the Frobenius drift between the new and previous level-1
//!    reconstructions over `[0, T)` (on the decimated grid, so the check is
//!    `O(P·r·T/step)` not `O(P·T)`); when a threshold is exceeded the stale
//!    deeper levels can be refitted from retained history with
//!    [`IMrDmd::try_refresh_subtrees`], by hand or inside the round under
//!    `auto_refresh` (the paper defers this step to future work; here it is
//!    an opt-in extension).
//!
//! The cost of `partial_fit` is therefore governed by the batch length, not
//! by the accumulated history — the property behind Table I's flat
//! "Partial Fit" column.

use crate::error::CoreError;
use crate::health::{FitFault, HealthSnapshot, LevelHealth, SubtreeHealth};
use crate::ingest::{IngestGuard, RepairReport};
use crate::mrdmd::{
    join_sized, reconstruct_nodes, Grid, ModeSet, MrDmd, MrDmdConfig, Subtree, TreeSource,
};
use crate::root::{DriftScan, Root};
use hpc_linalg::pool::WorkerPool;
use hpc_linalg::Mat;
use serde::{to_content, Content, Deserialize, Serialize};

/// Consecutive failed root solves after which the retained root modes are
/// reported [`SubtreeHealth::Stale`] instead of merely degraded.
pub const ROOT_STALE_AFTER: usize = 3;

/// Configuration of the incremental decomposition.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct IMrDmdConfig {
    /// The underlying multiresolution configuration.
    pub mr: MrDmdConfig,
    /// Rank cap of the streaming root SVD.
    pub isvd_max_rank: usize,
    /// Frobenius drift (new vs old root reconstruction over the old window,
    /// decimated grid) beyond which the tree is flagged stale.
    pub drift_threshold: Option<f64>,
    /// Retain the full-resolution history (needed for
    /// [`IMrDmd::try_refresh_subtrees`] and exact reconstruction comparisons;
    /// costs `O(P·T)` memory).
    pub keep_history: bool,
    /// Run [`IMrDmd::try_refresh_subtrees`] inside the round whenever the
    /// drift threshold trips (requires `keep_history`). Off by default: the
    /// paper defers the refresh to future work.
    pub auto_refresh: bool,
}

impl Default for IMrDmdConfig {
    fn default() -> Self {
        IMrDmdConfig {
            mr: MrDmdConfig::default(),
            isvd_max_rank: 48,
            drift_threshold: None,
            keep_history: false,
            auto_refresh: false,
        }
    }
}

impl IMrDmdConfig {
    /// Checks every field's domain, including the nested
    /// [`MrDmdConfig::validate`]: a nonzero streaming-SVD rank cap, a
    /// positive finite drift threshold when set, and the cross-field
    /// constraint that `auto_refresh` requires `keep_history` (the refresh
    /// refits from history and would otherwise be refused every round).
    pub fn validate(&self) -> Result<(), CoreError> {
        self.mr.validate()?;
        let fail = |what: String| Err(CoreError::InvalidConfig { what });
        if self.isvd_max_rank < 1 {
            return fail("isvd_max_rank must be at least 1".into());
        }
        if let Some(th) = self.drift_threshold {
            if !(th > 0.0 && th.is_finite()) {
                return fail(format!(
                    "drift_threshold must be positive and finite, got {th}"
                ));
            }
        }
        if self.auto_refresh && !self.keep_history {
            return fail("auto_refresh requires keep_history".into());
        }
        Ok(())
    }
}

/// Outcome of one streaming round, whichever entry point ran it
/// ([`IMrDmd::partial_fit`], [`IMrDmd::try_partial_fit`] or the fleet
/// engine): what the decomposition did, what the ingest guard repaired, the
/// node fits that failed during this round, and the post-round health
/// snapshot, so no follow-up [`IMrDmd::fit_faults`]/[`IMrDmd::health`] call
/// is needed.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RoundReport {
    /// Snapshots absorbed by this round.
    pub batch_len: usize,
    /// Decimated columns appended to the root SVD.
    pub new_root_cols: usize,
    /// Frobenius drift of the root reconstruction over the old timeline.
    pub drift: f64,
    /// Whether accumulated drift has exceeded the configured threshold.
    pub stale: bool,
    /// Modes extracted in the new window's subtree.
    pub new_subtree_modes: usize,
    /// Snapshots still buffered below `min_window`, awaiting a subtree fit.
    pub pending: usize,
    /// Node fits that failed numerically during this round, root failures
    /// included (the root degrades in place and leaves no [`FitFault`]).
    pub new_faults: usize,
    /// What the ingest guard repaired before the update (all-zero when
    /// [`IMrDmd::partial_fit`] ran it: that path repairs nothing itself).
    pub repairs: RepairReport,
    /// The node-fit faults recorded during this round, in occurrence order.
    pub faults: Vec<FitFault>,
    /// Health of the whole tree after the round.
    pub health: HealthSnapshot,
}

/// Streaming multiresolution DMD state.
///
/// Serializable: a fitted model is persisted as a shard checkpoint (see
/// [`crate::checkpoint`]) and resumed in a later session, including the
/// streaming root factorisation. The payload grows with stream age even
/// without the optional full-resolution history: the decimated root stream
/// and its factorisation (the streaming SVD's `V` keeps one row per
/// decimated column) grow as columns arrive, and every flush adds nodes.
#[derive(Clone, Debug)]
pub struct IMrDmd {
    cfg: IMrDmdConfig,
    p: usize,
    t_total: usize,
    /// The level-1 state: decimated root stream, its factorisation and the
    /// slow modes over `[0, t_total)`.
    pub(crate) root: Root,
    /// Levels ≥ 2 (old nodes level-shifted, plus per-batch new subtrees).
    subnodes: Vec<ModeSet>,
    /// Drift measured at each partial fit.
    drift_log: Vec<f64>,
    stale: bool,
    history: Option<Mat>,
    /// Sub-`min_window` tail of the stream (`P × k`, `k < min_window`): raw
    /// snapshots absorbed by the root but whose residual subtree fit is
    /// deferred until enough accumulate. Always empty when `max_levels < 2`.
    pending: Mat,
    /// Failed node fits across the tree, in occurrence order.
    faults: Vec<FitFault>,
    /// Display form of the most recent solver error anywhere in the pipeline.
    last_error: Option<String>,
}

// Written by hand so the root's entries keep their places in the stored
// layout, in three runs between the tree's own fields.
impl Serialize for IMrDmd {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let mut root = self.root.entries().into_iter();
        let mut map = Vec::new();
        for (key, value, root_run) in [
            ("cfg", to_content(&self.cfg), 0),
            ("p", to_content(&self.p), 0),
            ("t_total", to_content(&self.t_total), 6),
            ("subnodes", to_content(&self.subnodes), 0),
            ("drift_log", to_content(&self.drift_log), 0),
            ("stale", to_content(&self.stale), 0),
            ("history", to_content(&self.history), 0),
            ("pending", to_content(&self.pending), 2),
            ("faults", to_content(&self.faults), 0),
            ("last_error", to_content(&self.last_error), 3),
        ] {
            map.push((key.to_string(), value));
            map.extend(root.by_ref().take(root_run));
        }
        s.serialize_content(Content::Map(map))
    }
}

impl<'de> Deserialize<'de> for IMrDmd {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        use serde::__private::take_field;
        let Content::Map(mut map) = d.take_content()? else {
            return Err(serde::de::Error::custom("expected map for struct IMrDmd"));
        };
        let map = &mut map;
        Ok(IMrDmd {
            cfg: take_field(map, "cfg")?,
            p: take_field(map, "p")?,
            t_total: take_field(map, "t_total")?,
            root: Root::from_entries(map)?,
            subnodes: take_field(map, "subnodes")?,
            drift_log: take_field(map, "drift_log")?,
            stale: take_field(map, "stale")?,
            history: take_field(map, "history")?,
            pending: take_field(map, "pending")?,
            faults: take_field(map, "faults")?,
            last_error: take_field(map, "last_error")?,
        })
    }
}

impl IMrDmd {
    /// Initial fit: a multi-resolution tree plus the streaming SVD state
    /// for subsequent updates. Below the root the recursion is the batch
    /// [`MrDmd`]'s. The root is solved from the streaming SVD's capped
    /// spectrum (at most `isvd_max_rank` values), so its SVHT rank, and
    /// hence the tree, can differ from [`MrDmd::fit`]'s on the same data
    /// (ROADMAP item 17).
    ///
    /// Expects a configuration that passes [`IMrDmdConfig::validate`]; an
    /// out-of-domain one (e.g. `nyquist_factor` 0) may panic here or in a
    /// later round. The serving `Shard` checks it before every cold start.
    pub fn fit(data: &Mat, cfg: &IMrDmdConfig) -> IMrDmd {
        assert!(data.cols() >= 2, "initial fit needs at least two snapshots");
        let p = data.rows();
        let t = data.cols();
        // The level-2 halves' panels are gathered while the root is built
        // and solved; they read only `data`.
        let pool = WorkerPool::new(cfg.mr.n_threads);
        let (((root, root_error), history), src) = join_sized(
            &pool,
            p * t,
            || (Root::fit(data, cfg), cfg.keep_history.then(|| data.clone())),
            || TreeSource::new(data, t, 0, 0, &cfg.mr, &pool, Subtree::Halves(1)),
        );
        let mut state = IMrDmd {
            cfg: *cfg,
            p,
            t_total: t,
            root,
            subnodes: Vec::new(),
            drift_log: Vec::new(),
            stale: false,
            history,
            pending: Mat::zeros(p, 0),
            faults: Vec::new(),
            last_error: None,
        };
        // The usual recursion over the two halves at level 2, each node
        // fitted on the residual after the root's slow dynamics.
        let root = &state.root.modes;
        src.fit(&[root], &mut state.subnodes, &mut state.faults);
        for f in &mut state.faults {
            f.at_step = t;
        }
        // A failed root solve is the error on record, else the last fault.
        state.last_error = root_error.or_else(|| state.faults.last().map(|f| f.cause.clone()));
        state
    }

    /// Checks a restored model before it enters a stream: its configuration
    /// ([`IMrDmdConfig::validate`]); the root's decimation state that bounds
    /// a round's column capture — a step of at least one, a decimated stream
    /// of `p` rows and at least two columns, and a next capture index that
    /// sits on that stream's grid within one step past the absorbed
    /// timeline; the root factorisation — the streaming SVD, or the sketch
    /// exactly when the fit strategy is sketched — shaped `p` rows by the
    /// stream's columns but its last; the raw snapshots a round stacks
    /// batches onto — a nonempty pending window of `p` rows, no longer than
    /// the stream and, when subtrees are fitted, shorter than `min_window`; a
    /// history of `p` rows by the stream's snapshots; and every tree node —
    /// rows inside `0..p`, one eigenvalue, frequency and amplitude per mode,
    /// all finite. A fitted or streamed model always passes; a checkpoint that
    /// fails would divide by zero, loop without end, panic or index out of
    /// range on its next round, or reconstruct garbage without a sign.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.cfg.validate()?;
        self.root.validate(self.p, self.t_total, &self.cfg)?;
        self.validate_buffers()?;
        self.nodes().try_for_each(|node| self.validate_node(node))
    }

    /// The pending window and the history. An empty window may keep an
    /// older row count, as `add_series` leaves it: a round replaces it
    /// rather than stacking onto it.
    fn validate_buffers(&self) -> Result<(), CoreError> {
        let (p, t, mr) = (self.p, self.t_total, &self.cfg.mr);
        let (rows, k) = self.pending.shape();
        let history = self.history.as_ref().map(Mat::shape);
        let what = if k > 0 && rows != p {
            format!("pending window has {rows} rows, the stream {p}")
        } else if (mr.max_levels >= 2 && k >= mr.min_window) || k > t {
            let min = mr.min_window;
            format!("pending window of {k} snapshots after {t}, min_window {min}")
        } else if let Some((h_rows, h_cols)) = history.filter(|&shape| shape != (p, t)) {
            format!("history is {h_rows}x{h_cols}, the stream {p}x{t}")
        } else {
            return Ok(());
        };
        Err(CoreError::InvalidConfig { what })
    }

    /// One tree node: its rows inside the stream's, one eigenvalue,
    /// frequency and amplitude per mode, and all of them finite.
    fn validate_node(&self, node: &ModeSet) -> Result<(), CoreError> {
        let k = node.modes.cols();
        let fail = |what: String| {
            Err(CoreError::InvalidConfig {
                what: format!("level-{} node at {}: {what}", node.level, node.start),
            })
        };
        if node
            .row_offset
            .checked_add(node.modes.rows())
            .is_none_or(|end| end > self.p)
        {
            return fail(format!(
                "rows {}+{} exceed the stream's {}",
                node.row_offset,
                node.modes.rows(),
                self.p
            ));
        }
        if [&node.lambdas, &node.omegas, &node.amplitudes]
            .iter()
            .any(|v| v.len() != k)
        {
            return fail(format!(
                "{k} modes with unequal eigenvalue or amplitude counts"
            ));
        }
        let mut values = (node.modes.as_slice().iter())
            .chain(&node.lambdas)
            .chain(&node.omegas)
            .chain(&node.amplitudes);
        if !values.all(|z| z.is_finite()) {
            return fail("non-finite mode, eigenvalue or amplitude".into());
        }
        Ok(())
    }

    /// Absorbs a batch of `T₁` new snapshots (columns) and updates the tree
    /// per Algorithm 1. Returns the round's [`RoundReport`], with all-zero
    /// `repairs`.
    ///
    /// Unguarded form of [`Self::try_partial_fit`], for a batch that is
    /// already finite (e.g. one an [`IngestGuard`] has just repaired); panics
    /// on a row-count mismatch where the `try_` variant returns an error.
    pub fn partial_fit(&mut self, batch: &Mat) -> RoundReport {
        assert_eq!(
            batch.rows(),
            self.p,
            "batch row count must match the stream"
        );
        self.round(batch, RepairReport::default())
    }

    /// Gap/NaN-tolerant [`partial_fit`](Self::partial_fit): the batch is
    /// validated and repaired by `guard` first, and every failure mode
    /// (shape mismatch, non-finite values under
    /// [`GapPolicy::Reject`](crate::ingest::GapPolicy::Reject)) surfaces as
    /// a [`CoreError`] instead of a panic or a silently poisoned SVD.
    pub fn try_partial_fit(
        &mut self,
        batch: &Mat,
        guard: &mut IngestGuard,
    ) -> Result<RoundReport, CoreError> {
        self.try_round(batch, Some(guard))
    }

    /// Shape check, optional guard repair, then the round — the shared body
    /// of [`Self::try_partial_fit`] and the fleet engine's per-job step.
    pub(crate) fn try_round(
        &mut self,
        batch: &Mat,
        guard: Option<&mut IngestGuard>,
    ) -> Result<RoundReport, CoreError> {
        if batch.rows() != self.p {
            return Err(CoreError::ShapeMismatch {
                expected_rows: self.p,
                got_rows: batch.rows(),
            });
        }
        let Some(guard) = guard else {
            return Ok(self.round(batch, RepairReport::default()));
        };
        let (clean, repairs) = guard.repair(batch)?;
        Ok(self.round(clean.as_ref().unwrap_or(batch), repairs))
    }

    /// One instrumented streaming round: the Algorithm-1 update (steps 1–5
    /// of the module doc) and the unified [`RoundReport`] (fit summary +
    /// this round's faults + post-round health). Every entry point — the
    /// per-tree calls and the fleet engine — runs exactly this.
    fn round(&mut self, batch: &Mat, repairs: RepairReport) -> RoundReport {
        let _span = crate::obs::ROUND_NS.span();
        crate::obs::ROUND_COUNT.inc();
        debug_assert_eq!(batch.rows(), self.p);
        let faults_before = self.faults.len();
        let t1 = batch.cols();
        let t_old = self.t_total;
        let t_new = t_old + t1;
        let mut n_new = 0usize;
        let mut drift = 0.0f64;
        let mut root_failed = false;
        let mut new_modes = 0usize;
        let mut isvd_drift = None;
        // An empty batch changes nothing, not even the drift log.
        if t1 > 0 {
            // (3) The window this round flushes is known before the root
            // moves. The batch accumulates into the pending window; once
            // `min_window` snapshots are pending, they are flushed together.
            // A batch that fills a window alone is fitted where it lies.
            // Sub-`min_window` batches therefore accumulate instead of
            // silently losing their residual.
            let mr = self.cfg.mr;
            let mut carry = None;
            let window: Option<&Mat> = if mr.max_levels < 2 {
                None
            } else if self.pending.cols() == 0 && t1 >= mr.min_window {
                // The empty carry takes the current row count, as after any
                // flush.
                self.pending = Mat::zeros(self.p, 0);
                Some(batch)
            } else {
                let pending = if self.pending.cols() == 0 {
                    batch.clone()
                } else {
                    self.pending.hstack(batch)
                };
                if pending.cols() >= mr.min_window {
                    self.pending = Mat::zeros(self.p, 0);
                    Some(&*carry.insert(pending))
                } else {
                    self.pending = pending;
                    None
                }
            };
            // (1)+(2) Extend the root stream and re-solve the root while the
            // window's node panels are gathered: a panel is raw data and
            // needs no root.
            let pool = WorkerPool::new(mr.n_threads);
            let cells = window.map_or(0, |w| self.p * w.cols());
            let (step, src) = join_sized(
                &pool,
                cells,
                || self.root.advance(batch, t_old, t_new, &self.cfg),
                || {
                    window.map(|w| {
                        TreeSource::new(
                            w,
                            w.cols(),
                            t_new - w.cols(),
                            0,
                            &mr,
                            &pool,
                            Subtree::Node(2),
                        )
                    })
                },
            );
            n_new = step.n_new;
            root_failed = step.failed;
            isvd_drift = step.isvd_drift;
            if step.error.is_some() {
                self.last_error = step.error;
            }

            // (4) The multiresolution recursion over the flushed window, its
            // level-2 node fitted beside (5) the drift of the root
            // reconstruction over the old timeline, measured on the
            // decimated grid; exactly zero when the root only extended its
            // window.
            let _stage = crate::obs::ROUND_STAGE_FLUSH_NS.span();
            self.t_total = t_new;
            if let Some(h) = &mut self.history {
                *h = h.hstack(batch);
            }
            (new_modes, drift) = match src {
                Some(src) => self.fit_new_window(src, step.scan.as_ref()),
                None => (
                    0,
                    step.scan.map_or(0.0, |scan| self.root.drift(&scan, mr.dt)),
                ),
            };
            self.drift_log.push(drift);
            if let Some(th) = self.cfg.drift_threshold {
                if drift > th {
                    self.stale = true;
                }
            }
            if self.stale && self.cfg.auto_refresh {
                // Refused only without history, which `validate` rules out;
                // the tree then stays stale.
                let _ = self.try_refresh_subtrees();
            }
        }
        let new_faults = self.faults.len().saturating_sub(faults_before) + usize::from(root_failed);
        crate::obs::FIT_FAULTS.add(new_faults as u64);
        crate::obs::ROUND_PENDING.set(self.pending.cols() as f64);
        crate::obs::ROUND_DRIFT.set(drift);
        let health = self.health_with(isvd_drift);
        crate::obs::HEALTH_COVERAGE.set(health.coverage);
        RoundReport {
            batch_len: t1,
            new_root_cols: n_new,
            drift,
            stale: self.stale,
            new_subtree_modes: new_modes,
            pending: self.pending.cols(),
            new_faults,
            repairs,
            faults: self.faults[faults_before.min(self.faults.len())..].to_vec(),
            health,
        }
    }

    /// Fits the subtree `src` gathered over the stream's newest window
    /// against the current root, running `scan` (when the root moved)
    /// beside the window's level-2 node fit. Returns the number of modes
    /// extracted and the drift (0 without a scan).
    fn fit_new_window(&mut self, src: TreeSource<'_>, scan: Option<&DriftScan>) -> (usize, f64) {
        // The previous nodes deepen by one: the timeline is now split at the
        // new window's start.
        for node in &mut self.subnodes {
            node.level += 1;
        }
        let before = self.subnodes.len();
        let faults_before = self.faults.len();
        let (root, dt) = (&self.root, self.cfg.mr.dt);
        let drift = match scan {
            Some(scan) => {
                src.fit_beside(&[&root.modes], &mut self.subnodes, &mut self.faults, || {
                    root.drift(scan, dt)
                })
            }
            None => {
                src.fit(&[&root.modes], &mut self.subnodes, &mut self.faults);
                0.0
            }
        };
        let t_total = self.t_total;
        for f in &mut self.faults[faults_before..] {
            f.at_step = t_total;
        }
        if let Some(f) = self.faults[faults_before..].last() {
            self.last_error = Some(f.cause.clone());
        }
        let modes = self.subnodes[before..].iter().map(ModeSet::n_modes).sum();
        (modes, drift)
    }

    /// Snapshots buffered below `min_window`, awaiting their subtree fit.
    pub fn pending_len(&self) -> usize {
        self.pending.cols()
    }

    /// Current level-1 mode set.
    pub fn root(&self) -> &ModeSet {
        &self.root.modes
    }

    /// Every node: root first, then levels ≥ 2 in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = &ModeSet> + Clone {
        std::iter::once(&self.root.modes).chain(self.subnodes.iter())
    }

    /// Total modes across the tree.
    pub fn n_modes(&self) -> usize {
        self.nodes().map(ModeSet::n_modes).sum()
    }

    /// Snapshots absorbed so far.
    pub fn n_steps(&self) -> usize {
        self.t_total
    }

    /// Number of sensors (rows).
    pub fn n_rows(&self) -> usize {
        self.p
    }

    /// Deepest level currently materialised.
    pub fn depth(&self) -> usize {
        self.nodes().map(|n| n.level).max().unwrap_or(0)
    }

    /// The drift recorded at each partial fit.
    pub fn drift_log(&self) -> &[f64] {
        &self.drift_log
    }

    /// Health of the root subtree.
    pub fn root_health(&self) -> &SubtreeHealth {
        &self.root.health
    }

    /// Every recorded node-fit failure, in occurrence order.
    pub fn fit_faults(&self) -> &[FitFault] {
        &self.faults
    }

    /// Aggregated health snapshot: per-level node counts, coverage of the
    /// intended tree by healthy nodes, the last solver error, and solver
    /// statistics. Derived from serialized state, so a model restored from a
    /// checkpoint reports the identical snapshot.
    pub fn health(&self) -> HealthSnapshot {
        self.health_with(None)
    }

    /// [`IMrDmd::health`] with the streaming SVD's drift already measured
    /// (`Some`), as a round that updated it has; `None` measures it here.
    fn health_with(&self, isvd_drift: Option<f64>) -> HealthSnapshot {
        // Per-level tallies: materialised nodes are healthy by construction
        // (a failed fit never produces a node); recorded faults are the
        // degraded windows. The root's slot at level 1 follows root_health.
        let mut levels: Vec<LevelHealth> = Vec::new();
        fn bump(levels: &mut Vec<LevelHealth>, level: usize, healthy: bool) {
            if let Some(slot) = levels.iter_mut().find(|l| l.level == level) {
                if healthy {
                    slot.healthy += 1;
                } else {
                    slot.degraded += 1;
                }
                return;
            }
            levels.push(LevelHealth {
                level,
                healthy: usize::from(healthy),
                degraded: usize::from(!healthy),
            });
        }
        bump(&mut levels, 1, self.root.health.is_healthy());
        for node in &self.subnodes {
            bump(&mut levels, node.level, true);
        }
        for fault in &self.faults {
            bump(&mut levels, fault.level, false);
        }
        levels.sort_by_key(|l| l.level);
        let healthy_nodes: usize = levels.iter().map(|l| l.healthy).sum();
        let degraded_nodes: usize = levels.iter().map(|l| l.degraded).sum();
        let total = healthy_nodes + degraded_nodes;
        let coverage = if total == 0 {
            1.0
        } else {
            healthy_nodes as f64 / total as f64
        };
        HealthSnapshot {
            root: self.root.health.clone(),
            levels,
            healthy_nodes,
            degraded_nodes,
            coverage,
            last_error: self.last_error.clone(),
            solver: self.root.solver_stats(isvd_drift),
        }
    }

    /// Whether accumulated drift has exceeded the configured threshold.
    pub fn is_stale(&self) -> bool {
        self.stale
    }

    /// The streaming configuration.
    pub fn config(&self) -> &IMrDmdConfig {
        &self.cfg
    }

    /// Overrides the worker-thread knob (0 = auto, 1 = serial) for all
    /// subsequent fits and reconstructions — handy when a model serialized on
    /// one machine is resumed on another. Results are bitwise-identical at
    /// every setting.
    pub fn set_n_threads(&mut self, n_threads: usize) {
        self.cfg.mr.n_threads = n_threads;
    }

    /// Rank of the streaming root factorisation.
    pub fn root_rank(&self) -> usize {
        self.root.rank()
    }

    /// Reconstructs the denoised signal over absolute snapshots `[t0, t1)`.
    pub fn reconstruct_range(&self, t0: usize, t1: usize) -> Mat {
        assert!(t0 <= t1 && t1 <= self.t_total);
        let pool = WorkerPool::new(self.cfg.mr.n_threads);
        reconstruct_nodes(
            &self.nodes().collect::<Vec<_>>(),
            self.p,
            t0,
            t1,
            self.cfg.mr.dt,
            &pool,
        )
    }

    /// Reconstructs the full absorbed timeline.
    pub fn reconstruct(&self) -> Mat {
        self.reconstruct_range(0, self.t_total)
    }

    /// Full-resolution history, if `keep_history` was enabled.
    pub fn history(&self) -> Option<&Mat> {
        self.history.as_ref()
    }

    /// Refits levels 2..L from the retained history against the *current*
    /// root — the "recompute stale levels" step the paper defers to future
    /// work. The root SVD state is kept; the two halves are independent
    /// subtrees, processed across the worker pool (the "embarrassingly
    /// parallel" observation of Sec. III-A.1). Clears the stale flag and the
    /// pending window. A round with `auto_refresh` set runs exactly this.
    ///
    /// Returns [`CoreError::InvalidConfig`] when the tree was fitted without
    /// `keep_history`: there is nothing to refit from.
    pub fn try_refresh_subtrees(&mut self) -> Result<(), CoreError> {
        let Some(data) = self.history.as_ref() else {
            return Err(CoreError::InvalidConfig {
                what: "try_refresh_subtrees requires keep_history".into(),
            });
        };
        let t = self.t_total;
        let mut fresh: Vec<ModeSet> = Vec::new();
        let mut fresh_faults: Vec<FitFault> = Vec::new();
        // The fit fans the halves — and their own halves, down to the size
        // cutoff — across the worker pool.
        let pool = WorkerPool::new(self.cfg.mr.n_threads);
        TreeSource::new(data, t, 0, 0, &self.cfg.mr, &pool, Subtree::Halves(1)).fit(
            &[&self.root.modes],
            &mut fresh,
            &mut fresh_faults,
        );
        // Degraded-window retention: a window whose refresh failed keeps the
        // node the previous tree served for it (if any) instead of going
        // dark. The fault stays on record so health() reports the window as
        // degraded.
        for f in &mut fresh_faults {
            f.at_step = t;
            if let Some(old) = self.subnodes.iter().find(|n| {
                n.start == f.start && n.window == f.window && n.row_offset == f.row_offset
            }) {
                fresh.push(old.clone());
            }
        }
        if let Some(f) = fresh_faults.last() {
            self.last_error = Some(f.cause.clone());
        }
        self.subnodes = fresh;
        self.faults = fresh_faults;
        // The refreshed subtrees cover the whole timeline, pending window
        // included — nothing is deferred any more.
        self.pending = Mat::zeros(self.p, 0);
        self.stale = false;
        Ok(())
    }

    /// Adds entirely new telemetry series (sensors) to the streaming state —
    /// the paper's second future-work item. `new_rows` must carry the full
    /// history of the new sensors (`r × n_steps`).
    ///
    /// The root SVD absorbs the rows incrementally; the new sensors' own
    /// multiscale structure is fitted as a dedicated level-2 subtree covering
    /// only the appended rows (`ModeSet::row_offset`). Previously fitted
    /// nodes are untouched — they simply contribute nothing to the new rows.
    ///
    /// # Panics
    /// Panics if the column count differs from the absorbed timeline.
    pub fn add_series(&mut self, new_rows: &Mat) {
        assert_eq!(
            new_rows.cols(),
            self.t_total,
            "new series must span the absorbed timeline"
        );
        if new_rows.rows() == 0 {
            return;
        }
        let p_old = self.p;
        self.p = p_old + new_rows.rows();
        // The root stream, its factorisation and modes now cover all rows.
        if let Some(e) = self.root.add_rows(new_rows, self.t_total, &self.cfg) {
            self.last_error = Some(e);
        }
        // Dedicated subtree for the new sensors' residual dynamics — over
        // the already-fitted timeline only: the pending tail stays deferred
        // (and now carries the new rows too), so the flush that eventually
        // covers it never overlaps this subtree.
        let t_cov = self.t_total - self.pending.cols();
        {
            // The root's contribution on the appended rows only, row-local
            // to `new_rows`.
            let root = &self.root.modes;
            let root_rows = ModeSet {
                modes: root.modes.rows_range(p_old, self.p),
                row_offset: 0,
                ..root.clone()
            };
            let faults_before = self.faults.len();
            let pool = WorkerPool::new(self.cfg.mr.n_threads);
            let src = TreeSource::new(
                new_rows,
                t_cov,
                0,
                p_old,
                &self.cfg.mr,
                &pool,
                Subtree::Halves(1),
            );
            src.fit(&[&root_rows], &mut self.subnodes, &mut self.faults);
            let t_total = self.t_total;
            for f in &mut self.faults[faults_before..] {
                f.at_step = t_total;
            }
        }
        if self.pending.cols() > 0 {
            self.pending = self
                .pending
                .vstack(&new_rows.cols_range(t_cov, self.t_total));
        }
        if let Some(h) = &mut self.history {
            *h = h.vstack(new_rows);
        }
    }

    /// Forecasts `horizon` snapshots past the absorbed timeline by
    /// extrapolating the mode dynamics of the root and of every node whose
    /// window touches the right edge (the most recent context at each
    /// timescale).
    ///
    /// DMD forecasting is only trustworthy over horizons comparable to the
    /// finest captured timescale; growth clamping keeps the extrapolation
    /// bounded regardless.
    pub fn forecast(&self, horizon: usize) -> Mat {
        let mut out = Mat::zeros(self.p, horizon);
        let grid = Grid {
            start: self.t_total,
            step: 1,
            cols: horizon,
        };
        for node in self.nodes().filter(|n| n.start + n.window == self.t_total) {
            node.apply_reconstruction_rows(
                out.as_mut_slice(),
                0,
                self.p,
                grid,
                self.cfg.mr.dt,
                1.0,
                true,
            );
        }
        out
    }

    /// Equivalent batch decomposition of the same tree (for comparisons).
    pub fn as_mrdmd(&self) -> MrDmd {
        MrDmd {
            config: self.cfg.mr,
            nodes: self.nodes().cloned().collect(),
            n_rows: self.p,
            n_steps: self.t_total,
            faults: self.faults.clone(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dmd::{FitStrategy, RankSelection};

    const TAU: f64 = std::f64::consts::TAU;

    pub(crate) fn stream_data(p: usize, t: usize, dt: f64) -> Mat {
        Mat::from_fn(p, t, |i, j| {
            let x = i as f64 / p as f64;
            let tt = j as f64 * dt;
            (TAU * 0.01 * tt + 2.0 * x).sin()
                + 0.4 * (TAU * 0.3 * tt + 4.0 * x).cos()
                + 0.02 * (TAU * 5.0 * tt + 9.0 * x).sin()
        })
    }

    pub(crate) fn cfg(dt: f64) -> IMrDmdConfig {
        IMrDmdConfig {
            mr: MrDmdConfig {
                dt,
                max_levels: 4,
                max_cycles: 2,
                rank: RankSelection::Fixed(6),
                nyquist_factor: 4,
                min_window: 16,
                max_window_growth: 1e3,
                n_threads: 0,
                ..MrDmdConfig::default()
            },
            isvd_max_rank: 24,
            drift_threshold: None,
            keep_history: true,
            auto_refresh: false,
        }
    }

    pub(crate) fn sketched(mut c: IMrDmdConfig, seed: u64) -> IMrDmdConfig {
        c.mr.strategy = FitStrategy::Sketched {
            rank_oversample: 4,
            power_iters: 1,
            seed,
        };
        c
    }

    #[test]
    fn sketched_root_tracks_exact_frequencies() {
        // Accuracy on the pipeline level: the sketched root recovers the
        // same dominant frequencies as the exact path on planted dynamics.
        let dt = 0.5;
        let data = stream_data(24, 200, dt);
        let exact = IMrDmd::fit(&data, &cfg(dt));
        let sk = IMrDmd::fit(&data, &sketched(cfg(dt), 77));
        let fe = exact.root().frequencies();
        let fs = sk.root().frequencies();
        assert!(!fe.is_empty() && !fs.is_empty(), "{fe:?} vs {fs:?}");
        for a in &fe {
            let close = fs.iter().any(|b| (a - b).abs() < 1e-6 + 0.05 * a.abs());
            assert!(close, "exact frequency {a} unmatched: {fe:?} vs {fs:?}");
        }
    }

    #[test]
    fn checkpoint_without_strategy_fields_loads_as_exact() {
        // A checkpoint written before fit strategies existed has neither the
        // `sketch` state nor the `strategy` config field: both must
        // deserialize to the historical exact behaviour, bit for bit.
        let dt = 0.5;
        let data = stream_data(12, 80, dt);
        let tree = IMrDmd::fit(&data, &cfg(dt));
        let json = serde_json::to_string(&tree).unwrap_or_default();
        let legacy = json
            .replace(",\"strategy\":\"Exact\"", "")
            .replace(",\"sketch\":null", "");
        assert_ne!(legacy, json, "surgery must remove both new fields");
        let back: IMrDmd = match serde_json::from_str(&legacy) {
            Ok(t) => t,
            Err(e) => panic!("legacy checkpoint rejected: {e}"),
        };
        assert_eq!(serde_json::to_string(&back).unwrap_or_default(), json);
    }

    #[test]
    fn validate_refuses_a_root_factor_the_strategy_does_not_use() {
        // The configuration and the root factor both come from disk, so no
        // type can rule out a checkpoint whose factor belongs to the other
        // strategy: `validate` must. Each case is surgery on the v1 (JSON)
        // payload of a fitted tree.
        let dt = 0.5;
        let data = stream_data(12, 80, dt);
        let exact = serde_json::to_string(&IMrDmd::fit(&data, &cfg(dt))).unwrap_or_default();
        let sketched_json =
            serde_json::to_string(&IMrDmd::fit(&data, &sketched(cfg(dt), 3))).unwrap_or_default();
        let exact_strategy = "\"strategy\":\"Exact\"";
        let sketched_strategy =
            "\"strategy\":{\"Sketched\":{\"rank_oversample\":4,\"power_iters\":1,\"seed\":3}}";
        assert!(exact.contains("\"sketch\":null"));
        assert!(sketched_json.contains("\"sketch\":{\"q\":"));
        let cases = [
            (
                "an exact configuration over a sketch",
                sketched_json.replace(sketched_strategy, exact_strategy),
                &sketched_json,
            ),
            (
                "a sketched configuration with \"sketch\":null",
                exact.replace(exact_strategy, sketched_strategy),
                &exact,
            ),
        ];
        for (case, tampered, original) in cases {
            assert_ne!(
                &tampered, original,
                "{case}: surgery must swap the strategy"
            );
            let fitted: IMrDmd = serde_json::from_str(original).expect("fitted tree loads");
            assert!(
                fitted.validate().is_ok(),
                "{case}: the untouched tree passes"
            );
            let tree: IMrDmd = match serde_json::from_str(&tampered) {
                Ok(t) => t,
                Err(e) => panic!("{case}: the tampered payload must decode: {e}"),
            };
            assert!(
                matches!(tree.validate(), Err(CoreError::InvalidConfig { .. })),
                "{case} must be refused"
            );
        }
    }

    #[test]
    fn sketched_stream_resumes_bitwise_after_add_series() {
        // A sketched tree widened by `add_series` (which re-probes its
        // sketch over the wider decimated stream), saved as a v2 checkpoint
        // and loaded, streams on exactly as the uninterrupted tree does.
        let dt = 0.5;
        let all = stream_data(15, 240, dt);
        let old_rows = all.rows_range(0, 12);
        let mut tree = IMrDmd::fit(&old_rows.cols_range(0, 160), &sketched(cfg(dt), 21));
        tree.partial_fit(&old_rows.cols_range(160, 200));
        tree.add_series(&all.rows_range(12, 15).cols_range(0, 200));
        assert_eq!(tree.n_rows(), 15);
        let dir =
            std::env::temp_dir().join(format!("imrdmd-sketched-add-series-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("tree.ckpt");
        crate::checkpoint::save_state_checkpoint(&tree, &path).expect("save");
        let mut back: IMrDmd = crate::checkpoint::load_state_checkpoint(&path).expect("load");
        let _ = std::fs::remove_dir_all(&dir);
        back.validate().expect("a saved stream passes validate");
        let batch = all.cols_range(200, 240);
        let (want, got) = (tree.partial_fit(&batch), back.partial_fit(&batch));
        assert_eq!(
            serde_json::to_string(&got).unwrap_or_default(),
            serde_json::to_string(&want).unwrap_or_default()
        );
        let state = serde_json::to_string(&tree).unwrap_or_default();
        assert!(!state.is_empty());
        assert_eq!(serde_json::to_string(&back).unwrap_or_default(), state);
    }

    #[test]
    fn initial_fit_matches_batch_reconstruction() {
        let dt = 1.0;
        let data = stream_data(8, 512, dt);
        let c = cfg(dt);
        let inc = IMrDmd::fit(&data, &c);
        let batch = MrDmd::fit(&data, &c.mr);
        let e_inc = inc.reconstruct().fro_dist(&data);
        let e_batch = batch.reconstruct().fro_dist(&data);
        // Same algorithm, possibly different SVD numerics — errors must be
        // close (Q2).
        assert!(
            (e_inc - e_batch).abs() <= 0.1 * e_batch.max(1e-9) + 1e-6,
            "inc {e_inc} vs batch {e_batch}"
        );
    }

    #[test]
    fn partial_fit_extends_timeline_and_tree() {
        let dt = 1.0;
        let data = stream_data(8, 768, dt);
        let c = cfg(dt);
        let mut inc = IMrDmd::fit(&data.cols_range(0, 512), &c);
        let before_nodes = inc.nodes().count();
        let report = inc.partial_fit(&data.cols_range(512, 768));
        assert_eq!(report.batch_len, 256);
        assert!(report.new_root_cols > 0);
        assert_eq!(inc.n_steps(), 768);
        assert!(inc.nodes().count() > before_nodes);
        assert_eq!(inc.root().window, 768);
    }

    #[test]
    fn old_nodes_shift_one_level_per_update() {
        let dt = 1.0;
        let data = stream_data(6, 640, dt);
        let c = cfg(dt);
        let mut inc = IMrDmd::fit(&data.cols_range(0, 512), &c);
        let old_levels: Vec<usize> = inc.subnodes.iter().map(|n| n.level).collect();
        inc.partial_fit(&data.cols_range(512, 640));
        for (k, lvl) in old_levels.iter().enumerate() {
            assert_eq!(inc.subnodes[k].level, lvl + 1);
        }
    }

    #[test]
    fn incremental_accuracy_close_to_batch_after_update() {
        // Q2: the reconstruction difference between I-mrDMD and mrDMD stays
        // small relative to signal norm.
        let dt = 1.0;
        let data = stream_data(8, 768, dt);
        let c = cfg(dt);
        let mut inc = IMrDmd::fit(&data.cols_range(0, 512), &c);
        inc.partial_fit(&data.cols_range(512, 768));
        let batch = MrDmd::fit(&data, &c.mr);
        let e_inc = inc.reconstruct().fro_dist(&data) / data.fro_norm();
        let e_batch = batch.reconstruct().fro_dist(&data) / data.fro_norm();
        assert!(e_inc < e_batch + 0.15, "inc {e_inc} batch {e_batch}");
    }

    #[test]
    fn multiple_small_batches_accumulate() {
        let dt = 1.0;
        let data = stream_data(6, 512 + 4 * 64, dt);
        let c = cfg(dt);
        let mut inc = IMrDmd::fit(&data.cols_range(0, 512), &c);
        for k in 0..4 {
            let s = 512 + k * 64;
            inc.partial_fit(&data.cols_range(s, s + 64));
        }
        assert_eq!(inc.n_steps(), 512 + 256);
        assert_eq!(inc.drift_log().len(), 4);
        let rel = inc.reconstruct().fro_dist(&data) / data.fro_norm();
        assert!(rel < 0.5, "relative error {rel}");
    }

    #[test]
    fn drift_threshold_marks_stale_and_refresh_clears() {
        let dt = 1.0;
        let base = stream_data(6, 512, dt);
        // A regime change guarantees nonzero drift.
        let shifted = Mat::from_fn(6, 128, |i, j| base[(i, j % 512)] + 5.0);
        for keep_history in [false, true] {
            let mut c = cfg(dt);
            c.drift_threshold = Some(1e-12); // absurdly tight: any update trips it
            c.keep_history = keep_history;
            let mut inc = IMrDmd::fit(&base, &c);
            inc.partial_fit(&shifted);
            assert!(inc.is_stale());
            let refreshed = inc.try_refresh_subtrees();
            if keep_history {
                refreshed.expect("history is kept");
            } else {
                // Nothing to refit from: refused, and the tree stays stale.
                assert!(matches!(refreshed, Err(CoreError::InvalidConfig { .. })));
            }
            assert_eq!(inc.is_stale(), !keep_history);
            assert_eq!(inc.n_steps(), 640);
        }
    }

    #[test]
    fn batch_smaller_than_root_step_still_processed() {
        let dt = 1.0;
        // 510 snapshots → root step 31, decimated grid {0, 31, …, 496}, next
        // grid point at 527 — an 8-snapshot batch adds no root column.
        let data = stream_data(6, 518, dt);
        let c = cfg(dt);
        let mut inc = IMrDmd::fit(&data.cols_range(0, 510), &c);
        let step = c.mr.subsample_step(510);
        assert!(step > 8, "test premise: batch shorter than root step");
        let report = inc.partial_fit(&data.cols_range(510, 518));
        assert_eq!(report.new_root_cols, 0);
        assert_eq!(inc.n_steps(), 518);
        assert_eq!(inc.root().window, 518);
    }

    #[test]
    fn empty_batch_is_noop() {
        let dt = 1.0;
        let data = stream_data(6, 512, dt);
        let mut inc = IMrDmd::fit(&data, &cfg(dt));
        let report = inc.partial_fit(&Mat::zeros(6, 0));
        assert_eq!(report.batch_len, 0);
        assert_eq!(inc.n_steps(), 512);
    }

    #[test]
    fn refresh_subtrees_restores_batch_quality() {
        let dt = 1.0;
        let data = stream_data(8, 768, dt);
        let c = cfg(dt);
        let mut inc = IMrDmd::fit(&data.cols_range(0, 512), &c);
        // Several updates accumulate structural divergence from the batch tree.
        for k in 0..4 {
            let lo = 512 + 64 * k;
            inc.partial_fit(&data.cols_range(lo, lo + 64));
        }
        let before = inc.reconstruct().fro_dist(&data);
        inc.try_refresh_subtrees().expect("history is kept");
        assert!(!inc.is_stale());
        let after = inc.reconstruct().fro_dist(&data);
        // A refreshed tree (halving splits against the current root) is at
        // least comparable to the incrementally grown one.
        assert!(
            after <= before * 1.2 + 1e-9,
            "refresh worsened: {before} → {after}"
        );
        assert_eq!(inc.n_steps(), 768);
        assert_eq!(inc.root().window, 768);
    }

    #[test]
    fn add_series_extends_rows_and_reconstruction() {
        let dt = 1.0;
        let all = stream_data(12, 512, dt);
        let c = cfg(dt);
        let mut inc = IMrDmd::fit(&all.rows_range(0, 7), &c);
        inc.add_series(&all.rows_range(7, 12));
        assert_eq!(inc.n_rows(), 12);
        let rec = inc.reconstruct();
        assert_eq!(rec.rows(), 12);
        assert!(rec.as_slice().iter().all(|v| v.is_finite()));
        // The added rows reconstruct comparably to a fresh batch fit on the
        // same rows — the incremental path loses nothing fundamental.
        let new_part = rec.rows_range(7, 12);
        let target = all.rows_range(7, 12);
        let rel = new_part.fro_dist(&target) / target.fro_norm();
        let fresh = MrDmd::fit(&target, &c.mr);
        let rel_fresh = fresh.reconstruct().fro_dist(&target) / target.fro_norm();
        assert!(
            rel <= rel_fresh + 0.15,
            "add_series rel err {rel} vs fresh fit on same rows {rel_fresh}"
        );
        // And subsequent partial fits accept the widened stream.
        let more = Mat::from_fn(12, 64, |i, j| all[(i, (512 + j) % 512)]);
        inc.partial_fit(&more);
        assert_eq!(inc.n_steps(), 576);
    }

    #[test]
    fn add_series_nodes_carry_row_offset() {
        let dt = 1.0;
        let all = stream_data(8, 512, dt);
        let c = cfg(dt);
        let mut inc = IMrDmd::fit(&all.rows_range(0, 6), &c);
        inc.add_series(&all.rows_range(6, 8));
        assert!(
            inc.nodes()
                .any(|n| n.row_offset == 6 && n.modes.rows() == 2),
            "expected a dedicated subtree for the appended rows"
        );
        // Root covers all rows.
        assert_eq!(inc.root().modes.rows(), 8);
        assert_eq!(inc.root().row_offset, 0);
    }

    #[test]
    fn forecast_tracks_stationary_oscillation() {
        let dt = 1.0;
        let data = stream_data(8, 640, dt);
        let c = cfg(dt);
        let inc = IMrDmd::fit(&data.cols_range(0, 576), &c);
        let horizon = 32;
        let fc = inc.forecast(horizon);
        assert_eq!(fc.shape(), (8, horizon));
        assert!(fc.as_slice().iter().all(|v| v.is_finite()));
        // The forecast must beat a zero predictor on the de-meaned truth.
        let truth = data.cols_range(576, 576 + horizon);
        let err = fc.fro_dist(&truth);
        let zero_err = truth.fro_norm();
        assert!(
            err < zero_err,
            "forecast err {err} vs zero-predictor {zero_err}"
        );
    }

    #[test]
    fn auto_refresh_clears_staleness_inline() {
        let dt = 1.0;
        let data = stream_data(8, 768, dt);
        let mut c = cfg(dt);
        c.drift_threshold = Some(1e-12);
        c.auto_refresh = true;
        c.keep_history = true;
        let mut inc = IMrDmd::fit(&data.cols_range(0, 512), &c);
        inc.partial_fit(&data.cols_range(512, 768));
        // The inline refresh ran and cleared the flag.
        assert!(!inc.is_stale());
        // Its tree is the refreshed (halving) structure, still covering all.
        assert_eq!(inc.n_steps(), 768);
        let rel = inc.reconstruct().fro_dist(&data) / data.fro_norm();
        assert!(rel < 0.5, "post-refresh error {rel}");
    }

    #[test]
    fn model_persists_through_serde_roundtrip() {
        let dt = 1.0;
        let data = stream_data(8, 640, dt);
        let c = cfg(dt);
        let mut model = IMrDmd::fit(&data.cols_range(0, 512), &c);
        model.partial_fit(&data.cols_range(512, 640));
        let json = serde_json::to_string(&model).expect("serialise");
        let mut back: IMrDmd = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back.n_steps(), model.n_steps());
        assert_eq!(back.n_modes(), model.n_modes());
        assert!(back.reconstruct().fro_dist(&model.reconstruct()) < 1e-12);
        // The resumed model keeps streaming.
        let more = Mat::from_fn(8, 64, |i, j| data[(i, j % 640)]);
        back.partial_fit(&more);
        assert_eq!(back.n_steps(), 704);
    }

    #[test]
    fn healthy_stream_reports_full_coverage() {
        let dt = 1.0;
        let data = stream_data(8, 640, dt);
        let mut inc = IMrDmd::fit(&data.cols_range(0, 512), &cfg(dt));
        inc.partial_fit(&data.cols_range(512, 640));
        let h = inc.health();
        assert!(h.all_healthy(), "{h:?}");
        assert!(h.root.is_healthy());
        assert_eq!(h.degraded_nodes, 0);
        assert_eq!(h.coverage, 1.0);
        assert_eq!(h.healthy_nodes, inc.nodes().count());
        // Levels are ascending and tally up.
        for w in h.levels.windows(2) {
            assert!(w[0].level < w[1].level);
        }
        assert_eq!(
            h.levels.iter().map(|l| l.healthy).sum::<usize>(),
            h.healthy_nodes
        );
        // The solver actually worked for the root.
        assert!(h.solver.last_eig_iterations > 0);
        assert_eq!(h.solver.isvd_drift_breaches, 0);
        assert!(h.solver.isvd_drift < 1e-8, "{}", h.solver.isvd_drift);
    }

    #[test]
    fn health_state_survives_serde_roundtrip() {
        let dt = 1.0;
        let data = stream_data(8, 640, dt);
        let mut inc = IMrDmd::fit(&data.cols_range(0, 512), &cfg(dt));
        inc.partial_fit(&data.cols_range(512, 640));
        let json = serde_json::to_string(&inc).expect("serialize");
        let back: IMrDmd = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.health(), inc.health());
        assert_eq!(back.fit_faults(), inc.fit_faults());
        assert_eq!(back.root_health(), inc.root_health());
    }

    #[test]
    fn compression_report_flows_from_stream_state() {
        let dt = 1.0;
        let data = stream_data(16, 1024, dt);
        let inc = IMrDmd::fit(&data, &cfg(dt));
        let tier = crate::archive::QuantTier::F64;
        let info = crate::archive::encode_archive(&inc, tier, &mut std::io::sink()).unwrap();
        assert_eq!(info.n_nodes, inc.nodes().count());
        assert!(info.ratio() > 1.0, "ratio {}", info.ratio());
    }
}
