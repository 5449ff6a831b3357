//! One tenant's streaming decomposition, with checkpoint lifecycle.
//!
//! A shard owns everything that must survive a restart as a unit: the
//! [`IMrDmd`] model, the [`IngestGuard`] (whose per-sensor last-good
//! carry determines how boundary gaps repair — restoring the model
//! without it would break bitwise resume), and the absorbed-round count.
//! The trio serialises as one [`ShardSnapshot`] through the core
//! checkpoint wire format, namespaced per shard so a whole fleet shares
//! one checkpoint directory.
//!
//! This is the one stream lifecycle in the workspace: the daemon's
//! tenants, `imrdmd-cli stream` and the `streaming_monitor` example all
//! cold-start, absorb, checkpoint and resume through a `Shard`.
//!
//! Lifecycle: a shard is born **empty** holding the configuration and
//! [`GapPolicy`] its first batch cold-starts with (configuration check,
//! guard repair, [`IMrDmd::fit`]). It is then **ready**: each batch is
//! repaired once by the shard's [`IngestGuard`] and the repaired batch runs
//! one [`IMrDmd::partial_fit`] round, whose [`RoundReport`] the reply
//! carries. A shard is **corrupt** if its checkpoint failed to restore: it
//! answers 503 on every route but never takes the daemon down. A
//! configuration enters a stream only through those two doors, and both
//! check it: the cold start with [`IMrDmdConfig::validate`], the restore
//! with [`ShardSnapshot::load`]. A restored shard keeps the configuration
//! and guard policy it was checkpointed with.
//!
//! Durability: when a [`Wal`] is attached, every acked batch is logged —
//! **repaired** (post-[`GapPolicy`]) so replay is deterministic — before
//! the reply is built, and [`Shard::recover`] rebuilds the exact
//! pre-crash state from the newest valid checkpoint plus the WAL tail,
//! replaying each frame through the same absorb step as live ingest.
//! A WAL write failure moves the shard to **durability-degraded**: it
//! keeps absorbing and serving (checkpoint-interval durability only) and
//! reports the cause through `/status` and `serve.wal.*` metrics rather
//! than failing ingest.
//!
//! An ingest is two halves: [`Shard::ack`] absorbs, logs and builds the
//! reply; [`Shard::settle`] writes the due checkpoint and the WAL
//! truncation it triggers. What each ack waits for:
//! - `interval`: the WAL frame, written;
//! - `batch`: the WAL frame, fsynced;
//! - `none`, or a degraded WAL: the due checkpoint.
//!
//! So with a healthy WAL the daemon writes the reply before it settles;
//! otherwise the ack settles first.

use hpc_linalg::Mat;
use imrdmd::checkpoint::{
    load_state_checkpoint, shard_checkpoint_history, CheckpointError, Checkpointer,
};
use imrdmd::wal::Wal;
use imrdmd::{
    GapPolicy, HealthSnapshot, IMrDmd, IMrDmdConfig, IngestGuard, RepairReport, RoundReport,
};
use serde::{Deserialize, Serialize};
use std::path::Path;

use crate::error::ServeError;
use crate::obs;

/// Everything a shard persists, as one checkpoint payload.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShardSnapshot {
    /// Tenant the snapshot belongs to (sanity-checked on restore).
    pub tenant: String,
    /// The decomposition state.
    pub model: IMrDmd,
    /// The ingest guard, including per-sensor last-good carry.
    pub guard: IngestGuard,
    /// Rounds absorbed since the shard was created.
    pub rounds: u64,
}

impl ShardSnapshot {
    /// Reads a shard checkpoint and checks the restored model with
    /// [`IMrDmd::validate`] and the guard against the model's sensor count:
    /// a payload that passed its checksum but carries an out-of-domain
    /// configuration, decimation state or guard is refused as
    /// [`CheckpointError::Codec`], like one that fails to decode, so
    /// recovery falls back past it instead of panicking on the next round.
    pub fn load(path: &Path) -> Result<ShardSnapshot, CheckpointError> {
        let snap: ShardSnapshot = load_state_checkpoint(path)?;
        snap.model
            .validate()
            .map_err(|e| CheckpointError::Codec(e.to_string()))?;
        if snap.guard.n_rows() != snap.model.n_rows() {
            return Err(CheckpointError::Codec(format!(
                "ingest guard tracks {} sensors, the model {}",
                snap.guard.n_rows(),
                snap.model.n_rows()
            )));
        }
        Ok(snap)
    }
}

/// Coarse shard lifecycle state, as reported by `/status`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardState {
    /// Created but no batch absorbed yet.
    Empty,
    /// Fitted and serving.
    Ready,
    /// Serving, but the write-ahead log stopped accepting appends (e.g.
    /// disk full): acked batches are durable only to the last checkpoint.
    DurabilityDegraded,
    /// Checkpoint restore failed; refusing traffic.
    Corrupt,
}

/// The `/status` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShardStatus {
    /// Tenant id.
    pub tenant: String,
    /// Lifecycle state.
    pub state: ShardState,
    /// Snapshots absorbed (clients resume streaming from here).
    pub steps: usize,
    /// Rounds (batches) absorbed.
    pub rounds: u64,
    /// Snapshots buffered below the minimum window.
    pub pending: usize,
    /// Modes currently extracted.
    pub modes: usize,
    /// Why the shard is corrupt, if it is.
    pub corrupt_cause: Option<String>,
    /// Why the write-ahead log stopped accepting appends, if it did.
    pub degraded_cause: Option<String>,
}

/// The `POST /v1/{tenant}/ingest` response document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IngestReply {
    /// Tenant id.
    pub tenant: String,
    /// Rounds absorbed including this one.
    pub round: u64,
    /// Total snapshots absorbed including this batch.
    pub steps: usize,
    /// True for the batch that cold-started the shard (fit, not
    /// partial-fit; there is no [`RoundReport`] for it).
    pub cold_start: bool,
    /// What the gap guard repaired in this batch, cold start included.
    pub repairs: RepairReport,
    /// The round report, absent on cold start.
    pub report: Option<RoundReport>,
}

/// What one absorb step did to a batch.
struct Absorbed {
    /// The shard clock before the batch: the batch's first step.
    first_step: usize,
    /// The repaired copy of the batch, when it had gaps.
    repaired: Option<Mat>,
    /// What the guard repaired.
    repairs: RepairReport,
    /// The round report, absent on cold start.
    report: Option<RoundReport>,
}

/// What [`Shard::recover`] rebuilt, with its provenance.
#[derive(Debug)]
pub struct RecoveredShard {
    /// The rebuilt shard (possibly corrupt when nothing was usable).
    pub shard: Shard,
    /// True when a checkpoint (any vintage) was restored.
    pub from_checkpoint: bool,
    /// Corrupt checkpoints skipped before one validated (newest-first).
    pub fallbacks: usize,
    /// WAL frames replayed on top of the restored base.
    pub replayed: usize,
    /// True when a torn WAL tail was truncated away.
    pub torn_wal: bool,
}

/// Where a shard is in its lifecycle; see the module doc.
#[derive(Debug)]
enum Lifecycle {
    /// No batch absorbed yet: what the first batch cold-starts with.
    Empty {
        cfg: IMrDmdConfig,
        policy: GapPolicy,
    },
    /// Fitted: the model and the guard whose carry repairs its next batch
    /// (each holds its own configuration from here on).
    Ready {
        model: Box<IMrDmd>,
        guard: IngestGuard,
    },
    /// The checkpoint failed to restore; every route is refused with this
    /// cause.
    Corrupt(String),
}

/// One tenant's decomposition plus its durable lifecycle.
#[derive(Debug)]
pub struct Shard {
    tenant: String,
    lifecycle: Lifecycle,
    rounds: u64,
    checkpointer: Option<Checkpointer>,
    wal: Option<Wal>,
    degraded_cause: Option<String>,
    /// Checkpoint saves still to pass before the WAL is next rewritten:
    /// 0 at birth, so the first save trims what came before it.
    wal_saves_left: usize,
    /// A checkpoint fell due at an ack and no write has happened since.
    settle_due: bool,
}

impl Shard {
    /// An empty shard that cold-starts its first batch under `cfg` and
    /// `policy`, checkpointing into `checkpointer` if given.
    pub fn new(
        tenant: &str,
        cfg: &IMrDmdConfig,
        policy: GapPolicy,
        checkpointer: Option<Checkpointer>,
    ) -> Shard {
        Shard::with_lifecycle(tenant, Lifecycle::Empty { cfg: *cfg, policy }, checkpointer)
    }

    fn with_lifecycle(
        tenant: &str,
        lifecycle: Lifecycle,
        checkpointer: Option<Checkpointer>,
    ) -> Shard {
        Shard {
            tenant: tenant.to_string(),
            lifecycle,
            rounds: 0,
            checkpointer,
            wal: None,
            degraded_cause: None,
            wal_saves_left: 0,
            settle_due: false,
        }
    }

    /// Attaches (or detaches) the write-ahead log this shard appends to.
    pub fn with_wal(mut self, wal: Option<Wal>) -> Shard {
        self.wal = wal;
        self
    }

    /// Marks the shard durability-degraded from birth (e.g. its WAL could
    /// not be opened). The shard still serves.
    pub fn with_degraded_cause(mut self, cause: Option<String>) -> Shard {
        self.degraded_cause = cause;
        self
    }

    /// A shard restored from a checkpoint snapshot. It streams on under the
    /// snapshot's own configuration and gap policy.
    pub fn from_snapshot(snap: ShardSnapshot, checkpointer: Option<Checkpointer>) -> Shard {
        let ready = Lifecycle::Ready {
            model: Box::new(snap.model),
            guard: snap.guard,
        };
        Shard {
            rounds: snap.rounds,
            ..Shard::with_lifecycle(&snap.tenant, ready, checkpointer)
        }
    }

    /// A shard whose checkpoint failed integrity checks. It holds its
    /// tenant slot (so the operator sees it) but answers 503 everywhere.
    pub fn corrupt(tenant: &str, cause: &CheckpointError) -> Shard {
        Shard::with_lifecycle(tenant, Lifecycle::Corrupt(cause.to_string()), None)
    }

    /// Tenant id.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Lifecycle state.
    pub fn state(&self) -> ShardState {
        match self.lifecycle {
            Lifecycle::Corrupt(_) => ShardState::Corrupt,
            _ if self.degraded_cause.is_some() => ShardState::DurabilityDegraded,
            Lifecycle::Ready { .. } => ShardState::Ready,
            Lifecycle::Empty { .. } => ShardState::Empty,
        }
    }

    /// The fitted model, if the shard is ready.
    fn model(&self) -> Option<&IMrDmd> {
        match &self.lifecycle {
            Lifecycle::Ready { model, .. } => Some(model),
            _ => None,
        }
    }

    /// The `/status` document.
    pub fn status(&self) -> ShardStatus {
        let model = self.model();
        ShardStatus {
            tenant: self.tenant.clone(),
            state: self.state(),
            steps: model.map_or(0, IMrDmd::n_steps),
            rounds: self.rounds,
            pending: model.map_or(0, IMrDmd::pending_len),
            modes: model.map_or(0, IMrDmd::n_modes),
            corrupt_cause: match &self.lifecycle {
                Lifecycle::Corrupt(cause) => Some(cause.clone()),
                _ => None,
            },
            degraded_cause: self.degraded_cause.clone(),
        }
    }

    fn fitted(&self) -> Result<&IMrDmd, ServeError> {
        match &self.lifecycle {
            Lifecycle::Ready { model, .. } => Ok(model),
            Lifecycle::Empty { .. } => Err(ServeError::UnknownTenant(self.tenant.clone())),
            Lifecycle::Corrupt(cause) => Err(ServeError::ShardCorrupt {
                tenant: self.tenant.clone(),
                cause: cause.clone(),
            }),
        }
    }

    /// Health snapshot of a fitted shard.
    pub fn health(&self) -> Result<HealthSnapshot, ServeError> {
        Ok(self.fitted()?.health())
    }

    /// Runs `f` against the fitted model (spectrum, forecast,
    /// reconstruction — any read).
    pub fn with_model<T>(&self, f: impl FnOnce(&IMrDmd) -> T) -> Result<T, ServeError> {
        Ok(f(self.fitted()?))
    }

    /// The persistent state — model, ingest guard and round count — as
    /// one checkpoint payload; `None` while the shard is empty or corrupt.
    pub fn snapshot(&self) -> Option<ShardSnapshot> {
        let Lifecycle::Ready { model, guard } = &self.lifecycle else {
            return None;
        };
        Some(ShardSnapshot {
            tenant: self.tenant.clone(),
            model: IMrDmd::clone(model),
            guard: guard.clone(),
            rounds: self.rounds,
        })
    }

    /// Absorbs one batch and answers it: [`Shard::ack`], then
    /// [`Shard::settle`]. What each ack waits for:
    /// - `interval`: the WAL frame, written;
    /// - `batch`: the WAL frame, fsynced;
    /// - `none`, or a degraded WAL: the due checkpoint.
    ///
    /// The daemon calls the two halves itself, writing the reply between
    /// them.
    pub fn ingest(
        &mut self,
        batch: &Mat,
        first_step: Option<usize>,
    ) -> Result<IngestReply, ServeError> {
        let reply = self.ack(batch, first_step)?;
        self.settle();
        Ok(reply)
    }

    /// The half of [`Shard::ingest`] that builds the reply: absorbs one
    /// batch — a cold-start fit on the first, one repaired round after —
    /// logs the repaired batch to the WAL and advances the checkpoint
    /// schedule. `first_step` (from the CSV header) is validated against
    /// the shard clock so duplicated batches from at-least-once collectors
    /// are rejected with 409 instead of silently skewing the timeline.
    ///
    /// With a healthy WAL the frame covers the batch, and the due
    /// checkpoint is left to [`Shard::settle`], which the daemon runs after
    /// the reply is written and before it reads that connection's next
    /// request. With no WAL, or a degraded one, the checkpoint is the
    /// batch's durability, so this half settles before it returns.
    pub fn ack(
        &mut self,
        batch: &Mat,
        first_step: Option<usize>,
    ) -> Result<IngestReply, ServeError> {
        let _span = obs::INGEST_NS.span();
        let absorbed = self.absorb(batch, first_step)?;
        // The WAL append comes before the reply (the ack) is built, so an
        // acked batch is always recoverable; the cold-start frame starts
        // the shard's WAL at step 0.
        self.wal_append(
            absorbed.first_step,
            absorbed.repaired.as_ref().unwrap_or(batch),
        );
        obs::INGEST_BATCHES.inc();
        obs::INGEST_SNAPSHOTS.add(batch.cols() as u64);
        self.settle_due |= self.checkpointer.as_mut().is_some_and(Checkpointer::due);
        if self.wal.is_none() || self.degraded_cause.is_some() {
            // No healthy log covers the batch: the checkpoint is its
            // durability, so it is written before the reply.
            self.settle();
        }
        Ok(IngestReply {
            tenant: self.tenant.clone(),
            round: self.rounds,
            steps: self.model().map_or(0, IMrDmd::n_steps),
            cold_start: absorbed.report.is_none(),
            repairs: absorbed.repairs,
            report: absorbed.report,
        })
    }

    /// The one absorb step behind live ingest and WAL replay: the order
    /// check, one gap repair under the shard's [`GapPolicy`], then a
    /// cold-start fit on the first batch or one [`IMrDmd::partial_fit`]
    /// round on the repaired batch after. A WAL frame is already repaired,
    /// so its repair pass leaves it unchanged and advances the guard's
    /// carry exactly as the original round did. The cold start checks its
    /// configuration first, so an out-of-domain one is an
    /// [`InvalidConfig`] error rather than a panic inside the fit; a failed
    /// cold start leaves the shard empty.
    ///
    /// [`InvalidConfig`]: imrdmd::CoreError::InvalidConfig
    fn absorb(&mut self, batch: &Mat, first_step: Option<usize>) -> Result<Absorbed, ServeError> {
        let in_order = |expected: usize| match first_step {
            Some(got) if got != expected => Err(ServeError::OutOfOrder { expected, got }),
            _ => Ok(()),
        };
        let absorbed = match &mut self.lifecycle {
            Lifecycle::Corrupt(cause) => {
                return Err(ServeError::ShardCorrupt {
                    tenant: self.tenant.clone(),
                    cause: cause.clone(),
                })
            }
            Lifecycle::Empty { cfg, policy } => {
                in_order(0)?;
                if batch.cols() < 2 {
                    return Err(ServeError::BadBody(format!(
                        "cold-start batch needs at least 2 snapshots, got {}",
                        batch.cols()
                    )));
                }
                cfg.validate()?;
                let mut guard = IngestGuard::new(*policy, batch.rows());
                let (repaired, repairs) = guard.repair(batch)?;
                let model = Box::new(IMrDmd::fit(repaired.as_ref().unwrap_or(batch), cfg));
                self.lifecycle = Lifecycle::Ready { model, guard };
                Absorbed {
                    first_step: 0,
                    repaired,
                    repairs,
                    report: None,
                }
            }
            Lifecycle::Ready { model, guard } => {
                let steps_now = model.n_steps();
                in_order(steps_now)?;
                // The guard checks the row count, which a ready shard's
                // guard and model share, before the round can see it.
                let (repaired, repairs) = guard.repair(batch)?;
                let mut report = model.partial_fit(repaired.as_ref().unwrap_or(batch));
                report.repairs = repairs.clone();
                Absorbed {
                    first_step: steps_now,
                    repaired,
                    repairs,
                    report: Some(report),
                }
            }
        };
        self.rounds += 1;
        Ok(absorbed)
    }

    /// Appends one repaired batch to the WAL. A failed append is *not* an
    /// ingest failure: the shard degrades to checkpoint-interval
    /// durability (sticky until restart), keeps serving, and the failure
    /// is counted on `serve.wal.append_failures`.
    fn wal_append(&mut self, first_step: usize, effective: &Mat) {
        if self.degraded_cause.is_some() {
            return;
        }
        let Some(wal) = &mut self.wal else {
            return;
        };
        if let Err(e) = wal.append(first_step as u64, effective) {
            obs::WAL_APPEND_FAILURES.inc();
            self.degraded_cause = Some(e.to_string());
        }
    }

    /// The half of [`Shard::ingest`] that may follow the reply: writes the
    /// checkpoint an ack left due, and the WAL truncation it triggers.
    /// Writes nothing when no checkpoint is due. Every checkpoint write
    /// clears the due mark, so a settle finds nothing to write once the
    /// newest checkpoint covers the shard's steps: when two acks ran before
    /// either settle, or after [`Shard::checkpoint_now`].
    ///
    /// A failed write is *not* an ingest failure: the batch is already
    /// absorbed and the response must report that truthfully; durability
    /// degrades to the previous checkpoint and the failure is counted on
    /// `serve.checkpoint_failures`.
    ///
    /// A successful write has already applied keep-last-K retention and
    /// returned the oldest retained checkpoint's steps. The WAL drops every
    /// frame below that floor once per retention window: on the first save
    /// and then after every `keep` saves. Between rewrites the log keeps
    /// frames older than the floor, which recovery skips, so it holds at
    /// most `2·keep` checkpoint intervals of frames, and any retained
    /// checkpoint plus the log can still rebuild the shard.
    pub fn settle(&mut self) {
        if !self.settle_due {
            return;
        }
        match self.write_checkpoint() {
            Ok(Some(floor)) if self.wal_saves_left == 0 => self.truncate_wal(floor),
            Ok(Some(_)) => self.wal_saves_left -= 1,
            Ok(None) => {}
            Err(_) => obs::CHECKPOINT_FAILURES.inc(),
        }
    }

    /// Writes [`Shard::snapshot`] through the checkpointer and returns the
    /// WAL floor it reports. `Ok(None)` when there is nothing to write: no
    /// checkpointer, or an empty or corrupt shard.
    fn write_checkpoint(&mut self) -> Result<Option<u64>, CheckpointError> {
        self.settle_due = false;
        let Some(snap) = self.snapshot() else {
            return Ok(None);
        };
        let Some(ck) = &mut self.checkpointer else {
            return Ok(None);
        };
        ck.write_state(snap.model.n_steps(), &snap).map(Some)
    }

    /// Drops WAL frames below `floor` and starts a new retention window.
    /// Best-effort: a failed truncation only leaves extra (skippable)
    /// frames behind.
    fn truncate_wal(&mut self, floor: u64) {
        self.wal_saves_left = self
            .checkpointer
            .as_ref()
            .map_or(0, |ck| ck.retention().saturating_sub(1));
        if let Some(wal) = &mut self.wal {
            if wal.retain_from(floor).is_ok() {
                obs::WAL_TRUNCATIONS.inc();
            }
        }
    }

    /// Writes a final checkpoint unconditionally (graceful shutdown),
    /// then syncs and trims the WAL. No-op for empty or corrupt shards.
    pub fn checkpoint_now(&mut self) -> Result<(), CheckpointError> {
        let Some(floor) = self.write_checkpoint()? else {
            return Ok(());
        };
        if let Some(wal) = &mut self.wal {
            let _ = wal.sync();
        }
        self.truncate_wal(floor);
        Ok(())
    }

    /// Rebuilds a shard from whatever `dir` holds for `tenant`: the
    /// newest checkpoint that passes integrity checks (falling back,
    /// newest-first, past corrupt ones), then the WAL tail replayed
    /// through the same deterministic pipeline the live ingest path uses.
    /// A torn final WAL frame (crash mid-append — by construction never
    /// acked) is truncated away. Because repairing a repaired batch is a
    /// bitwise no-op and every fit path is bitwise-reproducible, the
    /// rebuilt state is bitwise-identical to a run that never crashed.
    ///
    /// Only when *no* checkpoint validates and the WAL cannot rebuild
    /// from step 0 does the shard come back [`ShardState::Corrupt`].
    ///
    /// `cfg` and `policy` are what a shard with no usable checkpoint is
    /// born with before its WAL replays from step 0. A restored checkpoint
    /// keeps its own configuration and gap policy; only the thread budget
    /// `cfg.mr.n_threads` follows the caller.
    pub fn recover(
        dir: &Path,
        tenant: &str,
        cfg: &IMrDmdConfig,
        policy: GapPolicy,
        checkpointer: Option<Checkpointer>,
    ) -> RecoveredShard {
        let history = shard_checkpoint_history(dir, tenant).unwrap_or_default();
        let had_checkpoints = !history.is_empty();
        let mut snap: Option<ShardSnapshot> = None;
        let mut fallbacks = 0usize;
        let mut last_err: Option<CheckpointError> = None;
        for (_, path) in &history {
            match ShardSnapshot::load(path) {
                Ok(mut s) => {
                    // The server's thread budget wins over whatever the
                    // checkpointed config carried (results are bitwise-
                    // identical at every setting).
                    s.model.set_n_threads(cfg.mr.n_threads);
                    snap = Some(s);
                    break;
                }
                Err(e) => {
                    fallbacks += 1;
                    last_err = Some(e);
                }
            }
        }
        let from_checkpoint = snap.is_some();
        let replay = Wal::recover(dir, tenant).unwrap_or_default();
        let torn_wal = replay.torn;

        let mut shard = match snap {
            Some(s) => Shard::from_snapshot(s, checkpointer),
            None => {
                let wal_restarts_from_zero =
                    replay.frames.first().is_some_and(|f| f.first_step == 0);
                if had_checkpoints && !wal_restarts_from_zero {
                    // Every checkpoint failed and the WAL cannot rebuild
                    // the prefix: refuse traffic rather than serve a
                    // silently different timeline.
                    let cause = last_err.unwrap_or_else(|| {
                        CheckpointError::BadHeader("no checkpoint validated".into())
                    });
                    return RecoveredShard {
                        shard: Shard::corrupt(tenant, &cause),
                        from_checkpoint: false,
                        fallbacks,
                        replayed: 0,
                        torn_wal,
                    };
                }
                Shard::new(tenant, cfg, policy, checkpointer)
            }
        };

        let mut replayed = 0usize;
        for frame in &replay.frames {
            let steps_now = shard.model().map_or(0, IMrDmd::n_steps) as u64;
            if frame.first_step < steps_now {
                // Already inside the restored checkpoint.
                continue;
            }
            let first_step = Some(frame.first_step as usize);
            if shard.absorb(&frame.batch, first_step).is_err() {
                // A gap (stale log vs a newer checkpoint) or a replay
                // fault: stop here and serve what was rebuilt.
                break;
            }
            replayed += 1;
        }
        obs::WAL_REPLAYED.add(replayed as u64);
        RecoveredShard {
            shard,
            from_checkpoint,
            fallbacks,
            replayed,
            torn_wal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_telemetry::{theta, Scenario};
    use imrdmd::{CoreError, MrDmdConfig};

    fn cfg() -> IMrDmdConfig {
        IMrDmdConfig::default()
    }

    #[test]
    fn cold_start_then_rounds() {
        let sc = Scenario::sc_log(theta().scaled(4), 200, 3);
        let mut shard = Shard::new("t0", &cfg(), GapPolicy::Interpolate, None);
        assert_eq!(shard.state(), ShardState::Empty);
        assert!(shard.health().is_err());

        let r0 = shard.ingest(&sc.generate(0, 100), Some(0)).unwrap();
        assert!(r0.cold_start);
        assert_eq!(shard.state(), ShardState::Ready);

        let r1 = shard.ingest(&sc.generate(100, 200), Some(100)).unwrap();
        assert!(!r1.cold_start);
        assert_eq!(r1.steps, 200);
        assert!(r1.report.is_some());
        assert!(shard.health().is_ok());
    }

    #[test]
    fn cold_start_reports_its_repairs() {
        let sc = Scenario::sc_log(theta().scaled(4), 100, 3);
        let mut batch = sc.generate(0, 100);
        batch[(1, 10)] = f64::NAN;
        batch[(2, 0)] = f64::NAN;
        batch[(2, 1)] = f64::NAN;
        let mut shard = Shard::new("t0", &cfg(), GapPolicy::Interpolate, None);
        let r = shard.ingest(&batch, Some(0)).unwrap();
        assert!(r.cold_start);
        assert!(r.report.is_none());
        assert_eq!((r.repairs.gaps, r.repairs.repaired), (3, 3));

        // The snapshot carries the guard's carry, so a shard rebuilt from
        // it repairs a leading gap in the next batch exactly as the
        // original does.
        let mut twin = Shard::from_snapshot(shard.snapshot().unwrap(), None);
        let mut next = sc.generate(100, 200);
        next[(2, 0)] = f64::NAN;
        for s in [&mut shard, &mut twin] {
            let r = s.ingest(&next, Some(100)).unwrap();
            assert_eq!(r.report.unwrap().repairs.gaps, 1);
        }
        assert_eq!(
            serde_json::to_string(&shard.snapshot().unwrap()).unwrap(),
            serde_json::to_string(&twin.snapshot().unwrap()).unwrap()
        );
    }

    #[test]
    fn cold_start_refuses_an_out_of_domain_config() {
        let sc = Scenario::sc_log(theta().scaled(4), 100, 3);
        for mr in [
            MrDmdConfig {
                nyquist_factor: 0,
                ..MrDmdConfig::default()
            },
            MrDmdConfig {
                max_cycles: 0,
                ..MrDmdConfig::default()
            },
        ] {
            let bad = IMrDmdConfig {
                mr,
                ..IMrDmdConfig::default()
            };
            let mut shard = Shard::new("t0", &bad, GapPolicy::Interpolate, None);
            let err = shard.ingest(&sc.generate(0, 100), Some(0)).unwrap_err();
            assert!(
                matches!(err, ServeError::Core(CoreError::InvalidConfig { .. })),
                "{err}"
            );
            assert_eq!(err.status(), 422);
            assert_eq!(shard.state(), ShardState::Empty);
            assert!(shard.snapshot().is_none());
        }
    }

    #[test]
    fn out_of_order_batch_is_409() {
        let sc = Scenario::sc_log(theta().scaled(4), 200, 3);
        let mut shard = Shard::new("t0", &cfg(), GapPolicy::Interpolate, None);
        shard.ingest(&sc.generate(0, 100), Some(0)).unwrap();
        // Redelivering the same window must be refused, not absorbed twice.
        let err = shard.ingest(&sc.generate(0, 100), Some(0)).unwrap_err();
        assert_eq!(err.status(), 409);
    }

    #[test]
    fn corrupt_shard_is_503_not_panic() {
        let cause = CheckpointError::BadHeader("torn".into());
        let mut shard = Shard::corrupt("t9", &cause);
        assert_eq!(shard.state(), ShardState::Corrupt);
        assert_eq!(shard.health().unwrap_err().status(), 503);
        let sc = Scenario::sc_log(theta().scaled(4), 50, 3);
        let err = shard.ingest(&sc.generate(0, 50), None).unwrap_err();
        assert_eq!(err.status(), 503);
        assert!(shard.status().corrupt_cause.is_some());
    }

    #[test]
    fn recovery_keeps_the_checkpointed_config_and_policy() {
        let sc = Scenario::sc_log(theta().scaled(4), 300, 3);
        let dir = std::env::temp_dir().join(format!("imrdmd-shard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ck = || Some(Checkpointer::for_shard(&dir, 1, "t0").unwrap());
        let born = IMrDmdConfig {
            mr: MrDmdConfig {
                dt: sc.dt(),
                ..MrDmdConfig::default()
            },
            ..IMrDmdConfig::default()
        };
        let mut shard = Shard::new("t0", &born, GapPolicy::HoldLast, ck());
        shard.ingest(&sc.generate(0, 100), Some(0)).unwrap();
        shard.ingest(&sc.generate(100, 200), Some(100)).unwrap();

        // The daemon restarts under other flags: a different `dt` and a
        // policy that would refuse the gapped batch below.
        let flags = IMrDmdConfig {
            mr: MrDmdConfig {
                dt: 2.0 * sc.dt(),
                ..MrDmdConfig::default()
            },
            ..IMrDmdConfig::default()
        };
        let rec = Shard::recover(&dir, "t0", &flags, GapPolicy::Reject, ck());
        assert!(rec.from_checkpoint);
        let mut restored = rec.shard;

        let mut gapped = sc.generate(200, 300);
        gapped[(0, 0)] = f64::NAN;
        gapped[(3, 40)] = f64::INFINITY;
        for s in [&mut shard, &mut restored] {
            let reply = s.ingest(&gapped, Some(200)).unwrap();
            assert_eq!((reply.repairs.gaps, reply.repairs.repaired), (2, 2));
            assert_eq!(
                serde_json::to_string(&reply.report.unwrap().repairs).unwrap(),
                serde_json::to_string(&reply.repairs).unwrap()
            );
        }
        let snap = restored.snapshot().unwrap();
        assert_eq!(snap.model.config().mr.dt, sc.dt());
        assert_eq!(snap.guard.policy(), GapPolicy::HoldLast);
        assert_eq!(
            serde_json::to_string(&snap).unwrap(),
            serde_json::to_string(&shard.snapshot().unwrap()).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The newest checkpoint's steps for tenant `t0` in `dir`.
    fn newest_checkpoint(dir: &Path) -> Option<u64> {
        shard_checkpoint_history(dir, "t0")
            .unwrap()
            .first()
            .map(|c| c.0)
    }

    /// Without a healthy WAL (none attached, degraded from birth, or
    /// degraded by this very append) the ack writes its due checkpoint
    /// before it returns. With one, the checkpoint waits for the settle.
    #[test]
    fn ack_checkpoints_first_unless_a_healthy_wal_covers_the_batch() {
        let sc = Scenario::sc_log(theta().scaled(4), 200, 3);
        for case in ["no-wal", "born-degraded", "append-fails", "healthy"] {
            let dir = std::env::temp_dir()
                .join(format!("imrdmd-shard-ack-{case}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let ck = Checkpointer::for_shard(&dir, 1, "t0").unwrap();
            let wal = (case != "no-wal")
                .then(|| Wal::open(&dir, "t0", imrdmd::wal::Durability::Interval).unwrap());
            let mut shard = Shard::new("t0", &cfg(), GapPolicy::Interpolate, Some(ck))
                .with_wal(wal)
                .with_degraded_cause((case == "born-degraded").then(|| "disk full".into()));
            if case == "append-fails" {
                imrdmd::wal::arm_append_failure(1);
            }
            let mut settled = None;
            for lo in [0, 100] {
                let reply = shard.ack(&sc.generate(lo, lo + 100), Some(lo)).unwrap();
                imrdmd::wal::disarm_append_failure();
                let acked = Some(reply.steps as u64);
                let degraded = matches!(case, "born-degraded" | "append-fails");
                assert_eq!(shard.state() == ShardState::DurabilityDegraded, degraded);
                let deferred = case == "healthy";
                assert_eq!(
                    newest_checkpoint(&dir),
                    if deferred { settled } else { acked },
                    "{case}: on disk when the ack returned at step {lo}"
                );
                shard.settle();
                assert_eq!(newest_checkpoint(&dir), acked, "{case}: after the settle");
                settled = acked;
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A settle writes nothing once the newest checkpoint covers the
    /// shard's steps: after a second ack that an earlier settle already
    /// covered, and after `checkpoint_now`. Removing the covering file
    /// shows it: a write would put it back.
    #[test]
    fn settle_writes_nothing_once_the_steps_are_checkpointed() {
        let sc = Scenario::sc_log(theta().scaled(4), 300, 3);
        let dir = std::env::temp_dir().join(format!("imrdmd-shard-settle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ck = Checkpointer::for_shard(&dir, 1, "t0").unwrap();
        let wal = Wal::open(&dir, "t0", imrdmd::wal::Durability::Interval).unwrap();
        let mut shard =
            Shard::new("t0", &cfg(), GapPolicy::Interpolate, Some(ck)).with_wal(Some(wal));
        let covering = |steps: usize| dir.join(format!("ckpt-t0-{steps:012}.ckpt"));

        // Two acks (two connections) before either settles.
        shard.ack(&sc.generate(0, 100), Some(0)).unwrap();
        shard.ack(&sc.generate(100, 200), Some(100)).unwrap();
        shard.settle();
        assert_eq!(newest_checkpoint(&dir), Some(200));
        std::fs::remove_file(covering(200)).unwrap();
        shard.settle();
        assert!(
            !covering(200).exists(),
            "the second settle rewrote step 200"
        );

        // A final checkpoint between an ack and its settle.
        shard.ack(&sc.generate(200, 300), Some(200)).unwrap();
        shard.checkpoint_now().unwrap();
        std::fs::remove_file(covering(300)).unwrap();
        shard.settle();
        assert!(!covering(300).exists(), "the settle rewrote step 300");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Over `3·keep + 1` checkpointed ingests the WAL is rewritten once per
    /// retention window, so it never holds more than `2·keep` frames (one
    /// per checkpoint interval here), always reaches back to the oldest
    /// retained checkpoint, and recovery from the store rebuilds the live
    /// shard bitwise.
    #[test]
    fn wal_is_rewritten_once_per_retention_window() {
        let keep = 3;
        let sc = Scenario::sc_log(theta().scaled(4), 40 * (3 * keep + 2), 5);
        let dir = std::env::temp_dir().join(format!("imrdmd-shard-window-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ck = || {
            Some(
                Checkpointer::for_shard(&dir, 1, "t0")
                    .unwrap()
                    .with_retention(keep),
            )
        };
        let wal = Wal::open(&dir, "t0", imrdmd::wal::Durability::Interval).unwrap();
        let born = IMrDmdConfig {
            mr: MrDmdConfig {
                dt: sc.dt(),
                ..MrDmdConfig::default()
            },
            ..IMrDmdConfig::default()
        };
        let mut shard = Shard::new("t0", &born, GapPolicy::HoldLast, ck()).with_wal(Some(wal));
        let mut frames_seen = Vec::new();
        for k in 0..=3 * keep {
            let lo = 40 * k;
            shard.ingest(&sc.generate(lo, lo + 40), Some(lo)).unwrap();
            let frames = Wal::recover(&dir, "t0").unwrap().frames;
            let history = shard_checkpoint_history(&dir, "t0").unwrap();
            let floor = history.last().unwrap().0;
            assert!(history.len() <= keep);
            assert!(
                frames.len() <= 2 * keep,
                "ingest {k}: {} frames",
                frames.len()
            );
            assert!(frames.iter().any(|f| f.first_step == floor) || floor == lo as u64 + 40);
            frames_seen.push(frames.len());
        }
        // Rewrites on the first save and then every `keep` saves.
        assert_eq!(frames_seen, [0, 1, 2, 2, 3, 4, 2, 3, 4, 2]);
        let rec = Shard::recover(&dir, "t0", &born, GapPolicy::Reject, ck());
        assert!(rec.from_checkpoint);
        assert_eq!(
            serde_json::to_string(&rec.shard.snapshot().unwrap()).unwrap(),
            serde_json::to_string(&shard.snapshot().unwrap()).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
